//===-- flow/Economy.cpp - Virtual organization economics -----------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "flow/Economy.h"
#include "support/Check.h"

#include <algorithm>

using namespace cws;

unsigned Economy::addUser(double Quota) {
  CWS_CHECK(Quota >= 0.0, "quota must be non-negative");
  Accounts.push_back({Quota, 0.0});
  return static_cast<unsigned>(Accounts.size() - 1);
}

const Economy::Account &Economy::account(unsigned User) const {
  CWS_CHECK(User < Accounts.size(), "unknown user");
  return Accounts[User];
}

double Economy::quota(unsigned User) const { return account(User).Quota; }

double Economy::spent(unsigned User) const { return account(User).Spent; }

double Economy::remaining(unsigned User) const {
  const Account &A = account(User);
  return std::max(0.0, A.Quota - A.Spent);
}

bool Economy::canAfford(unsigned User, double Cost) const {
  CWS_CHECK(Cost >= 0.0, "negative cost");
  return remaining(User) + 1e-9 >= Cost;
}

bool Economy::charge(unsigned User, double Cost) {
  if (!canAfford(User, Cost))
    return false;
  Accounts[User].Spent += Cost;
  return true;
}

void Economy::refund(unsigned User, double Amount) {
  CWS_CHECK(Amount >= 0.0, "negative refund");
  Accounts[User].Spent = std::max(0.0, account(User).Spent - Amount);
}

void Economy::grant(unsigned User, double Amount) {
  CWS_CHECK(Amount >= 0.0, "negative grant");
  Accounts[User].Quota += Amount;
}

double Economy::priority(unsigned User) const {
  double Mine = remaining(User);
  double Richest = 0.0;
  for (unsigned I = 0; I < Accounts.size(); ++I)
    Richest = std::max(Richest, remaining(I));
  return Richest > 0.0 ? Mine / Richest : 0.0;
}
