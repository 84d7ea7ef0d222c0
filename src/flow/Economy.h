//===-- flow/Economy.h - Virtual organization economics ---------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The quota economy of the virtual organization. Costs "are not
/// calculated in real money, but in some conventional units (quotas)";
/// users pay more for faster nodes and earlier starts, and a user's
/// dynamic priority follows the quota they have left.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_FLOW_ECONOMY_H
#define CWS_FLOW_ECONOMY_H

#include <cstddef>
#include <vector>

namespace cws {

/// Quota accounts of a virtual organization's users.
class Economy {
public:
  /// Opens an account with \p Quota conventional units; returns its id.
  unsigned addUser(double Quota);

  size_t userCount() const { return Accounts.size(); }

  double quota(unsigned User) const;
  double spent(unsigned User) const;
  double remaining(unsigned User) const;

  /// True when the user still has \p Cost units available.
  bool canAfford(unsigned User, double Cost) const;

  /// Debits \p Cost; fails (no-op, returns false) beyond the quota.
  bool charge(unsigned User, double Cost);

  /// Credits \p Amount back (e.g. a cancelled reservation).
  void refund(unsigned User, double Amount);

  /// Grants additional quota (the "dynamic priority change" lever: a
  /// user raising the execution cost they can pay).
  void grant(unsigned User, double Amount);

  /// Dynamic priority in [0, 1]: the user's share of remaining quota
  /// relative to the richest user. 0 when everyone is broke.
  double priority(unsigned User) const;

private:
  struct Account {
    double Quota;
    double Spent;
  };
  const Account &account(unsigned User) const;

  std::vector<Account> Accounts;
};

} // namespace cws

#endif // CWS_FLOW_ECONOMY_H
