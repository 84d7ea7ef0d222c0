//===-- tests/test_support.cpp - Table and Flags unit tests ---------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "support/Flags.h"
#include "support/Table.h"
#include "support/Text.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

using namespace cws;

TEST(Table, AlignsColumns) {
  Table T({"name", "value"});
  T.addRow({"x", "1"});
  T.addRow({"longer-name", "22"});
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("| name        | value |"), std::string::npos);
  EXPECT_NE(Out.find("| longer-name | 22    |"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table T({"a", "b", "c"});
  T.addRow({"1"});
  std::ostringstream OS;
  T.print(OS);
  // Three cells rendered even though only one was provided.
  EXPECT_NE(OS.str().find("| 1 |   |   |"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
  EXPECT_EQ(Table::num(-1.5, 1), "-1.5");
}

TEST(Flags, ParsesEqualsForm) {
  int64_t Jobs = 0;
  double Rate = 0.0;
  std::string Name;
  Flags F;
  F.addInt("jobs", &Jobs, "job count");
  F.addReal("rate", &Rate, "rate");
  F.addString("name", &Name, "name");
  const char *Argv[] = {"prog", "--jobs=120", "--rate=0.5", "--name=s1"};
  EXPECT_TRUE(F.parse(4, const_cast<char **>(Argv)));
  EXPECT_EQ(Jobs, 120);
  EXPECT_DOUBLE_EQ(Rate, 0.5);
  EXPECT_EQ(Name, "s1");
}

TEST(Flags, ParsesSpaceForm) {
  int64_t Jobs = 0;
  Flags F;
  F.addInt("jobs", &Jobs, "job count");
  const char *Argv[] = {"prog", "--jobs", "77"};
  EXPECT_TRUE(F.parse(3, const_cast<char **>(Argv)));
  EXPECT_EQ(Jobs, 77);
}

TEST(Flags, HelpReturnsFalse) {
  Flags F;
  const char *Argv[] = {"prog", "--help"};
  EXPECT_FALSE(F.parse(2, const_cast<char **>(Argv)));
}

TEST(Flags, NoArgsKeepsDefaults) {
  int64_t Jobs = 42;
  Flags F;
  F.addInt("jobs", &Jobs, "job count");
  const char *Argv[] = {"prog"};
  EXPECT_TRUE(F.parse(1, const_cast<char **>(Argv)));
  EXPECT_EQ(Jobs, 42);
}

TEST(Flags, LaterFlagWins) {
  int64_t Jobs = 0;
  Flags F;
  F.addInt("jobs", &Jobs, "job count");
  const char *Argv[] = {"prog", "--jobs=1", "--jobs=2"};
  EXPECT_TRUE(F.parse(3, const_cast<char **>(Argv)));
  EXPECT_EQ(Jobs, 2);
}

TEST(Flags, RejectsBadValuesWithExitCode2) {
  int64_t Jobs = 0;
  double Slack = 1.0;
  std::string Strategy = "S1";
  Flags F;
  F.addInt("jobs", &Jobs, "job count", /*AtLeast=*/0);
  F.addReal("slack", &Slack, "deadline slack", /*Above=*/0);
  F.addString("strategy", &Strategy, "strategy", {"S1", "S2"});
  auto Parse = [&F](const char *Name, const char *Value) {
    const char *Argv[] = {"prog", Name, Value};
    return F.parse(3, const_cast<char **>(Argv));
  };
  EXPECT_EXIT(Parse("--jobs", "abc"), ::testing::ExitedWithCode(2),
              "takes an integer");
  EXPECT_EXIT(Parse("--jobs", "-3"), ::testing::ExitedWithCode(2),
              "must be >= 0");
  EXPECT_EXIT(Parse("--slack", "0"), ::testing::ExitedWithCode(2),
              "must be > 0");
  EXPECT_EXIT(Parse("--slack", "x"), ::testing::ExitedWithCode(2),
              "takes a number");
  // An out-of-range value reads as no number at all.
  EXPECT_EXIT(Parse("--slack", "1e999"), ::testing::ExitedWithCode(2),
              "takes a number, got '1e999'");
  EXPECT_EXIT(Parse("--strategy", "S9"), ::testing::ExitedWithCode(2),
              "takes S1\\|S2");
  EXPECT_TRUE(Parse("--jobs", "0"));
  EXPECT_TRUE(Parse("--slack", "0.5"));
  EXPECT_TRUE(Parse("--strategy", "S2"));
  EXPECT_EQ(Jobs, 0);
  EXPECT_DOUBLE_EQ(Slack, 0.5);
  EXPECT_EQ(Strategy, "S2");
}

TEST(Flags, RejectsValuesAboveTheUpperBoundAndNonFiniteReals) {
  int64_t Csv = 0;
  double Slack = 1.0;
  double Rate = 0.0;
  Flags F;
  F.addInt("csv", &Csv, "0/1 switch", /*AtLeast=*/0, /*AtMost=*/1);
  F.addReal("slack", &Slack, "deadline slack", /*Above=*/0, /*AtMost=*/1e6);
  F.addReal("rate", &Rate, "unbounded rate");
  auto Parse = [&F](const char *Name, const char *Value) {
    const char *Argv[] = {"prog", Name, Value};
    return F.parse(3, const_cast<char **>(Argv));
  };
  EXPECT_EXIT(Parse("--csv", "5"), ::testing::ExitedWithCode(2),
              "must be <= 1");
  EXPECT_EXIT(Parse("--csv", "-1"), ::testing::ExitedWithCode(2),
              "must be >= 0");
  EXPECT_EXIT(Parse("--slack", "1e300"), ::testing::ExitedWithCode(2),
              "must be <= 1e\\+06");
  for (const char *Value : {"inf", "-inf", "nan", "infinity"})
    EXPECT_EXIT(Parse("--rate", Value), ::testing::ExitedWithCode(2),
                "takes a finite number")
        << Value;
  EXPECT_TRUE(Parse("--csv", "1"));
  EXPECT_TRUE(Parse("--slack", "1e6"));
  EXPECT_TRUE(Parse("--rate", "-1e300"));
  EXPECT_EQ(Csv, 1);
  EXPECT_DOUBLE_EQ(Slack, 1e6);
  EXPECT_DOUBLE_EQ(Rate, -1e300);
}

TEST(Flags, HandsOperandsToACallerThatAsksForThem) {
  int64_t Jobs = 0;
  bool Quick = false;
  Flags F;
  F.addInt("jobs", &Jobs, "job count");
  F.addBool("quick", &Quick, "switch");
  const char *Argv[] = {"prog", "a.jsonl", "--jobs", "3",
                        "--quick", "b.jsonl", "--jobs=4"};
  std::vector<std::string> Operands;
  EXPECT_TRUE(F.parse(7, const_cast<char **>(Argv), &Operands));
  EXPECT_EQ(Operands, (std::vector<std::string>{"a.jsonl", "b.jsonl"}));
  EXPECT_EQ(Jobs, 4);
  EXPECT_TRUE(Quick);
  // A caller that takes no operands rejects them.
  EXPECT_EXIT(F.parse(7, const_cast<char **>(Argv)),
              ::testing::ExitedWithCode(2), "unexpected positional argument");
}

TEST(LineReader, StripsCarriageReturnsAndNumbersLinesFromOne) {
  std::string Text = "a,b\r\n\r\nlast";
  LineReader In(Text);
  std::vector<std::string> Lines;
  while (In.next())
    Lines.push_back(In.line());
  EXPECT_EQ(Lines, (std::vector<std::string>{"a,b", "", "last"}));
  EXPECT_EQ(In.number(), 3u);
  EXPECT_EQ(In.error("expected header"), "line 3: expected header");
  // A final newline ends the last line; it starts no empty one.
  std::string Lf = "x\n";
  LineReader One(Lf);
  ASSERT_TRUE(One.next());
  EXPECT_EQ(One.line(), "x");
  EXPECT_FALSE(One.next());
  std::string Empty;
  EXPECT_FALSE(LineReader(Empty).next());
}

TEST(SplitFields, KeepsEmptyFieldsUnlessAskedToSkipThem) {
  EXPECT_EQ(splitFields("a,,b", ","),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(splitFields("", ","), (std::vector<std::string>{""}));
  EXPECT_EQ(splitFields("  axis \t jobs 1 ", " \t", /*SkipEmpty=*/true),
            (std::vector<std::string>{"axis", "jobs", "1"}));
  EXPECT_TRUE(splitFields(" \t", " \t", /*SkipEmpty=*/true).empty());
}

TEST(NumberReader, TakesAWholeFieldOrNothing) {
  int64_t I = 7;
  EXPECT_TRUE(parseInt("-42", I));
  EXPECT_EQ(I, -42);
  for (const char *Bad : {"", "12x", "1.5", "x", "99999999999999999999",
                          "-99999999999999999999"}) {
    EXPECT_FALSE(parseInt(Bad, I)) << Bad;
    EXPECT_EQ(I, -42) << Bad;
  }
  uint64_t U = 7;
  EXPECT_TRUE(parseUint("18446744073709551615", U));
  EXPECT_EQ(U, UINT64_MAX);
  // A count takes digits only: strtoull alone would wrap a sign.
  for (const char *Bad : {"", "-1", "+1", " 1", "1 ", "abc",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parseUint(Bad, U)) << Bad;
    EXPECT_EQ(U, UINT64_MAX) << Bad;
  }
  double R = 0.0;
  EXPECT_TRUE(parseReal("2.5e-3", R));
  EXPECT_DOUBLE_EQ(R, 2.5e-3);
  for (const char *Bad : {"", "0.5x", "x", "1e999"}) {
    EXPECT_FALSE(parseReal(Bad, R)) << Bad;
    EXPECT_DOUBLE_EQ(R, 2.5e-3) << Bad;
  }
  // A non-finite value is refused but still read, so a caller can say
  // which rule it broke.
  for (const char *NonFinite : {"nan", "inf", "-inf", "infinity"}) {
    EXPECT_FALSE(parseReal(NonFinite, R)) << NonFinite;
    EXPECT_FALSE(std::isfinite(R)) << NonFinite;
  }
}
