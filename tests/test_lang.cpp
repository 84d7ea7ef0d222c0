//===-- tests/test_lang.cpp - Description language tests ------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "job/Generator.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

using namespace cws;

// --- Lexer ---

TEST(Lexer, EmptyInput) {
  Lexer L("");
  EXPECT_TRUE(L.next().is(TokenKind::EndOfInput));
}

TEST(Lexer, IdentifiersNumbersStrings) {
  Lexer L("task a1 ref 4 vol 2.5 \"hello\"");
  EXPECT_TRUE(L.next().isKeyword("task"));
  Token A = L.next();
  EXPECT_TRUE(A.is(TokenKind::Identifier));
  EXPECT_EQ(A.Text, "a1");
  EXPECT_TRUE(L.next().isKeyword("ref"));
  Token N = L.next();
  EXPECT_TRUE(N.is(TokenKind::Number));
  EXPECT_EQ(N.Text, "4");
  L.next(); // vol
  EXPECT_EQ(L.next().Text, "2.5");
  Token S = L.next();
  EXPECT_TRUE(S.is(TokenKind::String));
  EXPECT_EQ(S.Text, "hello");
  EXPECT_TRUE(L.next().is(TokenKind::EndOfInput));
}

TEST(Lexer, ArrowWithAndWithoutSpaces) {
  Lexer A("a -> b");
  A.next();
  EXPECT_TRUE(A.next().is(TokenKind::Arrow));
  Lexer B("a->b");
  EXPECT_EQ(B.next().Text, "a");
  EXPECT_TRUE(B.next().is(TokenKind::Arrow));
  EXPECT_EQ(B.next().Text, "b");
}

TEST(Lexer, CommentsAndSeparatorsAreSkipped) {
  Lexer L("# a comment\n task , x ; ref 1 # trailing\n");
  EXPECT_TRUE(L.next().isKeyword("task"));
  EXPECT_EQ(L.next().Text, "x");
  EXPECT_TRUE(L.next().isKeyword("ref"));
  EXPECT_EQ(L.next().Text, "1");
  EXPECT_TRUE(L.next().is(TokenKind::EndOfInput));
}

TEST(Lexer, NegativeNumbers) {
  Lexer L("release -3");
  L.next();
  Token N = L.next();
  EXPECT_TRUE(N.is(TokenKind::Number));
  EXPECT_EQ(N.Text, "-3");
}

TEST(Lexer, LocationsAreTracked) {
  Lexer L("task a\nedge b");
  Token T1 = L.next();
  EXPECT_EQ(T1.Line, 1u);
  EXPECT_EQ(T1.Col, 1u);
  L.next();
  Token T3 = L.next();
  EXPECT_EQ(T3.Line, 2u);
  EXPECT_EQ(T3.Col, 1u);
}

TEST(Lexer, UnterminatedStringIsError) {
  Lexer L("\"oops");
  EXPECT_TRUE(L.next().is(TokenKind::Error));
}

TEST(Lexer, InvalidCharacterIsError) {
  Lexer L("@");
  Token T = L.next();
  EXPECT_TRUE(T.is(TokenKind::Error));
  EXPECT_EQ(T.Text, "@");
}

TEST(Lexer, PeekDoesNotConsume) {
  Lexer L("task");
  EXPECT_TRUE(L.peek().isKeyword("task"));
  EXPECT_TRUE(L.peek().isKeyword("task"));
  EXPECT_TRUE(L.next().isKeyword("task"));
  EXPECT_TRUE(L.next().is(TokenKind::EndOfInput));
}

TEST(Lexer, MacroTaskNamesWithPlus) {
  Lexer L("task P1+2 ref 5");
  L.next();
  EXPECT_EQ(L.next().Text, "P1+2");
}

// --- Parser ---

TEST(Parser, MinimalJob) {
  ParseResult R = parseJobDescription(R"(
    job "wf" deadline 30
    task a ref 2 vol 20
    task b ref 4
    edge a -> b transfer 2
  )");
  ASSERT_TRUE(R.ok()) << formatDiagnostics(R.Errors);
  EXPECT_TRUE(R.HasJob);
  EXPECT_FALSE(R.HasEnv);
  EXPECT_EQ(R.TheJob.taskCount(), 2u);
  EXPECT_EQ(R.TheJob.edgeCount(), 1u);
  EXPECT_EQ(R.TheJob.deadline(), 30);
  EXPECT_EQ(R.TheJob.task(0).Name, "a");
  EXPECT_DOUBLE_EQ(R.TheJob.task(0).Volume, 20.0);
  // vol defaults to 10 * ref.
  EXPECT_DOUBLE_EQ(R.TheJob.task(1).Volume, 40.0);
  EXPECT_EQ(R.TheJob.edge(0).BaseTransfer, 2);
}

TEST(Parser, DeclarationOrderDoesNotMatter) {
  ParseResult R = parseJobDescription(R"(
    edge a -> b
    task b ref 1
    task a ref 1
  )");
  ASSERT_TRUE(R.ok()) << formatDiagnostics(R.Errors);
  EXPECT_EQ(R.TheJob.edgeCount(), 1u);
}

TEST(Parser, NodesBuildAGrid) {
  ParseResult R = parseJobDescription(R"(
    node perf 1.0
    node perf 0.5 price 3.5
  )");
  ASSERT_TRUE(R.ok()) << formatDiagnostics(R.Errors);
  EXPECT_TRUE(R.HasEnv);
  ASSERT_EQ(R.Env.size(), 2u);
  EXPECT_DOUBLE_EQ(R.Env.node(0).relPerf(), 1.0);
  EXPECT_DOUBLE_EQ(R.Env.node(1).pricePerTick(), 3.5);
}

TEST(Parser, DefaultEdgeTransferIsOne) {
  ParseResult R = parseJobDescription("task a ref 1\ntask b ref 1\n"
                                      "edge a -> b");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.TheJob.edge(0).BaseTransfer, 1);
}

TEST(Parser, ReportsUnknownTask) {
  ParseResult R = parseJobDescription("task a ref 1\nedge a -> ghost");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(formatDiagnostics(R.Errors).find("unknown task 'ghost'"),
            std::string::npos);
}

TEST(Parser, ReportsDuplicateTask) {
  ParseResult R = parseJobDescription("task a ref 1\ntask a ref 2");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(formatDiagnostics(R.Errors).find("duplicate task 'a'"),
            std::string::npos);
}

TEST(Parser, ReportsCycle) {
  ParseResult R = parseJobDescription(
      "task a ref 1\ntask b ref 1\nedge a -> b\nedge b -> a");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(formatDiagnostics(R.Errors).find("cycle"), std::string::npos);
}

TEST(Parser, ReportsMissingRef) {
  ParseResult R = parseJobDescription("task a vol 10");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(formatDiagnostics(R.Errors).find("missing the required 'ref'"),
            std::string::npos);
}

TEST(Parser, ReportsBadAttributeValue) {
  ParseResult R = parseJobDescription("task a ref banana");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(formatDiagnostics(R.Errors).find("expected number"),
            std::string::npos);

  // Numbers that are not finite, have a fraction where the field is an
  // integer, or lie outside the field's range are errors, never a
  // wrapped or truncated value (converting them is undefined).
  const std::string Huge(400, '9'); // Parses to an infinity.
  const std::pair<std::string, const char *> Cases[] = {
      {"job deadline 100000000000000000000000", "deadline"},
      {"job deadline 2.5", "deadline"},
      {"job release 2.5", "release"},
      {"job id -1", "'id'"},
      {"job id 10000000000", "'id'"},
      {"task a ref 99999999999999999999", "'ref'"},
      {"task a ref 2.7", "'ref'"},
      {"task a ref 1 vol " + Huge, "'vol'"},
      {"task a ref 1\ntask b ref 1\nedge a -> b transfer 1.5", "'transfer'"},
      {"node perf " + Huge, "'perf'"},
      {"node perf 1 price " + Huge, "'price'"},
      {"node perf 1.0\nbusy 0 0 99999999999999999999", "'busy'"},
      {"node perf 1.0\nbusy 0.5 0 10", "'busy'"},
  };
  for (const auto &[Text, Names] : Cases) {
    ParseResult Bad = parseJobDescription(Text);
    ASSERT_FALSE(Bad.ok()) << Text;
    EXPECT_NE(formatDiagnostics(Bad.Errors).find(Names), std::string::npos)
        << Text << "\n" << formatDiagnostics(Bad.Errors);
  }
}

TEST(Parser, ReportsUnknownAttribute) {
  ParseResult R = parseJobDescription("task a ref 1 color 7");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(formatDiagnostics(R.Errors).find("unknown task attribute"),
            std::string::npos);
}

TEST(Parser, RecoversAndReportsMultipleErrors) {
  ParseResult R = parseJobDescription(R"(
    task a ref banana
    task b ref 2
    edge b -> ghost
  )");
  ASSERT_FALSE(R.ok());
  EXPECT_GE(R.Errors.size(), 2u);
  // b was still parsed despite a's error.
  EXPECT_EQ(R.TheJob.taskCount(), 1u);
}

TEST(Parser, DiagnosticLocationsPointAtTheProblem) {
  ParseResult R = parseJobDescription("task a ref 1\nedge a -> ghost");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Errors[0].Line, 2u);
}

TEST(Parser, SelfEdgeIsRejected) {
  ParseResult R = parseJobDescription("task a ref 1\nedge a -> a");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(formatDiagnostics(R.Errors).find("self-dependency"),
            std::string::npos);
}

TEST(Parser, DuplicateJobDeclarationIsRejected) {
  ParseResult R = parseJobDescription("job deadline 5\njob deadline 6\n"
                                      "task a ref 1");
  ASSERT_FALSE(R.ok());
}

TEST(Parser, BusyDeclarationsPreloadTheGrid) {
  ParseResult R = parseJobDescription(R"(
    node perf 1.0
    node perf 0.5
    busy 0 10 20
    busy 1 0 5
  )");
  ASSERT_TRUE(R.ok()) << formatDiagnostics(R.Errors);
  EXPECT_FALSE(R.Env.node(0).timeline().isFree(10, 20));
  EXPECT_TRUE(R.Env.node(0).timeline().isFree(0, 10));
  EXPECT_FALSE(R.Env.node(1).timeline().isFree(0, 5));
}

TEST(Parser, BusyRejectsUnknownNode) {
  ParseResult R = parseJobDescription("node perf 1.0\nbusy 5 0 10");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(formatDiagnostics(R.Errors).find("references node 5"),
            std::string::npos);
}

TEST(Parser, BusyRejectsBadInterval) {
  ParseResult R = parseJobDescription("node perf 1.0\nbusy 0 10 10");
  ASSERT_FALSE(R.ok());
}

TEST(Parser, BusyRejectsOverlap) {
  ParseResult R = parseJobDescription(
      "node perf 1.0\nbusy 0 0 10\nbusy 0 5 15");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(formatDiagnostics(R.Errors).find("overlaps"),
            std::string::npos);
}

TEST(Parser, BusyRejectsNonNumbers) {
  ParseResult R = parseJobDescription("node perf 1.0\nbusy 0 start end");
  ASSERT_FALSE(R.ok());
}

TEST(Parser, Fig2JobRoundTrips) {
  Job Original = makeFig2Job();
  std::string Text = printJobDescription(Original);
  ParseResult R = parseJobDescription(Text);
  ASSERT_TRUE(R.ok()) << formatDiagnostics(R.Errors);
  ASSERT_EQ(R.TheJob.taskCount(), Original.taskCount());
  ASSERT_EQ(R.TheJob.edgeCount(), Original.edgeCount());
  EXPECT_EQ(R.TheJob.deadline(), Original.deadline());
  for (unsigned T = 0; T < Original.taskCount(); ++T) {
    EXPECT_EQ(R.TheJob.task(T).Name, Original.task(T).Name);
    EXPECT_EQ(R.TheJob.task(T).RefTicks, Original.task(T).RefTicks);
    EXPECT_DOUBLE_EQ(R.TheJob.task(T).Volume, Original.task(T).Volume);
  }
  EXPECT_EQ(R.TheJob.criticalPathRefTicks(),
            Original.criticalPathRefTicks());
}

TEST(Parser, GeneratedJobsRoundTrip) {
  JobGenerator Gen(WorkloadConfig{}, 77);
  for (int I = 0; I < 20; ++I) {
    Job Original = Gen.next(3);
    ParseResult R = parseJobDescription(printJobDescription(Original));
    ASSERT_TRUE(R.ok()) << formatDiagnostics(R.Errors);
    EXPECT_EQ(R.TheJob.taskCount(), Original.taskCount());
    EXPECT_EQ(R.TheJob.edgeCount(), Original.edgeCount());
    EXPECT_EQ(R.TheJob.release(), Original.release());
    EXPECT_EQ(R.TheJob.deadline(), Original.deadline());
    EXPECT_EQ(R.TheJob.criticalPathRefTicks(),
              Original.criticalPathRefTicks());
  }
}
