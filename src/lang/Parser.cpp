//===-- lang/Parser.cpp - Job description language parser -----------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "lang/Lexer.h"
#include "support/Check.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>

using namespace cws;

namespace {

bool isStatementKeyword(const Token &T) {
  return T.isKeyword("job") || T.isKeyword("task") || T.isKeyword("edge") ||
         T.isKeyword("node") || T.isKeyword("busy");
}

/// Reads \p Value into \p Out when it is a whole number in [Lo, Hi];
/// false when it is not finite, has a fraction or lies outside.
/// Converting such a double to an integer type is undefined.
bool wholeIn(double Value, int64_t Lo, int64_t Hi, int64_t &Out) {
  // Every double strictly inside (-2^63, 2^63) converts to int64_t.
  constexpr double Limit = 9223372036854775808.0; // 2^63
  if (!(Value > -Limit && Value < Limit) || Value != std::trunc(Value))
    return false;
  auto V = static_cast<int64_t>(Value);
  if (V < Lo || V > Hi)
    return false;
  Out = V;
  return true;
}

/// "<What> must be an integer in [Lo, Hi]".
std::string rangeMessage(const std::string &What, int64_t Lo, int64_t Hi) {
  return What + " must be an integer in [" + std::to_string(Lo) + ", " +
         std::to_string(Hi) + "]";
}

/// Parser state: intermediate declarations are collected first so task
/// and edge order in the source does not matter.
class Parser {
public:
  explicit Parser(std::string_view Text) : Lex(Text) {}

  ParseResult run();

private:
  struct TaskDecl {
    std::string Name;
    Tick Ref = 0;
    double Vol = -1.0; // -1: defaulted to 10 * ref.
    size_t Line, Col;
  };
  struct EdgeDecl {
    std::string Src;
    std::string Dst;
    Tick Transfer = 1;
    size_t Line, Col;
  };
  struct NodeDecl {
    double Perf = 0.0;
    double Price = -1.0; // -1: standard price model.
    size_t Line, Col;
  };
  struct BusyDecl {
    size_t NodeIdx = 0;
    Tick Begin = 0;
    Tick End = 0;
    size_t Line, Col;
  };

  void error(const Token &At, std::string Message) {
    Result.Errors.push_back({At.Line, At.Col, std::move(Message)});
  }

  /// Skips tokens until the next statement keyword (error recovery).
  void synchronize() {
    while (!Lex.peek().is(TokenKind::EndOfInput) &&
           !isStatementKeyword(Lex.peek()))
      Lex.next();
  }

  /// Parses `IDENT NUMBER` attribute pairs until the next statement
  /// keyword; calls \p Apply(name, value, token) per pair. Returns
  /// false after reporting an error.
  template <typename Fn> bool parseAttrs(Fn Apply) {
    while (Lex.peek().is(TokenKind::Identifier) &&
           !isStatementKeyword(Lex.peek())) {
      Token Name = Lex.next();
      Token Value = Lex.next();
      if (!Value.is(TokenKind::Number)) {
        error(Value, "expected number after attribute '" + Name.Text +
                         "', got " + tokenKindName(Value.Kind));
        return false;
      }
      if (!Apply(Name.Text, std::strtod(Value.Text.c_str(), nullptr), Name))
        return false;
    }
    return true;
  }

  void parseJob(const Token &Kw);
  void parseTask(const Token &Kw);
  void parseEdge(const Token &Kw);
  void parseNode(const Token &Kw);
  void parseBusy(const Token &Kw);
  void finalize();

  Lexer Lex;
  ParseResult Result;
  std::string JobName;
  Tick Deadline = TickMax;
  Tick Release = 0;
  unsigned JobId = 0;
  bool SawJobDecl = false;
  std::vector<TaskDecl> Tasks;
  std::vector<EdgeDecl> Edges;
  std::vector<NodeDecl> Nodes;
  std::vector<BusyDecl> BusySlots;
};

void Parser::parseJob(const Token &Kw) {
  if (SawJobDecl)
    error(Kw, "duplicate 'job' declaration");
  SawJobDecl = true;
  if (Lex.peek().is(TokenKind::String) ||
      (Lex.peek().is(TokenKind::Identifier) &&
       !isStatementKeyword(Lex.peek()))) {
    // Optional name... but a bare identifier could also be an attribute
    // name; treat it as a name only when not followed by a number.
    if (Lex.peek().is(TokenKind::String)) {
      JobName = Lex.next().Text;
    }
  }
  parseAttrs([&](const std::string &Name, double Value, const Token &At) {
    if (Name == "deadline") {
      if (!wholeIn(Value, 1, TickMax, Deadline)) {
        error(At, rangeMessage("deadline", 1, TickMax));
        return false;
      }
      return true;
    }
    if (Name == "release") {
      if (!wholeIn(Value, 0, TickMax, Release)) {
        error(At, rangeMessage("release", 0, TickMax));
        return false;
      }
      return true;
    }
    if (Name == "id") {
      constexpr int64_t MaxId = std::numeric_limits<unsigned>::max();
      int64_t Id = 0;
      if (!wholeIn(Value, 0, MaxId, Id)) {
        error(At, rangeMessage("job 'id'", 0, MaxId));
        return false;
      }
      JobId = static_cast<unsigned>(Id);
      return true;
    }
    error(At, "unknown job attribute '" + Name + "'");
    return false;
  });
}

void Parser::parseTask(const Token &Kw) {
  Token Name = Lex.next();
  if (!Name.is(TokenKind::Identifier)) {
    error(Name, "expected task name after 'task'");
    synchronize();
    return;
  }
  TaskDecl Decl;
  Decl.Name = Name.Text;
  Decl.Line = Kw.Line;
  Decl.Col = Kw.Col;
  bool Ok =
      parseAttrs([&](const std::string &Attr, double Value, const Token &At) {
        if (Attr == "ref") {
          if (!wholeIn(Value, 1, TickMax, Decl.Ref)) {
            error(At, rangeMessage("task 'ref'", 1, TickMax));
            return false;
          }
          return true;
        }
        if (Attr == "vol") {
          Decl.Vol = Value;
          if (!std::isfinite(Decl.Vol) || Decl.Vol < 0) {
            error(At, "task 'vol' must be finite and non-negative");
            return false;
          }
          return true;
        }
        error(At, "unknown task attribute '" + Attr + "'");
        return false;
      });
  if (!Ok) {
    synchronize();
    return;
  }
  if (Decl.Ref == 0) {
    error(Name, "task '" + Decl.Name + "' is missing the required 'ref'");
    return;
  }
  Tasks.push_back(std::move(Decl));
}

void Parser::parseEdge(const Token &Kw) {
  Token Src = Lex.next();
  if (!Src.is(TokenKind::Identifier)) {
    error(Src, "expected source task name after 'edge'");
    synchronize();
    return;
  }
  Token Arrow = Lex.next();
  if (!Arrow.is(TokenKind::Arrow)) {
    error(Arrow, "expected '->' in edge declaration");
    synchronize();
    return;
  }
  Token Dst = Lex.next();
  if (!Dst.is(TokenKind::Identifier)) {
    error(Dst, "expected destination task name after '->'");
    synchronize();
    return;
  }
  EdgeDecl Decl;
  Decl.Src = Src.Text;
  Decl.Dst = Dst.Text;
  Decl.Line = Kw.Line;
  Decl.Col = Kw.Col;
  bool Ok =
      parseAttrs([&](const std::string &Attr, double Value, const Token &At) {
        if (Attr == "transfer") {
          if (!wholeIn(Value, 0, TickMax, Decl.Transfer)) {
            error(At, rangeMessage("edge 'transfer'", 0, TickMax));
            return false;
          }
          return true;
        }
        error(At, "unknown edge attribute '" + Attr + "'");
        return false;
      });
  if (!Ok) {
    synchronize();
    return;
  }
  Edges.push_back(std::move(Decl));
}

void Parser::parseNode(const Token &Kw) {
  NodeDecl Decl;
  Decl.Line = Kw.Line;
  Decl.Col = Kw.Col;
  bool Ok =
      parseAttrs([&](const std::string &Attr, double Value, const Token &At) {
        if (Attr == "perf") {
          Decl.Perf = Value;
          if (!std::isfinite(Decl.Perf) || Decl.Perf <= 0.0) {
            error(At, "node 'perf' must be finite and positive");
            return false;
          }
          return true;
        }
        if (Attr == "price") {
          Decl.Price = Value;
          if (!std::isfinite(Decl.Price) || Decl.Price < 0.0) {
            error(At, "node 'price' must be finite and non-negative");
            return false;
          }
          return true;
        }
        error(At, "unknown node attribute '" + Attr + "'");
        return false;
      });
  if (!Ok) {
    synchronize();
    return;
  }
  if (Decl.Perf <= 0.0) {
    error(Kw, "node declaration is missing the required 'perf'");
    return;
  }
  Nodes.push_back(Decl);
}

void Parser::parseBusy(const Token &Kw) {
  // busy NODE BEGIN END — a pre-existing reservation of the scenario.
  Tick Values[3] = {0, 0, 0};
  bool Whole = true;
  for (Tick &V : Values) {
    Token T = Lex.next();
    if (!T.is(TokenKind::Number)) {
      error(T, "expected number in 'busy <node> <begin> <end>'");
      synchronize();
      return;
    }
    Whole &= wholeIn(std::strtod(T.Text.c_str(), nullptr), 0, TickMax, V);
  }
  if (!Whole || Values[1] >= Values[2]) {
    error(Kw, "'busy' needs integers node >= 0 and 0 <= begin < end <= " +
                  std::to_string(TickMax));
    return;
  }
  BusyDecl Decl;
  Decl.NodeIdx = static_cast<size_t>(Values[0]);
  Decl.Begin = Values[1];
  Decl.End = Values[2];
  Decl.Line = Kw.Line;
  Decl.Col = Kw.Col;
  BusySlots.push_back(Decl);
}

void Parser::finalize() {
  std::map<std::string, unsigned> TaskIds;
  Result.TheJob.setId(JobId);
  for (const auto &Decl : Tasks) {
    if (TaskIds.count(Decl.Name)) {
      Result.Errors.push_back(
          {Decl.Line, Decl.Col, "duplicate task '" + Decl.Name + "'"});
      continue;
    }
    double Vol = Decl.Vol >= 0.0 ? Decl.Vol
                                 : 10.0 * static_cast<double>(Decl.Ref);
    TaskIds[Decl.Name] = Result.TheJob.addTask(Decl.Name, Decl.Ref, Vol);
  }
  for (const auto &Decl : Edges) {
    auto SrcIt = TaskIds.find(Decl.Src);
    auto DstIt = TaskIds.find(Decl.Dst);
    if (SrcIt == TaskIds.end()) {
      Result.Errors.push_back(
          {Decl.Line, Decl.Col, "edge references unknown task '" +
                                    Decl.Src + "'"});
      continue;
    }
    if (DstIt == TaskIds.end()) {
      Result.Errors.push_back(
          {Decl.Line, Decl.Col, "edge references unknown task '" +
                                    Decl.Dst + "'"});
      continue;
    }
    if (SrcIt->second == DstIt->second) {
      Result.Errors.push_back(
          {Decl.Line, Decl.Col, "self-dependency on task '" + Decl.Src +
                                    "'"});
      continue;
    }
    Result.TheJob.addEdge(SrcIt->second, DstIt->second, Decl.Transfer);
  }
  Result.TheJob.setRelease(Release);
  Result.TheJob.setDeadline(Deadline);
  if (Deadline <= Release && SawJobDecl)
    Result.Errors.push_back({1, 1, "deadline must be after release"});
  if (!Result.TheJob.isAcyclic())
    Result.Errors.push_back({1, 1, "the task graph has a cycle"});
  Result.HasJob = SawJobDecl || !Tasks.empty();

  for (const auto &Decl : Nodes) {
    if (Decl.Price >= 0.0)
      Result.Env.addNodePriced(Decl.Perf, Decl.Price);
    else
      Result.Env.addNode(Decl.Perf);
  }
  Result.HasEnv = !Nodes.empty();
  for (const auto &Decl : BusySlots) {
    if (Decl.NodeIdx >= Result.Env.size()) {
      Result.Errors.push_back(
          {Decl.Line, Decl.Col,
           "'busy' references node " + std::to_string(Decl.NodeIdx) +
               " but only " + std::to_string(Result.Env.size()) +
               " nodes are declared"});
      continue;
    }
    // Owner 1 marks pre-existing independent load (BackgroundOwner).
    if (!Result.Env.node(static_cast<unsigned>(Decl.NodeIdx))
             .timeline()
             .reserve(Decl.Begin, Decl.End, 1))
      Result.Errors.push_back(
          {Decl.Line, Decl.Col, "'busy' interval overlaps an earlier one"});
  }
}

ParseResult Parser::run() {
  while (true) {
    Token T = Lex.next();
    if (T.is(TokenKind::EndOfInput))
      break;
    if (T.is(TokenKind::Error)) {
      error(T, "invalid character or token '" + T.Text + "'");
      synchronize();
      continue;
    }
    if (T.isKeyword("job")) {
      parseJob(T);
    } else if (T.isKeyword("task")) {
      parseTask(T);
    } else if (T.isKeyword("edge")) {
      parseEdge(T);
    } else if (T.isKeyword("node")) {
      parseNode(T);
    } else if (T.isKeyword("busy")) {
      parseBusy(T);
    } else {
      error(T, "expected 'job', 'task', 'edge', 'node' or 'busy', got '" +
                   T.Text + "'");
      synchronize();
    }
  }
  finalize();
  return std::move(Result);
}

} // namespace

ParseResult cws::parseJobDescription(std::string_view Text) {
  return Parser(Text).run();
}

std::string cws::printJobDescription(const Job &J) {
  std::string Out;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "job id %u release %lld deadline %lld\n", J.id(),
                static_cast<long long>(J.release()),
                static_cast<long long>(J.deadline()));
  Out += Buf;
  for (const auto &T : J.tasks()) {
    std::snprintf(Buf, sizeof(Buf), "task %s ref %lld vol %g\n",
                  T.Name.c_str(), static_cast<long long>(T.RefTicks),
                  T.Volume);
    Out += Buf;
  }
  for (const auto &E : J.edges()) {
    std::snprintf(Buf, sizeof(Buf), "edge %s -> %s transfer %lld\n",
                  J.task(E.Src).Name.c_str(), J.task(E.Dst).Name.c_str(),
                  static_cast<long long>(E.BaseTransfer));
    Out += Buf;
  }
  return Out;
}

std::string cws::formatDiagnostics(const std::vector<Diagnostic> &Diags) {
  std::string Out;
  for (const auto &D : Diags) {
    Out += std::to_string(D.Line) + ":" + std::to_string(D.Col) + ": " +
           D.Message + "\n";
  }
  return Out;
}
