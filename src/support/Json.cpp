//===-- support/Json.cpp - Minimal JSON value tree ------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace cws {
namespace json {

const Value *Value::find(const std::string &Name) const {
  if (!isObject())
    return nullptr;
  for (const auto &Member : Obj)
    if (Member.first == Name)
      return &Member.second;
  return nullptr;
}

bool Value::getNumber(const std::string &Name, double &Out) const {
  const Value *V = find(Name);
  if (!V || !V->isNumber())
    return false;
  Out = V->Num;
  return true;
}

bool Value::getString(const std::string &Name, std::string &Out) const {
  const Value *V = find(Name);
  if (!V || !V->isString())
    return false;
  Out = V->Str;
  return true;
}

bool Value::getInt(int64_t &Out) const {
  if (!HasInt)
    return false;
  Out = Int;
  return true;
}

bool Value::getUint(uint64_t &Out) const {
  if (!HasUint)
    return false;
  Out = Uint;
  return true;
}

bool Value::getInt(const std::string &Name, int64_t &Out) const {
  const Value *V = find(Name);
  return V && V->getInt(Out);
}

bool Value::getUint(const std::string &Name, uint64_t &Out) const {
  const Value *V = find(Name);
  return V && V->getUint(Out);
}

namespace {

/// Recursive-descent parser over the raw text. Depth is bounded to keep
/// hostile inputs from exhausting the stack.
class Parser {
public:
  Parser(const std::string &Text, std::string &Error)
      : Text(Text), Error(Error) {}

  bool run(Value &Out) {
    skipWs();
    if (!parseValue(Out, 0))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing content after the top-level value");
    return true;
  }

private:
  static constexpr int MaxDepth = 64;

  bool fail(const std::string &What) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%zu", Pos);
    Error = "json: " + What + " at byte " + Buf;
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t Len = 0;
    while (Word[Len])
      ++Len;
    if (Text.compare(Pos, Len, Word) != 0)
      return fail(std::string("expected '") + Word + "'");
    Pos += Len;
    return true;
  }

  bool parseString(std::string &Out) {
    if (Pos >= Text.size() || Text[Pos] != '"')
      return fail("expected '\"'");
    ++Pos;
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("raw control character in string");
      if (C != '\\') {
        Out.push_back(C);
        continue;
      }
      if (Pos >= Text.size())
        break;
      char E = Text[Pos++];
      switch (E) {
      case '"': Out.push_back('"'); break;
      case '\\': Out.push_back('\\'); break;
      case '/': Out.push_back('/'); break;
      case 'b': Out.push_back('\b'); break;
      case 'f': Out.push_back('\f'); break;
      case 'n': Out.push_back('\n'); break;
      case 'r': Out.push_back('\r'); break;
      case 't': Out.push_back('\t'); break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("malformed \\u escape");
        }
        // UTF-8 encode the code point; surrogate pairs are not joined
        // (the artifacts never emit them) but still round-trip as two
        // three-byte sequences.
        if (Code < 0x80) {
          Out.push_back(static_cast<char>(Code));
        } else if (Code < 0x800) {
          Out.push_back(static_cast<char>(0xC0 | (Code >> 6)));
          Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
        } else {
          Out.push_back(static_cast<char>(0xE0 | (Code >> 12)));
          Out.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3F)));
          Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
        }
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(Value &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return fail("expected a value");
    std::string Num = Text.substr(Start, Pos - Start);
    char *End = nullptr;
    double X = std::strtod(Num.c_str(), &End);
    if (!End || *End != '\0')
      return fail("malformed number");
    Out.K = Value::Kind::Number;
    Out.Num = X;
    // Integer literals also keep their exact value (a double holds
    // integers exactly only up to 2^53).
    if (Num.find_first_of(".eE+") == std::string::npos) {
      errno = 0;
      if (Num[0] == '-') {
        long long I = std::strtoll(Num.c_str(), nullptr, 10);
        Out.HasInt = errno == 0;
        Out.Int = I;
      } else {
        unsigned long long U = std::strtoull(Num.c_str(), nullptr, 10);
        Out.HasUint = errno == 0;
        Out.Uint = U;
        Out.HasInt = Out.HasUint && U <= static_cast<uint64_t>(INT64_MAX);
        Out.Int = static_cast<int64_t>(U);
      }
    }
    return true;
  }

  bool parseValue(Value &Out, int Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{') {
      ++Pos;
      Out.K = Value::Kind::Object;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      while (true) {
        skipWs();
        std::string Name;
        if (!parseString(Name))
          return false;
        skipWs();
        if (Pos >= Text.size() || Text[Pos] != ':')
          return fail("expected ':'");
        ++Pos;
        Value Member;
        if (!parseValue(Member, Depth + 1))
          return false;
        Out.Obj.emplace_back(std::move(Name), std::move(Member));
        skipWs();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (C == '[') {
      ++Pos;
      Out.K = Value::Kind::Array;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      while (true) {
        Value Elem;
        if (!parseValue(Elem, Depth + 1))
          return false;
        Out.Arr.push_back(std::move(Elem));
        skipWs();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (C == '"') {
      Out.K = Value::Kind::String;
      return parseString(Out.Str);
    }
    if (C == 't') {
      Out.K = Value::Kind::Bool;
      Out.B = true;
      return literal("true");
    }
    if (C == 'f') {
      Out.K = Value::Kind::Bool;
      Out.B = false;
      return literal("false");
    }
    if (C == 'n') {
      Out.K = Value::Kind::Null;
      return literal("null");
    }
    return parseNumber(Out);
  }

  const std::string &Text;
  std::string &Error;
  size_t Pos = 0;
};

} // namespace

bool parse(const std::string &Text, Value &Out, std::string &Error) {
  Out = Value();
  return Parser(Text, Error).run(Out);
}

std::string escape(const std::string &Raw) {
  std::string Out;
  Out.reserve(Raw.size());
  for (char C : Raw) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\r': Out += "\\r"; break;
    case '\t': Out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(C);
      }
    }
  }
  return Out;
}

std::string quote(const std::string &Raw) { return '"' + escape(Raw) + '"'; }

} // namespace json
} // namespace cws
