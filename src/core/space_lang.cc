#include "core/space_lang.h"

#include <cctype>
#include <charconv>

namespace afex {
namespace {

enum class TokenKind {
  kIdent,
  kNumber,
  kLBrace,
  kRBrace,
  kLBracket,
  kRBracket,
  kLAngle,
  kRAngle,
  kColon,
  kComma,
  kSemi,
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  int64_t number = 0;
  size_t line = 1;
  size_t column = 1;
};

const char* TokenName(TokenKind k) {
  switch (k) {
    case TokenKind::kIdent:
      return "identifier";
    case TokenKind::kNumber:
      return "number";
    case TokenKind::kLBrace:
      return "'{'";
    case TokenKind::kRBrace:
      return "'}'";
    case TokenKind::kLBracket:
      return "'['";
    case TokenKind::kRBracket:
      return "']'";
    case TokenKind::kLAngle:
      return "'<'";
    case TokenKind::kRAngle:
      return "'>'";
    case TokenKind::kColon:
      return "':'";
    case TokenKind::kComma:
      return "','";
    case TokenKind::kSemi:
      return "';'";
    case TokenKind::kEnd:
      return "end of input";
  }
  return "?";
}

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token Next() {
    SkipWhitespaceAndComments();
    Token t;
    t.line = line_;
    t.column = column_;
    if (pos_ >= text_.size()) {
      t.kind = TokenKind::kEnd;
      return t;
    }
    char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      while (pos_ < text_.size() && (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                                     text_[pos_] == '_')) {
        Advance();
      }
      t.kind = TokenKind::kIdent;
      t.text = std::string(text_.substr(start, pos_ - start));
      return t;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && pos_ + 1 < text_.size() &&
         std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
      size_t start = pos_;
      if (c == '-') {
        Advance();
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        Advance();
      }
      t.kind = TokenKind::kNumber;
      t.text = std::string(text_.substr(start, pos_ - start));
      if (std::from_chars(t.text.data(), t.text.data() + t.text.size(), t.number).ec !=
          std::errc()) {
        throw SpaceLangError("number out of range: " + t.text, t.line, t.column);
      }
      return t;
    }
    Advance();
    switch (c) {
      case '{':
        t.kind = TokenKind::kLBrace;
        return t;
      case '}':
        t.kind = TokenKind::kRBrace;
        return t;
      case '[':
        t.kind = TokenKind::kLBracket;
        return t;
      case ']':
        t.kind = TokenKind::kRBracket;
        return t;
      case '<':
        t.kind = TokenKind::kLAngle;
        return t;
      case '>':
        t.kind = TokenKind::kRAngle;
        return t;
      case ':':
        t.kind = TokenKind::kColon;
        return t;
      case ',':
        t.kind = TokenKind::kComma;
        return t;
      case ';':
        t.kind = TokenKind::kSemi;
        return t;
      default:
        throw SpaceLangError(std::string("unexpected character '") + c + "'", t.line, t.column);
    }
  }

 private:
  void Advance() {
    if (text_[pos_] == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    ++pos_;
  }

  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') {
          Advance();
        }
      } else {
        return;
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t column_ = 1;
};

class Parser {
 public:
  explicit Parser(std::string_view text) : lexer_(text) { Bump(); }

  UniverseSpec ParseUniverse() {
    UniverseSpec universe;
    while (current_.kind != TokenKind::kEnd) {
      universe.spaces.push_back(ParseSpace());
    }
    if (universe.spaces.empty()) {
      throw SpaceLangError("empty fault space description", current_.line, current_.column);
    }
    return universe;
  }

 private:
  void Bump() { current_ = lexer_.Next(); }

  Token Expect(TokenKind kind) {
    if (current_.kind != kind) {
      throw SpaceLangError(std::string("expected ") + TokenName(kind) + ", found " +
                               TokenName(current_.kind),
                           current_.line, current_.column);
    }
    Token t = current_;
    Bump();
    return t;
  }

  SpaceSpec ParseSpace() {
    SpaceSpec space;
    bool saw_element = false;
    while (current_.kind != TokenKind::kSemi) {
      if (current_.kind == TokenKind::kEnd) {
        throw SpaceLangError("space not terminated by ';'", current_.line, current_.column);
      }
      Token ident = Expect(TokenKind::kIdent);
      saw_element = true;
      if (current_.kind == TokenKind::kColon) {
        Bump();
        space.params.push_back(ParseParamBody(ident.text));
      } else {
        space.subtypes.push_back(ident.text);
      }
    }
    Bump();  // consume ';'
    if (!saw_element) {
      throw SpaceLangError("space must contain at least one subtype or parameter", current_.line,
                           current_.column);
    }
    if (space.params.empty()) {
      throw SpaceLangError("space has no parameters (axes)", current_.line, current_.column);
    }
    for (size_t i = 0; i < space.params.size(); ++i) {
      for (size_t j = i + 1; j < space.params.size(); ++j) {
        if (space.params[i].name == space.params[j].name) {
          throw SpaceLangError("duplicate parameter '" + space.params[i].name + "' in space",
                               current_.line, current_.column);
        }
      }
    }
    return space;
  }

  ParamSpec ParseParamBody(std::string name) {
    ParamSpec p;
    p.name = std::move(name);
    switch (current_.kind) {
      case TokenKind::kLBrace: {
        Bump();
        p.kind = AxisKind::kSet;
        p.set_values.push_back(ParseSetElement());
        while (current_.kind == TokenKind::kComma) {
          Bump();
          p.set_values.push_back(ParseSetElement());
        }
        Expect(TokenKind::kRBrace);
        return p;
      }
      case TokenKind::kLBracket: {
        Bump();
        p.kind = AxisKind::kInterval;
        p.lo = Expect(TokenKind::kNumber).number;
        Expect(TokenKind::kComma);
        p.hi = Expect(TokenKind::kNumber).number;
        Token close = Expect(TokenKind::kRBracket);
        if (p.lo > p.hi) {
          throw SpaceLangError("interval low bound exceeds high bound", close.line, close.column);
        }
        return p;
      }
      case TokenKind::kLAngle: {
        Bump();
        p.kind = AxisKind::kSubInterval;
        p.lo = Expect(TokenKind::kNumber).number;
        Expect(TokenKind::kComma);
        p.hi = Expect(TokenKind::kNumber).number;
        Token close = Expect(TokenKind::kRAngle);
        if (p.lo > p.hi) {
          throw SpaceLangError("interval low bound exceeds high bound", close.line, close.column);
        }
        return p;
      }
      default:
        throw SpaceLangError("expected '{', '[' or '<' after ':'", current_.line, current_.column);
    }
  }

  std::string ParseSetElement() {
    if (current_.kind == TokenKind::kIdent || current_.kind == TokenKind::kNumber) {
      std::string text = current_.text;
      Bump();
      return text;
    }
    throw SpaceLangError("expected identifier or number in set", current_.line, current_.column);
  }

  Lexer lexer_;
  Token current_;
};

}  // namespace

SpaceLangError::SpaceLangError(std::string message, size_t line, size_t column)
    : std::runtime_error("fault space description, line " + std::to_string(line) + ", column " +
                         std::to_string(column) + ": " + message),
      line_(line),
      column_(column) {}

UniverseSpec ParseFaultSpaceDescription(std::string_view text) {
  return Parser(text).ParseUniverse();
}

FaultSpace BuildFaultSpace(const SpaceSpec& spec, std::string fallback_name) {
  std::vector<Axis> axes;
  axes.reserve(spec.params.size());
  for (const ParamSpec& p : spec.params) {
    switch (p.kind) {
      case AxisKind::kSet:
        axes.push_back(Axis::MakeSet(p.name, p.set_values));
        break;
      case AxisKind::kInterval:
        axes.push_back(Axis::MakeInterval(p.name, p.lo, p.hi));
        break;
      case AxisKind::kSubInterval:
        axes.push_back(Axis::MakeSubInterval(p.name, p.lo, p.hi));
        break;
    }
  }
  std::string name;
  for (const std::string& tag : spec.subtypes) {
    if (!name.empty()) {
      name += ".";
    }
    name += tag;
  }
  if (name.empty()) {
    name = std::move(fallback_name);
  }
  return FaultSpace(std::move(axes), std::move(name));
}

std::vector<FaultSpace> BuildUniverse(const UniverseSpec& spec) {
  std::vector<FaultSpace> spaces;
  spaces.reserve(spec.spaces.size());
  for (size_t i = 0; i < spec.spaces.size(); ++i) {
    spaces.push_back(BuildFaultSpace(spec.spaces[i], "space" + std::to_string(i)));
  }
  return spaces;
}

std::string FormatSpaceSpec(const SpaceSpec& spec) {
  std::string out;
  for (const std::string& tag : spec.subtypes) {
    out += tag;
    out += "\n";
  }
  for (const ParamSpec& p : spec.params) {
    out += p.name;
    out += " : ";
    switch (p.kind) {
      case AxisKind::kSet: {
        out += "{ ";
        for (size_t i = 0; i < p.set_values.size(); ++i) {
          if (i > 0) {
            out += ", ";
          }
          out += p.set_values[i];
        }
        out += " }";
        break;
      }
      case AxisKind::kInterval:
        out += "[ " + std::to_string(p.lo) + " , " + std::to_string(p.hi) + " ]";
        break;
      case AxisKind::kSubInterval:
        out += "< " + std::to_string(p.lo) + " , " + std::to_string(p.hi) + " >";
        break;
    }
    out += "\n";
  }
  out += ";\n";
  return out;
}

}  // namespace afex
