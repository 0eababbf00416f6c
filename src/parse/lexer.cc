#include "parse/lexer.h"

#include <cctype>

#include "base/strings.h"

namespace tgdkit {

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdent:
      return "identifier";
    case TokenKind::kString:
      return "string";
    case TokenKind::kInt:
      return "integer";
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kComma:
      return "','";
    case TokenKind::kDot:
      return "'.'";
    case TokenKind::kSemi:
      return "';'";
    case TokenKind::kAmp:
      return "'&'";
    case TokenKind::kEq:
      return "'='";
    case TokenKind::kArrow:
      return "'->'";
    case TokenKind::kLBracket:
      return "'['";
    case TokenKind::kRBracket:
      return "']'";
    case TokenKind::kLBrace:
      return "'{'";
    case TokenKind::kRBrace:
      return "'}'";
    case TokenKind::kColon:
      return "':'";
    case TokenKind::kColonDash:
      return "':-'";
    case TokenKind::kEnd:
      return "end of input";
  }
  return "unknown";
}

Result<std::vector<Token>> Tokenize(std::string_view input) {
  std::vector<Token> tokens;
  uint32_t line = 1;
  uint32_t column = 1;
  size_t i = 0;

  auto push = [&](TokenKind kind, std::string text, uint32_t col) {
    tokens.push_back(Token{kind, std::move(text), line, col});
  };
  auto error = [&](const std::string& msg) {
    return Status::ParseError(
        Cat("line ", line, ", column ", column, ": ", msg));
  };

  while (i < input.size()) {
    char c = input[i];
    if (c == '\n') {
      ++line;
      column = 1;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++column;
      ++i;
      continue;
    }
    if (c == '#' || (c == '/' && i + 1 < input.size() && input[i + 1] == '/')) {
      while (i < input.size() && input[i] != '\n') {
        ++i;
        ++column;
      }
      continue;
    }
    uint32_t start_col = column;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < input.size() &&
             (std::isalnum(static_cast<unsigned char>(input[i])) ||
              input[i] == '_' || input[i] == '$')) {
        ++i;
        ++column;
      }
      push(TokenKind::kIdent, std::string(input.substr(start, i - start)),
           start_col);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < input.size() &&
             std::isdigit(static_cast<unsigned char>(input[i]))) {
        ++i;
        ++column;
      }
      push(TokenKind::kInt, std::string(input.substr(start, i - start)),
           start_col);
      continue;
    }
    if (c == '"') {
      ++i;
      ++column;
      size_t start = i;
      while (i < input.size() && input[i] != '"' && input[i] != '\n') {
        ++i;
        ++column;
      }
      if (i >= input.size() || input[i] != '"') {
        return error("unterminated string literal");
      }
      push(TokenKind::kString, std::string(input.substr(start, i - start)),
           start_col);
      ++i;
      ++column;
      continue;
    }
    if (c == '-' && i + 1 < input.size() && input[i + 1] == '>') {
      push(TokenKind::kArrow, "->", start_col);
      i += 2;
      column += 2;
      continue;
    }
    if (c == ':' && i + 1 < input.size() && input[i + 1] == '-') {
      push(TokenKind::kColonDash, ":-", start_col);
      i += 2;
      column += 2;
      continue;
    }
    TokenKind kind;
    switch (c) {
      case '(':
        kind = TokenKind::kLParen;
        break;
      case ')':
        kind = TokenKind::kRParen;
        break;
      case ',':
        kind = TokenKind::kComma;
        break;
      case '.':
        kind = TokenKind::kDot;
        break;
      case ';':
        kind = TokenKind::kSemi;
        break;
      case '&':
        kind = TokenKind::kAmp;
        break;
      case '=':
        kind = TokenKind::kEq;
        break;
      case '[':
        kind = TokenKind::kLBracket;
        break;
      case ']':
        kind = TokenKind::kRBracket;
        break;
      case '{':
        kind = TokenKind::kLBrace;
        break;
      case '}':
        kind = TokenKind::kRBrace;
        break;
      case ':':
        kind = TokenKind::kColon;
        break;
      default:
        return error(Cat("unexpected character '", std::string(1, c), "'"));
    }
    push(kind, std::string(1, c), start_col);
    ++i;
    ++column;
  }
  tokens.push_back(Token{TokenKind::kEnd, "", line, column});
  return tokens;
}

}  // namespace tgdkit
