// Lexer for the tgdkit text format's dependency programs and queries.
// Instance files are read without it, by ParseFacts (data/instance.h).
//
// Tokens: identifiers ([A-Za-z_][A-Za-z0-9_]*), quoted strings, integers,
// and punctuation ( ) , . ; & = -> [ ] { } : :- . Comments run from
// '//' or '#' to end of line.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace tgdkit {

enum class TokenKind : uint8_t {
  kIdent,
  kString,
  kInt,
  kLParen,
  kRParen,
  kComma,
  kDot,
  kSemi,
  kAmp,
  kEq,
  kArrow,      // ->
  kLBracket,
  kRBracket,
  kLBrace,
  kRBrace,
  kColon,
  kColonDash,  // :-
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;  // identifier text / string contents / digits
  uint32_t line;
  uint32_t column;
};

/// Tokenizes `input` completely. Returns ParseError on illegal characters
/// or unterminated strings.
Result<std::vector<Token>> Tokenize(std::string_view input);

/// Human-readable token kind name for error messages.
const char* TokenKindName(TokenKind kind);

}  // namespace tgdkit
