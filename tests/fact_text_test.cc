// The fact language's two dialects (docs/FORMAT.md, "Instances"): one
// table pins every difference between instance files and exact text, and
// every rule they share, through the one loader, ParseFacts.
#include <gtest/gtest.h>

#include <string>

#include "base/strings.h"
#include "data/instance.h"
#include "parse/parser.h"
#include "tests/test_util.h"

namespace tgdkit {
namespace {

constexpr FactDialect kFile = FactDialect::kFile;
constexpr FactDialect kExact = FactDialect::kExact;

/// What a load left behind: the facts with nulls spelled by index, the
/// null count, and each labelled null as `_N<i>=label`.
std::string Loaded(const Instance& inst) {
  std::string out = Cat(inst.ToExactText(), "nulls ", inst.num_nulls());
  for (uint32_t i = 0; i < inst.num_nulls(); ++i) {
    if (!inst.NullLabel(i).empty()) {
      out += Cat(" _N", i, "=", inst.NullLabel(i));
    }
  }
  return out;
}

struct FactCase {
  const char* rule;
  FactDialect dialect;
  const char* text;
  /// Loaded() on success, else the error's ToString().
  const char* want;
  uint32_t declared_nulls = 0;
};

const FactCase kCases[] = {
    // Differences: the '.' after each fact.
    {"file facts end in '.'", kFile, "R(a) .\nR(b).", "R(a)\nR(b)\nnulls 0"},
    {"file fact without '.'", kFile, "R(a)\nR(b) .",
     "ParseError: line 2, column 1: expected '.' (found identifier 'R')"},
    {"exact facts have no '.'", kExact, "R(a)\nR(b)", "R(a)\nR(b)\nnulls 0"},
    {"exact fact with '.'", kExact, "R(a) .",
     "ParseError: line 1, column 6: expected relation name (found '.')"},
    // Differences: _N<i> is a label in files, a null index in exact text.
    {"file _N5 is a label", kFile, "R(_N5) .", "R(_N0)\nnulls 1 _N0=N5"},
    {"exact _N5 is null 5", kExact, "R(_N5)", "R(_N5)\nnulls 6", 6},
    {"exact _N<i> must be below the declared count", kExact, "R(_N5)",
     "ParseError: line 1, column 3: null _N5 is past the declared count 5",
     5},
    {"exact _N<i> far past the count", kExact, "R(a)\nR(_N2000000000)",
     "ParseError: line 2, column 3: null _N2000000000 is past the declared "
     "count 15",
     15},
    {"exact _N5x is a label", kExact, "R(_N5x)", "R(_N1)\nnulls 2 _N1=N5x",
     1},
    // Differences: escapes in quoted constants.
    {"file strings are raw", kFile, R"(R("a\\b", "c\nd") .)",
     R"(R("a\\\\b", "c\\nd"))"
     "\nnulls 0"},
    {"exact strings take escapes", kExact, R"(R("a\\b", "c\nd", "q\"q"))",
     R"(R("a\\b", "c\nd", "q\"q"))"
     "\nnulls 0"},
    // Shared: whitespace and comments.
    {"file comments", kFile, "# c\nR(a) // c\n . R(b).", "R(a)\nR(b)\nnulls 0"},
    {"exact comments", kExact, "# c\n\tR( a ,b ) // c\n", "R(a, b)\nnulls 0"},
    // Shared: IDENT relation names, a leading '_' allowed.
    {"file _R", kFile, "_R(a) .", "_R(a)\nnulls 0"},
    {"exact _R", kExact, "_R(a)", "_R(a)\nnulls 0"},
    {"file relation from a digit", kFile, "1R(a) .",
     "ParseError: line 1, column 1: expected relation name (found integer)"},
    {"exact relation from a digit", kExact, "1R(a)",
     "ParseError: line 1, column 1: expected relation name (found integer)"},
    {"file reserved relation", kFile, "R(a) .\nexists(a) .",
     "ParseError: line 2, column 1: reserved word 'exists' used as relation "
     "name (found identifier 'exists')"},
    {"exact reserved relation", kExact, "so(a)",
     "ParseError: line 1, column 1: reserved word 'so' used as relation name "
     "(found identifier 'so')"},
    // Shared: at least one argument per fact.
    {"file 0-ary fact", kFile, "R() .",
     "ParseError: line 1, column 3: fact 'R' needs at least one argument "
     "(found ')')"},
    {"exact 0-ary fact", kExact, "R(a)\nR()",
     "ParseError: line 2, column 3: fact 'R' needs at least one argument "
     "(found ')')"},
    // Shared: a _label null, the same null within one load.
    {"file labels", kFile, "R(_x, _y) . R(_y, _x) .",
     "R(_N0, _N1)\nR(_N1, _N0)\nnulls 2 _N0=x _N1=y"},
    {"exact labels come after the declared nulls", kExact, "R(_x, _N0, _x)",
     "R(_N1, _N0, _N1)\nnulls 2 _N1=x", 1},
    // Shared: arity conflicts are errors, at the relation name.
    {"file arity conflict", kFile, "R(a) .\n  R(b, c) .",
     "ParseError: line 2, column 3: relation 'R' used with arity 2 but "
     "declared with arity 1"},
    {"exact arity conflict", kExact, "R(a)\nS(a)\nR(b, c)",
     "ParseError: line 3, column 1: relation 'R' used with arity 2 but "
     "declared with arity 1"},
    // Shared: errors give `line L, column C:`.
    {"file missing comma", kFile, "R(a) .\n  S(b c) .",
     "ParseError: line 2, column 7: expected ')' (found identifier 'c')"},
    {"exact missing comma", kExact, "R(a)\n  S(b c)",
     "ParseError: line 2, column 7: expected ')' (found identifier 'c')"},
    {"file bad character", kFile, "R(a, ~) .",
     "ParseError: line 1, column 6: unexpected character '~'"},
    {"exact bad argument", kExact, "R(a, ->)",
     "ParseError: line 1, column 6: expected constant or _null (found '->')"},
    {"file unterminated string", kFile, "R(\"ab\n) .",
     "ParseError: line 1, column 6: unterminated string literal"},
    {"exact unterminated string", kExact, "R(\"a\\\"",
     "ParseError: line 1, column 7: unterminated string literal"},
    {"file truncated fact", kFile, "R(a,",
     "ParseError: line 1, column 5: expected constant or _null (found end of "
     "input)"},
};

TEST(FactTextTest, DialectsDifferOnlyWhereDocumented) {
  for (const FactCase& c : kCases) {
    Vocabulary vocab;
    Instance inst(&vocab);
    Status status =
        ParseFacts(c.text, c.dialect, &vocab, &inst, c.declared_nulls);
    EXPECT_EQ(status.ok() ? Loaded(inst) : status.ToString(), c.want)
        << c.rule;
  }
}

TEST(FactTextTest, LabelsAreFreshPerLoad) {
  for (FactDialect dialect : {kFile, kExact}) {
    Vocabulary vocab;
    Instance inst(&vocab);
    const char* text = dialect == kFile ? "R(_x) ." : "R(_x)";
    ASSERT_TRUE(ParseFacts(text, dialect, &vocab, &inst).ok());
    ASSERT_TRUE(ParseFacts(text, dialect, &vocab, &inst).ok());
    EXPECT_EQ(Loaded(inst), "R(_N0)\nR(_N1)\nnulls 2 _N0=x _N1=x");
  }
}

TEST(FactTextTest, ParserReadsInstanceFilesThroughTheLoader) {
  TestWorkspace ws;
  Parser parser(&ws.arena, &ws.vocab);
  Instance inst(&ws.vocab);
  ASSERT_TRUE(parser.ParseInstanceInto("R(_N5, \"a\\b\") .", &inst).ok());
  EXPECT_EQ(Loaded(inst), "R(_N0, \"a\\\\b\")\nnulls 1 _N0=N5");
  EXPECT_EQ(parser.ParseInstanceInto("R() .", &inst).ToString(),
            "ParseError: line 1, column 3: fact 'R' needs at least one "
            "argument (found ')')");
}

TEST(FactTextTest, ExactTextRoundTripsEscapedConstants) {
  Vocabulary vocab;
  Instance inst(&vocab);
  RelationId r = vocab.InternRelation("R", 3);
  Value args[] = {Value::Constant(vocab.InternConstant("a\"b\\c\nd")),
                  Value::Constant(vocab.InternConstant("_x")), inst.FreshNull()};
  inst.AddFact(r, args);
  std::string text = inst.ToExactText();
  Vocabulary vocab2;
  Instance back(&vocab2);
  ASSERT_TRUE(ParseFacts(text, kExact, &vocab2, &back, 1).ok());
  EXPECT_EQ(back.ToExactText(), text);
}

}  // namespace
}  // namespace tgdkit
