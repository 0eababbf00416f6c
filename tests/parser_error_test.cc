// Exhaustive parser-error coverage: every production's failure mode must
// produce a ParseError with a useful message (never a crash, never a
// silent mis-parse).
#include <gtest/gtest.h>

#include "parse/parser.h"
#include "tests/test_util.h"

namespace tgdkit {
namespace {

class ParserErrorTest : public ::testing::Test {
 protected:
  TestWorkspace ws_;

  Status ParseDeps(const std::string& text) {
    Parser p(&ws_.arena, &ws_.vocab);
    auto program = p.ParseDependencies(text);
    return program.ok() ? Status::Ok() : program.status();
  }

  void ExpectError(const std::string& text, const std::string& needle) {
    Status status = ParseDeps(text);
    ASSERT_FALSE(status.ok()) << text;
    // Syntax problems surface as ParseError; well-formedness problems
    // found by the validators surface as InvalidArgument.
    EXPECT_TRUE(status.code() == Status::Code::kParseError ||
                status.code() == Status::Code::kInvalidArgument)
        << text << "\n" << status.ToString();
    EXPECT_NE(status.message().find(needle), std::string::npos)
        << text << "\n" << status.ToString();
  }
};

TEST_F(ParserErrorTest, MissingArrow) {
  ExpectError("P(x) Q(x) .", "expected");
}

TEST_F(ParserErrorTest, MissingParenthesis) {
  ExpectError("P(x -> Q(x) .", "expected");
}

TEST_F(ParserErrorTest, MissingDotAfterExists) {
  ExpectError("P(x) -> exists y Q(x, y) .", "expected '.'");
}

TEST_F(ParserErrorTest, DanglingConjunction) {
  ExpectError("P(x) & -> Q(x) .", "expected");
}

TEST_F(ParserErrorTest, ReservedWordAsVariable) {
  ExpectError("P(exists) -> Q(x) .", "reserved word");
}

TEST_F(ParserErrorTest, SoWithoutBraces) {
  ExpectError("so exists f P(x) -> Q(f(x)) .", "expected");
}

TEST_F(ParserErrorTest, SoDeclaredFunctionUnused) {
  ExpectError("so exists f, g { P(x) -> Q(f(x)) } .", "never used");
}

TEST_F(ParserErrorTest, SoFunctionArityConflict) {
  ExpectError("so exists f { P(x, y) -> Q(f(x), f(x, y)) } .", "arity");
}

TEST_F(ParserErrorTest, SoBareIdentifierNotEquality) {
  // A bare identifier in an SO body must start an equality.
  ExpectError("so exists f { x -> Q(f(x)) } .", "expected '='");
}

TEST_F(ParserErrorTest, NestedUnclosedBracket) {
  ExpectError("nested P(x) -> exists y . Q(y) & [ R(x) -> S(y) .",
              "expected ']'");
}

TEST_F(ParserErrorTest, NestedExistentialInChildBody) {
  // Grammar: child bodies may only use universals (X variables).
  ExpectError(
      "nested P(x) -> exists y . Q(y) & [ R(x, y) -> S(x) ] .",
      "not a universal");
}

TEST_F(ParserErrorTest, NestedExistentialReuse) {
  ExpectError(
      "nested P(x) -> exists y . Q(y) &"
      " [ R(x, z) -> exists y . S(y) ] .",
      "renamed apart");
}

TEST_F(ParserErrorTest, HenkinMissingBrace) {
  ExpectError("henkin forall x ; exists y(x) } P(x) -> Q(y) .", "expected");
}

TEST_F(ParserErrorTest, HenkinUnknownQuantifierKeyword) {
  ExpectError("henkin { every x } P(x) -> Q(x) .",
              "expected 'forall' or 'exists'");
}

TEST_F(ParserErrorTest, HenkinExistentialUsedInBody) {
  ExpectError("henkin { forall x ; exists y(x) } P(x, y) -> Q(y) .",
              "not a universal");
}

TEST_F(ParserErrorTest, HenkinDependencyOnUndeclared) {
  // z never declared as a universal: the quantifier mentions an unknown
  // variable.
  ExpectError("henkin { forall x ; exists y(z) } P(x) -> Q(y) .",
              "undeclared");
}

TEST_F(ParserErrorTest, RelationArityConflictAcrossStatements) {
  ExpectError("P(x) -> Q(x) .\nQ(x, y) -> R(x) .", "arity");
}

TEST_F(ParserErrorTest, HeadVariableNotQuantified) {
  ExpectError("P(x) -> Mystery(x, ghost) .", "neither universal");
}

TEST_F(ParserErrorTest, ExistentialAlsoInBody) {
  ExpectError("P(x, y) -> exists y . Q(x, y) .", "occurs in tgd body");
}

TEST_F(ParserErrorTest, LabelWithoutDependency) {
  ExpectError("lonely: .", "expected");
}

TEST_F(ParserErrorTest, NullaryAtomsAreRejected) {
  ExpectError("P(x) -> R() .", "atom 'R' needs at least one argument");
  ExpectError("so { P(x) & R() -> Q(x) } .",
              "atom 'R' needs at least one argument");
  Parser p(&ws_.arena, &ws_.vocab);
  auto q = p.ParseQuery("ans() :- R().");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), Status::Code::kParseError);
  // A Boolean query's head is not an atom.
  EXPECT_TRUE(p.ParseQuery("ans() :- S(x).").ok());
}

TEST_F(ParserErrorTest, InstanceErrorsSurfaceLocations) {
  Parser p(&ws_.arena, &ws_.vocab);
  Instance inst(&ws_.vocab);
  Status status = p.ParseInstanceInto("R(a).\nR(b, c).", &inst);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 2"), std::string::npos);
  EXPECT_NE(status.message().find("arity"), std::string::npos);
}

TEST_F(ParserErrorTest, EndOfInputColumnCountsTrailingComments) {
  // The input ends one column past the comment's last byte.
  ExpectError("P(x) -> Q(x) // c", "line 1, column 18: expected '.'");
  ExpectError("P(x) -> Q(x) # c", "line 1, column 17: expected '.'");
}

TEST_F(ParserErrorTest, QueryMissingTurnstile) {
  Parser p(&ws_.arena, &ws_.vocab);
  auto q = p.ParseQuery("ans(x) R(x).");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), Status::Code::kParseError);
}

TEST_F(ParserErrorTest, QueryTrailingGarbage) {
  Parser p(&ws_.arena, &ws_.vocab);
  auto q = p.ParseQuery("ans(x) :- R(x). extra");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("trailing"), std::string::npos);
}

TEST_F(ParserErrorTest, GoodInputAfterErrorStateIsIndependent) {
  // A failed parse must not poison the parser for subsequent calls.
  Parser p(&ws_.arena, &ws_.vocab);
  EXPECT_FALSE(p.ParseDependencies("P(x ->").ok());
  auto ok = p.ParseDependencies("P(x) -> Q(x) .");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

}  // namespace
}  // namespace tgdkit
