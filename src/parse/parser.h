// Recursive-descent parser for the tgdkit text format.
//
// Dependency programs (ParseDependencies):
//
//   // tgd (universals implicit from the body)
//   Emp(e, d) -> exists dm . Mgr(e, dm) .
//
//   // SO tgd: parts in braces, terms and equalities allowed
//   so exists fmgr {
//     Emp(e) -> Mgr(e, fmgr(e)) ;
//     Emp(e) & e = fmgr(e) -> SelfMgr(e)
//   } .
//
//   // nested tgd: nested implications in brackets
//   nested Dep(d) -> exists dm . Dep2(d, dm) &
//     [ Emp(e, d) -> Mgr(e, d, dm) ] .
//
//   // Henkin tgd: quantifier block of universals and existentials with
//   // their (essential-order) dependency lists
//   henkin { forall e, d ; exists eid(e) ; exists dm(d) }
//     Emp(e, d) -> Mgr(eid, dm) .
//
// Statements end with '.'; an optional "label :" prefix names them.
// Atoms take at least one argument: R() is a parse error.
// In dependencies, identifiers in term position are variables; constants
// are written as "quoted strings" or integers.
//
// Instances (ParseInstanceInto):  Emp(alice, cs). Dep(cs).
// Instance files are read by ParseFacts (data/instance.h) in its file
// dialect: identifiers/strings/integers are constants, _name is a labeled
// null (same name = same null within one call), and a fact needs at least
// one argument.
//
// Queries (ParseQuery):  ans(x, y) :- Emp(x, d), Mgr(x, y) .
// Free variables are the head arguments; body constants as in deps. The
// head is not an atom, so a Boolean query's ans() is legal.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "data/instance.h"
#include "dep/dependency.h"
#include "parse/lexer.h"
#include "query/query.h"

namespace tgdkit {

/// One parsed statement: exactly one of the four dependency kinds.
struct ParsedDependency {
  enum class Kind { kTgd, kSo, kNested, kHenkin };
  Kind kind;
  std::string label;  // empty if unlabeled
  Tgd tgd;
  SoTgd so;
  NestedTgd nested;
  HenkinTgd henkin;
  /// Source span of the statement (its first token, label included);
  /// 1-based, 0 when the dependency was built programmatically.
  uint32_t line = 0;
  uint32_t column = 0;
};

struct DependencyProgram {
  std::vector<ParsedDependency> dependencies;

  std::vector<Tgd> Tgds() const;
  std::vector<HenkinTgd> Henkins() const;
  std::vector<NestedTgd> Nesteds() const;
  std::vector<SoTgd> Sos() const;
};

/// Parser bound to one arena + vocabulary. Relations and functions get
/// their arity from first use; later uses with a different arity are
/// parse errors.
class Parser {
 public:
  Parser(TermArena* arena, Vocabulary* vocab) : arena_(arena), vocab_(vocab) {}

  /// Parses a dependency program. All parsed dependencies are validated.
  Result<DependencyProgram> ParseDependencies(std::string_view text);

  /// Like ParseDependencies, but skips semantic validation (ValidateTgd
  /// and friends), so structurally complete but ill-formed statements
  /// still come back with their source spans. Used by the static analyzer
  /// to turn validation failures into located diagnostics instead of
  /// aborting at the first offender. Grammar errors still fail the parse.
  Result<DependencyProgram> ParseDependenciesLenient(std::string_view text);

  /// Parses an instance file into `out` (which must use this parser's
  /// vocabulary): ParseFacts in FactDialect::kFile.
  Status ParseInstanceInto(std::string_view text, Instance* out);

  /// Parses a single Datalog-style conjunctive query.
  Result<ConjunctiveQuery> ParseQuery(std::string_view text);

 private:
  Result<DependencyProgram> ParseDependencyProgram(std::string_view text,
                                                   bool validate);

  TermArena* arena_;
  Vocabulary* vocab_;
};

}  // namespace tgdkit
