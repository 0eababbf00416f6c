#include "classify/criteria.h"

#include "analyze/analysis.h"

namespace tgdkit {

// The classifiers are thin wrappers over the static analyzer
// (analyze/analysis.h): one source of truth builds the position graph,
// the affected fixpoint and the sticky marking table, and renders a
// verdict — with a concrete witness on failure — per criterion. The
// boolean API below is kept for callers that only need the bit.

bool IsFull(const TermArena& arena, const SoTgd& so) {
  return AnalyzeSo(arena, so).verdict(Criterion::kFull).holds;
}

bool IsLinear(const TermArena& arena, const SoTgd& so) {
  return AnalyzeSo(arena, so).verdict(Criterion::kLinear).holds;
}

bool IsGuarded(const TermArena& arena, const SoTgd& so) {
  return AnalyzeSo(arena, so).verdict(Criterion::kGuarded).holds;
}

std::set<Position> AffectedPositions(const TermArena& arena,
                                     const SoTgd& so) {
  return AnalyzeSo(arena, so).affected.affected;
}

bool IsWeaklyGuarded(const TermArena& arena, const SoTgd& so) {
  return AnalyzeSo(arena, so).verdict(Criterion::kWeaklyGuarded).holds;
}

bool IsWeaklyAcyclic(const TermArena& arena, const SoTgd& so) {
  return AnalyzeSo(arena, so).verdict(Criterion::kWeaklyAcyclic).holds;
}

bool IsSticky(const TermArena& arena, const SoTgd& so) {
  return AnalyzeSo(arena, so).verdict(Criterion::kSticky).holds;
}

bool IsStickyJoin(const TermArena& arena, const SoTgd& so) {
  return AnalyzeSo(arena, so).verdict(Criterion::kStickyJoin).holds;
}

bool IsTriangularlyGuarded(const TermArena& arena, const SoTgd& so) {
  return AnalyzeSo(arena, so).verdict(Criterion::kTriangularlyGuarded).holds;
}

const char* ComplexityTierName(ComplexityTier tier) {
  switch (tier) {
    case ComplexityTier::kPolynomial:
      return "polynomial";
    case ComplexityTier::kExponential:
      return "exponential";
    case ComplexityTier::kNonElementary:
      return "non-elementary";
  }
  return "?";
}

ComplexityTier ChaseComplexityTier(const TermArena& arena, const SoTgd& so) {
  return AnalyzeSo(arena, so).complexity.tier;
}

CriticalInstanceReport TerminatesOnCriticalInstance(
    TermArena* arena, Vocabulary* vocab, const SoTgd& so,
    std::span<const RelationId> relations, ChaseLimits limits) {
  Instance critical(vocab);
  Value star = Value::Constant(vocab->InternConstant("@star"));
  for (RelationId relation : relations) {
    std::vector<Value> tuple(vocab->RelationArity(relation), star);
    critical.AddFact(relation, tuple);
  }
  ChaseResult result = Chase(arena, vocab, so, std::move(critical), limits);
  CriticalInstanceReport report;
  report.terminated = result.Terminated();
  report.rounds = result.rounds;
  report.facts = result.instance.NumFacts();
  return report;
}

Figure2Membership ClassifyFigure2(const TermArena& arena, const SoTgd& so) {
  return AnalyzeSo(arena, so).Membership();
}

std::string ToString(const Figure2Membership& m) {
  std::string out;
  auto add = [&](bool flag, const char* name) {
    if (!flag) return;
    if (!out.empty()) out += ",";
    out += name;
  };
  add(m.full, "full");
  add(m.weakly_acyclic, "weakly-acyclic");
  add(m.linear, "linear");
  add(m.guarded, "guarded");
  add(m.weakly_guarded, "weakly-guarded");
  add(m.sticky, "sticky");
  add(m.sticky_join, "sticky-join");
  add(m.triangularly_guarded, "triangularly-guarded");
  return out;
}

}  // namespace tgdkit
