#include "exchange/exchange.h"

#include "homo/core.h"

namespace tgdkit {

Status ValidateSourceToTarget(const SchemaMapping& mapping) {
  for (RelationId r : mapping.source_relations) {
    if (mapping.target_relations.count(r)) {
      return Status::InvalidArgument(
          "source and target schemas must be disjoint");
    }
  }
  for (const SoPart& part : mapping.rules.parts) {
    for (const Atom& atom : part.body) {
      if (!mapping.source_relations.count(atom.relation)) {
        return Status::InvalidArgument(
            "s-t rule body contains a non-source atom");
      }
    }
    for (const Atom& atom : part.head) {
      if (!mapping.target_relations.count(atom.relation)) {
        return Status::InvalidArgument(
            "s-t rule head contains a non-target atom");
      }
    }
  }
  return Status::Ok();
}

ExchangeResult Solve(TermArena* arena, Vocabulary* vocab,
                     const SchemaMapping& mapping, const Instance& source,
                     ChaseLimits limits) {
  ChaseResult chased = Chase(arena, vocab, mapping.rules, source, limits);
  ExchangeResult out{Instance(&source.vocab()), chased.stop_reason};
  out.solution.EnsureNulls(chased.instance.num_nulls());
  for (RelationId rel : chased.instance.ActiveRelations()) {
    if (!mapping.target_relations.count(rel)) continue;
    for (size_t row = 0, n = chased.instance.NumTuples(rel); row < n; ++row) {
      out.solution.AddFact(
          rel, chased.instance.Tuple(rel, static_cast<uint32_t>(row)));
    }
  }
  return out;
}

Instance CoreSolution(TermArena* arena, Vocabulary* vocab,
                      const Instance& solution,
                      const ExecutionBudget& budget) {
  ResourceGovernor governor(budget);
  return ComputeCore(arena, vocab, solution, &governor);
}

CertainAnswers TargetCertainAnswers(TermArena* arena, Vocabulary* vocab,
                                    const SchemaMapping& mapping,
                                    const Instance& source,
                                    const ConjunctiveQuery& query,
                                    ChaseLimits limits) {
  return ComputeCertainAnswers(arena, vocab, mapping.rules, source, query,
                               limits);
}

}  // namespace tgdkit
