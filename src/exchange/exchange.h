// Data exchange (Fagin, Kolaitis, Miller & Popa 2005) — the setting the
// paper's dependencies come from: a schema mapping M = (S, T, Σ) with
// source-to-target dependencies, a source instance I, and the tasks of
// materializing a (universal / core) solution and answering target
// queries certainly.
#pragma once

#include <set>
#include <vector>

#include "chase/chase.h"
#include "data/instance.h"
#include "dep/dependency.h"
#include "query/query.h"

namespace tgdkit {

/// A schema mapping: source and target relation symbols plus s-t rules in
/// Skolemized form (any of the paper's classes, converted via dep/skolem.h
/// or transform/).
struct SchemaMapping {
  std::set<RelationId> source_relations;
  std::set<RelationId> target_relations;
  SoTgd rules;
};

/// Checks that `rules` is source-to-target w.r.t. the declared schemas:
/// bodies over source relations, heads over target relations.
Status ValidateSourceToTarget(const SchemaMapping& mapping);

struct ExchangeResult {
  /// The materialized target instance (a universal solution when the
  /// chase terminated).
  Instance solution;
  StopReason chase_stop;

  bool IsUniversal() const { return chase_stop == StopReason::kFixpoint; }
};

/// Materializes a solution for `source` under `mapping`: chases and keeps
/// target-schema facts only. For s-t rules the chase always terminates in
/// one meaningful round.
ExchangeResult Solve(TermArena* arena, Vocabulary* vocab,
                     const SchemaMapping& mapping, const Instance& source,
                     ChaseLimits limits = {});

/// The core solution: the core of a universal solution — the smallest
/// universal solution, unique up to isomorphism. Folds `solution` (as
/// Solve returns it) under one governor built from `budget`. On
/// exhaustion it returns the best, possibly non-minimal, fold found so
/// far.
Instance CoreSolution(TermArena* arena, Vocabulary* vocab,
                      const Instance& solution,
                      const ExecutionBudget& budget = {});

/// Certain answers to a target query under the mapping (null-free answers
/// over the materialized solution).
CertainAnswers TargetCertainAnswers(TermArena* arena, Vocabulary* vocab,
                                    const SchemaMapping& mapping,
                                    const Instance& source,
                                    const ConjunctiveQuery& query,
                                    ChaseLimits limits = {});

}  // namespace tgdkit
