// The chase: the universal-model construction underlying certain-answer
// query answering for dependencies.
//
// Two engines are provided:
//
//  * ChaseEngine / Chase — the Skolem (oblivious) chase over SO tgds, the
//    library's executable common form of all dependency classes (Figure 1).
//    Every ground Skolem term is interned once and mapped to a canonical
//    labeled null, so the result is deterministic and firing is idempotent.
//    Equalities in rule bodies are evaluated under the free interpretation
//    of function symbols (ground-term identity), the standard reading for
//    Skolemized dependencies.
//
//  * RestrictedChaseTgds — the classical standard chase for first-order
//    tgds, which fires a trigger only when the head is not already
//    satisfiable by extension. A serial reference engine, used for
//    comparison and ablations.
//
// For weakly acyclic rule sets the chase terminates (Fagin et al. 2005;
// the paper notes this lifts to SO tgds, Section 5). For the undecidable
// encodings of Section 5 the chase is a semi-decision procedure, driven
// round-by-round with resource limits.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/budget.h"
#include "base/thread_pool.h"
#include "dep/dependency.h"
#include "homo/matcher.h"

namespace tgdkit {

struct ChaseLimits {
  uint64_t max_rounds = 10000;
  uint64_t max_facts = 1000000;
  /// Maximum nesting depth of ground Skolem terms; deeper terms abort the
  /// run (semi-decision budget for non-terminating chases).
  uint32_t max_term_depth = 256;
  /// Semi-naive evaluation: from round two on, only fire triggers that
  /// touch at least one fact created in the previous round, each exactly
  /// once: rooted at its first delta atom, with the atoms before that
  /// pivot restricted to pre-delta rows. Produces the same result as
  /// naive evaluation (the Skolem chase is idempotent); disable only for
  /// the ablation benchmark and as the differential oracle.
  bool semi_naive = true;
  /// Cross-cutting resource budget (deadline, bytes, steps, cancellation)
  /// enforced by a ResourceGovernor on top of the structural caps above.
  /// One chase step = one trigger processed or one matcher row probed; a
  /// semi-naive delta row costs the one probe that binds the pivot to it.
  ExecutionBudget budget;
  /// Execution lanes for the Skolem chase's round staging (1 = serial,
  /// 0 = one per hardware thread). Any value produces byte-identical
  /// results — instance text, stop reason, step counts and snapshots —
  /// because trigger matching is staged over fixed-geometry slices whose
  /// results merge in a deterministic order (see docs/PARALLELISM.md).
  /// The restricted chase ignores it and always runs serially.
  uint32_t threads = 1;
  /// Out-of-core mode (docs/STORAGE.md): when non-empty, the engine's
  /// instance spills sealed fact segments into this directory and the
  /// governor's memory-pressure path evicts hot segments before giving up
  /// with kMemoryLimit. Empty (the default) keeps the fully in-core
  /// store. Either mode produces byte-identical chase results.
  std::string spill_dir;
  /// Segment payload size for the spill store, in KiB.
  uint64_t spill_segment_kb = 256;
};

/// Complete resumable state of a ChaseEngine, as captured by
/// CaptureState() and restored by the resume constructor. The snapshot
/// layer (src/snapshot) serializes this struct; the engine itself only
/// defines what "resumable" means.
///
/// Consistency model: a checkpoint may be taken at any governor poll, i.e.
/// in the middle of a round. On resume the engine REPLAYS the round it was
/// in from that round's start. The Skolem chase is idempotent (facts
/// dedup, ground-term-to-null mapping is memoized in term_to_value), so
/// the replay commits exactly the facts the uninterrupted run would have,
/// in the same order, and the final result is bit-identical.
struct ChaseEngineState {
  explicit ChaseEngineState(const Vocabulary* vocab) : instance(vocab) {}

  /// A loaded state's instance: the snapshot loader materializes it here
  /// and the resume constructor takes it over. Empty in a captured state.
  Instance instance;
  /// A captured state's instance: CaptureState points at the live
  /// engine's instance, in-core or spilled, instead of copying it. Null
  /// for states restored from disk.
  const Instance* live = nullptr;
  /// Torn-round rollback: per-relation row counts to keep (round-start
  /// counts), in ActiveRelations order. The snapshot writer renders only
  /// rows [0, keep). Empty means keep everything (the capture was at a
  /// round boundary).
  std::vector<std::pair<RelationId, uint64_t>> keep_rows;
  /// Ground term -> value memo (term ids index the serialized arena).
  std::vector<std::pair<TermId, Value>> term_to_value;
  std::vector<TermId> null_provenance;
  /// Semi-naive windows: per-relation row counts at the start of the
  /// previous / current round (row ids are stable, so counts suffice).
  std::vector<std::pair<RelationId, uint64_t>> rows_before_prev_round;
  std::vector<std::pair<RelationId, uint64_t>> rows_before_current_round;
  bool done = false;
  StopReason stop_reason = StopReason::kFixpoint;
  uint64_t rounds = 0;
  uint64_t facts_created = 0;
  /// Governor consumption already paid for (telemetry only on resume;
  /// never re-charged against new budget limits).
  uint64_t governor_steps = 0;
  uint64_t governor_charged_bytes = 0;
};

/// Round-by-round Skolem chase over one SO tgd (= rule set).
class ChaseEngine {
 public:
  /// `arena` receives ground Skolem terms; `vocab` is used for null
  /// provenance labels. An in-core engine owns `input`: it becomes the
  /// engine's instance, so a caller that is done with its input moves it
  /// in and nothing is copied. A spilled engine (`limits.spill_dir` set)
  /// builds a fresh out-of-core store and copies `input` into it. Either
  /// way the input's null labels are dropped: input nulls print as _N<i>.
  ChaseEngine(TermArena* arena, Vocabulary* vocab, const SoTgd& rules,
              Instance input, ChaseLimits limits = {});

  /// Resumes from a state captured by CaptureState() and loaded back from
  /// its snapshot (ParseChaseSnapshot). `arena` and `vocab` must hold
  /// exactly the contents they had at capture time (the snapshot layer
  /// restores them alongside the state). A state whose stop_reason is a
  /// resource stop is re-opened: the engine clears done and continues
  /// (replaying the interrupted round) under the new `limits`; a
  /// kFixpoint state stays complete.
  ChaseEngine(TermArena* arena, Vocabulary* vocab, const SoTgd& rules,
              ChaseEngineState&& state, ChaseLimits limits = {});

  /// The governor registers the arena and the growing instance as memory
  /// sources, and the compiled rule parts point at the instance; moving
  /// the engine would invalidate both.
  ChaseEngine(const ChaseEngine&) = delete;
  ChaseEngine& operator=(const ChaseEngine&) = delete;
  ~ChaseEngine();

  /// Runs one full round (every rule, every trigger). Returns true if at
  /// least one new fact was added and no limit was hit.
  bool Step();

  /// Runs rounds until fixpoint or a limit.
  void Run();

  const Instance& instance() const { return instance_; }
  Instance&& TakeInstance() { return std::move(instance_); }

  bool done() const { return done_; }
  StopReason stop_reason() const { return stop_reason_; }
  uint64_t rounds() const { return rounds_; }
  uint64_t facts_created() const { return facts_created_; }

  /// The governor enforcing limits_.budget (for steps/bytes telemetry).
  const ResourceGovernor& governor() const { return governor_; }

  /// Effective execution lanes (ChaseLimits::threads with 0 resolved to
  /// the hardware thread count).
  unsigned threads() const { return pool_->threads(); }

  /// Provenance: the ground Skolem term a chase-created null stands for
  /// (kInvalidTerm for nulls already present in the input).
  TermId NullProvenance(uint32_t null_index) const;

  /// Captures the engine's resumable state. Safe to call at any governor
  /// poll (see ChaseEngineState for the consistency model) and after the
  /// run ended. The state points into the engine (`live`), so it must be
  /// serialized before the engine steps again.
  ChaseEngineState CaptureState() const;

  /// Registers a periodic checkpoint hook on the engine's governor: every
  /// `every_steps` steps / `every_ms` milliseconds (whichever fires first;
  /// 0 = unconstrained) the hook receives the live engine to snapshot via
  /// CaptureState(). The hook must not mutate the engine.
  void SetCheckpointHook(uint64_t every_steps, uint64_t every_ms,
                         std::function<void(const ChaseEngine&)> hook);

 private:
  /// A rule part compiled once per engine: its body Matcher and a head
  /// plan (defined in chase.cc).
  struct CompiledPart;
  /// One staged trigger of the current round: its part and where its head
  /// values start in pending_values_.
  struct StagedTrigger {
    uint32_t part;
    size_t begin;
  };

  /// Builds parts_ from rules_ (both constructors).
  void CompileRules();
  /// Maps a value to the ground term representing it.
  TermId ValueToTerm(Value v);
  /// Maps a ground term to a value, creating a canonical null if needed.
  /// Returns an invalid Value when the depth limit is exceeded.
  Value TermToValue(TermId t);
  /// Grounds one compiled term template under a body match.
  TermId GroundTemplate(const CompiledPart& part, uint32_t first_op,
                        uint32_t num_ops, std::span<const Value> row);

  /// Processes one trigger (a complete body match, one value per body
  /// slot): checks the equalities and appends the head values to the
  /// round's pending buffer as one atomic unit. Returns false on a limit;
  /// a trigger that hits a limit mid-head stages nothing (no partial head
  /// facts are ever committed).
  bool StageTrigger(uint32_t part_index, std::span<const Value> row);
  /// One round's trigger enumeration: stages matching over fixed-geometry
  /// slices fanned across the pool (read-only against the round-frozen
  /// instance), then merges the per-slice rows serially in slice order —
  /// charging governor steps and running StageTrigger for each match.
  /// The slice geometry and merge order are independent of the thread
  /// count, so any `threads` setting observes the identical step/trigger
  /// sequence. Returns false when the round halted (reason recorded).
  bool StageAndMergeRound(bool use_delta);
  /// Commits the round's staged triggers. The instance only mutates here:
  /// enumeration always sees the round-start instance, which is what
  /// makes round replay (and therefore resume) deterministic. Nothing in
  /// the flush polls the governor (neither AddFact nor
  /// ChaseGuard::CanCommit does), so the checkpoint hook, which runs only
  /// from the governor's slow path, never sees a half-committed round.
  bool FlushPending();
  /// Records the first stop reason and marks the run done.
  void Halt(StopReason reason);
  /// Spill mode: registers the governor's memory-pressure hook
  /// (spill-and-evict before a kMemoryLimit stop).
  void InstallSpillPressureHandler();
  /// True iff any relation gained rows since the current round started
  /// (fixpoint test for replayed rounds).
  bool InstanceGrewSinceRoundStart() const;

  TermArena* arena_;
  Vocabulary* vocab_;
  SoTgd rules_;
  ChaseLimits limits_;
  ResourceGovernor governor_;
  /// Staging lanes (never serialized; rebuilt from limits on resume).
  std::unique_ptr<ThreadPool> pool_;
  Instance instance_;
  /// Body matchers and head plans, one per rule part (after instance_:
  /// the matchers point at it).
  std::vector<CompiledPart> parts_;
  /// The round's staged head values, trigger after trigger, and where each
  /// trigger starts; reused across rounds.
  std::vector<Value> pending_values_;
  std::vector<StagedTrigger> pending_triggers_;
  /// Scratch stack of GroundTemplate.
  std::vector<TermId> term_stack_;
  /// Constant id -> its arena term (kInvalidTerm until first needed).
  std::vector<TermId> constant_terms_;
  std::unordered_map<TermId, Value> term_to_value_;
  std::vector<TermId> null_provenance_;  // null index -> ground term
  // Semi-naive bookkeeping: per-relation row counts at the start of the
  // previous and the current round.
  std::unordered_map<RelationId, size_t> rows_before_prev_round_;
  std::unordered_map<RelationId, size_t> rows_before_current_round_;
  bool done_ = false;
  StopReason stop_reason_ = StopReason::kFixpoint;
  uint64_t rounds_ = 0;
  uint64_t facts_created_ = 0;
  /// Resume: the next Step() re-runs the round the captured engine was in
  /// (same semi-naive windows, no round increment); fixpoint detection for
  /// that round compares row counts against the round-start windows
  /// instead of the replay's (deduplicated) insertions.
  bool replay_round_ = false;
};

struct ChaseResult {
  Instance instance;
  StopReason stop_reason;
  uint64_t rounds;
  uint64_t facts_created;
  /// Provenance: for each null index, the ground Skolem term it stands
  /// for (kInvalidTerm for input nulls).
  std::vector<TermId> null_provenance;
  /// Governor telemetry: steps consumed and last observed bytes.
  uint64_t budget_steps = 0;
  uint64_t budget_bytes = 0;

  bool Terminated() const { return stop_reason == StopReason::kFixpoint; }

  /// Machine-readable outcome: Ok on fixpoint, ResourceExhausted with the
  /// stop reason otherwise (the instance is then a sound partial model).
  Status ToStatus() const { return StopReasonToStatus(stop_reason, "chase"); }

  /// Renders the Skolem term behind a chase-created null, e.g.
  /// "sk_dm$0(\"cs\")". Input nulls and constants render as themselves.
  std::string ExplainValue(const TermArena& arena, const Vocabulary& vocab,
                           Value v) const;
  /// ExplainValue, streamed: the term goes through TermArena::Write, so
  /// `governor` (may be null) is polled once per term node. False once the
  /// governor is exhausted or `out` has failed.
  bool WriteExplanation(const TermArena& arena, const Vocabulary& vocab,
                        Value v, ChunkedWriter* out,
                        ResourceGovernor* governor = nullptr) const;
};

/// Convenience wrapper: chases `input` under `rules` to fixpoint or limit.
/// Takes `input` as ChaseEngine does: move it in when done with it.
ChaseResult Chase(TermArena* arena, Vocabulary* vocab, const SoTgd& rules,
                  Instance input, ChaseLimits limits = {});

/// The classical restricted (standard) chase for first-order tgds:
/// chases `input` under `tgds` to fixpoint or limit, firing a trigger only
/// if its head cannot be satisfied by any extension homomorphism; new
/// nulls are fresh per firing. Non-deterministic in general; triggers are
/// processed in a fixed order, so runs are reproducible. A reference
/// engine: it runs serially whatever `limits.threads` says.
ChaseResult RestrictedChaseTgds(TermArena* arena, std::span<const Tgd> tgds,
                                const Instance& input, ChaseLimits limits = {});

}  // namespace tgdkit
