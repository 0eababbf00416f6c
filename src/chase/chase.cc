#include "chase/chase.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <thread>

#include "base/fileio.h"
#include "base/strings.h"

namespace tgdkit {

namespace {

/// Root-candidate / delta rows per staging slice. Fixed independently of
/// the thread count: the slice list, the per-slice step totals, and the
/// merge-time PollN sequence are therefore identical for every `threads`
/// setting — which is what makes N-thread runs byte-identical to serial
/// ones, including governor slow-path check points, checkpoint-hook
/// firing steps, and snapshot contents.
constexpr size_t kSliceRows = 64;

unsigned ResolveThreads(uint32_t requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Staged bytes a slice accumulates before it adds them to the round's
/// shared total.
constexpr uint64_t kStageChargeBytes = 64 * 1024;

/// First-cause abort latch shared by one round's staging workers. Two kinds
/// of stop abort staging from inside a worker, and the round is then
/// discarded whole, no steps charged:
///  * the time-based ones (deadline, cancellation);
///  * an in-core engine's memory budget on the round's staged rows. Every
///    slice adds all it stages to one total, so the budget trips iff the
///    whole round would stage more than it allows. That depends only on
///    the slice geometry, so this stop is the same at every thread count.
/// The other budgets (steps, the arena's and the instance's bytes,
/// structural caps) are enforced solely at the serial merge so their trip
/// points cannot depend on scheduling.
struct StageAbort {
  explicit StageAbort(uint64_t max_staged_bytes)
      : max_staged_bytes(max_staged_bytes) {}

  std::atomic<bool> requested{false};
  std::atomic<uint8_t> reason{static_cast<uint8_t>(StopReason::kFixpoint)};
  /// The memory budget (0: staging is unbounded) and the bytes the round
  /// has staged so far.
  const uint64_t max_staged_bytes;
  std::atomic<uint64_t> staged_bytes{0};

  void Request(StopReason r) {
    reason.store(static_cast<uint8_t>(r), std::memory_order_relaxed);
    requested.store(true, std::memory_order_release);
  }
  bool Requested() const {
    return requested.load(std::memory_order_relaxed);
  }
  StopReason Reason() const {
    return static_cast<StopReason>(reason.load(std::memory_order_relaxed));
  }
  /// Adds `bytes` to the round's staged total; past the budget, requests
  /// a memory-limit abort.
  void ChargeStaged(uint64_t bytes) {
    if (max_staged_bytes == 0) return;
    uint64_t total =
        staged_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (total > max_staged_bytes) Request(StopReason::kMemoryLimit);
  }
};

/// The advisory check workers run at slice starts and every
/// SearchControls::kPeriodicCheckStride matcher probes. Reads only
/// immutable governor state (start time) and atomics, so it is safe from
/// any thread; the engine re-records the cause via Halt after the barrier.
std::function<bool()> MakePeriodicCheck(const ChaseLimits& limits,
                                        const ResourceGovernor& governor,
                                        StageAbort* abort) {
  return [&limits, &governor, abort] {
    if (abort->Requested()) return false;
    if (limits.budget.cancel.cancelled()) {
      abort->Request(StopReason::kCancelled);
      return false;
    }
    if (limits.budget.deadline_ms != 0 &&
        governor.elapsed_ms() >=
            static_cast<double>(limits.budget.deadline_ms)) {
      abort->Request(StopReason::kDeadline);
      return false;
    }
    return true;
  };
}

/// One unit of staged matching: a contiguous range of root candidates
/// (full evaluation) or of one pivot's delta rows (semi-naive), or a
/// whole un-shardable search (query with no atoms).
struct MatchSlice {
  uint32_t part = 0;  // rule part / tgd index
  int root_atom = -1;  // -1: whole search
  bool delta = false;  // rows [begin, end) are row ids, not candidate indexes
  size_t window = 0;   // semi-naive: index of the pivot's row windows
  size_t begin = 0;
  size_t end = 0;
};

/// Per-slice output slot: the matched body rows in enumeration order,
/// flat (`matches` rows of one value per body slot), plus the staged step
/// count: matcher probes, the root's included, so a delta row's one
/// charge is the probe that binds the pivot to it. Charged to the
/// governor at merge time.
struct SliceResult {
  std::vector<Value> values;
  size_t matches = 0;
  uint64_t steps = 0;
};

/// Appends `slices` entries covering [begin, end) in kSliceRows chunks.
void PushRowSlices(const MatchSlice& proto, size_t begin, size_t end,
                   std::vector<MatchSlice>* slices) {
  for (size_t b = begin; b < end; b += kSliceRows) {
    MatchSlice s = proto;
    s.begin = b;
    s.end = std::min(end, b + kSliceRows);
    slices->push_back(s);
  }
}

/// Stages one slice: read-only matching against the round-frozen instance
/// into `out`, under the row windows `window` (empty = none). `keep`
/// (restricted chase) drops matches whose head already holds. Every staged
/// byte is charged to `abort`, a chunk at a time. Runs concurrently with
/// itself on other slices — everything it touches is immutable, per-slice,
/// or atomic.
void RunSlice(const Matcher& matcher, const Matcher::RootSplit& split,
              const MatchSlice& slice, std::span<const uint32_t> window,
              const Matcher::Callback& keep,
              const std::function<bool()>& periodic, StageAbort* abort,
              SliceResult* out) {
  if (!periodic()) return;
  SearchControls controls;
  controls.probe_counter = &out->steps;
  controls.periodic_check = periodic;
  controls.row_limits = window;
  uint64_t uncharged = 0;
  Matcher::Callback emit = [&](std::span<const Value> row) {
    if (!keep || keep(row)) {
      out->values.insert(out->values.end(), row.begin(), row.end());
      ++out->matches;
      uncharged += row.size_bytes();
      if (uncharged >= kStageChargeBytes) {
        abort->ChargeStaged(uncharged);
        uncharged = 0;
      }
    }
    return !abort->Requested();
  };
  if (slice.root_atom < 0) {
    matcher.ForEach({}, emit, controls);
  } else {
    std::vector<uint32_t> rows;
    rows.reserve(slice.end - slice.begin);
    for (size_t i = slice.begin; i < slice.end; ++i) {
      rows.push_back(slice.delta ? static_cast<uint32_t>(i) : split.Row(i));
    }
    matcher.ForEachFromRoot({}, slice.root_atom, rows, emit, controls);
  }
  abort->ChargeStaged(uncharged);
}

/// Row count of `rel` in a per-relation window map (0 when absent).
size_t RowsIn(const std::unordered_map<RelationId, size_t>& counts,
              RelationId rel) {
  auto it = counts.find(rel);
  return it == counts.end() ? 0 : it->second;
}

/// Round/fact bookkeeping shared by ChaseEngine and RestrictedChaseTgds:
/// both engines historically duplicated these checks; they now funnel
/// through the governor so every stop carries one StopReason.
class ChaseGuard {
 public:
  ChaseGuard(const ChaseLimits& limits, ResourceGovernor* governor)
      : limits_(limits), governor_(governor) {}

  /// Gate for starting another round: false on the round cap or when the
  /// cross-cutting budget (deadline/bytes/steps/cancel) is exhausted.
  bool BeginRound(uint64_t completed_rounds) {
    if (completed_rounds >= limits_.max_rounds) {
      governor_->MarkExhausted(StopReason::kRoundLimit);
      return false;
    }
    return governor_->CheckNow();
  }

  /// Gate for committing one trigger's head atomically: false when the
  /// commit would push the instance past the fact cap.
  bool CanCommit(size_t current_facts, size_t incoming) {
    if (current_facts + incoming > limits_.max_facts) {
      governor_->MarkExhausted(StopReason::kFactLimit);
      return false;
    }
    return true;
  }

 private:
  const ChaseLimits& limits_;
  ResourceGovernor* governor_;
};

}  // namespace

/// A rule part compiled once per engine. Each head argument is a body
/// slot, a constant, or a term template; templates (Skolem terms, and
/// both sides of every equality) are postfix programs over `ops`, so a
/// trigger touches the TermArena only to build its Skolem terms.
struct ChaseEngine::CompiledPart {
  struct Op {
    enum class Kind : uint8_t { kSlot, kTerm, kApply };
    Kind kind;
    uint32_t operand;  // body slot, term id, or function id
    uint32_t arity;    // kApply: number of arguments on the stack
  };
  struct Arg {
    enum class Kind : uint8_t { kSlot, kConstant, kTemplate };
    Kind kind;
    uint32_t slot = 0;
    Value constant;
    uint32_t first_op = 0;  // kTemplate: ops[first_op, first_op + num_ops)
    uint32_t num_ops = 0;
  };

  CompiledPart(const TermArena& arena, const Instance* instance,
               const SoPart& part)
      : matcher(&arena, instance, part.body) {
    for (const Atom& atom : part.head) {
      head_relations.push_back(atom.relation);
      head_arities.push_back(static_cast<uint32_t>(atom.args.size()));
      for (TermId t : atom.args) {
        Arg arg;
        if (arena.IsConstant(t)) {
          arg.kind = Arg::Kind::kConstant;
          arg.constant = Value::Constant(arena.symbol(t));
        } else if (arena.IsVariable(t) &&
                   matcher.Slot(arena.symbol(t)) >= 0) {
          arg.kind = Arg::Kind::kSlot;
          arg.slot = static_cast<uint32_t>(matcher.Slot(arena.symbol(t)));
        } else {
          arg = Template(arena, t);
        }
        head_args.push_back(arg);
      }
    }
    for (const SoEquality& eq : part.equalities) {
      equalities.emplace_back(Template(arena, eq.lhs),
                              Template(arena, eq.rhs));
    }
  }

  /// Compiles `t` into ops evaluating it under a body match: bound
  /// variables read their slot, function terms re-intern their grounded
  /// arguments, and anything else (a constant, or an unbound variable,
  /// which stays itself as under Substitution::Apply) is used as it is.
  Arg Template(const TermArena& arena, TermId t) {
    Arg arg;
    arg.kind = Arg::Kind::kTemplate;
    arg.first_op = static_cast<uint32_t>(ops.size());
    EmitOps(arena, t);
    arg.num_ops = static_cast<uint32_t>(ops.size()) - arg.first_op;
    return arg;
  }

  void EmitOps(const TermArena& arena, TermId t) {
    int slot = arena.IsVariable(t) ? matcher.Slot(arena.symbol(t)) : -1;
    if (slot >= 0) {
      ops.push_back({Op::Kind::kSlot, static_cast<uint32_t>(slot), 0});
    } else if (arena.IsFunction(t)) {
      std::span<const TermId> args = arena.args(t);
      for (TermId a : args) EmitOps(arena, a);
      ops.push_back({Op::Kind::kApply, arena.symbol(t),
                     static_cast<uint32_t>(args.size())});
    } else {
      ops.push_back({Op::Kind::kTerm, t, 0});
    }
  }

  Matcher matcher;
  std::vector<Op> ops;
  std::vector<Arg> head_args;  // every head atom's arguments, in order
  std::vector<RelationId> head_relations;
  std::vector<uint32_t> head_arities;
  std::vector<std::pair<Arg, Arg>> equalities;
};

ChaseEngine::~ChaseEngine() = default;

void ChaseEngine::CompileRules() {
  parts_.reserve(rules_.parts.size());
  for (const SoPart& part : rules_.parts) {
    parts_.emplace_back(*arena_, &instance_, part);
  }
}

ChaseEngine::ChaseEngine(TermArena* arena, Vocabulary* vocab,
                         const SoTgd& rules, Instance input,
                         ChaseLimits limits)
    : arena_(arena),
      vocab_(vocab),
      rules_(rules),
      limits_(limits),
      governor_(limits.budget),
      pool_(std::make_unique<ThreadPool>(ResolveThreads(limits.threads))),
      instance_(&input.vocab()) {
  TermArena* arena_ptr = arena_;
  governor_.AddMemorySource([arena_ptr] { return arena_ptr->ApproxBytes(); });
  Instance* instance_ptr = &instance_;
  governor_.AddMemorySource(
      [instance_ptr] { return instance_ptr->ApproxBytes(); });
  if (limits_.spill_dir.empty()) {
    // In-core, the input becomes the instance: the same rows, row ids and
    // byte accounting a copy would have. CopyFacts never copied null
    // labels, so the chase prints input nulls by index; keep it so.
    instance_ = std::move(input);
    for (uint32_t i = 0; i < instance_.num_nulls(); ++i) {
      instance_.SetNullLabel(i, "");
    }
  } else {
    // The out-of-core backend must be selected before the first fact
    // lands (EnableSpill requires an empty store), so a spilled engine
    // copies its input instead of taking it over.
    Status enabled = MakeDirectories(limits_.spill_dir);
    if (enabled.ok()) {
      SpillConfig config;
      config.dir = limits_.spill_dir;
      config.segment_bytes = limits_.spill_segment_kb * 1024;
      // Seal-time soft cap at half the byte budget: CopyFacts and round
      // flushes never poll the governor between insertions, so sealing
      // itself sheds cold segments before the next slow-path sample.
      config.max_resident_bytes = limits_.budget.max_memory_bytes / 2;
      enabled = instance_.EnableSpill(config);
    }
    assert(enabled.ok() && "spill setup failed");
    (void)enabled;
    InstallSpillPressureHandler();
    CopyFacts(input, &instance_);
  }
  null_provenance_.assign(instance_.num_nulls(), kInvalidTerm);
  CompileRules();
}

void ChaseEngine::InstallSpillPressureHandler() {
  governor_.SetPressureHandler([this](uint64_t target_bytes) {
    // Evict to half the budget so one relief buys lasting headroom
    // instead of re-entering the slow path over-budget every sample.
    instance_.EvictToBudget(target_bytes / 2);
  });
}

ChaseEngine::ChaseEngine(TermArena* arena, Vocabulary* vocab,
                         const SoTgd& rules, ChaseEngineState&& state,
                         ChaseLimits limits)
    : arena_(arena),
      vocab_(vocab),
      rules_(rules),
      limits_(limits),
      governor_(limits.budget),
      pool_(std::make_unique<ThreadPool>(ResolveThreads(limits.threads))),
      instance_(std::move(state.instance)) {
  TermArena* arena_ptr = arena_;
  governor_.AddMemorySource([arena_ptr] { return arena_ptr->ApproxBytes(); });
  Instance* instance_ptr = &instance_;
  governor_.AddMemorySource(
      [instance_ptr] { return instance_ptr->ApproxBytes(); });
  CompileRules();
  term_to_value_.insert(state.term_to_value.begin(),
                        state.term_to_value.end());
  null_provenance_ = std::move(state.null_provenance);
  for (const auto& [rel, count] : state.rows_before_prev_round) {
    rows_before_prev_round_[rel] = count;
  }
  for (const auto& [rel, count] : state.rows_before_current_round) {
    rows_before_current_round_[rel] = count;
  }
  rounds_ = state.rounds;
  facts_created_ = state.facts_created;
  governor_.RestorePriorConsumption(state.governor_steps,
                                    state.governor_charged_bytes);
  if (instance_.spill_enabled()) {
    // The snapshot loader restored the spilled store (with the recorded
    // segment geometry) but every restored segment is still hot; install
    // this run's budget cap and shed down to it before the first round.
    uint64_t cap = limits_.budget.max_memory_bytes / 2;
    instance_.SetSpillResidentCap(cap);
    InstallSpillPressureHandler();
    if (cap != 0) instance_.EvictToBudget(cap);
  }
  if (state.done && state.stop_reason == ChaseStop::kFixpoint) {
    // A completed chase stays completed; there is nothing to resume.
    done_ = true;
    stop_reason_ = ChaseStop::kFixpoint;
  } else {
    // Re-open a resource-stopped (or mid-run) state: the next Step()
    // replays the interrupted round under the restored windows.
    done_ = false;
    stop_reason_ = ChaseStop::kFixpoint;
    replay_round_ = rounds_ > 0;
  }
}

ChaseEngineState ChaseEngine::CaptureState() const {
  ChaseEngineState state(&instance_.vocab());
  bool torn = rounds_ > 0 && !(done_ && stop_reason_ == ChaseStop::kFixpoint) &&
              InstanceGrewSinceRoundStart();
  uint64_t dropped_facts = 0;
  if (instance_.spill_enabled()) {
    // Spill mode: no deep copy of a mostly-on-disk store. The snapshot
    // serializer flushes dirty segments and references the immutable
    // segment files by name, rendering only the mutable remainder as
    // text. A torn capture records the round-start row counts; the
    // writer truncates to them (the redone round re-derives the rest).
    state.spill_instance = &instance_;
    if (torn) {
      for (RelationId rel : instance_.ActiveRelations()) {
        uint64_t keep = RowsIn(rows_before_current_round_, rel);
        state.spill_keep_rows.emplace_back(rel, keep);
        dropped_facts += instance_.NumTuples(rel) - keep;
      }
    }
  } else if (!torn) {
    state.instance = instance_;
  } else {
    // The current round has (partially) committed — e.g. the run halted
    // inside FlushPending, or the capture fired at the boundary right
    // after a flush. Replaying over those commits would enumerate extra
    // triggers and break determinism, so roll the instance back to the
    // round's start; the resumed engine redoes the round from scratch.
    // The term-to-value memo and the allocated nulls are kept: the redo
    // re-derives the same facts with the same nulls, in the same order.
    state.instance.EnsureNulls(instance_.num_nulls());
    for (uint32_t i = 0; i < instance_.num_nulls(); ++i) {
      state.instance.SetNullLabel(i, instance_.NullLabel(i));
    }
    for (RelationId rel : instance_.ActiveRelations()) {
      size_t keep = RowsIn(rows_before_current_round_, rel);
      for (size_t row = 0; row < keep; ++row) {
        Fact f;
        f.relation = rel;
        std::span<const Value> tuple =
            instance_.Tuple(rel, static_cast<uint32_t>(row));
        f.args.assign(tuple.begin(), tuple.end());
        state.instance.AddFact(f);
      }
      dropped_facts += instance_.NumTuples(rel) - keep;
    }
  }
  state.term_to_value.assign(term_to_value_.begin(), term_to_value_.end());
  std::sort(state.term_to_value.begin(), state.term_to_value.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  state.null_provenance = null_provenance_;
  state.rows_before_prev_round.assign(rows_before_prev_round_.begin(),
                                      rows_before_prev_round_.end());
  std::sort(state.rows_before_prev_round.begin(),
            state.rows_before_prev_round.end());
  state.rows_before_current_round.assign(rows_before_current_round_.begin(),
                                         rows_before_current_round_.end());
  std::sort(state.rows_before_current_round.begin(),
            state.rows_before_current_round.end());
  state.done = done_;
  state.stop_reason = stop_reason_;
  state.rounds = rounds_;
  state.facts_created =
      dropped_facts > facts_created_ ? 0 : facts_created_ - dropped_facts;
  state.governor_steps = governor_.total_steps();
  state.governor_charged_bytes = governor_.total_charged_bytes();
  return state;
}

void ChaseEngine::SetCheckpointHook(
    uint64_t every_steps, uint64_t every_ms,
    std::function<void(const ChaseEngine&)> hook) {
  checkpoint_hook_ = std::move(hook);
  governor_.SetCheckpointHook(every_steps, every_ms, [this] {
    // During FlushPending the instance holds a half-committed round;
    // capturing it would not replay deterministically. Defer to the
    // round's end (a safe point by construction).
    if (in_flush_) {
      deferred_checkpoint_ = true;
    } else {
      checkpoint_hook_(*this);
    }
  });
}

void ChaseEngine::Halt(StopReason reason) {
  governor_.MarkExhausted(reason);
  stop_reason_ = governor_.reason();
  done_ = true;
}

TermId ChaseEngine::NullProvenance(uint32_t null_index) const {
  if (null_index >= null_provenance_.size()) return kInvalidTerm;
  return null_provenance_[null_index];
}

TermId ChaseEngine::ValueToTerm(Value v) {
  if (v.is_constant()) {
    if (v.index() >= constant_terms_.size()) {
      constant_terms_.resize(v.index() + 1, kInvalidTerm);
    }
    TermId& term = constant_terms_[v.index()];
    if (term == kInvalidTerm) term = arena_->MakeConstant(v.index());
    return term;
  }
  // Input nulls behave like opaque individuals: represent null i as the
  // 0-ary function term @innull<i>().
  TermId provenance = NullProvenance(v.index());
  if (provenance != kInvalidTerm) return provenance;
  FunctionId f = vocab_->InternFunction(Cat("@innull", v.index()), 0);
  TermId t = arena_->MakeFunction(f, {});
  term_to_value_.emplace(t, v);
  if (v.index() < null_provenance_.size()) {
    null_provenance_[v.index()] = t;
  }
  return t;
}

Value ChaseEngine::TermToValue(TermId t) {
  if (arena_->IsConstant(t)) return Value::Constant(arena_->symbol(t));
  auto it = term_to_value_.find(t);
  if (it != term_to_value_.end()) return it->second;
  if (arena_->Depth(t) > limits_.max_term_depth) return Value();
  Value null = instance_.FreshNull();
  term_to_value_.emplace(t, null);
  null_provenance_.push_back(t);
  assert(null_provenance_.size() == instance_.num_nulls());
  return null;
}

TermId ChaseEngine::GroundTemplate(const CompiledPart& part, uint32_t first_op,
                                   uint32_t num_ops,
                                   std::span<const Value> row) {
  term_stack_.clear();
  for (uint32_t i = first_op; i < first_op + num_ops; ++i) {
    const CompiledPart::Op& op = part.ops[i];
    switch (op.kind) {
      case CompiledPart::Op::Kind::kSlot:
        term_stack_.push_back(ValueToTerm(row[op.operand]));
        break;
      case CompiledPart::Op::Kind::kTerm:
        term_stack_.push_back(op.operand);
        break;
      case CompiledPart::Op::Kind::kApply: {
        size_t base = term_stack_.size() - op.arity;
        TermId term = arena_->MakeFunction(
            op.operand, std::span<const TermId>(term_stack_).subspan(base));
        term_stack_.resize(base);
        term_stack_.push_back(term);
        break;
      }
    }
  }
  return term_stack_.back();
}

bool ChaseEngine::StageTrigger(uint32_t part_index,
                               std::span<const Value> row) {
  if (!governor_.Poll()) {
    Halt(governor_.reason());
    return false;
  }
  const CompiledPart& part = parts_[part_index];
  // Every input null a trigger binds gets its @innull provenance, whether
  // or not the head reads it: explain prints that provenance.
  for (Value v : row) {
    if (v.is_null() && null_provenance_[v.index()] == kInvalidTerm) {
      ValueToTerm(v);
    }
  }
  // Equalities: free interpretation — ground terms must coincide.
  for (const auto& [lhs, rhs] : part.equalities) {
    if (GroundTemplate(part, lhs.first_op, lhs.num_ops, row) !=
        GroundTemplate(part, rhs.first_op, rhs.num_ops, row)) {
      return true;  // trigger inactive
    }
  }
  // Stage the whole head: if any head term overflows the depth budget,
  // the trigger contributes nothing (never a partial head).
  const size_t begin = pending_values_.size();
  for (const CompiledPart::Arg& arg : part.head_args) {
    Value v;
    switch (arg.kind) {
      case CompiledPart::Arg::Kind::kSlot:
        v = row[arg.slot];
        break;
      case CompiledPart::Arg::Kind::kConstant:
        v = arg.constant;
        break;
      case CompiledPart::Arg::Kind::kTemplate:
        v = TermToValue(GroundTemplate(part, arg.first_op, arg.num_ops, row));
        break;
    }
    if (!v.valid()) {
      pending_values_.resize(begin);
      Halt(StopReason::kDepthLimit);
      return false;
    }
    pending_values_.push_back(v);
  }
  pending_triggers_.push_back({part_index, begin});
  return true;
}

bool ChaseEngine::FlushPending() {
  ChaseGuard guard(limits_, &governor_);
  in_flush_ = true;
  bool added = false;
  for (const StagedTrigger& trigger : pending_triggers_) {
    const CompiledPart& part = parts_[trigger.part];
    // Triggers commit atomically: either the whole head or nothing.
    if (!guard.CanCommit(instance_.NumFacts(), part.head_relations.size())) {
      Halt(governor_.reason());
      in_flush_ = false;
      return added;
    }
    const Value* args = pending_values_.data() + trigger.begin;
    for (size_t i = 0; i < part.head_relations.size(); ++i) {
      if (instance_.AddFact(part.head_relations[i],
                            std::span<const Value>(args, part.head_arities[i]))) {
        added = true;
        ++facts_created_;
      }
      args += part.head_arities[i];
    }
  }
  in_flush_ = false;
  return added;
}

bool ChaseEngine::StageAndMergeRound(bool use_delta) {
  // STAGE (parallel, read-only): enumeration always sees the round-start
  // instance — the instance stays frozen until Step() flushes the whole
  // round. Inserting while enumerating would let this round's conclusions
  // re-trigger within the same round (still sound for the oblivious
  // chase, but rounds would lose their meaning — and a replayed round
  // would enumerate differently than the original, breaking deterministic
  // resume). That freeze is also what makes staging embarrassingly
  // parallel: workers share the instance, the arena and the engine's
  // const Matchers without synchronization.
  const size_t num_parts = parts_.size();
  std::vector<Matcher::RootSplit> splits(num_parts);
  std::vector<MatchSlice> slices;
  // Semi-naive row windows, one vector per (part, pivot): atoms before the
  // pivot see only the rows that existed before the delta, the pivot its
  // delta rows, atoms after it every row. A trigger touching several
  // delta facts therefore fires once, at its first delta atom. That is its
  // first occurrence in (part, pivot, row) order, which must stay where
  // it is: it mints the trigger's nulls.
  std::vector<std::vector<uint32_t>> windows;
  for (size_t p = 0; p < num_parts; ++p) {
    const std::vector<Atom>& body = rules_.parts[p].body;
    MatchSlice proto;
    proto.part = static_cast<uint32_t>(p);
    if (use_delta) {
      proto.delta = true;
      for (size_t pivot = 0; pivot < body.size(); ++pivot) {
        RelationId rel = body[pivot].relation;
        size_t delta_begin = RowsIn(rows_before_prev_round_, rel);
        size_t delta_end = RowsIn(rows_before_current_round_, rel);
        if (delta_begin >= delta_end) continue;
        std::vector<uint32_t> window(body.size(), SearchControls::kNoRowLimit);
        for (size_t j = 0; j < pivot; ++j) {
          window[j] = static_cast<uint32_t>(
              RowsIn(rows_before_prev_round_, body[j].relation));
        }
        proto.root_atom = static_cast<int>(pivot);
        proto.window = windows.size();
        windows.push_back(std::move(window));
        PushRowSlices(proto, delta_begin, delta_end, &slices);
      }
    } else {
      splits[p] = parts_[p].matcher.PlanRoot({});
      proto.root_atom = splits[p].atom;
      if (proto.root_atom < 0) {
        slices.push_back(proto);
      } else {
        PushRowSlices(proto, 0, splits[p].NumCandidates(), &slices);
      }
    }
  }

  std::vector<SliceResult> results(slices.size());
  // A spilled engine must finish on an instance many times its memory
  // budget, and a full-scan round stages every row it matches, so only an
  // in-core engine bounds a round's staging.
  const uint64_t max_bytes =
      limits_.spill_dir.empty() ? limits_.budget.max_memory_bytes : 0;
  StageAbort abort(max_bytes);
  std::function<bool()> periodic =
      MakePeriodicCheck(limits_, governor_, &abort);
  pool_->ParallelFor(slices.size(), [&](size_t i) {
    const MatchSlice& s = slices[i];
    std::span<const uint32_t> window;
    if (s.delta) window = windows[s.window];
    RunSlice(parts_[s.part].matcher, splits[s.part], s, window,
             /*keep=*/{}, periodic, &abort, &results[i]);
  });
  if (abort.Requested()) {
    // Deadline, cancellation or staged bytes: discard the staged round
    // whole. Nothing was committed, so the instance is still the
    // round-start instance — the same state a serial run stopping
    // mid-round leaves.
    Halt(abort.Reason());
    return false;
  }

  // MERGE (serial, deterministic): charge each slice's staged work, then
  // process its triggers, in slice order — the order the serial engine
  // enumerates. Step/fact/depth budgets trip here at thread-count-
  // independent points, and so does an in-core memory budget on the
  // staged rows plus the pending head values.
  const uint64_t staged_bytes = abort.staged_bytes.load();
  for (size_t i = 0; i < slices.size(); ++i) {
    if (!governor_.PollN(results[i].steps)) {
      Halt(governor_.reason());
      return false;
    }
    const uint32_t part = slices[i].part;
    const size_t width = parts_[part].matcher.variables().size();
    std::span<const Value> rows = results[i].values;
    for (size_t m = 0; m < results[i].matches; ++m) {
      if (!StageTrigger(part, rows.subspan(m * width, width))) return false;
      if (max_bytes != 0 &&
          staged_bytes + pending_values_.size() * sizeof(Value) +
                  pending_triggers_.size() * sizeof(StagedTrigger) >
              max_bytes) {
        Halt(StopReason::kMemoryLimit);
        return false;
      }
    }
  }
  return true;
}

bool ChaseEngine::InstanceGrewSinceRoundStart() const {
  for (RelationId rel : instance_.ActiveRelations()) {
    if (instance_.NumTuples(rel) != RowsIn(rows_before_current_round_, rel)) {
      return true;
    }
  }
  return false;
}

bool ChaseEngine::Step() {
  if (done_) return false;
  ChaseGuard guard(limits_, &governor_);
  bool replay = replay_round_ && rounds_ > 0;
  replay_round_ = false;
  if (replay) {
    // Resume: redo the interrupted round under its restored semi-naive
    // windows. The round was already counted, so no increment; the budget
    // is still re-checked before firing anything.
    if (!governor_.CheckNow()) {
      Halt(governor_.reason());
      return false;
    }
  } else {
    if (!guard.BeginRound(rounds_)) {
      Halt(governor_.reason());
      return false;
    }
    ++rounds_;
    // Window bookkeeping runs in full evaluation too: it costs one count
    // per active relation and gives checkpoints (and the replay fixpoint
    // test below) round-start row counts in either mode.
    rows_before_prev_round_ = std::move(rows_before_current_round_);
    rows_before_current_round_.clear();
    for (RelationId rel : instance_.ActiveRelations()) {
      rows_before_current_round_[rel] = instance_.NumTuples(rel);
    }
  }

  bool use_delta = limits_.semi_naive && rounds_ > 1;
  // Stage the whole round first, then commit once: enumeration always
  // sees the round-start instance, so replaying a round from any
  // checkpoint taken inside it re-enumerates identically.
  pending_values_.clear();
  pending_triggers_.clear();
  if (!StageAndMergeRound(use_delta)) return false;
  bool any = FlushPending();
  if (deferred_checkpoint_) {
    deferred_checkpoint_ = false;
    if (checkpoint_hook_) checkpoint_hook_(*this);
  }
  if (done_) return false;
  if (replay) {
    // A replayed round re-fires triggers whose facts were committed before
    // the checkpoint; those insertions deduplicate, so "no fact added this
    // Step" does not mean fixpoint. Compare against the round's start.
    any = InstanceGrewSinceRoundStart();
  }
  if (!any) {
    done_ = true;
    stop_reason_ = ChaseStop::kFixpoint;
  }
  return any;
}

void ChaseEngine::Run() {
  while (Step()) {
  }
}

std::string ChaseResult::ExplainValue(const TermArena& arena,
                                      const Vocabulary& vocab,
                                      Value v) const {
  ChunkedWriter out;
  WriteExplanation(arena, vocab, v, &out);
  return out.Take();
}

bool ChaseResult::WriteExplanation(const TermArena& arena,
                                   const Vocabulary& vocab, Value v,
                                   ChunkedWriter* out,
                                   ResourceGovernor* governor) const {
  if (v.is_null() && v.index() < null_provenance.size() &&
      null_provenance[v.index()] != kInvalidTerm) {
    return arena.Write(null_provenance[v.index()], vocab, out, governor);
  }
  // Constants and input nulls (opaque) render as themselves.
  out->Append(instance.ValueToString(v));
  return out->ok();
}

ChaseResult Chase(TermArena* arena, Vocabulary* vocab, const SoTgd& rules,
                  Instance input, ChaseLimits limits) {
  ChaseEngine engine(arena, vocab, rules, std::move(input), limits);
  engine.Run();
  ChaseResult result{engine.TakeInstance(), engine.stop_reason(),
                     engine.rounds(), engine.facts_created(), {}};
  result.budget_steps = engine.governor().total_steps();
  result.budget_bytes = engine.governor().memory_bytes();
  uint32_t num_nulls = result.instance.num_nulls();
  result.null_provenance.reserve(num_nulls);
  for (uint32_t i = 0; i < num_nulls; ++i) {
    result.null_provenance.push_back(engine.NullProvenance(i));
  }
  return result;
}

namespace {

/// The restricted chase behind RestrictedChaseTgds, one round per Step().
class RestrictedChaseEngine {
 public:
  RestrictedChaseEngine(TermArena* arena, std::span<const Tgd> tgds,
                        const Instance& input, const ChaseLimits& limits);

  /// The governor registers the arena and the growing instance as memory
  /// sources; moving the engine would invalidate them.
  RestrictedChaseEngine(const RestrictedChaseEngine&) = delete;
  RestrictedChaseEngine& operator=(const RestrictedChaseEngine&) = delete;

  /// Runs rounds until fixpoint or a limit and moves the result out.
  ChaseResult Run();

 private:
  /// Runs one full round. Returns true if at least one trigger fired and
  /// no limit was hit; false ends the run (at a fixpoint unless Halt
  /// recorded a stop).
  bool Step();
  void Halt(StopReason reason);
  /// Stages one tgd's body matches in parallel over fixed-geometry root
  /// slices, filtering out triggers whose head is already satisfiable
  /// (Exists is uncounted, as in serial evaluation), then appends the
  /// surviving body rows (one value per body slot) to `active` in slice
  /// order — the serial enumeration order — and counts them into
  /// `num_active`. `head_seed` maps each head slot to the body slot that
  /// binds it, or -1. Returns false when the round halted.
  bool StageActive(const Matcher& body_matcher, const Matcher& head_matcher,
                   std::span<const int> head_seed, std::vector<Value>* active,
                   size_t* num_active);

  TermArena* arena_;
  std::span<const Tgd> tgds_;
  const ChaseLimits& limits_;
  ResourceGovernor governor_;
  std::unique_ptr<ThreadPool> pool_;
  Instance instance_;
  ChaseStop stop_reason_ = ChaseStop::kFixpoint;
  uint64_t rounds_ = 0;
  uint64_t facts_created_ = 0;
};

RestrictedChaseEngine::RestrictedChaseEngine(TermArena* arena,
                                             std::span<const Tgd> tgds,
                                             const Instance& input,
                                             const ChaseLimits& limits)
    : arena_(arena),
      tgds_(tgds),
      limits_(limits),
      governor_(limits.budget),
      pool_(std::make_unique<ThreadPool>(ResolveThreads(limits.threads))),
      instance_(&input.vocab()) {
  TermArena* arena_ptr = arena_;
  governor_.AddMemorySource([arena_ptr] { return arena_ptr->ApproxBytes(); });
  Instance* instance_ptr = &instance_;
  governor_.AddMemorySource(
      [instance_ptr] { return instance_ptr->ApproxBytes(); });
  CopyFacts(input, &instance_);
}

void RestrictedChaseEngine::Halt(StopReason reason) {
  governor_.MarkExhausted(reason);
  stop_reason_ = governor_.exhausted() ? governor_.reason() : reason;
}

bool RestrictedChaseEngine::StageActive(const Matcher& body_matcher,
                                        const Matcher& head_matcher,
                                        std::span<const int> head_seed,
                                        std::vector<Value>* active,
                                        size_t* num_active) {
  Matcher::RootSplit split = body_matcher.PlanRoot({});
  std::vector<MatchSlice> slices;
  MatchSlice proto;
  proto.root_atom = split.atom;
  if (split.atom < 0) {
    slices.push_back(proto);
  } else {
    PushRowSlices(proto, 0, split.NumCandidates(), &slices);
  }
  std::vector<SliceResult> results(slices.size());
  StageAbort abort(limits_.budget.max_memory_bytes);
  std::function<bool()> periodic =
      MakePeriodicCheck(limits_, governor_, &abort);
  pool_->ParallelFor(slices.size(), [&](size_t i) {
    // Restricted chase: fire only when no extension to the existential
    // variables satisfies the head already. The Exists filter runs in the
    // worker (it is read-only and uncounted, as in serial evaluation).
    std::vector<Value> seed(head_matcher.variables().size());
    Matcher::Callback keep = [&](std::span<const Value> row) {
      for (size_t k = 0; k < seed.size(); ++k) {
        seed[k] = head_seed[k] < 0 ? Value() : row[head_seed[k]];
      }
      return !head_matcher.Exists(seed);
    };
    RunSlice(body_matcher, split, slices[i], /*window=*/{}, keep, periodic,
             &abort, &results[i]);
  });
  if (abort.Requested()) {
    Halt(abort.Reason());
    return false;
  }
  for (size_t i = 0; i < slices.size(); ++i) {
    if (!governor_.PollN(results[i].steps)) {
      Halt(governor_.reason());
      return false;
    }
    active->insert(active->end(), results[i].values.begin(),
                   results[i].values.end());
    *num_active += results[i].matches;
  }
  return true;
}

bool RestrictedChaseEngine::Step() {
  ChaseGuard guard(limits_, &governor_);
  if (!guard.BeginRound(rounds_)) {
    Halt(governor_.reason());
    return false;
  }
  ++rounds_;
  Instance& j = instance_;
  bool any = false;
  for (const Tgd& tgd : tgds_) {
    // The restricted chase commits inside the round (tgd k+1 must see tgd
    // k's firings), so staging parallelizes per tgd: enumerate + filter
    // this tgd's triggers against the current instance in parallel, then
    // fire serially.
    Matcher body_matcher(arena_, &j, tgd.body);
    Matcher head_matcher(arena_, &j, tgd.head);
    const size_t width = body_matcher.variables().size();
    // Per head slot, the body slot binding it (-1: existential); per head
    // argument, the head slot it reads (-1: a constant).
    std::vector<int> head_seed;
    for (VariableId v : head_matcher.variables()) {
      head_seed.push_back(body_matcher.Slot(v));
    }
    std::vector<int> arg_slot;
    for (const Atom& atom : tgd.head) {
      for (TermId t : atom.args) {
        arg_slot.push_back(arena_->IsVariable(t)
                               ? head_matcher.Slot(arena_->symbol(t))
                               : -1);
      }
    }
    std::vector<Value> active;
    size_t num_active = 0;
    if (!StageActive(body_matcher, head_matcher, head_seed, &active,
                     &num_active)) {
      return false;
    }
    std::vector<Value> extended(head_seed.size());
    for (size_t m = 0; m < num_active; ++m) {
      std::span<const Value> row =
          std::span<const Value>(active).subspan(m * width, width);
      if (!governor_.Poll()) {
        Halt(governor_.reason());
        return false;
      }
      for (size_t k = 0; k < extended.size(); ++k) {
        extended[k] = head_seed[k] < 0 ? Value() : row[head_seed[k]];
      }
      // Re-check: an earlier firing this round may have satisfied it.
      if (head_matcher.Exists(extended)) continue;
      for (VariableId y : tgd.exist_vars) {
        Value null = j.FreshNull();
        int slot = head_matcher.Slot(y);
        if (slot >= 0) extended[slot] = null;
      }
      // Stage the head first so the fact cap applies to the firing as a
      // whole (triggers commit atomically, as in ChaseEngine).
      std::vector<Fact> staged;
      size_t arg = 0;
      for (const Atom& atom : tgd.head) {
        Fact fact;
        fact.relation = atom.relation;
        for (TermId t : atom.args) {
          int slot = arg_slot[arg++];
          fact.args.push_back(slot < 0 ? Value::Constant(arena_->symbol(t))
                                       : extended[slot]);
        }
        staged.push_back(std::move(fact));
      }
      if (!guard.CanCommit(j.NumFacts(), staged.size())) {
        Halt(governor_.reason());
        return false;
      }
      for (const Fact& fact : staged) {
        if (j.AddFact(fact)) ++facts_created_;
      }
      any = true;
    }
  }
  return any;
}

ChaseResult RestrictedChaseEngine::Run() {
  while (Step()) {
  }
  ChaseResult result{std::move(instance_), stop_reason_, rounds_,
                     facts_created_, {}};
  result.budget_steps = governor_.total_steps();
  result.budget_bytes = governor_.memory_bytes();
  return result;
}

}  // namespace

ChaseResult RestrictedChaseTgds(TermArena* arena, Vocabulary* vocab,
                                std::span<const Tgd> tgds,
                                const Instance& input, ChaseLimits limits) {
  (void)vocab;
  RestrictedChaseEngine engine(arena, tgds, input, limits);
  return engine.Run();
}

}  // namespace tgdkit
