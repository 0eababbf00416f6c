// Homomorphism search: finds assignments of query variables to instance
// values such that every query atom maps to a fact. This is the shared
// engine behind conjunctive-query evaluation, chase trigger enumeration,
// tgd model checking and core computation.
//
// Query atoms may contain variables and constants only (function terms are
// Skolemized away before matching; equalities are checked by callers after
// grounding).
//
// Candidate rows at every search depth come from the instance's
// per-predicate, per-position hash indexes: the most selective bound
// position's posting list, intersected with the second-most-selective one
// when that pays for itself. A full relation scan only remains for an atom
// with no bound position at all (the unavoidable first atom of a
// completely unconstrained query).
//
// Against a spill-enabled instance (Instance::EnableSpill) the same
// search runs over segment scans instead of posting lists: join orders
// come from the exact CountRowsWithValue counts (identical to in-core
// posting sizes) and candidates from CandidateRows, so the match
// sequence — and everything downstream, null numbering included — is
// byte-identical across storage modes.
//
// Thread model: a Matcher is immutable after construction and all search
// entry points are const, so one Matcher may run any number of concurrent
// searches against the same (frozen) instance. Per-search state — step
// accounting, cooperative aborts — travels in a SearchControls value owned
// by the calling thread, never in the Matcher.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/budget.h"
#include "data/instance.h"
#include "term/term.h"

namespace tgdkit {

/// A relational atom whose arguments are terms (variables/constants for
/// bodies and queries; arbitrary terms in rule heads).
struct Atom {
  RelationId relation;
  std::vector<TermId> args;

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.relation == b.relation && a.args == b.args;
  }
};

/// Per-search knobs, owned by the caller of one search (and therefore by
/// one thread). All fields are optional.
struct SearchControls {
  /// Serial engines: every candidate row probed is one governor step and
  /// exhaustion unwinds the search (see Matcher::set_governor).
  ResourceGovernor* governor = nullptr;
  /// Parallel workers: probes are counted into this plain local counter
  /// instead of a shared governor; the engine charges the total at a
  /// deterministic merge point.
  uint64_t* probe_counter = nullptr;
  /// Invoked every kPeriodicCheckStride probes; returning false aborts
  /// the search (cooperative deadline/cancellation checks in workers).
  std::function<bool()> periodic_check;
  /// Row windows (semi-naive evaluation): when non-empty, one entry per
  /// query atom, and atom i only matches rows below row_limits[i]
  /// (kNoRowLimit = unrestricted). A window cuts the atom's ascending
  /// candidate list; join order still comes from full-relation counts, so
  /// a windowed search emits the unwindowed match sequence with the
  /// out-of-window matches removed and the order kept.
  std::span<const uint32_t> row_limits;

  /// How many probes run between periodic_check calls.
  static constexpr uint64_t kPeriodicCheckStride = 1024;
  static constexpr uint32_t kNoRowLimit = UINT32_MAX;
};

/// Backtracking matcher for a fixed list of atoms against one instance.
///
/// Bindings are dense: one Value per variables() slot, an invalid Value
/// marking an unbound slot. Seeds are passed the same way (an empty seed
/// binds nothing) and every match is emitted as the full row, so no search
/// builds a per-match map; callers resolve the slots they read once, via
/// Slot().
///
/// The matcher picks, at every depth, the pending atom with the most
/// selective candidate set, and enumerates candidate rows through the
/// instance's per-position indexes. Construction cost is linear in the
/// query; the matcher can be reused for many searches against the same
/// instance, including concurrently.
class Matcher {
 public:
  /// Receives one complete binding (one value per variables() slot);
  /// returns false to stop the enumeration.
  using Callback = std::function<bool(std::span<const Value>)>;

  /// `arena` must own all argument terms; `instance` and `arena` must
  /// outlive the matcher. Atoms must contain only variables and constants.
  Matcher(const TermArena* arena, const Instance* instance,
          std::span<const Atom> atoms);

  /// The distinct variables of the query, in first-occurrence order; slot
  /// i of every binding holds the value of variables()[i].
  const std::vector<VariableId>& variables() const { return variables_; }

  /// The slot of `v`, or -1 when `v` does not occur in the query.
  int Slot(VariableId v) const;

  /// Finds one homomorphism extending `binding` (empty, or one value per
  /// slot with pre-bound slots respected). On success returns true and
  /// completes `binding`.
  bool FindOne(std::vector<Value>* binding) const;

  /// Enumerates all homomorphisms extending `seed`. Returns the number of
  /// callbacks made.
  size_t ForEach(std::span<const Value> seed, const Callback& callback) const;

  /// As above with explicit per-search controls (thread-safe entry point:
  /// the Matcher itself stays untouched).
  size_t ForEach(std::span<const Value> seed, const Callback& callback,
                 const SearchControls& controls) const;

  /// True iff at least one homomorphism extending `seed` exists.
  bool Exists(std::span<const Value> seed) const;

  /// The root of the search tree for `seed`, exposed so callers can shard
  /// one enumeration into independent row ranges: ForEach(seed, cb) emits
  /// exactly the concatenation, over i in [0, NumCandidates()), of
  /// ForEachFromRoot(seed, split.atom, {split.Row(i)}, cb), as long as the
  /// instance is not mutated in between (the chase freezes the instance
  /// for the whole round).
  struct RootSplit {
    int atom = -1;  // -1: the query has no atoms (shard-less; use ForEach)
    bool scan = false;           // full scan: rows [0, scan_rows)
    size_t scan_rows = 0;
    std::vector<uint32_t> rows;  // otherwise: the ascending candidates

    size_t NumCandidates() const { return scan ? scan_rows : rows.size(); }
    uint32_t Row(size_t i) const {
      return scan ? static_cast<uint32_t>(i) : rows[i];
    }
  };

  /// Plans the root split ForEach(seed, ...) would explore: same atom
  /// choice, same candidate rows, same order.
  RootSplit PlanRoot(std::span<const Value> seed) const;

  /// Enumerates, for each row in `rows` in order, the homomorphisms that
  /// map the planned root atom (`root_atom` = RootSplit::atom) to that
  /// row, in the order the full search would emit them. Counts the root
  /// probes and all inner probes through `controls`, exactly like ForEach.
  size_t ForEachFromRoot(std::span<const Value> seed, int root_atom,
                         std::span<const uint32_t> rows,
                         const Callback& callback,
                         const SearchControls& controls) const;

  /// Enumerates, for each row in `rows` in order, the homomorphisms
  /// extending the seed that binds atom `pivot`'s variables to that row:
  /// exactly ForEach(seed, ...) per row, the pivot matched again like any
  /// other atom, and a row that cannot match the pivot (a constant or a
  /// repeated variable disagrees) skipped. This is the semi-naive chase's
  /// delta search; the caller keeps `rows` inside the pivot's delta
  /// window.
  size_t ForEachSeededBy(int pivot, std::span<const uint32_t> rows,
                         const Callback& callback,
                         const SearchControls& controls) const;

  /// Attaches a resource governor used by the control-less entry points:
  /// every candidate row probed counts as one step, and the search unwinds
  /// cleanly (as if the callback had stopped it) once the governor is
  /// exhausted. Callers distinguish a budget stop from normal completion
  /// via governor->exhausted(). Searches carrying explicit SearchControls
  /// ignore this member.
  void set_governor(ResourceGovernor* governor) { governor_ = governor; }

 private:
  struct ArgSlot {
    bool is_variable;
    uint32_t local_var;  // index into variables_ when is_variable
    Value constant;      // when !is_variable
  };
  struct AtomPlan {
    RelationId relation;
    std::vector<ArgSlot> slots;
  };
  /// Mutable state of one search, owned by the calling thread. The trail
  /// and candidate buffers are stacks shared by all depths, so a search
  /// allocates nothing per node once they have grown.
  struct SearchState {
    std::vector<Value> binding;
    std::vector<bool> done;
    std::vector<uint32_t> trail;       // slots bound, innermost last
    std::vector<uint32_t> candidates;  // per-depth candidate lists
    const Callback* callback = nullptr;
    const SearchControls* controls = nullptr;
    uint64_t probes_until_check = SearchControls::kPeriodicCheckStride;
    size_t emitted = 0;
    bool stopped = false;
  };

  /// The candidate rows of one search depth, ascending: a range of the
  /// state's candidate stack (read by index, since deeper depths grow the
  /// stack), or a full scan of rows [0, count).
  struct Candidates {
    bool scan = false;
    size_t begin = 0;
    size_t count = 0;

    uint32_t Row(const SearchState& state, size_t i) const {
      return scan ? static_cast<uint32_t>(i) : state.candidates[begin + i];
    }
  };

  /// Pushes the candidate rows for `plan` under the state's binding, cut
  /// at `limit`, onto the candidate stack: the most selective bound
  /// position's posting list, intersected with the runner-up when
  /// worthwhile; a full scan when no position is bound.
  Candidates FindCandidates(const AtomPlan& plan, uint32_t limit,
                            SearchState* state) const;

  void Search(SearchState* state, size_t remaining) const;
  /// Probe accounting + bind + recurse for one candidate row. Returns
  /// false once the search must unwind (stop/abort/exhaustion).
  bool TryRow(SearchState* state, const AtomPlan& plan, uint32_t row,
              size_t remaining) const;

  int PickNextAtom(const std::vector<Value>& binding,
                   const std::vector<bool>& done) const;

  /// Binds `plan`'s variables to `tuple`, pushing newly bound slots onto
  /// `trail` when it is given. False on a mismatch; bindings made before
  /// it stay (on the trail) for the caller to undo.
  bool BindTuple(const AtomPlan& plan, std::span<const Value> tuple,
                 std::vector<Value>* binding,
                 std::vector<uint32_t>* trail) const;

  void InitState(std::span<const Value> seed, const Callback& callback,
                 const SearchControls& controls, SearchState* state) const;

  const TermArena* arena_;
  const Instance* instance_;
  ResourceGovernor* governor_ = nullptr;
  std::vector<AtomPlan> plans_;
  std::vector<VariableId> variables_;
  std::unordered_map<VariableId, uint32_t> var_index_;
};

}  // namespace tgdkit
