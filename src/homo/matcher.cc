#include "homo/matcher.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace tgdkit {

namespace {
// Below this candidate count a second index lookup costs more than the
// BindTuple probes it would save.
constexpr size_t kIntersectThreshold = 16;

// Two-pointer intersection of two ascending posting lists, cut at
// `limit` and appended to `out`; the result is ascending, so candidate
// enumeration order is unchanged (rows dropped here would have failed
// BindTuple anyway).
void IntersectAscending(const std::vector<uint32_t>& a,
                        const std::vector<uint32_t>& b, uint32_t limit,
                        std::vector<uint32_t>* out) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size() && a[i] < limit) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
}

}  // namespace

Matcher::Matcher(const TermArena* arena, const Instance* instance,
                 std::span<const Atom> atoms)
    : arena_(arena), instance_(instance) {
  for (const Atom& atom : atoms) {
    AtomPlan plan;
    plan.relation = atom.relation;
    for (TermId t : atom.args) {
      ArgSlot slot;
      if (arena_->IsVariable(t)) {
        VariableId v = arena_->symbol(t);
        auto [it, inserted] =
            var_index_.emplace(v, static_cast<uint32_t>(variables_.size()));
        if (inserted) variables_.push_back(v);
        slot.is_variable = true;
        slot.local_var = it->second;
        slot.constant = Value();
      } else {
        assert(arena_->IsConstant(t) &&
               "matcher atoms must be function-free");
        slot.is_variable = false;
        slot.local_var = 0;
        slot.constant = Value::Constant(arena_->symbol(t));
      }
      plan.slots.push_back(slot);
    }
    plans_.push_back(std::move(plan));
  }
}

int Matcher::Slot(VariableId v) const {
  auto it = var_index_.find(v);
  return it == var_index_.end() ? -1 : static_cast<int>(it->second);
}

int Matcher::PickNextAtom(const std::vector<Value>& binding,
                          const std::vector<bool>& done) const {
  int best = -1;
  size_t best_cost = std::numeric_limits<size_t>::max();
  for (size_t i = 0; i < plans_.size(); ++i) {
    if (done[i]) continue;
    const AtomPlan& plan = plans_[i];
    // Cost estimate: candidate rows through the most selective bound
    // position, or the full relation when nothing is bound.
    // CountRowsWithValue is exact in both storage modes (in-core it IS
    // the posting-list size), so join-order choices — and therefore the
    // match enumeration order and null numbering — are mode-independent.
    // Windows never enter the estimate: a windowed search keeps the
    // unwindowed join order.
    size_t cost = instance_->NumTuples(plan.relation);
    for (size_t pos = 0; pos < plan.slots.size(); ++pos) {
      const ArgSlot& slot = plan.slots[pos];
      Value bound = slot.is_variable ? binding[slot.local_var] : slot.constant;
      if (!bound.valid()) continue;
      size_t rows = instance_->CountRowsWithValue(
          plan.relation, static_cast<uint32_t>(pos), bound);
      if (rows < cost) cost = rows;
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = static_cast<int>(i);
    }
  }
  return best;
}

Matcher::Candidates Matcher::FindCandidates(const AtomPlan& plan,
                                            uint32_t limit,
                                            SearchState* state) const {
  const std::vector<Value>& binding = state->binding;
  std::vector<uint32_t>& stack = state->candidates;
  Candidates out;
  out.begin = stack.size();
  if (instance_->spill_enabled()) {
    // Spilled store: no global posting lists to point into. Pick the most
    // selective bound position by exact count (the same strict-< rule as
    // below) and materialize its ascending candidate rows. No runner-up
    // intersection: BindTuple fully verifies every candidate, so
    // enumerating an ascending superset emits the identical match
    // sequence — intersection only ever saved probes, never changed
    // results.
    int best_pos = -1;
    size_t best_count = std::numeric_limits<size_t>::max();
    Value best_value;
    for (size_t pos = 0; pos < plan.slots.size(); ++pos) {
      const ArgSlot& slot = plan.slots[pos];
      Value bound = slot.is_variable ? binding[slot.local_var] : slot.constant;
      if (!bound.valid()) continue;
      size_t count = instance_->CountRowsWithValue(
          plan.relation, static_cast<uint32_t>(pos), bound);
      if (count < best_count) {
        best_count = count;
        best_pos = static_cast<int>(pos);
        best_value = bound;
      }
    }
    if (best_pos >= 0) {
      instance_->CandidateRows(plan.relation, static_cast<uint32_t>(best_pos),
                               best_value, &stack);
      stack.erase(std::lower_bound(stack.begin() + out.begin, stack.end(),
                                   limit),
                  stack.end());
      out.count = stack.size() - out.begin;
      return out;
    }
  } else {
    const std::vector<uint32_t>* best = nullptr;
    const std::vector<uint32_t>* second = nullptr;
    for (size_t pos = 0; pos < plan.slots.size(); ++pos) {
      const ArgSlot& slot = plan.slots[pos];
      Value bound = slot.is_variable ? binding[slot.local_var] : slot.constant;
      if (!bound.valid()) continue;
      const std::vector<uint32_t>& candidate = instance_->RowsWithValue(
          plan.relation, static_cast<uint32_t>(pos), bound);
      if (best == nullptr || candidate.size() < best->size()) {
        second = best;
        best = &candidate;
      } else if (second == nullptr || candidate.size() < second->size()) {
        second = &candidate;
      }
    }
    if (best != nullptr) {
      if (second != nullptr && second != best &&
          best->size() > kIntersectThreshold) {
        IntersectAscending(*best, *second, limit, &stack);
      } else {
        stack.insert(stack.end(), best->begin(),
                     std::lower_bound(best->begin(), best->end(), limit));
      }
      out.count = stack.size() - out.begin;
      return out;
    }
  }
  out.scan = true;
  out.count = std::min<size_t>(instance_->NumTuples(plan.relation), limit);
  return out;
}

bool Matcher::BindTuple(const AtomPlan& plan, std::span<const Value> tuple,
                        std::vector<Value>* binding,
                        std::vector<uint32_t>* trail) const {
  for (size_t pos = 0; pos < plan.slots.size(); ++pos) {
    const ArgSlot& slot = plan.slots[pos];
    if (!slot.is_variable) {
      if (slot.constant != tuple[pos]) return false;
      continue;
    }
    Value& cell = (*binding)[slot.local_var];
    if (cell.valid()) {
      if (cell != tuple[pos]) return false;
    } else {
      cell = tuple[pos];
      if (trail != nullptr) trail->push_back(slot.local_var);
    }
  }
  return true;
}

bool Matcher::TryRow(SearchState* state, const AtomPlan& plan, uint32_t row,
                     size_t remaining) const {
  const SearchControls& controls = *state->controls;
  if (controls.governor != nullptr && !controls.governor->Poll()) {
    state->stopped = true;
    return false;
  }
  if (controls.probe_counter != nullptr) ++*controls.probe_counter;
  if (controls.periodic_check && --state->probes_until_check == 0) {
    state->probes_until_check = SearchControls::kPeriodicCheckStride;
    if (!controls.periodic_check()) {
      state->stopped = true;
      return false;
    }
  }
  const size_t mark = state->trail.size();
  if (BindTuple(plan, instance_->Tuple(plan.relation, row), &state->binding,
                &state->trail)) {
    Search(state, remaining);
  }
  for (size_t i = mark; i < state->trail.size(); ++i) {
    state->binding[state->trail[i]] = Value();
  }
  state->trail.resize(mark);
  return !state->stopped;
}

void Matcher::Search(SearchState* state, size_t remaining) const {
  if (remaining == 0) {
    ++state->emitted;
    if (!(*state->callback)(state->binding)) state->stopped = true;
    return;
  }
  int idx = PickNextAtom(state->binding, state->done);
  assert(idx >= 0);
  const AtomPlan& plan = plans_[idx];
  state->done[idx] = true;
  const std::span<const uint32_t> limits = state->controls->row_limits;
  uint32_t limit = limits.empty() ? SearchControls::kNoRowLimit : limits[idx];
  const size_t stack_mark = state->candidates.size();
  Candidates rows = FindCandidates(plan, limit, state);
  for (size_t i = 0; i < rows.count; ++i) {
    if (!TryRow(state, plan, rows.Row(*state, i), remaining - 1)) break;
  }
  state->candidates.resize(stack_mark);
  state->done[idx] = false;
}

void Matcher::InitState(std::span<const Value> seed, const Callback& callback,
                        const SearchControls& controls,
                        SearchState* state) const {
  assert((seed.empty() || seed.size() == variables_.size()) &&
         "a seed binds every slot or none");
  if (seed.empty()) {
    state->binding.assign(variables_.size(), Value());
  } else {
    state->binding.assign(seed.begin(), seed.end());
  }
  state->done.assign(plans_.size(), false);
  state->callback = &callback;
  state->controls = &controls;
}

bool Matcher::FindOne(std::vector<Value>* binding) const {
  bool found = false;
  std::vector<Value> seed = std::move(*binding);
  ForEach(seed, [&](std::span<const Value> full) {
    binding->assign(full.begin(), full.end());
    found = true;
    return false;  // stop at the first homomorphism
  });
  if (!found) *binding = std::move(seed);
  return found;
}

bool Matcher::Exists(std::span<const Value> seed) const {
  return ForEach(seed, [](std::span<const Value>) { return false; }) > 0;
}

size_t Matcher::ForEach(std::span<const Value> seed,
                        const Callback& callback) const {
  SearchControls controls;
  controls.governor = governor_;
  return ForEach(seed, callback, controls);
}

size_t Matcher::ForEach(std::span<const Value> seed, const Callback& callback,
                        const SearchControls& controls) const {
  SearchState state;
  InitState(seed, callback, controls, &state);
  Search(&state, plans_.size());
  return state.emitted;
}

Matcher::RootSplit Matcher::PlanRoot(std::span<const Value> seed) const {
  RootSplit split;
  if (plans_.empty()) return split;  // shard-less query
  SearchControls controls;
  Callback none;
  SearchState state;
  InitState(seed, none, controls, &state);
  split.atom = PickNextAtom(state.binding, state.done);
  Candidates rows = FindCandidates(plans_[split.atom],
                                   SearchControls::kNoRowLimit, &state);
  split.scan = rows.scan;
  split.scan_rows = rows.count;
  split.rows = std::move(state.candidates);
  return split;
}

size_t Matcher::ForEachSeededBy(int pivot, std::span<const uint32_t> rows,
                                const Callback& callback,
                                const SearchControls& controls) const {
  assert(pivot >= 0 && static_cast<size_t>(pivot) < plans_.size());
  SearchState state;
  InitState({}, callback, controls, &state);
  const AtomPlan& plan = plans_[pivot];
  for (uint32_t row : rows) {
    std::fill(state.binding.begin(), state.binding.end(), Value());
    if (BindTuple(plan, instance_->Tuple(plan.relation, row), &state.binding,
                  nullptr)) {
      Search(&state, plans_.size());
    }
    if (state.stopped) break;
  }
  return state.emitted;
}

size_t Matcher::ForEachFromRoot(std::span<const Value> seed, int root_atom,
                                std::span<const uint32_t> rows,
                                const Callback& callback,
                                const SearchControls& controls) const {
  assert(root_atom >= 0 && static_cast<size_t>(root_atom) < plans_.size());
  SearchState state;
  InitState(seed, callback, controls, &state);
  const AtomPlan& plan = plans_[root_atom];
  state.done[root_atom] = true;
  for (uint32_t row : rows) {
    if (!TryRow(&state, plan, row, plans_.size() - 1)) break;
  }
  return state.emitted;
}

}  // namespace tgdkit
