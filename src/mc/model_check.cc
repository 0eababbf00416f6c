#include "mc/model_check.h"

#include <cassert>
#include <functional>
#include <map>
#include <optional>
#include <unordered_set>

#include "dep/skolem.h"
#include "homo/matcher.h"

namespace tgdkit {

namespace {

/// For each slot of `to`, the slot of `from` that binds the same variable,
/// or -1 — resolved once per matcher pair, not per match.
std::vector<int> SeedMap(const Matcher& from, const Matcher& to) {
  std::vector<int> map;
  map.reserve(to.variables().size());
  for (VariableId v : to.variables()) map.push_back(from.Slot(v));
  return map;
}

/// Fills `seed` (one value per slot of the target matcher) from a match of
/// the source matcher through a SeedMap.
void FillSeed(std::span<const int> map, std::span<const Value> row,
              std::vector<Value>* seed) {
  seed->resize(map.size());
  for (size_t k = 0; k < map.size(); ++k) {
    (*seed)[k] = map[k] < 0 ? Value() : row[map[k]];
  }
}

/// The reported witness: a match of `matcher`, by variable.
TgdViolation Witness(const Matcher& matcher, std::span<const Value> row) {
  TgdViolation violation;
  for (size_t i = 0; i < row.size(); ++i) {
    violation.trigger.emplace(matcher.variables()[i], row[i]);
  }
  return violation;
}

}  // namespace

// ---------------------------------------------------------------------------
// tgds

bool CheckTgd(const TermArena& arena, const Instance& instance,
              const Tgd& tgd) {
  return !FindTgdViolation(arena, instance, tgd).has_value();
}

std::string TgdViolation::ToString(const Vocabulary& vocab,
                                   const Instance& instance) const {
  std::string out;
  // Deterministic order for readability.
  std::map<std::string, Value> sorted;
  for (const auto& [var, value] : trigger) {
    sorted.emplace(vocab.VariableName(var), value);
  }
  for (const auto& [name, value] : sorted) {
    if (!out.empty()) out += ", ";
    out += name;
    out += "=";
    out += instance.ValueToString(value);
  }
  return out;
}

std::optional<TgdViolation> FindTgdViolation(const TermArena& arena,
                                             const Instance& instance,
                                             const Tgd& tgd,
                                             ResourceGovernor* governor) {
  Matcher body(&arena, &instance, tgd.body);
  body.set_governor(governor);
  Matcher head(&arena, &instance, tgd.head);
  head.set_governor(governor);
  const std::vector<int> head_seed = SeedMap(body, head);
  std::vector<Value> seed;
  std::optional<TgdViolation> violation;
  body.ForEach({}, [&](std::span<const Value> row) {
    FillSeed(head_seed, row, &seed);
    if (!head.Exists(seed)) {
      violation = Witness(body, row);
      return false;
    }
    return true;
  });
  return violation;
}

bool CheckTgds(const TermArena& arena, const Instance& instance,
               std::span<const Tgd> tgds) {
  for (const Tgd& tgd : tgds) {
    if (!CheckTgd(arena, instance, tgd)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// nested tgds

namespace {

/// Recursive quantifier-alternation evaluator over one nested tgd. Every
/// node's body and head Matcher is built once, and every matcher slot is
/// resolved once to a position of one dense environment shared by the
/// whole evaluation: a variable bound by an outer node (or an outer
/// existential choice) seeds the inner matchers that mention it.
class NestedEvaluator {
 public:
  NestedEvaluator(const TermArena& arena, const Instance& instance,
                  const NestedTgd& nested, ResourceGovernor* governor)
      : instance_(instance),
        governor_(governor),
        domain_(instance.ActiveDomain()),
        root_(Compile(arena, nested.root)) {
    env_.assign(env_index_.size(), Value());
  }

  /// Finds a root body match with no satisfying conclusion; nullopt when
  /// none exists (or, with a governor, when the budget ran out first).
  std::optional<TgdViolation> FindViolation() {
    std::optional<TgdViolation> violation;
    ForEachBodyMatch(root_, [&](std::span<const Value> row) {
      if (Choose(root_, 0)) return true;
      if (governor_ != nullptr && governor_->exhausted()) return false;
      violation = Witness(root_.body, row);
      return false;
    });
    return violation;
  }

  /// Every homomorphism of the root body admits a satisfying conclusion.
  bool Holds() { return EvalNode(root_); }

 private:
  struct Node {
    const NestedNode* source;
    Matcher body;
    Matcher head;
    std::vector<uint32_t> body_env;   // body slot -> environment position
    std::vector<uint32_t> head_env;   // head slot -> environment position
    std::vector<uint32_t> exist_env;  // existential -> environment position
    std::vector<Node> children;
  };

  uint32_t EnvIndex(VariableId v) {
    return env_index_.emplace(v, static_cast<uint32_t>(env_index_.size()))
        .first->second;
  }

  Node Compile(const TermArena& arena, const NestedNode& source) {
    Node node{&source,
              Matcher(&arena, &instance_, source.body),
              Matcher(&arena, &instance_, source.head_atoms),
              {}, {}, {}, {}};
    node.body.set_governor(governor_);
    node.head.set_governor(governor_);
    for (VariableId v : node.body.variables()) {
      node.body_env.push_back(EnvIndex(v));
    }
    for (VariableId v : node.head.variables()) {
      node.head_env.push_back(EnvIndex(v));
    }
    for (VariableId v : source.exist_vars) {
      node.exist_env.push_back(EnvIndex(v));
    }
    for (const NestedNode& child : source.children) {
      node.children.push_back(Compile(arena, child));
    }
    return node;
  }

  std::vector<Value> Seed(std::span<const uint32_t> slots) const {
    std::vector<Value> seed;
    seed.reserve(slots.size());
    for (uint32_t e : slots) seed.push_back(env_[e]);
    return seed;
  }

  /// Enumerates the node's body matches under the environment, binding
  /// each match into the environment while `callback` runs.
  void ForEachBodyMatch(const Node& node, const Matcher::Callback& callback) {
    const std::vector<Value> seed = Seed(node.body_env);
    node.body.ForEach(seed, [&](std::span<const Value> row) {
      for (size_t k = 0; k < row.size(); ++k) env_[node.body_env[k]] = row[k];
      bool more = callback(row);
      for (size_t k = 0; k < row.size(); ++k) env_[node.body_env[k]] = seed[k];
      return more;
    });
  }

  /// Evaluates a nested node under the environment: every homomorphism of
  /// the body must admit a satisfying choice of existentials.
  bool EvalNode(const Node& node) {
    bool ok = true;
    ForEachBodyMatch(node, [&](std::span<const Value>) {
      ok = Choose(node, 0);
      return ok;
    });
    return ok;
  }

  /// Checks one trigger of a nested node, existentials [index, end) still
  /// to choose: given bindings for the node's body (and all outer
  /// variables), some choice of the existentials must satisfy the direct
  /// head atoms and, recursively, all children. A budget stop surfaces as
  /// "false" here; callers must consult the governor before trusting a
  /// negative verdict.
  bool Choose(const Node& node, size_t index) {
    if (governor_ != nullptr && !governor_->Poll()) return false;
    if (index == node.exist_env.size()) {
      // All existentials chosen: direct head atoms must be facts.
      if (!node.source->head_atoms.empty() &&
          !node.head.Exists(Seed(node.head_env))) {
        return false;
      }
      for (const Node& child : node.children) {
        if (!EvalNode(child)) return false;
      }
      return true;
    }
    Value& cell = env_[node.exist_env[index]];
    const Value outer = cell;
    for (Value v : domain_) {
      cell = v;
      if (Choose(node, index + 1)) {
        cell = outer;
        return true;
      }
      if (governor_ != nullptr && governor_->exhausted()) break;
    }
    cell = outer;
    return false;
  }

  const Instance& instance_;
  ResourceGovernor* governor_;
  std::vector<Value> domain_;
  std::unordered_map<VariableId, uint32_t> env_index_;
  std::vector<Value> env_;
  Node root_;
};

}  // namespace

bool CheckNested(const TermArena& arena, const Instance& instance,
                 const NestedTgd& nested) {
  return NestedEvaluator(arena, instance, nested, nullptr).Holds();
}

std::optional<TgdViolation> FindNestedViolation(const TermArena& arena,
                                                const Instance& instance,
                                                const NestedTgd& nested,
                                                ResourceGovernor* governor) {
  return NestedEvaluator(arena, instance, nested, governor).FindViolation();
}

// ---------------------------------------------------------------------------
// SO tgds: lazy second-order search

namespace {

/// Key of one function-table entry: function symbol + argument values.
struct EntryKey {
  FunctionId function;
  std::vector<Value> args;

  bool operator<(const EntryKey& other) const {
    if (function != other.function) return function < other.function;
    return args < other.args;
  }
};

class SoSearcher {
 public:
  SoSearcher(const TermArena& arena, const Instance& instance,
             const SoTgd& so, const McOptions& options)
      : arena_(arena),
        instance_(instance),
        options_(options),
        governor_(options.budget) {
    governor_.AddMemorySource([this] { return TableBytes(); });
    governor_.AddMemorySource(
        [this] { return constraints_.size() * kConstraintOverheadBytes; });
    // Catch budgets that are exhausted on entry (a cancelled token, an
    // already-passed deadline) even when the search itself would finish
    // before the first slow-path poll.
    governor_.CheckNow();
    if (governor_.exhausted()) return;
    domain_ = instance.ActiveDomain();
    // Materialize all ground constraints: one per part per body
    // homomorphism. This enumeration itself can be exponential, so it
    // runs under the governor too.
    bodies_.reserve(so.parts.size());
    for (const SoPart& part : so.parts) {
      bodies_.emplace_back(&arena_, &instance_, part.body);
    }
    for (size_t p = 0; p < so.parts.size(); ++p) {
      Matcher& body = bodies_[p];
      body.set_governor(&governor_);
      body.ForEach({}, [&](std::span<const Value> row) {
        constraints_.push_back(Constraint{&so.parts[p], &body, values_.size()});
        values_.insert(values_.end(), row.begin(), row.end());
        return true;
      });
      if (governor_.exhausted()) break;
    }
  }

  McResult Run() {
    McResult result;
    if (governor_.exhausted()) {
      result.budget_exceeded = true;
      result.stop = governor_.reason();
      return result;
    }
    if (domain_.empty()) {
      // No active domain: bodies cannot match (non-empty by definition),
      // so there are no constraints and the SO tgd holds vacuously.
      result.satisfied = constraints_.empty();
      result.branches = 0;
      return result;
    }
    bool ok = Satisfy(0);
    result.satisfied = ok;
    result.budget_exceeded = budget_exceeded_ || governor_.exhausted();
    result.branches = branches_;
    if (result.budget_exceeded) {
      result.satisfied = false;
      result.stop = governor_.exhausted() ? governor_.reason()
                                          : StopReason::kStepLimit;
    }
    return result;
  }

 private:
  /// One ground constraint: a part and a match of its body, stored as
  /// one value per body slot at values_[begin...].
  struct Constraint {
    const SoPart* part;
    const Matcher* body;
    size_t begin;
  };

  /// Evaluates a term under the constraint's body match and the current
  /// partial table. Returns the value, or nullopt with `*blocked` set to
  /// the missing entry.
  std::optional<Value> Eval(TermId t, const Constraint& c, EntryKey* blocked) {
    switch (arena_.kind(t)) {
      case TermKind::kVariable: {
        // ValidateSoTgd: every variable of a part occurs in its body.
        int slot = c.body->Slot(arena_.symbol(t));
        assert(slot >= 0);
        return values_[c.begin + slot];
      }
      case TermKind::kConstant:
        return Value::Constant(arena_.symbol(t));
      case TermKind::kFunction: {
        EntryKey key;
        key.function = arena_.symbol(t);
        for (TermId a : arena_.args(t)) {
          std::optional<Value> v = Eval(a, c, blocked);
          if (!v.has_value()) return std::nullopt;
          key.args.push_back(*v);
        }
        auto it = table_.find(key);
        if (it == table_.end()) {
          *blocked = std::move(key);
          return std::nullopt;
        }
        return it->second;
      }
    }
    return std::nullopt;
  }

  /// Checks constraint `index` as far as possible. Returns:
  ///   kSatisfied / kViolated, or kBlocked with the missing entry.
  enum class Outcome { kSatisfied, kViolated, kBlocked };

  Outcome Check(const Constraint& c, EntryKey* blocked) {
    for (const SoEquality& eq : c.part->equalities) {
      std::optional<Value> lhs = Eval(eq.lhs, c, blocked);
      if (!lhs.has_value()) return Outcome::kBlocked;
      std::optional<Value> rhs = Eval(eq.rhs, c, blocked);
      if (!rhs.has_value()) return Outcome::kBlocked;
      if (*lhs != *rhs) return Outcome::kSatisfied;  // antecedent false
    }
    for (const Atom& atom : c.part->head) {
      std::vector<Value> args;
      for (TermId t : atom.args) {
        std::optional<Value> v = Eval(t, c, blocked);
        if (!v.has_value()) return Outcome::kBlocked;
        args.push_back(*v);
      }
      if (!instance_.Contains(atom.relation, args)) return Outcome::kViolated;
    }
    return Outcome::kSatisfied;
  }

  /// Satisfies constraints [index, end), branching on blocked entries.
  bool Satisfy(size_t index) {
    if (budget_exceeded_) return false;
    if (index == constraints_.size()) return true;
    EntryKey blocked;
    switch (Check(constraints_[index], &blocked)) {
      case Outcome::kSatisfied:
        return Satisfy(index + 1);
      case Outcome::kViolated:
        return false;
      case Outcome::kBlocked:
        break;
    }
    for (Value v : domain_) {
      if (++branches_ > options_.max_branches) {
        budget_exceeded_ = true;
        return false;
      }
      if (!governor_.Poll()) {
        budget_exceeded_ = true;
        return false;
      }
      table_[blocked] = v;
      // Re-check the same constraint; it may block on further entries.
      if (Satisfy(index)) return true;
      table_.erase(blocked);
      if (budget_exceeded_) return false;
    }
    return false;
  }

  /// Approximate bytes held by the partial function table (map nodes plus
  /// the argument vectors inside the keys).
  uint64_t TableBytes() const {
    return table_.size() * (sizeof(EntryKey) + sizeof(Value) + 48);
  }

  static constexpr uint64_t kConstraintOverheadBytes = 96;

  const TermArena& arena_;
  const Instance& instance_;
  McOptions options_;
  ResourceGovernor governor_;
  std::vector<Value> domain_;
  std::vector<Matcher> bodies_;  // one per part
  std::vector<Constraint> constraints_;
  std::vector<Value> values_;    // the constraints' body matches
  std::map<EntryKey, Value> table_;
  uint64_t branches_ = 0;
  bool budget_exceeded_ = false;
};

}  // namespace

McResult CheckSo(const TermArena& arena, const Instance& instance,
                 const SoTgd& so, const McOptions& options) {
  SoSearcher searcher(arena, instance, so, options);
  return searcher.Run();
}

McResult CheckHenkin(TermArena* arena, Vocabulary* vocab,
                     const Instance& instance, const HenkinTgd& henkin,
                     const McOptions& options) {
  SoTgd so = HenkinToSo(arena, vocab, henkin);
  return CheckSo(*arena, instance, so, options);
}

McResult CheckHenkins(TermArena* arena, Vocabulary* vocab,
                      const Instance& instance,
                      std::span<const HenkinTgd> henkins,
                      const McOptions& options) {
  McResult combined;
  combined.satisfied = true;
  for (const HenkinTgd& henkin : henkins) {
    McResult one = CheckHenkin(arena, vocab, instance, henkin, options);
    combined.branches += one.branches;
    if (one.budget_exceeded) {
      combined.budget_exceeded = true;
      combined.satisfied = false;
      combined.stop = one.stop;
      return combined;
    }
    if (!one.satisfied) {
      combined.satisfied = false;
      return combined;
    }
  }
  return combined;
}

}  // namespace tgdkit
