#include "oracle/oracle.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <set>

namespace tgdkit {

std::optional<bool> ThreeColorableBudgeted(const Graph& graph,
                                           ResourceGovernor* governor) {
  if (graph.num_vertices == 0) return true;
  std::vector<std::vector<uint32_t>> adjacency(graph.num_vertices);
  for (const auto& [u, v] : graph.edges) {
    if (u == v) return false;  // self-loop is never properly colorable
    adjacency[u].push_back(v);
    adjacency[v].push_back(u);
  }
  std::vector<int> color(graph.num_vertices, -1);
  bool out_of_budget = false;
  std::function<bool(uint32_t)> assign = [&](uint32_t v) -> bool {
    if (v == graph.num_vertices) return true;
    // Symmetry breaking: the first vertex gets color 0 only.
    int limit = (v == 0) ? 1 : 3;
    for (int c = 0; c < limit; ++c) {
      if (governor != nullptr && !governor->Poll()) {
        out_of_budget = true;
        return false;
      }
      bool clash = false;
      for (uint32_t u : adjacency[v]) {
        if (u < v && color[u] == c) {
          clash = true;
          break;
        }
      }
      if (clash) continue;
      color[v] = c;
      if (assign(v + 1)) return true;
      color[v] = -1;
      if (out_of_budget) return false;
    }
    return false;
  };
  bool found = assign(0);
  if (!found && out_of_budget) return std::nullopt;
  return found;
}

bool ThreeColorable(const Graph& graph) {
  return *ThreeColorableBudgeted(graph, nullptr);
}

namespace {

bool EvalQbfLiteral(const QbfLiteral& literal,
                    const std::vector<bool>& x_values,
                    const std::vector<bool>& y_values) {
  bool value = literal.kind == QbfLiteral::Kind::kUniversal
                   ? x_values[literal.index]
                   : y_values[literal.index];
  return literal.negated ? !value : value;
}

bool EvalQbfMatrix(const Qbf& qbf, const std::vector<bool>& x_values,
                   const std::vector<bool>& y_values) {
  for (const auto& clause : qbf.clauses) {
    bool satisfied = false;
    for (const QbfLiteral& literal : clause) {
      if (EvalQbfLiteral(literal, x_values, y_values)) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }
  return true;
}

bool EvalQbfFrom(const Qbf& qbf, uint32_t pair, std::vector<bool>* x_values,
                 std::vector<bool>* y_values, ResourceGovernor* governor,
                 bool* out_of_budget) {
  if (governor != nullptr && !governor->Poll()) {
    *out_of_budget = true;
    return false;
  }
  if (pair == qbf.num_pairs) {
    return EvalQbfMatrix(qbf, *x_values, *y_values);
  }
  // ∀x_pair ∃y_pair …
  for (bool x : {false, true}) {
    (*x_values)[pair] = x;
    bool exists = false;
    for (bool y : {false, true}) {
      (*y_values)[pair] = y;
      if (EvalQbfFrom(qbf, pair + 1, x_values, y_values, governor,
                      out_of_budget)) {
        exists = true;
        break;
      }
      if (*out_of_budget) return false;
    }
    if (!exists) return false;
  }
  return true;
}

}  // namespace

std::optional<bool> EvaluateQbfBudgeted(const Qbf& qbf,
                                        ResourceGovernor* governor) {
  std::vector<bool> x_values(qbf.num_pairs, false);
  std::vector<bool> y_values(qbf.num_pairs, false);
  bool out_of_budget = false;
  bool value =
      EvalQbfFrom(qbf, 0, &x_values, &y_values, governor, &out_of_budget);
  if (out_of_budget) return std::nullopt;
  return value;
}

bool EvaluateQbf(const Qbf& qbf) {
  return *EvaluateQbfBudgeted(qbf, nullptr);
}

namespace {

/// A PCP search configuration: the outstanding overhang. `first_longer`
/// tells which side the overhang belongs to.
struct PcpConfig {
  bool first_longer;
  std::vector<uint32_t> overhang;
  std::vector<uint32_t> sequence;

  std::pair<bool, std::vector<uint32_t>> Key() const {
    return {first_longer, overhang};
  }
};

/// Appends `word` to the shorter side; returns false on mismatch.
bool Extend(const PcpConfig& config, const std::vector<uint32_t>& w1,
            const std::vector<uint32_t>& w2, PcpConfig* out) {
  // Normalize: s1 = overhang of side 1 vs side 2.
  std::vector<uint32_t> s1 = config.first_longer ? config.overhang
                                                 : std::vector<uint32_t>{};
  std::vector<uint32_t> s2 = config.first_longer ? std::vector<uint32_t>{}
                                                 : config.overhang;
  s1.insert(s1.end(), w1.begin(), w1.end());
  s2.insert(s2.end(), w2.begin(), w2.end());
  size_t common = std::min(s1.size(), s2.size());
  for (size_t i = 0; i < common; ++i) {
    if (s1[i] != s2[i]) return false;
  }
  out->first_longer = s1.size() >= s2.size();
  if (s1.size() >= s2.size()) {
    out->overhang.assign(s1.begin() + common, s1.end());
  } else {
    out->overhang.assign(s2.begin() + common, s2.end());
  }
  return true;
}

/// Approximate heap bytes of one enqueued configuration (vectors + the
/// seen-set key), charged against a byte budget.
uint64_t ConfigBytes(const PcpConfig& config) {
  return (config.overhang.size() + config.sequence.size()) *
             sizeof(uint32_t) * 2 +
         96;
}

}  // namespace

PcpSearchOutcome SolvePcpBudgeted(const PcpInstance& instance,
                                  uint32_t max_sequence_length,
                                  ResourceGovernor* governor) {
  PcpSearchOutcome outcome;
  std::deque<PcpConfig> queue;
  std::set<std::pair<bool, std::vector<uint32_t>>> seen;

  auto poll = [&]() {
    ++outcome.configs;
    if (governor == nullptr) return true;
    if (governor->Poll()) return true;
    outcome.stop = governor->reason();
    return false;
  };

  // First selections.
  for (uint32_t i = 0; i < instance.pairs.size(); ++i) {
    if (!poll()) return outcome;
    PcpConfig start{true, {}, {}};
    PcpConfig next;
    if (!Extend(start, instance.pairs[i].first, instance.pairs[i].second,
                &next)) {
      continue;
    }
    next.sequence = {i + 1};
    if (next.overhang.empty()) {
      outcome.witness = std::move(next.sequence);
      return outcome;
    }
    if (seen.insert(next.Key()).second) {
      if (governor != nullptr) governor->ChargeBytes(ConfigBytes(next));
      queue.push_back(std::move(next));
    }
  }

  while (!queue.empty()) {
    PcpConfig config = std::move(queue.front());
    queue.pop_front();
    if (config.sequence.size() < max_sequence_length) {
      for (uint32_t i = 0; i < instance.pairs.size(); ++i) {
        if (!poll()) return outcome;
        PcpConfig next;
        if (!Extend(config, instance.pairs[i].first, instance.pairs[i].second,
                    &next)) {
          continue;
        }
        next.sequence = config.sequence;
        next.sequence.push_back(i + 1);
        if (next.overhang.empty()) {
          outcome.witness = std::move(next.sequence);
          return outcome;
        }
        if (seen.insert(next.Key()).second) {
          if (governor != nullptr) governor->ChargeBytes(ConfigBytes(next));
          queue.push_back(std::move(next));
        }
      }
    }
  }
  return outcome;
}

std::optional<std::vector<uint32_t>> SolvePcp(const PcpInstance& instance,
                                              uint32_t max_sequence_length) {
  return SolvePcpBudgeted(instance, max_sequence_length, nullptr).witness;
}

bool CheckPcpSolution(const PcpInstance& instance,
                      const std::vector<uint32_t>& sequence) {
  if (sequence.empty()) return false;
  std::vector<uint32_t> s1, s2;
  for (uint32_t index : sequence) {
    if (index == 0 || index > instance.pairs.size()) return false;
    const auto& [w1, w2] = instance.pairs[index - 1];
    s1.insert(s1.end(), w1.begin(), w1.end());
    s2.insert(s2.end(), w2.begin(), w2.end());
  }
  return s1 == s2;
}

}  // namespace tgdkit
