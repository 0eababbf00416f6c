#include "term/term.h"

#include <algorithm>
#include <unordered_set>

#include "base/budget.h"
#include "base/strings.h"

namespace tgdkit {

namespace {

uint64_t NodeHash(TermKind kind, SymbolId symbol,
                  std::span<const TermId> args) {
  size_t seed = 0x100001b3ULL;
  HashCombine(&seed, static_cast<size_t>(kind));
  HashCombine(&seed, symbol);
  for (TermId a : args) HashCombine(&seed, a);
  return seed;
}

}  // namespace

TermId TermArena::InternNode(TermKind kind, SymbolId symbol,
                             std::span<const TermId> args) {
  uint64_t h = NodeHash(kind, symbol, args);
  std::vector<TermId>& bucket = buckets_[h];
  for (TermId candidate : bucket) {
    const Node& n = nodes_[candidate];
    if (n.kind != kind || n.symbol != symbol || n.num_args != args.size()) {
      continue;
    }
    if (std::equal(args.begin(), args.end(), args_.begin() + n.first_arg)) {
      return candidate;
    }
  }
  Node node;
  node.kind = kind;
  node.symbol = symbol;
  node.first_arg = static_cast<uint32_t>(args_.size());
  node.num_args = static_cast<uint32_t>(args.size());
  node.ground = kind != TermKind::kVariable;
  node.nested = false;
  node.depth = 0;
  if (kind == TermKind::kFunction) {
    for (TermId a : args) {
      const Node& arg = nodes_[a];
      node.ground = node.ground && arg.ground;
      node.nested = node.nested || arg.kind == TermKind::kFunction;
      node.depth = std::max(node.depth, arg.depth);
    }
    ++node.depth;
  }
  args_.insert(args_.end(), args.begin(), args.end());
  TermId id = static_cast<TermId>(nodes_.size());
  nodes_.push_back(node);
  bucket.push_back(id);
  return id;
}

TermId TermArena::MakeVariable(VariableId v) {
  return InternNode(TermKind::kVariable, v, {});
}

TermId TermArena::MakeConstant(ConstantId c) {
  return InternNode(TermKind::kConstant, c, {});
}

TermId TermArena::MakeFunction(FunctionId f, std::span<const TermId> args) {
  return InternNode(TermKind::kFunction, f, args);
}

void TermArena::CollectVariables(TermId t,
                                 std::vector<VariableId>* out) const {
  if (IsVariable(t)) {
    VariableId v = symbol(t);
    if (std::find(out->begin(), out->end(), v) == out->end()) {
      out->push_back(v);
    }
    return;
  }
  for (TermId a : args(t)) CollectVariables(a, out);
}

bool TermArena::Write(TermId t, const Vocabulary& vocab, ChunkedWriter* out,
                      ResourceGovernor* governor) const {
  // One entry per open application: the term and how many of its
  // arguments have been started.
  std::vector<std::pair<TermId, uint32_t>> open;
  for (;;) {
    if ((governor != nullptr && !governor->Poll()) || !out->ok()) {
      return false;
    }
    switch (kind(t)) {
      case TermKind::kVariable:
        out->Append(vocab.VariableName(symbol(t)));
        break;
      case TermKind::kConstant:
        out->Append('"');
        out->Append(vocab.ConstantName(symbol(t)));
        out->Append('"');
        break;
      case TermKind::kFunction:
        out->Append(vocab.FunctionName(symbol(t)));
        out->Append('(');
        open.emplace_back(t, 0);
        break;
    }
    // Close the applications whose arguments are done, then descend into
    // the next argument.
    for (;;) {
      if (open.empty()) return true;
      auto& [app, started] = open.back();
      std::span<const TermId> app_args = args(app);
      if (started < app_args.size()) {
        if (started > 0) out->Append(", ");
        t = app_args[started++];
        break;
      }
      out->Append(')');
      open.pop_back();
    }
  }
}

std::string TermArena::ToString(TermId t, const Vocabulary& vocab) const {
  ChunkedWriter out;
  Write(t, vocab, &out);
  return out.Take();
}

TermId Substitution::Apply(TermArena* arena, TermId t) const {
  switch (arena->kind(t)) {
    case TermKind::kVariable: {
      TermId bound = Lookup(arena->symbol(t));
      return bound == kInvalidTerm ? t : bound;
    }
    case TermKind::kConstant:
      return t;
    case TermKind::kFunction: {
      std::span<const TermId> old_args = arena->args(t);
      std::vector<TermId> new_args;
      new_args.reserve(old_args.size());
      bool changed = false;
      for (TermId a : old_args) {
        TermId na = Apply(arena, a);
        changed |= (na != a);
        new_args.push_back(na);
      }
      if (!changed) return t;
      return arena->MakeFunction(arena->symbol(t), new_args);
    }
  }
  return t;
}

bool MatchTerm(const TermArena& arena, TermId pattern, TermId target,
               Substitution* subst) {
  if (arena.IsVariable(pattern)) {
    VariableId v = arena.symbol(pattern);
    TermId bound = subst->Lookup(v);
    if (bound != kInvalidTerm) return bound == target;
    subst->Bind(v, target);
    return true;
  }
  if (arena.kind(pattern) != arena.kind(target)) return false;
  if (arena.symbol(pattern) != arena.symbol(target)) return false;
  std::span<const TermId> pa = arena.args(pattern);
  std::span<const TermId> ta = arena.args(target);
  if (pa.size() != ta.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (!MatchTerm(arena, pa[i], ta[i], subst)) return false;
  }
  return true;
}

}  // namespace tgdkit
