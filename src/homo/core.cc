#include "homo/core.h"

#include <string>

#include "base/strings.h"

namespace tgdkit {

namespace {

/// Builds the canonical conjunctive query of `from`: every null becomes a
/// variable, constants stay themselves.
std::vector<Atom> CanonicalQuery(TermArena* arena, Vocabulary* vocab,
                                 const Instance& from) {
  std::vector<Atom> atoms;
  for (const Fact& fact : from.AllFacts()) {
    Atom atom;
    atom.relation = fact.relation;
    for (Value v : fact.args) {
      if (v.is_null()) {
        VariableId var =
            vocab->InternVariable(Cat("@null$", v.index()));
        atom.args.push_back(arena->MakeVariable(var));
      } else {
        atom.args.push_back(arena->MakeConstant(v.index()));
      }
    }
    atoms.push_back(std::move(atom));
  }
  return atoms;
}

}  // namespace

std::optional<NullMap> FindHomomorphism(TermArena* arena, Vocabulary* vocab,
                                        const Instance& from,
                                        const Instance& to,
                                        ResourceGovernor* governor) {
  std::vector<Atom> atoms = CanonicalQuery(arena, vocab, from);
  Matcher matcher(arena, &to, atoms);
  matcher.set_governor(governor);
  std::vector<Value> binding;
  if (!matcher.FindOne(&binding)) return std::nullopt;
  NullMap map;
  for (size_t slot = 0; slot < binding.size(); ++slot) {
    const std::string& name = vocab->VariableName(matcher.variables()[slot]);
    // Variables created by CanonicalQuery are named "@null$<index>".
    uint32_t null_index =
        static_cast<uint32_t>(std::stoul(name.substr(6)));
    map[null_index] = binding[slot];
  }
  return map;
}

bool HomomorphismExists(TermArena* arena, Vocabulary* vocab,
                        const Instance& from, const Instance& to,
                        ResourceGovernor* governor) {
  return FindHomomorphism(arena, vocab, from, to, governor).has_value();
}

bool HomomorphicallyEquivalent(TermArena* arena, Vocabulary* vocab,
                               const Instance& a, const Instance& b) {
  return HomomorphismExists(arena, vocab, a, b) &&
         HomomorphismExists(arena, vocab, b, a);
}

Instance ApplyNullMap(const Instance& source, const NullMap& map) {
  Instance image(&source.vocab());
  image.EnsureNulls(source.num_nulls());
  std::vector<Value> mapped;
  for (const Fact& fact : source.AllFacts()) {
    mapped.clear();
    for (Value v : fact.args) {
      if (v.is_null()) {
        auto it = map.find(v.index());
        mapped.push_back(it == map.end() ? v : it->second);
      } else {
        mapped.push_back(v);
      }
    }
    image.AddFact(fact.relation, mapped);
  }
  return image;
}

Instance ComputeCore(TermArena* arena, Vocabulary* vocab, const Instance& j,
                     ResourceGovernor* governor) {
  Instance current(&j.vocab());
  CopyFacts(j, &current);

  bool reduced = true;
  while (reduced) {
    reduced = false;
    std::vector<Fact> facts = current.AllFacts();
    for (const Fact& fact : facts) {
      // Each retraction attempt costs at least one step; a budget stop
      // leaves `current` as the best fold found so far.
      if (governor != nullptr && !governor->Poll()) return current;
      bool has_null = false;
      for (Value v : fact.args) has_null |= v.is_null();
      if (!has_null) continue;  // constant facts are in every core

      // Try to retract `current` into itself minus this fact.
      Instance target(&current.vocab());
      target.EnsureNulls(current.num_nulls());
      for (const Fact& f : facts) {
        if (!(f == fact)) target.AddFact(f);
      }
      std::optional<NullMap> hom =
          FindHomomorphism(arena, vocab, current, target, governor);
      if (governor != nullptr && governor->exhausted()) return current;
      if (hom.has_value()) {
        current = ApplyNullMap(current, *hom);
        reduced = true;
        break;
      }
    }
  }
  return current;
}

}  // namespace tgdkit
