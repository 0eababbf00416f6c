// The Vocabulary holds the symbol spaces shared by terms, atoms,
// dependencies and instances: relation symbols (with arity), function
// symbols (with arity), constants and variables.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/symbol_table.h"

namespace tgdkit {

using RelationId = SymbolId;
using FunctionId = SymbolId;
using ConstantId = SymbolId;
using VariableId = SymbolId;

/// True for the reserved words of the text format (docs/FORMAT.md), which
/// cannot name relations, functions or variables.
inline bool IsReservedWord(std::string_view word) {
  return word == "forall" || word == "exists" || word == "so" ||
         word == "nested" || word == "henkin";
}

/// Shared symbol spaces for one logical "universe" (schema + dependencies +
/// instances). All structures referencing symbol ids must use the same
/// Vocabulary.
class Vocabulary {
 public:
  /// Interns a relation symbol with the given arity. Re-interning with a
  /// different arity is a programming error (checked by assert).
  RelationId InternRelation(std::string_view name, uint32_t arity);
  /// Interns a function symbol with the given arity.
  FunctionId InternFunction(std::string_view name, uint32_t arity);
  ConstantId InternConstant(std::string_view name);
  VariableId InternVariable(std::string_view name);

  /// Interns a fresh variable with a name based on `prefix` that does not
  /// collide with any existing variable.
  VariableId FreshVariable(std::string_view prefix);
  /// Interns a fresh function symbol based on `prefix` with given arity.
  FunctionId FreshFunction(std::string_view prefix, uint32_t arity);

  RelationId FindRelation(std::string_view name) const {
    return relations_.Find(name);
  }
  FunctionId FindFunction(std::string_view name) const {
    return functions_.Find(name);
  }
  ConstantId FindConstant(std::string_view name) const {
    return constants_.Find(name);
  }
  VariableId FindVariable(std::string_view name) const {
    return variables_.Find(name);
  }

  const std::string& RelationName(RelationId id) const {
    return relations_.Name(id);
  }
  const std::string& FunctionName(FunctionId id) const {
    return functions_.Name(id);
  }
  const std::string& ConstantName(ConstantId id) const {
    return constants_.Name(id);
  }
  const std::string& VariableName(VariableId id) const {
    return variables_.Name(id);
  }

  uint32_t RelationArity(RelationId id) const { return relation_arity_[id]; }
  uint32_t FunctionArity(FunctionId id) const { return function_arity_[id]; }

  size_t num_relations() const { return relations_.size(); }
  size_t num_functions() const { return functions_.size(); }
  size_t num_constants() const { return constants_.size(); }
  size_t num_variables() const { return variables_.size(); }

  /// Snapshot support: the fresh-name counter behind FreshVariable /
  /// FreshFunction. Restoring it keeps post-resume fresh names identical
  /// to the uninterrupted run's.
  uint64_t fresh_counter() const { return fresh_counter_; }
  void RestoreFreshCounter(uint64_t value) { fresh_counter_ = value; }

 private:
  SymbolTable relations_;
  SymbolTable functions_;
  SymbolTable constants_;
  SymbolTable variables_;
  std::vector<uint32_t> relation_arity_;
  std::vector<uint32_t> function_arity_;
  uint64_t fresh_counter_ = 0;
};

}  // namespace tgdkit
