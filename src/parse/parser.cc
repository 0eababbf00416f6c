#include "parse/parser.h"

#include <unordered_set>

#include "base/strings.h"

namespace tgdkit {

std::vector<Tgd> DependencyProgram::Tgds() const {
  std::vector<Tgd> out;
  for (const ParsedDependency& d : dependencies) {
    if (d.kind == ParsedDependency::Kind::kTgd) out.push_back(d.tgd);
  }
  return out;
}

std::vector<HenkinTgd> DependencyProgram::Henkins() const {
  std::vector<HenkinTgd> out;
  for (const ParsedDependency& d : dependencies) {
    if (d.kind == ParsedDependency::Kind::kHenkin) out.push_back(d.henkin);
  }
  return out;
}

std::vector<NestedTgd> DependencyProgram::Nesteds() const {
  std::vector<NestedTgd> out;
  for (const ParsedDependency& d : dependencies) {
    if (d.kind == ParsedDependency::Kind::kNested) out.push_back(d.nested);
  }
  return out;
}

std::vector<SoTgd> DependencyProgram::Sos() const {
  std::vector<SoTgd> out;
  for (const ParsedDependency& d : dependencies) {
    if (d.kind == ParsedDependency::Kind::kSo) out.push_back(d.so);
  }
  return out;
}

namespace {

/// Token cursor with arity bookkeeping and error formatting.
class Cursor {
 public:
  Cursor(std::vector<Token> tokens, TermArena* arena, Vocabulary* vocab)
      : tokens_(std::move(tokens)), arena_(arena), vocab_(vocab) {}

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool At(TokenKind kind) const { return Peek().kind == kind; }
  bool AtKeyword(const char* kw) const {
    return At(TokenKind::kIdent) && Peek().text == kw;
  }
  Token Take() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool TryTake(TokenKind kind) {
    if (!At(kind)) return false;
    Take();
    return true;
  }
  bool TryTakeKeyword(const char* kw) {
    if (!AtKeyword(kw)) return false;
    Take();
    return true;
  }

  Status Error(const std::string& msg) const {
    const Token& t = Peek();
    return Status::ParseError(
        Cat("line ", t.line, ", column ", t.column, ": ", msg, " (found ",
            TokenKindName(t.kind),
            t.kind == TokenKind::kIdent ? Cat(" '", t.text, "'") : "", ")"));
  }

  Status Expect(TokenKind kind) {
    if (!At(kind)) {
      return Error(Cat("expected ", TokenKindName(kind)));
    }
    Take();
    return Status::Ok();
  }

  Result<std::string> ExpectIdent(const char* what) {
    if (!At(TokenKind::kIdent)) return Error(Cat("expected ", what));
    if (IsReservedWord(Peek().text)) {
      return Error(Cat("reserved word '", Peek().text, "' used as ", what));
    }
    return Take().text;
  }

  /// Interns a relation, checking arity consistency.
  Result<RelationId> Relation(const std::string& name, uint32_t arity) {
    RelationId existing = vocab_->FindRelation(name);
    if (existing != kInvalidSymbol &&
        vocab_->RelationArity(existing) != arity) {
      return Error(Cat("relation '", name, "' used with arity ", arity,
                       " but declared with arity ",
                       vocab_->RelationArity(existing)));
    }
    return vocab_->InternRelation(name, arity);
  }

  /// Interns a function, checking arity consistency.
  Result<FunctionId> Function(const std::string& name, uint32_t arity) {
    FunctionId existing = vocab_->FindFunction(name);
    if (existing != kInvalidSymbol &&
        vocab_->FunctionArity(existing) != arity) {
      return Error(Cat("function '", name, "' used with arity ", arity,
                       " but declared with arity ",
                       vocab_->FunctionArity(existing)));
    }
    return vocab_->InternFunction(name, arity);
  }

  TermArena* arena() { return arena_; }
  Vocabulary* vocab() { return vocab_; }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  TermArena* arena_;
  Vocabulary* vocab_;
};

/// Maximum syntactic nesting of function terms. The recursive-descent
/// parser uses one stack frame per level; the cap keeps hostile inputs
/// like f(f(f(...))) from overflowing the stack (clean ParseError
/// instead). Far above anything a real dependency program needs.
constexpr uint32_t kMaxTermNesting = 1000;

/// Parses a term in dependency context: identifiers are variables (or
/// function applications when followed by '('), strings/ints constants.
Result<TermId> ParseTerm(Cursor* c, uint32_t depth = 0) {
  if (depth > kMaxTermNesting) {
    return c->Error(
        Cat("term nesting deeper than ", kMaxTermNesting, " levels"));
  }
  if (c->At(TokenKind::kString) || c->At(TokenKind::kInt)) {
    return c->arena()->MakeConstant(c->vocab()->InternConstant(c->Take().text));
  }
  Result<std::string> name = c->ExpectIdent("term");
  if (!name.ok()) return name.status();
  if (!c->TryTake(TokenKind::kLParen)) {
    return c->arena()->MakeVariable(c->vocab()->InternVariable(*name));
  }
  std::vector<TermId> args;
  if (!c->At(TokenKind::kRParen)) {
    for (;;) {
      Result<TermId> arg = ParseTerm(c, depth + 1);
      if (!arg.ok()) return arg.status();
      args.push_back(*arg);
      if (!c->TryTake(TokenKind::kComma)) break;
    }
  }
  TGDKIT_RETURN_IF_ERROR(c->Expect(TokenKind::kRParen));
  Result<FunctionId> f =
      c->Function(*name, static_cast<uint32_t>(args.size()));
  if (!f.ok()) return f.status();
  return c->arena()->MakeFunction(*f, args);
}

/// Parses a relational atom R(t1, ..., tk), k >= 1.
Result<Atom> ParseAtom(Cursor* c) {
  Result<std::string> name = c->ExpectIdent("relation name");
  if (!name.ok()) return name.status();
  TGDKIT_RETURN_IF_ERROR(c->Expect(TokenKind::kLParen));
  if (c->At(TokenKind::kRParen)) {
    return c->Error(Cat("atom '", *name, "' needs at least one argument"));
  }
  Atom atom;
  for (;;) {
    Result<TermId> arg = ParseTerm(c);
    if (!arg.ok()) return arg.status();
    atom.args.push_back(*arg);
    if (!c->TryTake(TokenKind::kComma)) break;
  }
  TGDKIT_RETURN_IF_ERROR(c->Expect(TokenKind::kRParen));
  Result<RelationId> rel =
      c->Relation(*name, static_cast<uint32_t>(atom.args.size()));
  if (!rel.ok()) return rel.status();
  atom.relation = *rel;
  return atom;
}

/// Parses '&'-separated atoms (function-free enforced by validation later).
Result<std::vector<Atom>> ParseAtomList(Cursor* c) {
  std::vector<Atom> atoms;
  for (;;) {
    Result<Atom> atom = ParseAtom(c);
    if (!atom.ok()) return atom.status();
    atoms.push_back(*atom);
    if (!c->TryTake(TokenKind::kAmp)) break;
  }
  return atoms;
}

Result<std::vector<VariableId>> ParseVarList(Cursor* c) {
  std::vector<VariableId> vars;
  for (;;) {
    Result<std::string> name = c->ExpectIdent("variable");
    if (!name.ok()) return name.status();
    vars.push_back(c->vocab()->InternVariable(*name));
    if (!c->TryTake(TokenKind::kComma)) break;
  }
  return vars;
}

// --- tgd -------------------------------------------------------------------

Result<Tgd> ParseTgd(Cursor* c) {
  Tgd tgd;
  if (c->TryTakeKeyword("forall")) {
    // Universals are implicit from the body; an explicit list is allowed
    // and ignored (checked by validation).
    Result<std::vector<VariableId>> vars = ParseVarList(c);
    if (!vars.ok()) return vars.status();
  }
  Result<std::vector<Atom>> body = ParseAtomList(c);
  if (!body.ok()) return body.status();
  tgd.body = std::move(*body);
  TGDKIT_RETURN_IF_ERROR(c->Expect(TokenKind::kArrow));
  if (c->TryTakeKeyword("exists")) {
    Result<std::vector<VariableId>> vars = ParseVarList(c);
    if (!vars.ok()) return vars.status();
    tgd.exist_vars = std::move(*vars);
    TGDKIT_RETURN_IF_ERROR(c->Expect(TokenKind::kDot));
  }
  Result<std::vector<Atom>> head = ParseAtomList(c);
  if (!head.ok()) return head.status();
  tgd.head = std::move(*head);
  return tgd;
}

// --- SO tgd ----------------------------------------------------------------

/// A body item of an SO part: either a relational atom or an equality.
/// Disambiguated by the token after the callable: '=' makes it a term.
Status ParseSoBodyItem(Cursor* c, SoPart* part) {
  if (c->At(TokenKind::kString) || c->At(TokenKind::kInt)) {
    // Constant on the left of an equality.
    Result<TermId> lhs = ParseTerm(c);
    if (!lhs.ok()) return lhs.status();
    TGDKIT_RETURN_IF_ERROR(c->Expect(TokenKind::kEq));
    Result<TermId> rhs = ParseTerm(c);
    if (!rhs.ok()) return rhs.status();
    part->equalities.push_back({*lhs, *rhs});
    return Status::Ok();
  }
  Result<std::string> name = c->ExpectIdent("atom or term");
  if (!name.ok()) return name.status();
  if (!c->At(TokenKind::kLParen)) {
    // Bare identifier: must be the left side of an equality (a variable).
    TGDKIT_RETURN_IF_ERROR(c->Expect(TokenKind::kEq));
    TermId lhs = c->arena()->MakeVariable(c->vocab()->InternVariable(*name));
    Result<TermId> rhs = ParseTerm(c);
    if (!rhs.ok()) return rhs.status();
    part->equalities.push_back({lhs, *rhs});
    return Status::Ok();
  }
  // name '(' args ')': atom, or function term if '=' follows.
  c->Take();  // '('
  std::vector<TermId> args;
  if (!c->At(TokenKind::kRParen)) {
    for (;;) {
      Result<TermId> arg = ParseTerm(c);
      if (!arg.ok()) return arg.status();
      args.push_back(*arg);
      if (!c->TryTake(TokenKind::kComma)) break;
    }
  }
  TGDKIT_RETURN_IF_ERROR(c->Expect(TokenKind::kRParen));
  if (c->TryTake(TokenKind::kEq)) {
    Result<FunctionId> f =
        c->Function(*name, static_cast<uint32_t>(args.size()));
    if (!f.ok()) return f.status();
    TermId lhs = c->arena()->MakeFunction(*f, args);
    Result<TermId> rhs = ParseTerm(c);
    if (!rhs.ok()) return rhs.status();
    part->equalities.push_back({lhs, *rhs});
    return Status::Ok();
  }
  if (args.empty()) {
    return c->Error(Cat("atom '", *name, "' needs at least one argument"));
  }
  Result<RelationId> rel =
      c->Relation(*name, static_cast<uint32_t>(args.size()));
  if (!rel.ok()) return rel.status();
  Atom atom;
  atom.relation = *rel;
  atom.args = std::move(args);
  part->body.push_back(std::move(atom));
  return Status::Ok();
}

Result<SoTgd> ParseSoTgd(Cursor* c) {
  SoTgd so;
  std::vector<std::string> function_names;
  // `so { ... }` with no function symbols is the full-tgd case.
  if (c->TryTakeKeyword("exists")) {
    for (;;) {
      Result<std::string> name = c->ExpectIdent("function symbol");
      if (!name.ok()) return name.status();
      // Arity is fixed at first use inside the parts; remember the name.
      so.functions.push_back(kInvalidSymbol);  // patched below
      function_names.push_back(*name);
      if (!c->TryTake(TokenKind::kComma)) break;
    }
  } else if (!c->At(TokenKind::kLBrace)) {
    return c->Error("expected 'exists' or '{' after 'so'");
  }
  TGDKIT_RETURN_IF_ERROR(c->Expect(TokenKind::kLBrace));
  for (;;) {
    SoPart part;
    for (;;) {
      TGDKIT_RETURN_IF_ERROR(ParseSoBodyItem(c, &part));
      if (!c->TryTake(TokenKind::kAmp)) break;
    }
    TGDKIT_RETURN_IF_ERROR(c->Expect(TokenKind::kArrow));
    Result<std::vector<Atom>> head = ParseAtomList(c);
    if (!head.ok()) return head.status();
    part.head = std::move(*head);
    so.parts.push_back(std::move(part));
    if (!c->TryTake(TokenKind::kSemi)) break;
  }
  TGDKIT_RETURN_IF_ERROR(c->Expect(TokenKind::kRBrace));
  // Patch function ids now that arities are known from use.
  for (size_t i = 0; i < so.functions.size(); ++i) {
    FunctionId f = c->vocab()->FindFunction(function_names[i]);
    if (f == kInvalidSymbol) {
      return c->Error(Cat("declared function '", function_names[i],
                          "' never used in the SO tgd"));
    }
    so.functions[i] = f;
  }
  return so;
}

// --- nested tgd -------------------------------------------------------------

Result<NestedNode> ParseNestedNode(Cursor* c,
                                   std::unordered_set<VariableId> scope) {
  NestedNode node;
  bool explicit_forall = false;
  if (c->TryTakeKeyword("forall")) {
    explicit_forall = true;
    Result<std::vector<VariableId>> vars = ParseVarList(c);
    if (!vars.ok()) return vars.status();
    node.univ_vars = std::move(*vars);
  }
  Result<std::vector<Atom>> body = ParseAtomList(c);
  if (!body.ok()) return body.status();
  node.body = std::move(*body);
  if (!explicit_forall) {
    // Infer universals: body variables not bound by an outer part.
    for (VariableId v : CollectAtomVariables(*c->arena(), node.body)) {
      if (!scope.count(v)) node.univ_vars.push_back(v);
    }
  }
  for (VariableId v : node.univ_vars) scope.insert(v);
  TGDKIT_RETURN_IF_ERROR(c->Expect(TokenKind::kArrow));
  if (c->TryTakeKeyword("exists")) {
    Result<std::vector<VariableId>> vars = ParseVarList(c);
    if (!vars.ok()) return vars.status();
    node.exist_vars = std::move(*vars);
    TGDKIT_RETURN_IF_ERROR(c->Expect(TokenKind::kDot));
  }
  for (VariableId v : node.exist_vars) scope.insert(v);
  for (;;) {
    if (c->TryTake(TokenKind::kLBracket)) {
      Result<NestedNode> child = ParseNestedNode(c, scope);
      if (!child.ok()) return child.status();
      node.children.push_back(std::move(*child));
      TGDKIT_RETURN_IF_ERROR(c->Expect(TokenKind::kRBracket));
    } else {
      Result<Atom> atom = ParseAtom(c);
      if (!atom.ok()) return atom.status();
      node.head_atoms.push_back(std::move(*atom));
    }
    if (!c->TryTake(TokenKind::kAmp)) break;
  }
  return node;
}

Result<NestedTgd> ParseNestedTgd(Cursor* c) {
  Result<NestedNode> root = ParseNestedNode(c, {});
  if (!root.ok()) return root.status();
  NestedTgd nested;
  nested.root = std::move(*root);
  return nested;
}

// --- Henkin tgd --------------------------------------------------------------

Result<HenkinTgd> ParseHenkinTgd(Cursor* c) {
  HenkinTgd henkin;
  TGDKIT_RETURN_IF_ERROR(c->Expect(TokenKind::kLBrace));
  for (;;) {
    if (c->TryTakeKeyword("forall")) {
      Result<std::vector<VariableId>> vars = ParseVarList(c);
      if (!vars.ok()) return vars.status();
      for (VariableId v : *vars) henkin.quantifier.AddUniversal(v);
    } else if (c->TryTakeKeyword("exists")) {
      Result<std::string> name = c->ExpectIdent("existential variable");
      if (!name.ok()) return name.status();
      VariableId y = c->vocab()->InternVariable(*name);
      henkin.quantifier.AddExistential(y);
      if (c->TryTake(TokenKind::kLParen)) {
        if (!c->At(TokenKind::kRParen)) {
          Result<std::vector<VariableId>> deps = ParseVarList(c);
          if (!deps.ok()) return deps.status();
          // Dependency lists specify the essential order directly: each
          // listed universal precedes the existential, nothing more.
          for (VariableId x : *deps) henkin.quantifier.AddOrder(x, y);
        }
        TGDKIT_RETURN_IF_ERROR(c->Expect(TokenKind::kRParen));
      }
    } else {
      return c->Error("expected 'forall' or 'exists' in Henkin quantifier");
    }
    if (!c->TryTake(TokenKind::kSemi)) break;
  }
  TGDKIT_RETURN_IF_ERROR(c->Expect(TokenKind::kRBrace));
  Result<std::vector<Atom>> body = ParseAtomList(c);
  if (!body.ok()) return body.status();
  henkin.body = std::move(*body);
  TGDKIT_RETURN_IF_ERROR(c->Expect(TokenKind::kArrow));
  Result<std::vector<Atom>> head = ParseAtomList(c);
  if (!head.ok()) return head.status();
  henkin.head = std::move(*head);
  return henkin;
}

}  // namespace

Result<DependencyProgram> Parser::ParseDependencies(std::string_view text) {
  return ParseDependencyProgram(text, /*validate=*/true);
}

Result<DependencyProgram> Parser::ParseDependenciesLenient(
    std::string_view text) {
  return ParseDependencyProgram(text, /*validate=*/false);
}

Result<DependencyProgram> Parser::ParseDependencyProgram(
    std::string_view text, bool validate) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  Cursor c(std::move(*tokens), arena_, vocab_);

  DependencyProgram program;
  while (!c.At(TokenKind::kEnd)) {
    ParsedDependency dep;
    dep.line = c.Peek().line;
    dep.column = c.Peek().column;
    // Optional "label :" prefix.
    if (c.At(TokenKind::kIdent) && !IsReservedWord(c.Peek().text) &&
        c.Peek(1).kind == TokenKind::kColon) {
      dep.label = c.Take().text;
      c.Take();  // ':'
    }
    if (c.TryTakeKeyword("so")) {
      dep.kind = ParsedDependency::Kind::kSo;
      Result<SoTgd> so = ParseSoTgd(&c);
      if (!so.ok()) return so.status();
      dep.so = std::move(*so);
      if (validate) TGDKIT_RETURN_IF_ERROR(ValidateSoTgd(*arena_, dep.so));
    } else if (c.TryTakeKeyword("nested")) {
      dep.kind = ParsedDependency::Kind::kNested;
      Result<NestedTgd> nested = ParseNestedTgd(&c);
      if (!nested.ok()) return nested.status();
      dep.nested = std::move(*nested);
      if (validate) {
        TGDKIT_RETURN_IF_ERROR(ValidateNestedTgd(*arena_, dep.nested));
      }
    } else if (c.TryTakeKeyword("henkin")) {
      dep.kind = ParsedDependency::Kind::kHenkin;
      Result<HenkinTgd> henkin = ParseHenkinTgd(&c);
      if (!henkin.ok()) return henkin.status();
      dep.henkin = std::move(*henkin);
      if (validate) {
        TGDKIT_RETURN_IF_ERROR(ValidateHenkinTgd(*arena_, dep.henkin));
      }
    } else {
      dep.kind = ParsedDependency::Kind::kTgd;
      Result<Tgd> tgd = ParseTgd(&c);
      if (!tgd.ok()) return tgd.status();
      dep.tgd = std::move(*tgd);
      if (validate) TGDKIT_RETURN_IF_ERROR(ValidateTgd(*arena_, dep.tgd));
    }
    TGDKIT_RETURN_IF_ERROR(c.Expect(TokenKind::kDot));
    program.dependencies.push_back(std::move(dep));
  }
  return program;
}

Status Parser::ParseInstanceInto(std::string_view text, Instance* out) {
  return ParseFacts(text, FactDialect::kFile, vocab_, out);
}

Result<ConjunctiveQuery> Parser::ParseQuery(std::string_view text) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  Cursor c(std::move(*tokens), arena_, vocab_);

  ConjunctiveQuery query;
  // Head: name(vars) :- ...; the head relation is not interned.
  Result<std::string> head_name = c.ExpectIdent("query head");
  if (!head_name.ok()) return head_name.status();
  TGDKIT_RETURN_IF_ERROR(c.Expect(TokenKind::kLParen));
  if (!c.At(TokenKind::kRParen)) {
    Result<std::vector<VariableId>> vars = ParseVarList(&c);
    if (!vars.ok()) return vars.status();
    query.free_vars = std::move(*vars);
  }
  TGDKIT_RETURN_IF_ERROR(c.Expect(TokenKind::kRParen));
  TGDKIT_RETURN_IF_ERROR(c.Expect(TokenKind::kColonDash));
  for (;;) {
    Result<Atom> atom = ParseAtom(&c);
    if (!atom.ok()) return atom.status();
    query.atoms.push_back(std::move(*atom));
    if (!c.TryTake(TokenKind::kComma) && !c.TryTake(TokenKind::kAmp)) break;
  }
  c.TryTake(TokenKind::kDot);
  if (!c.At(TokenKind::kEnd)) {
    return c.Error("trailing input after query");
  }
  // Free variables must occur in the body.
  std::vector<VariableId> body_vars =
      CollectAtomVariables(*arena_, query.atoms);
  for (VariableId v : query.free_vars) {
    if (std::find(body_vars.begin(), body_vars.end(), v) == body_vars.end()) {
      return Status::ParseError(Cat("free variable '",
                                    vocab_->VariableName(v),
                                    "' does not occur in the query body"));
    }
  }
  return query;
}

}  // namespace tgdkit
