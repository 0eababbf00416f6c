#include "snapshot/snapshot.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <span>
#include <utility>

#include "base/fileio.h"
#include "base/strings.h"
#include "data/instance.h"
#include "data/segment.h"

namespace tgdkit {

namespace {

// ---------------------------------------------------------------------------
// Payload writer: whitespace-separated tokens; strings are length-prefixed
// (`<len>:<bytes>`) so symbol names may contain anything.

class Writer {
 public:
  void Word(std::string_view w) {
    out_ += w;
    out_ += ' ';
  }
  void U64(uint64_t v) { Word(std::to_string(v)); }
  void Str(std::string_view s) {
    out_ += std::to_string(s.size());
    out_ += ':';
    out_ += s;
    out_ += ' ';
  }
  void EndLine() {
    if (!out_.empty() && out_.back() == ' ') out_.back() = '\n';
  }

  std::string Take() && { return std::move(out_); }

 private:
  std::string out_;
};

// ---------------------------------------------------------------------------
// Payload reader. Every method returns false once anything went wrong and
// records a DataLoss status; callers chain reads and check once.

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ok() const { return error_.ok(); }
  Status TakeError() && {
    if (error_.ok()) return Status::DataLoss("snapshot payload: malformed");
    return std::move(error_);
  }

  bool Fail(std::string msg) {
    if (error_.ok()) {
      error_ = Status::DataLoss("snapshot payload: " + std::move(msg));
    }
    return false;
  }

  /// Records a non-DataLoss error (e.g. InvalidArgument for a segmented
  /// snapshot loaded without a spill directory, or a segment file's own
  /// load status) verbatim.
  bool FailStatus(Status status) {
    if (error_.ok()) error_ = std::move(status);
    return false;
  }

  bool Word(std::string_view* out) {
    if (!ok()) return false;
    SkipSpace();
    if (pos_ >= data_.size()) return Fail("unexpected end of payload");
    size_t start = pos_;
    while (pos_ < data_.size() && !IsSpace(data_[pos_])) ++pos_;
    *out = data_.substr(start, pos_ - start);
    return true;
  }

  bool Expect(std::string_view want) {
    std::string_view got;
    if (!Word(&got)) return false;
    if (got != want) {
      return Fail("expected '" + std::string(want) + "', found '" +
                  std::string(got) + "'");
    }
    return true;
  }

  bool U64(uint64_t* out) {
    std::string_view w;
    if (!Word(&w)) return false;
    auto [ptr, ec] = std::from_chars(w.data(), w.data() + w.size(), *out);
    if (ec != std::errc() || ptr != w.data() + w.size()) {
      return Fail("expected a number, found '" + std::string(w) + "'");
    }
    return true;
  }

  bool U32(uint32_t* out) {
    uint64_t v;
    if (!U64(&v)) return false;
    if (v > 0xffffffffull) return Fail("32-bit value out of range");
    *out = static_cast<uint32_t>(v);
    return true;
  }

  /// Reads a `<len>:<bytes>` string.
  bool Str(std::string* out) {
    if (!ok()) return false;
    SkipSpace();
    uint64_t len = 0;
    size_t start = pos_;
    while (pos_ < data_.size() && data_[pos_] >= '0' && data_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == start || pos_ >= data_.size() || data_[pos_] != ':') {
      return Fail("expected a length-prefixed string");
    }
    std::string_view digits = data_.substr(start, pos_ - start);
    auto [ptr, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), len);
    if (ec != std::errc()) return Fail("bad string length");
    ++pos_;  // ':'
    if (data_.size() - pos_ < len) return Fail("string runs past the payload");
    out->assign(data_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  /// Sanity bound for element counts: a count larger than the remaining
  /// payload (one byte per element minimum) is corrupt, and rejecting it
  /// here keeps corrupt files from driving huge allocations.
  bool Count(uint64_t* out) {
    if (!U64(out)) return false;
    if (*out > data_.size() - pos_) return Fail("element count exceeds payload size");
    return true;
  }

  bool AtEnd() {
    SkipSpace();
    return ok() && pos_ >= data_.size();
  }

 private:
  static bool IsSpace(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r';
  }
  void SkipSpace() {
    while (pos_ < data_.size() && IsSpace(data_[pos_])) ++pos_;
  }

  std::string_view data_;
  size_t pos_ = 0;
  Status error_;
};

// ---------------------------------------------------------------------------
// Envelope

std::string HexU32(uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

std::string WrapEnvelope(std::string_view kind, std::string_view payload) {
  std::string out;
  out += kSnapshotMagic;
  out += " v";
  out += std::to_string(kSnapshotVersion);
  out += ' ';
  out += kind;
  out += "\npayload ";
  out += std::to_string(payload.size());
  out += " crc32 ";
  out += HexU32(Crc32(payload));
  out += '\n';
  out += payload;
  return out;
}

/// Validates magic, version, kind, length and checksum; returns the
/// payload bytes on success.
Result<std::string_view> UnwrapEnvelope(std::string_view bytes,
                                        std::string_view want_kind) {
  size_t eol = bytes.find('\n');
  if (eol == std::string_view::npos) {
    return Status::DataLoss("snapshot: missing header line");
  }
  std::string_view header = bytes.substr(0, eol);
  if (header.substr(0, kSnapshotMagic.size()) != kSnapshotMagic) {
    return Status::DataLoss("snapshot: not a tgdkit snapshot file");
  }
  Reader head(header.substr(kSnapshotMagic.size()));
  std::string_view version;
  std::string_view kind;
  if (!head.Word(&version) || !head.Word(&kind) || !head.AtEnd()) {
    return Status::DataLoss("snapshot: malformed header line");
  }
  uint32_t version_num = 0;
  if (version.size() < 2 || version[0] != 'v') {
    return Status::DataLoss("snapshot: malformed version token");
  }
  auto [ptr, ec] = std::from_chars(version.data() + 1,
                                   version.data() + version.size(),
                                   version_num);
  if (ec != std::errc() || ptr != version.data() + version.size()) {
    return Status::DataLoss("snapshot: malformed version token");
  }
  if (version_num != kSnapshotVersion) {
    return Status::Unsupported(
        "snapshot format version v" + std::to_string(version_num) +
        "; this build reads v" + std::to_string(kSnapshotVersion));
  }
  if (kind != want_kind) {
    return Status::InvalidArgument("snapshot kind '" + std::string(kind) +
                                   "', expected '" + std::string(want_kind) +
                                   "'");
  }

  std::string_view rest = bytes.substr(eol + 1);
  size_t eol2 = rest.find('\n');
  if (eol2 == std::string_view::npos) {
    return Status::DataLoss("snapshot: missing payload-descriptor line");
  }
  Reader desc(rest.substr(0, eol2));
  uint64_t payload_len = 0;
  std::string_view crc_hex;
  if (!desc.Expect("payload") || !desc.U64(&payload_len) ||
      !desc.Expect("crc32") || !desc.Word(&crc_hex) || !desc.AtEnd()) {
    return Status::DataLoss("snapshot: malformed payload-descriptor line");
  }
  uint32_t want_crc = 0;
  auto [cptr, cec] = std::from_chars(crc_hex.data(),
                                     crc_hex.data() + crc_hex.size(),
                                     want_crc, 16);
  if (cec != std::errc() || cptr != crc_hex.data() + crc_hex.size()) {
    return Status::DataLoss("snapshot: malformed checksum");
  }
  std::string_view payload = rest.substr(eol2 + 1);
  if (payload.size() < payload_len) {
    return Status::DataLoss(
        "snapshot: truncated (payload has " + std::to_string(payload.size()) +
        " of " + std::to_string(payload_len) + " bytes)");
  }
  if (payload.size() > payload_len) {
    return Status::DataLoss("snapshot: trailing bytes after payload");
  }
  if (Crc32(payload) != want_crc) {
    return Status::DataLoss("snapshot: checksum mismatch (corrupt payload)");
  }
  return payload;
}

// ---------------------------------------------------------------------------
// Shared sections: vocabulary, arena, atoms

void WriteVocab(const Vocabulary& vocab, Writer* w) {
  w->Word("relations");
  w->U64(vocab.num_relations());
  for (size_t i = 0; i < vocab.num_relations(); ++i) {
    w->U64(vocab.RelationArity(static_cast<RelationId>(i)));
    w->Str(vocab.RelationName(static_cast<RelationId>(i)));
  }
  w->EndLine();
  w->Word("functions");
  w->U64(vocab.num_functions());
  for (size_t i = 0; i < vocab.num_functions(); ++i) {
    w->U64(vocab.FunctionArity(static_cast<FunctionId>(i)));
    w->Str(vocab.FunctionName(static_cast<FunctionId>(i)));
  }
  w->EndLine();
  w->Word("constants");
  w->U64(vocab.num_constants());
  for (size_t i = 0; i < vocab.num_constants(); ++i) {
    w->Str(vocab.ConstantName(static_cast<ConstantId>(i)));
  }
  w->EndLine();
  w->Word("variables");
  w->U64(vocab.num_variables());
  for (size_t i = 0; i < vocab.num_variables(); ++i) {
    w->Str(vocab.VariableName(static_cast<VariableId>(i)));
  }
  w->EndLine();
  w->Word("fresh");
  w->U64(vocab.fresh_counter());
  w->EndLine();
}

/// Rebuilds a Vocabulary by re-interning every symbol in id order, so the
/// dense ids in the rest of the payload stay meaningful.
bool ReadVocab(Reader* r, Vocabulary* vocab) {
  uint64_t n = 0;
  if (!r->Expect("relations") || !r->Count(&n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t arity = 0;
    std::string name;
    if (!r->U32(&arity) || !r->Str(&name)) return false;
    if (name.empty()) return r->Fail("empty relation name");
    if (vocab->FindRelation(name) != kInvalidSymbol) {
      return r->Fail("duplicate relation name '" + name + "'");
    }
    vocab->InternRelation(name, arity);
  }
  if (!r->Expect("functions") || !r->Count(&n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t arity = 0;
    std::string name;
    if (!r->U32(&arity) || !r->Str(&name)) return false;
    if (name.empty()) return r->Fail("empty function name");
    if (vocab->FindFunction(name) != kInvalidSymbol) {
      return r->Fail("duplicate function name '" + name + "'");
    }
    vocab->InternFunction(name, arity);
  }
  if (!r->Expect("constants") || !r->Count(&n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    if (!r->Str(&name)) return false;
    if (name.empty()) return r->Fail("empty constant name");
    if (vocab->FindConstant(name) != kInvalidSymbol) {
      return r->Fail("duplicate constant name '" + name + "'");
    }
    vocab->InternConstant(name);
  }
  if (!r->Expect("variables") || !r->Count(&n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    if (!r->Str(&name)) return false;
    if (name.empty()) return r->Fail("empty variable name");
    if (vocab->FindVariable(name) != kInvalidSymbol) {
      return r->Fail("duplicate variable name '" + name + "'");
    }
    vocab->InternVariable(name);
  }
  uint64_t fresh = 0;
  if (!r->Expect("fresh") || !r->U64(&fresh)) return false;
  vocab->RestoreFreshCounter(fresh);
  return true;
}

void WriteArena(const TermArena& arena, Writer* w) {
  w->Word("arena");
  w->U64(arena.size());
  w->EndLine();
  for (TermId t = 0; t < arena.size(); ++t) {
    switch (arena.kind(t)) {
      case TermKind::kVariable:
        w->Word("V");
        w->U64(arena.symbol(t));
        break;
      case TermKind::kConstant:
        w->Word("C");
        w->U64(arena.symbol(t));
        break;
      case TermKind::kFunction:
        w->Word("F");
        w->U64(arena.symbol(t));
        w->U64(arena.args(t).size());
        for (TermId a : arena.args(t)) w->U64(a);
        break;
    }
    w->EndLine();
  }
}

/// Rebuilds a TermArena by replaying Make* calls in node order. The arena
/// hash-conses in append order, so the rebuilt ids equal the serialized
/// ones; a node that dedups to an earlier id means the payload was not
/// produced by a canonical arena (corrupt).
bool ReadArena(Reader* r, const Vocabulary& vocab, TermArena* arena) {
  uint64_t n = 0;
  if (!r->Expect("arena") || !r->Count(&n)) return false;
  std::vector<TermId> args;
  for (uint64_t i = 0; i < n; ++i) {
    std::string_view tag;
    uint32_t sym = 0;
    if (!r->Word(&tag) || !r->U32(&sym)) return false;
    TermId id = kInvalidTerm;
    if (tag == "V") {
      if (sym >= vocab.num_variables()) return r->Fail("bad variable symbol");
      id = arena->MakeVariable(sym);
    } else if (tag == "C") {
      if (sym >= vocab.num_constants()) return r->Fail("bad constant symbol");
      id = arena->MakeConstant(sym);
    } else if (tag == "F") {
      if (sym >= vocab.num_functions()) return r->Fail("bad function symbol");
      uint64_t k = 0;
      if (!r->Count(&k)) return false;
      if (k != vocab.FunctionArity(sym)) {
        return r->Fail("function arity mismatch in arena node");
      }
      args.clear();
      for (uint64_t j = 0; j < k; ++j) {
        uint32_t a = 0;
        if (!r->U32(&a)) return false;
        if (a >= i) return r->Fail("arena node references a later node");
        args.push_back(a);
      }
      id = arena->MakeFunction(sym, args);
    } else {
      return r->Fail("unknown arena node tag '" + std::string(tag) + "'");
    }
    if (id != i) return r->Fail("arena is not canonical (duplicate node)");
  }
  return true;
}

void WriteAtoms(std::span<const Atom> atoms, Writer* w) {
  w->U64(atoms.size());
  for (const Atom& atom : atoms) {
    w->U64(atom.relation);
    w->U64(atom.args.size());
    for (TermId t : atom.args) w->U64(t);
    w->EndLine();
  }
}

bool ReadAtoms(Reader* r, const Vocabulary& vocab, const TermArena& arena,
               std::vector<Atom>* out) {
  uint64_t n = 0;
  if (!r->Count(&n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    Atom atom;
    uint64_t k = 0;
    if (!r->U32(&atom.relation) || !r->Count(&k)) return false;
    if (atom.relation >= vocab.num_relations()) {
      return r->Fail("atom over unknown relation");
    }
    if (k != vocab.RelationArity(atom.relation)) {
      return r->Fail("atom arity mismatch");
    }
    for (uint64_t j = 0; j < k; ++j) {
      uint32_t t = 0;
      if (!r->U32(&t)) return false;
      if (t >= arena.size()) return r->Fail("atom references unknown term");
      atom.args.push_back(t);
    }
    out->push_back(std::move(atom));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Engine-state sections

void WriteCounters(bool done, StopReason stop, uint64_t rounds,
                   uint64_t facts, uint64_t gsteps, uint64_t gbytes,
                   Writer* w) {
  w->Word("engine");
  w->U64(done ? 1 : 0);
  w->U64(static_cast<uint64_t>(stop));
  w->U64(rounds);
  w->U64(facts);
  w->U64(gsteps);
  w->U64(gbytes);
  w->EndLine();
}

bool ReadCounters(Reader* r, bool* done, StopReason* stop, uint64_t* rounds,
                  uint64_t* facts, uint64_t* gsteps, uint64_t* gbytes) {
  uint64_t done_v = 0;
  uint64_t stop_v = 0;
  if (!r->Expect("engine") || !r->U64(&done_v) || !r->U64(&stop_v) ||
      !r->U64(rounds) || !r->U64(facts) || !r->U64(gsteps) ||
      !r->U64(gbytes)) {
    return false;
  }
  if (done_v > 1) return r->Fail("bad done flag");
  if (stop_v > static_cast<uint64_t>(StopReason::kCancelled)) {
    return r->Fail("unknown stop reason");
  }
  *done = done_v == 1;
  *stop = static_cast<StopReason>(stop_v);
  return true;
}

void WriteNullHeader(const Instance& instance, Writer* w) {
  w->Word("nulls");
  w->U64(instance.num_nulls());
  uint64_t labeled = 0;
  for (uint32_t i = 0; i < instance.num_nulls(); ++i) {
    if (!instance.NullLabel(i).empty()) ++labeled;
  }
  w->Word("labels");
  w->U64(labeled);
  w->EndLine();
  for (uint32_t i = 0; i < instance.num_nulls(); ++i) {
    if (instance.NullLabel(i).empty()) continue;
    w->U64(i);
    w->Str(instance.NullLabel(i));
    w->EndLine();
  }
}

void WriteInstance(const Instance& instance, Writer* w) {
  WriteNullHeader(instance, w);
  w->Word("facts");
  w->Str(instance.ToExactText());
  w->EndLine();
}

/// Segmented instance section (spill mode): sealed segment files are
/// immutable, so the snapshot references the fully-kept ones by name,
/// row count and payload CRC, and renders only the remainder — the
/// mutable tail plus any partially-kept sealed segment prefix — as exact
/// text. `keep_rows` carries the torn-round rollback counts (empty:
/// keep everything). Dirty segments must have been flushed already.
void WriteSpilledInstance(
    const Instance& instance,
    const std::vector<std::pair<RelationId, uint64_t>>& keep_rows,
    Writer* w) {
  WriteNullHeader(instance, w);
  w->Word("spill");
  w->Word("segbytes");
  w->U64(instance.SpillSegmentBytes());
  w->Word("rels");
  w->U64(instance.ActiveRelations().size());
  w->EndLine();
  for (RelationId rel : instance.ActiveRelations()) {
    uint64_t keep = instance.NumTuples(rel);
    for (const auto& [krel, kcount] : keep_rows) {
      if (krel == rel) {
        keep = kcount;
        break;
      }
    }
    uint64_t segrows = instance.SpillRowsPerSegment(rel);
    uint64_t full_segments =
        std::min(keep / segrows, instance.SpillSealedSegments(rel));
    w->Word("rel");
    w->Str(instance.vocab().RelationName(rel));
    w->Word("segrows");
    w->U64(segrows);
    w->Word("keep");
    w->U64(keep);
    w->Word("segs");
    w->U64(full_segments);
    w->EndLine();
    for (uint64_t s = 0; s < full_segments; ++s) {
      Instance::SealedSegmentInfo info = instance.SpillSegmentInfo(rel, s);
      w->Word("seg");
      w->Str(info.filename);
      w->Word("rows");
      w->U64(info.rows);
      w->Word("crc32");
      w->U64(info.crc32);
      w->EndLine();
    }
    std::string tail;
    for (uint64_t row = full_segments * segrows; row < keep; ++row) {
      std::span<const Value> tuple =
          instance.Tuple(rel, static_cast<uint32_t>(row));
      tail += instance.vocab().RelationName(rel);
      tail += "(";
      tail += JoinMapped(tuple, ", ", [&](Value v) {
        if (v.is_null()) return Cat("_N", v.index());
        return instance.ValueToString(v);
      });
      tail += ")\n";
    }
    w->Word("tail");
    w->Str(tail);
    w->EndLine();
  }
}

/// Restores a segmented instance section: enables spill with the recorded
/// geometry, streams every referenced segment file back through AddFact
/// (which re-seals byte-identical segments, since the insertion order and
/// the rows-per-segment geometry are the recorded ones), then parses the
/// text remainder. The leading "spill" word was already consumed.
bool ReadSpilledFacts(Reader* r, Vocabulary* vocab,
                      const std::string& spill_dir, uint64_t declared_nulls,
                      Instance* out) {
  if (spill_dir.empty()) {
    return r->FailStatus(Status::InvalidArgument(
        "snapshot holds a spilled instance; a spill directory is required "
        "to resume it (--spill-dir)"));
  }
  uint64_t segbytes = 0;
  uint64_t nrels = 0;
  if (!r->Expect("segbytes") || !r->U64(&segbytes) || !r->Expect("rels") ||
      !r->Count(&nrels)) {
    return false;
  }
  if (segbytes == 0) return r->Fail("bad spill segment size");
  SpillConfig config;
  config.dir = spill_dir;
  config.segment_bytes = segbytes;
  Status enabled = out->EnableSpill(config);
  if (!enabled.ok()) return r->FailStatus(std::move(enabled));
  // Nulls first: segment rows reference null indexes by value.
  out->EnsureNulls(static_cast<uint32_t>(declared_nulls));
  std::vector<Value> args;
  for (uint64_t i = 0; i < nrels; ++i) {
    std::string name;
    uint64_t segrows = 0;
    uint64_t keep = 0;
    uint64_t nsegs = 0;
    if (!r->Expect("rel") || !r->Str(&name) || !r->Expect("segrows") ||
        !r->U64(&segrows) || !r->Expect("keep") || !r->U64(&keep) ||
        !r->Expect("segs") || !r->Count(&nsegs)) {
      return false;
    }
    RelationId rel = vocab->FindRelation(name);
    if (rel == kInvalidSymbol) {
      return r->Fail("spill section references unknown relation '" + name +
                     "'");
    }
    uint32_t arity = vocab->RelationArity(rel);
    if (arity == 0 || segrows != out->SpillRowsPerSegment(rel)) {
      return r->Fail("spill relation '" + name +
                     "': segment geometry mismatch");
    }
    for (uint64_t s = 0; s < nsegs; ++s) {
      std::string filename;
      uint64_t rows = 0;
      uint64_t crc = 0;
      if (!r->Expect("seg") || !r->Str(&filename) || !r->Expect("rows") ||
          !r->U64(&rows) || !r->Expect("crc32") || !r->U64(&crc)) {
        return false;
      }
      if (filename != SegmentFileName(rel, static_cast<uint32_t>(s))) {
        return r->Fail("unexpected segment file name '" + filename + "'");
      }
      if (rows != segrows || crc > 0xffffffffull) {
        return r->Fail("segment '" + filename + "': malformed record");
      }
      Result<SegmentData> seg = LoadSegment(spill_dir + "/" + filename);
      if (!seg.ok()) return r->FailStatus(seg.status());
      if (seg->relation_index != rel || seg->arity != arity ||
          seg->rows() != rows) {
        return r->FailStatus(Status::DataLoss(
            "segment '" + filename + "' does not match the snapshot record"));
      }
      if (SegmentPayloadCrc(seg->values.data(), seg->values.size()) != crc) {
        return r->FailStatus(Status::DataLoss(
            "segment '" + filename +
            "': checksum differs from the snapshot record"));
      }
      for (uint64_t row = 0; row < rows; ++row) {
        args.clear();
        for (uint32_t p = 0; p < arity; ++p) {
          Value v = Value::FromRaw(seg->values[row * arity + p]);
          if (!v.valid() || (v.is_null() && v.index() >= out->num_nulls()) ||
              (v.is_constant() && v.index() >= vocab->num_constants())) {
            return r->FailStatus(Status::DataLoss(
                "segment '" + filename + "': invalid value"));
          }
          args.push_back(v);
        }
        if (!out->AddFact(rel, args)) {
          return r->FailStatus(Status::DataLoss(
              "segment '" + filename + "': duplicate fact"));
        }
      }
    }
    std::string tail;
    if (!r->Expect("tail") || !r->Str(&tail)) return false;
    Status parsed = ParseInstanceText(tail, vocab, out);
    if (!parsed.ok()) return r->Fail("spill tail: " + parsed.ToString());
    if (out->NumTuples(rel) != keep) {
      return r->Fail("spill relation '" + name + "': row count mismatch");
    }
  }
  // The just-streamed segments ARE the on-disk files — nothing is dirty.
  out->MarkAllSealedClean();
  return true;
}

bool ReadInstance(Reader* r, Vocabulary* vocab, Instance* out,
                  const std::string& spill_dir) {
  uint64_t nulls = 0;
  uint64_t labeled = 0;
  if (!r->Expect("nulls") || !r->U64(&nulls) || !r->Expect("labels") ||
      !r->Count(&labeled)) {
    return false;
  }
  if (nulls > 0x7fffffffull) return r->Fail("null count out of range");
  std::vector<std::pair<uint32_t, std::string>> labels;
  for (uint64_t i = 0; i < labeled; ++i) {
    uint32_t index = 0;
    std::string label;
    if (!r->U32(&index) || !r->Str(&label)) return false;
    if (index >= nulls) return r->Fail("null label index out of range");
    labels.emplace_back(index, std::move(label));
  }
  std::string_view section;
  if (!r->Word(&section)) return false;
  if (section == "spill") {
    if (!ReadSpilledFacts(r, vocab, spill_dir, nulls, out)) return false;
  } else if (section == "facts") {
    std::string text;
    if (!r->Str(&text)) return false;
    Status parsed = ParseInstanceText(text, vocab, out);
    if (!parsed.ok()) {
      return r->Fail("instance section: " + parsed.ToString());
    }
  } else {
    return r->Fail("expected 'facts' or 'spill', found '" +
                   std::string(section) + "'");
  }
  if (out->num_nulls() > nulls) {
    return r->Fail("instance uses more nulls than declared");
  }
  out->EnsureNulls(static_cast<uint32_t>(nulls));
  for (auto& [index, label] : labels) {
    out->SetNullLabel(index, std::move(label));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Chase snapshot payload

void WriteSoTgd(const SoTgd& rules, Writer* w) {
  w->Word("rulefns");
  w->U64(rules.functions.size());
  for (FunctionId f : rules.functions) w->U64(f);
  w->EndLine();
  w->Word("parts");
  w->U64(rules.parts.size());
  w->EndLine();
  for (const SoPart& part : rules.parts) {
    w->Word("body");
    WriteAtoms(part.body, w);
    w->Word("eq");
    w->U64(part.equalities.size());
    for (const SoEquality& eq : part.equalities) {
      w->U64(eq.lhs);
      w->U64(eq.rhs);
    }
    w->EndLine();
    w->Word("head");
    WriteAtoms(part.head, w);
  }
}

bool ReadSoTgd(Reader* r, const Vocabulary& vocab, const TermArena& arena,
               SoTgd* rules) {
  uint64_t n = 0;
  if (!r->Expect("rulefns") || !r->Count(&n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t f = 0;
    if (!r->U32(&f)) return false;
    if (f >= vocab.num_functions()) return r->Fail("bad rule function id");
    rules->functions.push_back(f);
  }
  uint64_t parts = 0;
  if (!r->Expect("parts") || !r->Count(&parts)) return false;
  for (uint64_t p = 0; p < parts; ++p) {
    SoPart part;
    uint64_t eqs = 0;
    if (!r->Expect("body") || !ReadAtoms(r, vocab, arena, &part.body) ||
        !r->Expect("eq") || !r->Count(&eqs)) {
      return false;
    }
    for (uint64_t e = 0; e < eqs; ++e) {
      SoEquality eq;
      if (!r->U32(&eq.lhs) || !r->U32(&eq.rhs)) return false;
      if (eq.lhs >= arena.size() || eq.rhs >= arena.size()) {
        return r->Fail("equality references unknown term");
      }
      part.equalities.push_back(eq);
    }
    if (!r->Expect("head") || !ReadAtoms(r, vocab, arena, &part.head)) {
      return false;
    }
    rules->parts.push_back(std::move(part));
  }
  return true;
}

}  // namespace

std::string SerializeChaseSnapshot(const Vocabulary& vocab,
                                   const TermArena& arena, const SoTgd& rules,
                                   const ChaseEngineState& state,
                                   uint64_t seed, uint64_t rng_state) {
  Writer w;
  w.Word("seed");
  w.U64(seed);
  w.Word("rng");
  w.U64(rng_state);
  w.EndLine();
  WriteVocab(vocab, &w);
  WriteArena(arena, &w);
  WriteSoTgd(rules, &w);
  WriteCounters(state.done, state.stop_reason, state.rounds,
                state.facts_created, state.governor_steps,
                state.governor_charged_bytes, &w);
  w.Word("t2v");
  w.U64(state.term_to_value.size());
  for (const auto& [term, value] : state.term_to_value) {
    w.U64(term);
    w.U64(value.raw());
  }
  w.EndLine();
  w.Word("prov");
  w.U64(state.null_provenance.size());
  for (TermId t : state.null_provenance) w.U64(t);
  w.EndLine();
  w.Word("wprev");
  w.U64(state.rows_before_prev_round.size());
  for (const auto& [rel, count] : state.rows_before_prev_round) {
    w.U64(rel);
    w.U64(count);
  }
  w.EndLine();
  w.Word("wcur");
  w.U64(state.rows_before_current_round.size());
  for (const auto& [rel, count] : state.rows_before_current_round) {
    w.U64(rel);
    w.U64(count);
  }
  w.EndLine();
  if (state.spill_instance != nullptr) {
    // Segment references are only meaningful once the files exist; flush
    // here too so direct serialization (tests, round-trips) stays
    // self-consistent. SaveChaseSnapshot checks the flush status first
    // and propagates failures before anything is serialized.
    (void)state.spill_instance->FlushDirtySegments();
    WriteSpilledInstance(*state.spill_instance, state.spill_keep_rows, &w);
  } else {
    WriteInstance(state.instance, &w);
  }
  w.Word("end");
  w.EndLine();
  return WrapEnvelope("chase", std::move(w).Take());
}

Status SaveChaseSnapshot(const std::string& path, const Vocabulary& vocab,
                         const TermArena& arena, const SoTgd& rules,
                         const ChaseEngineState& state, uint64_t seed,
                         uint64_t rng_state) {
  if (state.spill_instance != nullptr) {
    // The manifest references segment files by name: every sealed segment
    // must be durably on disk before the snapshot that points at it. A
    // write failure (disk full) fails the checkpoint here, leaving the
    // previous complete snapshot at `path`.
    TGDKIT_RETURN_IF_ERROR(state.spill_instance->FlushDirtySegments());
  }
  return AtomicWriteFile(
      path, SerializeChaseSnapshot(vocab, arena, rules, state, seed,
                                   rng_state));
}

Result<ChaseSnapshot> ParseChaseSnapshot(std::string_view bytes) {
  return ParseChaseSnapshot(bytes, "");
}

Result<ChaseSnapshot> ParseChaseSnapshot(std::string_view bytes,
                                         const std::string& spill_dir) {
  Result<std::string_view> payload = UnwrapEnvelope(bytes, "chase");
  if (!payload.ok()) return payload.status();
  Reader r(*payload);

  ChaseSnapshot snap;
  snap.vocab = std::make_unique<Vocabulary>();
  snap.arena = std::make_unique<TermArena>();
  if (!r.Expect("seed") || !r.U64(&snap.seed) || !r.Expect("rng") ||
      !r.U64(&snap.rng_state) || !ReadVocab(&r, snap.vocab.get()) ||
      !ReadArena(&r, *snap.vocab, snap.arena.get()) ||
      !ReadSoTgd(&r, *snap.vocab, *snap.arena, &snap.rules)) {
    return std::move(r).TakeError();
  }

  snap.state = std::make_unique<ChaseEngineState>(snap.vocab.get());
  ChaseEngineState& state = *snap.state;
  if (!ReadCounters(&r, &state.done, &state.stop_reason, &state.rounds,
                    &state.facts_created, &state.governor_steps,
                    &state.governor_charged_bytes)) {
    return std::move(r).TakeError();
  }

  uint64_t n = 0;
  if (!r.Expect("t2v") || !r.Count(&n)) return std::move(r).TakeError();
  // The null count is only known after the instance section; remember the
  // largest null index seen here and validate afterwards.
  uint64_t max_null_seen = 0;
  bool any_null_seen = false;
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t term = 0;
    uint32_t raw = 0;
    if (!r.U32(&term) || !r.U32(&raw)) return std::move(r).TakeError();
    if (term >= snap.arena->size()) {
      r.Fail("term-to-value references unknown term");
      return std::move(r).TakeError();
    }
    Value v = Value::FromRaw(raw);
    if (!v.valid()) {
      r.Fail("invalid value in term-to-value map");
      return std::move(r).TakeError();
    }
    if (v.is_constant() && v.index() >= snap.vocab->num_constants()) {
      r.Fail("term-to-value references unknown constant");
      return std::move(r).TakeError();
    }
    if (v.is_null()) {
      any_null_seen = true;
      if (v.index() > max_null_seen) max_null_seen = v.index();
    }
    state.term_to_value.emplace_back(term, v);
  }
  if (!r.Expect("prov") || !r.Count(&n)) return std::move(r).TakeError();
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t t = 0;
    if (!r.U32(&t)) return std::move(r).TakeError();
    if (t != kInvalidTerm && t >= snap.arena->size()) {
      r.Fail("null provenance references unknown term");
      return std::move(r).TakeError();
    }
    state.null_provenance.push_back(t);
  }
  if (!r.Expect("wprev") || !r.Count(&n)) return std::move(r).TakeError();
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t rel = 0;
    uint64_t count = 0;
    if (!r.U32(&rel) || !r.U64(&count)) return std::move(r).TakeError();
    if (rel >= snap.vocab->num_relations()) {
      r.Fail("window references unknown relation");
      return std::move(r).TakeError();
    }
    state.rows_before_prev_round.emplace_back(rel, count);
  }
  if (!r.Expect("wcur") || !r.Count(&n)) return std::move(r).TakeError();
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t rel = 0;
    uint64_t count = 0;
    if (!r.U32(&rel) || !r.U64(&count)) return std::move(r).TakeError();
    if (rel >= snap.vocab->num_relations()) {
      r.Fail("window references unknown relation");
      return std::move(r).TakeError();
    }
    state.rows_before_current_round.emplace_back(rel, count);
  }
  if (!ReadInstance(&r, snap.vocab.get(), &state.instance, spill_dir)) {
    return std::move(r).TakeError();
  }
  if (any_null_seen && max_null_seen >= state.instance.num_nulls()) {
    r.Fail("term-to-value references unknown null");
    return std::move(r).TakeError();
  }
  if (state.null_provenance.size() != state.instance.num_nulls()) {
    r.Fail("null provenance count does not match the null count");
    return std::move(r).TakeError();
  }
  if (!r.Expect("end") || !r.AtEnd()) {
    r.Fail("trailing bytes after the end marker");
    return std::move(r).TakeError();
  }
  return snap;
}

Result<ChaseSnapshot> LoadChaseSnapshot(const std::string& path) {
  return LoadChaseSnapshot(path, "");
}

Result<ChaseSnapshot> LoadChaseSnapshot(const std::string& path,
                                        const std::string& spill_dir) {
  Result<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  return ParseChaseSnapshot(*bytes, spill_dir);
}

std::string TaskCheckpointPath(const std::string& dir,
                               std::string_view task_id) {
  std::string name;
  name.reserve(task_id.size());
  for (char c : task_id) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    name += ok ? c : '_';
  }
  if (name.empty() || name[0] == '.') name.insert(name.begin(), '_');
  return Cat(dir, "/", name, ".snap");
}

}  // namespace tgdkit
