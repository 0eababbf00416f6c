// Database instances: finite relations over constants and labeled nulls,
// with per-position value indexes to support homomorphism search and the
// chase. Facts are deduplicated on insertion.
//
// Each relation is one record: a sealed prefix of fixed-size immutable
// segments, then a mutable tail of flat row-major rows with dedup buckets
// and per-position posting lists. Every read goes through that one shape.
// By default nothing seals, so the whole relation is the tail (the
// in-core store). After EnableSpill the tail seals into a segment each
// time it reaches the segment row count. Sealed segments live in an
// LRU-style pool of hot in-memory payloads and are persisted to
// individually CRC-protected, atomically renamed files under the spill
// directory, so the store survives SIGKILL at any point and
// `--max-memory-mb` pressure is relieved by evicting cold segments
// instead of stopping the run. Resident per sealed row is only a hash
// digest plus a value-frequency summary (~9 bytes/row), which is what
// makes instances ~10x the byte budget chaseable. See docs/STORAGE.md for
// the full design and the crash-safety argument.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/status.h"
#include "base/vocabulary.h"
#include "data/value.h"

namespace tgdkit {

class ChunkedWriter;
class ResourceGovernor;

/// Configuration of the out-of-core backend (Instance::EnableSpill).
struct SpillConfig {
  /// Directory for segment files. Must exist; files are named
  /// r<relation>_s<index>.seg (see SegmentFileName).
  std::string dir;
  /// Payload budget per segment; rows per segment is
  /// max(1, segment_bytes / (arity * sizeof(Value))).
  uint64_t segment_bytes = 256 * 1024;
  /// Soft cap on ApproxBytes honoured at seal points: when sealing pushes
  /// the footprint past this, cold segments are flushed and evicted until
  /// it fits (or nothing evictable remains). 0 disables proactive
  /// eviction (the memory-pressure hook may still call EvictToBudget).
  uint64_t max_resident_bytes = 0;
};

/// Counters for spill telemetry. `sealed_segments` and `spilled_bytes`
/// are content-derived (functions of the stored facts, identical after a
/// kill-and-resume); the I/O counters are process-local.
struct SpillStats {
  uint64_t sealed_segments = 0;
  uint64_t spilled_bytes = 0;  // total payload bytes of sealed segments
  uint64_t faults = 0;         // cold segment loads
  uint64_t evictions = 0;      // hot payloads dropped
  uint64_t segment_writes = 0; // segment files written
};

/// A ground atom, used for convenient construction and iteration.
struct Fact {
  RelationId relation;
  std::vector<Value> args;

  friend bool operator==(const Fact& a, const Fact& b) {
    return a.relation == b.relation && a.args == b.args;
  }
};

/// A finite database instance over a Vocabulary's relations.
///
/// Tuples are stored row-major per relation; row ids are stable (facts are
/// never removed). Per-position indexes are maintained incrementally on
/// insertion.
class Instance {
 private:
  struct RelationData;

 public:
  explicit Instance(const Vocabulary* vocab);
  ~Instance();

  /// A copy holds the same rows, row ids, null indexes and relation
  /// activation order, all in-core: a spilled store's segments stay with
  /// the store that owns the spill directory.
  Instance(const Instance& other);
  Instance& operator=(const Instance& other);
  Instance(Instance&& other) noexcept;
  Instance& operator=(Instance&& other) noexcept;

  const Vocabulary& vocab() const { return *vocab_; }

  // -------------------------------------------------------------------
  // Out-of-core backend (see file comment and docs/STORAGE.md)

  /// Switches this (still empty) instance to the out-of-core backend.
  /// InvalidArgument if facts were already added, spill is already
  /// enabled, or `config.dir` is empty. The directory must exist.
  Status EnableSpill(const SpillConfig& config);
  bool spill_enabled() const { return spill_ != nullptr; }

  /// The rows of one relation whose `position`-th entry equals `value`:
  /// their exact number, and where CandidateRows finds them. Valid until
  /// the instance next changes.
  struct Postings {
    size_t count = 0;
    RelationId relation = kInvalidSymbol;
    uint32_t position = 0;
    Value value;
    const RelationData* data = nullptr;           // null: no such relation
    const std::vector<uint32_t>* tail = nullptr;  // tail-local row ids
  };

  /// One lookup: the tail's posting list plus the sealed rows' count from
  /// the resident frequency runs, so no segment is touched and the count
  /// does not depend on how much of the relation has sealed.
  Postings FindPostings(RelationId relation, uint32_t position,
                        Value value) const;

  /// Appends to `out` the ascending row ids below `limit` in `best`, and
  /// also in `runner_up` when it is given (another position of the same
  /// relation). Sealed segments are scanned in row order, skipping those
  /// whose per-position value range excludes either value; the tail
  /// copies or intersects its posting lists.
  void CandidateRows(const Postings& best, const Postings* runner_up,
                     uint32_t limit, std::vector<uint32_t>* out) const;

  /// Persists every sealed segment that has not reached disk yet
  /// (AtomicWriteFile per segment). Called before a snapshot is
  /// serialized so the snapshot's segment references are all durable.
  /// Const: only the spill bookkeeping mutates. Returns the first write
  /// error (sticky: a previously failed eviction write resurfaces here).
  Status FlushDirtySegments() const;

  /// Flushes and drops hot segment payloads (second-chance clock order)
  /// until ApproxBytes() <= target_bytes or nothing evictable remains.
  /// Returns the number of bytes freed. Serial phases only.
  uint64_t EvictToBudget(uint64_t target_bytes);

  /// Marks every sealed segment as already on disk (snapshot resume: the
  /// loader just streamed the rows out of the very files the segments
  /// would be written to). Segments not yet flushed get their checksum
  /// computed from the in-memory payload.
  void MarkAllSealedClean();

  /// Adjusts the seal-time soft cap after EnableSpill (snapshot resume:
  /// the loader enables spill with the recorded segment geometry, then the
  /// resumed engine installs its own budget's cap).
  void SetSpillResidentCap(uint64_t max_resident_bytes);

  SpillStats spill_stats() const;

  /// Introspection for the snapshot serializer (spill mode only).
  struct SealedSegmentInfo {
    std::string filename;  // relative to the spill directory
    uint64_t rows = 0;
    uint32_t crc32 = 0;    // payload CRC; valid after FlushDirtySegments
  };
  uint64_t SpillSegmentBytes() const;
  uint64_t SpillRowsPerSegment(RelationId relation) const;
  uint64_t SpillSealedSegments(RelationId relation) const;
  SealedSegmentInfo SpillSegmentInfo(RelationId relation,
                                     uint64_t segment) const;
  const std::string& spill_dir() const;

  /// Adds a fact; returns true iff it was not already present.
  /// Precondition: args.size() == arity of `relation`.
  bool AddFact(RelationId relation, std::span<const Value> args);
  bool AddFact(const Fact& fact) { return AddFact(fact.relation, fact.args); }

  bool Contains(RelationId relation, std::span<const Value> args) const;

  /// Allocates a fresh labeled null (optionally with a debug label).
  Value FreshNull(std::string label = "");
  /// Ensures null indexes [0, count) exist (used by parsers).
  void EnsureNulls(uint32_t count);
  /// Sets the label of an existing null (snapshot restore).
  void SetNullLabel(uint32_t null_index, std::string label) {
    null_labels_[null_index] = std::move(label);
  }

  uint32_t num_nulls() const { return static_cast<uint32_t>(null_labels_.size()); }
  const std::string& NullLabel(uint32_t null_index) const {
    return null_labels_[null_index];
  }

  /// Number of tuples in `relation` (0 for relations never touched).
  size_t NumTuples(RelationId relation) const;
  /// Total number of facts in the instance.
  size_t NumFacts() const;

  /// The `row`-th tuple of `relation`.
  std::span<const Value> Tuple(RelationId relation, uint32_t row) const;

  /// Relations with at least one tuple, in first-insertion order.
  const std::vector<RelationId>& ActiveRelations() const {
    return active_relations_;
  }

  /// All distinct values appearing anywhere in the instance.
  std::vector<Value> ActiveDomain() const;

  /// All facts, materialized (for tests and small instances).
  std::vector<Fact> AllFacts() const;

  /// Approximate heap footprint in bytes, for memory-budget accounting
  /// (ResourceGovernor memory source). Maintained incrementally: tail
  /// rows, the tail's dedup + per-position index structures (see
  /// IndexBytes), and null bookkeeping. Sealed rows count only their
  /// RESIDENT footprint — hot segment payloads and the digest/frequency
  /// summaries — not cold bytes on disk, so evicting segments genuinely
  /// relieves the governor's byte budget.
  uint64_t ApproxBytes() const {
    return row_bytes_ + index_bytes_ +
           null_labels_.size() * kNullOverheadBytes +
           (spill_ ? SpillResidentBytes() : 0);
  }

  /// The index share of ApproxBytes: dedup buckets and per-position
  /// posting lists (amortized hash-node overhead for fresh keys plus one
  /// row id per entry). Split out so `--max-memory-mb` observably charges
  /// the accelerating structures, not just raw rows.
  uint64_t IndexBytes() const { return index_bytes_; }

  /// Writes all facts, one per line, in the canonical text format, which
  /// ParseFacts reads back as exact text given the null count (parse ∘
  /// print is the identity on the canonical form). Lines are sorted as
  /// their bytes compare. The print streams: each distinct value is
  /// rendered once, relations go in the order of `name + "("`, each
  /// relation's rows are sorted through a row permutation, and lines
  /// leave through `out` a chunk at a time, so besides `out`'s chunk it
  /// holds the rendered values and one relation's permutation. Polls
  /// `governor` (may be null) once per line. Returns false, with whole
  /// lines written, once the governor is exhausted or `out` has failed.
  bool WriteCanonical(ChunkedWriter* out,
                      ResourceGovernor* governor = nullptr) const;

  /// The canonical text whole (WriteCanonical into a string).
  std::string ToString() const;

  /// Renders all facts in insertion order (per relation, rows in row-id
  /// order) with every null spelled by index (_N<i>), so parsing the text
  /// back reproduces row ids and null indexes exactly. This is the
  /// instance section of the snapshot format.
  std::string ToExactText() const;

  /// Appends rows [begin, end) of `relation` to `out` as ToExactText
  /// renders them (the snapshot's spill tail is such a range).
  void AppendExactText(RelationId relation, uint64_t begin, uint64_t end,
                       std::string* out) const;

  /// Renders a single value ("name" for constants, label or _N<i> for
  /// nulls). Constant names that are not plain identifiers or integers are
  /// quoted with \" and \\ escapes so the rendering stays parseable.
  std::string ValueToString(Value v) const;

 private:
  /// A sealed, immutable run of rows_per_segment rows (instance.cc).
  struct Segment;
  using CountRun = std::vector<std::pair<uint32_t, uint32_t>>;

  /// One relation: rows [0, sealed_rows) in sealed segments, the rest in
  /// the mutable tail. The sealed prefix stays empty unless spill is
  /// enabled.
  struct RelationData {
    uint32_t arity = 0;

    // Sealed prefix.
    uint64_t rows_per_segment = 0;  // set when spill is enabled
    uint64_t sealed_rows = 0;
    // Const reads fault payloads in through these pointers: that changes
    // caching state, never logical content.
    std::vector<std::unique_ptr<Segment>> segments;
    // Sorted runs of (hash32(tuple) << 32) | row over all sealed rows:
    // probe by hash, verify candidates through EnsureHot (dedup only).
    std::vector<std::vector<uint64_t>> digest_runs;
    // Per position, sorted runs of (value raw, count). Exact: the sum
    // over runs plus the tail posting size is the relation's count.
    std::vector<std::vector<CountRun>> count_runs;

    // Mutable tail; its row ids are tail-local (global - sealed_rows).
    std::vector<Value> flat;  // row-major tuples
    // tuple hash -> row ids with that hash (dedup)
    std::unordered_map<size_t, std::vector<uint32_t>> dedup;
    // per position: value -> row ids
    std::vector<std::unordered_map<Value, std::vector<uint32_t>, ValueHash>>
        position_index;

    size_t TailRows() const { return flat.size() / arity; }
    size_t NumTuples() const { return sealed_rows + TailRows(); }
  };

  struct SpillState;

  RelationData& GetOrCreate(RelationId relation);
  static size_t TupleHash(std::span<const Value> args);

  /// The `row`-th tuple of `data` (which is `relation`'s), faulting its
  /// segment in when it is sealed and cold.
  const Value* Row(RelationId relation, const RelationData& data,
                   uint64_t row) const;

  /// True iff the tail or the sealed prefix holds `args` (whose tuple
  /// hash is `hash`).
  bool Holds(RelationId relation, const RelationData& data, size_t hash,
             std::span<const Value> args) const;

  /// Sealed-prefix internals (defined with SpillState in instance.cc).
  uint64_t SpillResidentBytes() const;
  bool SealedContains(RelationId relation, const RelationData& data,
                      size_t hash, std::span<const Value> args) const;
  void MaybeSeal(RelationData& data);
  const std::vector<Value>& EnsureHot(RelationId relation,
                                      const RelationData& data,
                                      uint64_t segment) const;
  bool FlushSegment(RelationId relation, uint64_t segment) const;

  /// Estimated per-null and per-row overheads, and the amortized cost of a
  /// fresh hash-map key (node + bucket share) in the dedup/position maps.
  static constexpr uint64_t kNullOverheadBytes = 48;
  static constexpr uint64_t kRowOverheadBytes = 24;
  static constexpr uint64_t kIndexNodeBytes = 48;

  const Vocabulary* vocab_;
  std::unordered_map<RelationId, RelationData> relations_;
  std::vector<RelationId> active_relations_;
  std::vector<std::string> null_labels_;
  uint64_t row_bytes_ = 0;
  uint64_t index_bytes_ = 0;
  // Store-wide spill state (config, I/O counters, eviction clock); null
  // until EnableSpill. Mutable: faulting a cold segment back in from a
  // const read path (Tuple, CandidateRows) changes caching state, never
  // logical content.
  mutable std::unique_ptr<SpillState> spill_;
};

/// Copies all facts of `src` into `dst` (vocabularies must match).
void CopyFacts(const Instance& src, Instance* dst);

/// The two spellings of the fact language (docs/FORMAT.md, "Instances").
/// Both read `Rel(arg, ...)` with IDENT relation names (a leading `_` is
/// allowed, reserved words are not), at least one argument, whitespace and
/// comments anywhere, and `_label` nulls that are fresh per call: the same
/// label is the same null within one call only.
enum class FactDialect : uint8_t {
  /// Instance files: every fact ends in '.', and quoted constants are raw
  /// (no escapes, as in dependency programs).
  kFile,
  /// Exact text (Instance::ToExactText, the snapshot's `facts` and `tail`
  /// sections): no '.', quoted constants take \", \\ and \n escapes, and
  /// `_N<i>` is null index i.
  kExact,
};

/// Reads facts in `dialect` into `out` in text order, so row ids follow
/// the text, interning relations and constants into `vocab` (which `out`
/// must use). In kExact, nulls [0, declared_nulls) are allocated first and
/// every `_N<i>` must name one of them. A relation used with two arities
/// is an error. Errors are ParseError and start "line L, column C: ".
Status ParseFacts(std::string_view text, FactDialect dialect,
                  Vocabulary* vocab, Instance* out,
                  uint32_t declared_nulls = 0);

}  // namespace tgdkit
