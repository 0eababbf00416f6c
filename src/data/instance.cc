#include "data/instance.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <numeric>
#include <utility>

#include "base/budget.h"
#include "base/fileio.h"
#include "base/strings.h"
#include "data/segment.h"

namespace tgdkit {

namespace {

/// Folds a 64-bit tuple hash to the 32 bits stored in digest entries.
uint32_t Hash32(size_t hash) {
  return static_cast<uint32_t>(hash ^ (hash >> 32));
}

/// LSM-style run maintenance: merge the trailing runs while the previous
/// run is no more than twice the size of the new one, so lookups touch
/// O(log n) runs and total merge work stays O(n log n).
void MergeDigestRuns(std::vector<std::vector<uint64_t>>* runs) {
  while (runs->size() >= 2) {
    std::vector<uint64_t>& prev = (*runs)[runs->size() - 2];
    std::vector<uint64_t>& last = runs->back();
    if (prev.size() > 2 * last.size()) break;
    std::vector<uint64_t> merged;
    merged.reserve(prev.size() + last.size());
    std::merge(prev.begin(), prev.end(), last.begin(), last.end(),
               std::back_inserter(merged));
    runs->pop_back();
    runs->back() = std::move(merged);
  }
}

using CountRun = std::vector<std::pair<uint32_t, uint32_t>>;

/// Same policy for the per-position frequency runs; entries with equal
/// value sum their counts, so a value occurs at most once per run.
void MergeCountRuns(std::vector<CountRun>* runs) {
  while (runs->size() >= 2) {
    CountRun& prev = (*runs)[runs->size() - 2];
    CountRun& last = runs->back();
    if (prev.size() > 2 * last.size()) break;
    CountRun merged;
    merged.reserve(prev.size() + last.size());
    size_t i = 0, j = 0;
    while (i < prev.size() || j < last.size()) {
      if (j >= last.size() ||
          (i < prev.size() && prev[i].first < last[j].first)) {
        merged.push_back(prev[i++]);
      } else if (i >= prev.size() || last[j].first < prev[i].first) {
        merged.push_back(last[j++]);
      } else {
        merged.emplace_back(prev[i].first, prev[i].second + last[j].second);
        ++i;
        ++j;
      }
    }
    runs->pop_back();
    runs->back() = std::move(merged);
  }
}

}  // namespace

/// A sealed segment: rows_per_segment consecutive rows, immutable once
/// sealed. Its payload is hot (resident in `flat`) or cold (only in its
/// segment file); EnsureHot faults a cold payload back in.
struct Instance::Segment {
  std::vector<Value> flat;        // hot payload; empty when cold
  std::vector<uint32_t> min_raw;  // per position, over the segment
  std::vector<uint32_t> max_raw;
  uint32_t crc32 = 0;             // payload CRC, set on flush
  bool crc_valid = false;
  bool dirty = true;              // content not yet on disk
  std::atomic<bool> hot{true};
  std::atomic<bool> accessed{true};  // second-chance bit

  /// False when `value` falls outside the segment's range at `position`,
  /// so a scan can skip the segment without faulting it in.
  bool MayHold(uint32_t position, Value value) const {
    return min_raw[position] <= value.raw() && value.raw() <= max_raw[position];
  }
};

/// Store-wide spill state. The per-relation sealed prefixes (segments and
/// their resident summaries) live in RelationData.
struct Instance::SpillState {
  /// Estimated fixed overhead per sealed segment (slot, flags, vector
  /// headers) charged to the resident footprint.
  static constexpr uint64_t kSegmentMetaBytes = 96;

  SpillConfig config;
  // Fault path synchronization: parallel matcher workers may fault the
  // same cold segment concurrently. Eviction runs in serial phases only,
  // so a payload observed hot stays valid for the phase.
  std::mutex fault_mutex;
  std::atomic<uint64_t> hot_bytes{0};
  uint64_t meta_bytes = 0;
  size_t clock_hand = 0;
  Status io_error = Status::Ok();  // first flush failure, sticky
  std::atomic<uint64_t> faults{0};
  uint64_t evictions = 0;
  uint64_t segment_writes = 0;
  uint64_t sealed_segments = 0;
  uint64_t spilled_bytes = 0;
};

Instance::Instance(const Vocabulary* vocab) : vocab_(vocab) {}

Instance::~Instance() = default;
Instance::Instance(Instance&& other) noexcept = default;
Instance& Instance::operator=(Instance&& other) noexcept = default;

Instance::Instance(const Instance& other) : vocab_(other.vocab_) {
  *this = other;
}

Instance& Instance::operator=(const Instance& other) {
  if (this == &other) return *this;
  // Re-adding the rows in relation activation order and row order
  // reproduces row ids, null indexes, the activation order and the byte
  // accounting (there are no duplicates to skip).
  Instance copy(other.vocab_);
  copy.null_labels_ = other.null_labels_;
  for (RelationId rel : other.active_relations_) {
    size_t n = other.NumTuples(rel);
    for (size_t row = 0; row < n; ++row) {
      copy.AddFact(rel, other.Tuple(rel, static_cast<uint32_t>(row)));
    }
  }
  return *this = std::move(copy);
}

Instance::RelationData& Instance::GetOrCreate(RelationId relation) {
  auto it = relations_.find(relation);
  if (it != relations_.end()) return it->second;
  RelationData& data = relations_[relation];
  data.arity = vocab_->RelationArity(relation);
  assert(data.arity >= 1 && "0-ary relations are not supported");
  data.count_runs.resize(data.arity);
  data.position_index.resize(data.arity);
  if (spill_) data.rows_per_segment = SpillRowsPerSegment(relation);
  active_relations_.push_back(relation);
  return data;
}

size_t Instance::TupleHash(std::span<const Value> args) {
  size_t seed = 0x9e3779b9u;
  for (Value v : args) HashCombine(&seed, v.raw());
  return seed;
}

bool Instance::AddFact(RelationId relation, std::span<const Value> args) {
  RelationData& data = GetOrCreate(relation);
  assert(args.size() == data.arity && "fact arity mismatch");
  size_t h = TupleHash(args);
  if (Holds(relation, data, h, args)) return false;
  uint32_t row = static_cast<uint32_t>(data.TailRows());
  data.flat.insert(data.flat.end(), args.begin(), args.end());
  std::vector<uint32_t>& bucket = data.dedup[h];
  if (bucket.empty()) index_bytes_ += kIndexNodeBytes;
  bucket.push_back(row);
  index_bytes_ += sizeof(uint32_t);
  for (uint32_t pos = 0; pos < data.arity; ++pos) {
    std::vector<uint32_t>& posting = data.position_index[pos][args[pos]];
    if (posting.empty()) index_bytes_ += kIndexNodeBytes;
    posting.push_back(row);
    index_bytes_ += sizeof(uint32_t);
  }
  row_bytes_ += args.size() * sizeof(Value) + kRowOverheadBytes;
  if (spill_) MaybeSeal(data);
  return true;
}

bool Instance::Contains(RelationId relation,
                        std::span<const Value> args) const {
  auto it = relations_.find(relation);
  if (it == relations_.end()) return false;
  const RelationData& data = it->second;
  if (args.size() != data.arity) return false;
  return Holds(relation, data, TupleHash(args), args);
}

bool Instance::Holds(RelationId relation, const RelationData& data,
                     size_t hash, std::span<const Value> args) const {
  auto bucket_it = data.dedup.find(hash);
  if (bucket_it != data.dedup.end()) {
    for (uint32_t row : bucket_it->second) {
      const Value* tuple = data.flat.data() + size_t(row) * data.arity;
      if (std::equal(args.begin(), args.end(), tuple)) return true;
    }
  }
  return data.sealed_rows != 0 && SealedContains(relation, data, hash, args);
}

Value Instance::FreshNull(std::string label) {
  uint32_t index = static_cast<uint32_t>(null_labels_.size());
  null_labels_.push_back(std::move(label));
  return Value::Null(index);
}

void Instance::EnsureNulls(uint32_t count) {
  while (null_labels_.size() < count) null_labels_.emplace_back();
}

size_t Instance::NumTuples(RelationId relation) const {
  auto it = relations_.find(relation);
  return it == relations_.end() ? 0 : it->second.NumTuples();
}

size_t Instance::NumFacts() const {
  size_t total = 0;
  for (const auto& [rel, data] : relations_) total += data.NumTuples();
  return total;
}

std::span<const Value> Instance::Tuple(RelationId relation,
                                       uint32_t row) const {
  const RelationData& data = relations_.at(relation);
  return {Row(relation, data, row), data.arity};
}

const Value* Instance::Row(RelationId relation, const RelationData& data,
                           uint64_t row) const {
  if (row < data.sealed_rows) {
    const std::vector<Value>& flat =
        EnsureHot(relation, data, row / data.rows_per_segment);
    return flat.data() + (row % data.rows_per_segment) * data.arity;
  }
  return data.flat.data() + (row - data.sealed_rows) * data.arity;
}

Instance::Postings Instance::FindPostings(RelationId relation,
                                          uint32_t position,
                                          Value value) const {
  Postings out;
  out.relation = relation;
  out.position = position;
  out.value = value;
  auto it = relations_.find(relation);
  if (it == relations_.end()) return out;
  const RelationData& data = it->second;
  assert(position < data.arity);
  out.data = &data;
  auto vit = data.position_index[position].find(value);
  if (vit != data.position_index[position].end()) {
    out.tail = &vit->second;
    out.count = vit->second.size();
  }
  if (data.sealed_rows == 0) return out;
  for (const CountRun& run : data.count_runs[position]) {
    auto p = std::lower_bound(run.begin(), run.end(),
                              std::make_pair(value.raw(), 0u));
    if (p != run.end() && p->first == value.raw()) out.count += p->second;
  }
  return out;
}

void Instance::CandidateRows(const Postings& best, const Postings* runner_up,
                             uint32_t limit,
                             std::vector<uint32_t>* out) const {
  if (best.count == 0) return;
  const RelationData& data = *best.data;
  const Postings& second = runner_up != nullptr ? *runner_up : best;
  for (uint64_t s = 0, base = 0; base < data.sealed_rows && base < limit;
       ++s, base += data.rows_per_segment) {
    const Segment& seg = *data.segments[s];
    if (!seg.MayHold(best.position, best.value) ||
        !seg.MayHold(second.position, second.value)) {
      continue;
    }
    const std::vector<Value>& flat = EnsureHot(best.relation, data, s);
    const uint64_t end =
        std::min<uint64_t>(data.rows_per_segment, limit - base);
    for (uint64_t r = 0; r < end; ++r) {
      const Value* tuple = flat.data() + r * data.arity;
      if (tuple[best.position] == best.value &&
          tuple[second.position] == second.value) {
        out->push_back(static_cast<uint32_t>(base + r));
      }
    }
  }
  if (best.tail == nullptr || limit <= data.sealed_rows) return;
  // The tail's posting lists hold tail-local row ids: cut them at the
  // window, then shift them past the sealed prefix.
  const uint32_t offset = static_cast<uint32_t>(data.sealed_rows);
  const uint32_t tail_limit = limit - offset;
  const std::vector<uint32_t>& a = *best.tail;
  const size_t first = out->size();
  if (runner_up == nullptr) {
    out->insert(out->end(), a.begin(),
                std::lower_bound(a.begin(), a.end(), tail_limit));
  } else if (runner_up->tail != nullptr) {
    // Two-pointer intersection; ascending like both inputs, so the
    // candidate order is unchanged (rows dropped here would have failed
    // the probe anyway).
    const std::vector<uint32_t>& b = *runner_up->tail;
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size() && a[i] < tail_limit) {
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
  if (offset != 0) {
    for (size_t i = first; i < out->size(); ++i) (*out)[i] += offset;
  }
}

std::vector<Value> Instance::ActiveDomain() const {
  std::unordered_set<uint32_t> seen;
  std::vector<Value> out;
  for (const auto& [rel, data] : relations_) {
    for (Value v : data.flat) {
      if (seen.insert(v.raw()).second) out.push_back(v);
    }
    // Sealed values are exactly the keys of the frequency runs: no
    // faulting needed to enumerate them.
    for (const auto& pos_runs : data.count_runs) {
      for (const CountRun& run : pos_runs) {
        for (const auto& [raw, count] : run) {
          if (seen.insert(raw).second) out.push_back(Value::FromRaw(raw));
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Fact> Instance::AllFacts() const {
  std::vector<Fact> out;
  out.reserve(NumFacts());
  for (RelationId rel : active_relations_) {
    size_t n = NumTuples(rel);
    for (size_t row = 0; row < n; ++row) {
      std::span<const Value> tuple = Tuple(rel, static_cast<uint32_t>(row));
      Fact f;
      f.relation = rel;
      f.args.assign(tuple.begin(), tuple.end());
      out.push_back(std::move(f));
    }
  }
  return out;
}

namespace {

// Character classes of the fact language: IDENT is
// [A-Za-z_][A-Za-z0-9_$]*, INT is [0-9]+ (docs/FORMAT.md).
bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Plain constants render bare; anything else is quoted so the canonical
/// text parses back. Plain = an IDENT or INT that ParseFacts reads as a
/// constant; a leading '_' would read as a null.
bool IsPlainConstantName(const std::string& name) {
  if (name.empty()) return false;
  if (IsDigit(name[0])) return std::all_of(name.begin(), name.end(), IsDigit);
  return name[0] != '_' && IsIdentStart(name[0]) &&
         std::all_of(name.begin() + 1, name.end(), IsIdentChar);
}

std::string QuoteConstantName(const std::string& name) {
  std::string out = "\"";
  for (char c : name) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += "\"";
  return out;
}

/// _N<index>, the spelling of an unlabelled null.
std::string NullIndexName(uint32_t index) {
  char digits[10];
  auto [end, ec] = std::to_chars(digits, digits + sizeof digits, index);
  std::string name = "_N";
  name.append(digits, end);
  return name;
}

/// Every distinct value of an instance rendered once, into one buffer
/// indexed by constant id and null index.
class RenderedValues {
 public:
  explicit RenderedValues(const Instance& instance)
      : instance_(instance),
        constants_(instance.vocab().num_constants()),
        nulls_(instance.num_nulls()) {}

  void Add(Value v) {
    Span& span = v.is_null() ? nulls_[v.index()] : constants_[v.index()];
    if (span.size != 0) return;  // no rendering is empty
    span.begin = static_cast<uint32_t>(text_.size());
    text_ += instance_.ValueToString(v);
    span.size = static_cast<uint32_t>(text_.size() - span.begin);
  }

  /// Precondition: Add(v) was called.
  std::string_view Get(Value v) const {
    const Span& span =
        v.is_null() ? nulls_[v.index()] : constants_[v.index()];
    return {text_.data() + span.begin, span.size};
  }

 private:
  struct Span {
    uint32_t begin = 0;
    uint32_t size = 0;
  };

  const Instance& instance_;
  std::string text_;
  std::vector<Span> constants_;
  std::vector<Span> nulls_;
};

/// The bytes a row renders to after its relation's "name(": every value
/// followed by ", ", the last by ")". Read byte by byte from a position
/// and offset on, for the rare comparison that runs past the end of one
/// value's rendering (see RowLess).
class LineCursor {
 public:
  LineCursor(const Value* row, uint32_t arity, const RenderedValues& values,
             uint32_t position, size_t offset)
      : row_(row), arity_(arity), values_(values), part_(2 * position) {
    rest_ = Part(part_).substr(offset);
  }

  /// The next byte, or -1 after the closing ")".
  int Next() {
    while (rest_.empty()) {
      if (++part_ >= 2 * arity_) return -1;
      rest_ = Part(part_);
    }
    unsigned char c = static_cast<unsigned char>(rest_.front());
    rest_.remove_prefix(1);
    return c;
  }

 private:
  /// Even parts are values, odd parts the separators after them.
  std::string_view Part(uint32_t part) const {
    if (part % 2 == 0) return values_.Get(row_[part / 2]);
    return part + 1 == 2 * arity_ ? ")" : ", ";
  }

  const Value* row_;
  uint32_t arity_;
  const RenderedValues& values_;
  uint32_t part_;
  std::string_view rest_;
};

/// True iff row `a`'s line sorts before row `b`'s, comparing the rendered
/// bytes as unsigned chars with a proper prefix first, exactly as sorting
/// the line strings would. Equal values are skipped; so are distinct
/// values with the same rendering (a labelled null and an indexed null
/// can both print as _N5), because the same separator follows both. When
/// one rendering is a proper prefix of the other, the bytes after it
/// decide: `a` against `a$b` is decided by ',' or ')' against '$'.
bool RowLess(const Value* a, const Value* b, uint32_t arity,
             const RenderedValues& values) {
  for (uint32_t i = 0; i < arity; ++i) {
    if (a[i] == b[i]) continue;
    std::string_view ra = values.Get(a[i]);
    std::string_view rb = values.Get(b[i]);
    size_t common = std::min(ra.size(), rb.size());
    int c = std::memcmp(ra.data(), rb.data(), common);
    if (c != 0) return c < 0;
    if (ra.size() == rb.size()) continue;
    LineCursor x(a, arity, values, i, common);
    LineCursor y(b, arity, values, i, common);
    for (;;) {
      int p = x.Next();
      int q = y.Next();
      if (p != q) return p < q;
      if (p < 0) return false;
    }
  }
  return false;
}

}  // namespace

std::string Instance::ValueToString(Value v) const {
  if (!v.valid()) return "<invalid>";
  if (v.is_constant()) {
    const std::string& name = vocab_->ConstantName(v.index());
    return IsPlainConstantName(name) ? name : QuoteConstantName(name);
  }
  const std::string& label = null_labels_[v.index()];
  if (!label.empty()) return "_" + label;
  return NullIndexName(v.index());
}

bool Instance::WriteCanonical(ChunkedWriter* out,
                              ResourceGovernor* governor) const {
  // Sealed values are exactly the keys of the frequency runs, so the
  // table fills without faulting a segment in.
  RenderedValues values(*this);
  for (const auto& [rel, data] : relations_) {
    for (Value v : data.flat) values.Add(v);
    for (const auto& pos_runs : data.count_runs) {
      for (const CountRun& run : pos_runs) {
        for (const auto& [raw, count] : run) values.Add(Value::FromRaw(raw));
      }
    }
  }
  // Relation names are identifiers, so no relation's "name(" is a prefix
  // of another's, and ordering relations by it orders their lines.
  std::vector<std::pair<std::string, RelationId>> relations;
  relations.reserve(active_relations_.size());
  for (RelationId rel : active_relations_) {
    relations.emplace_back(vocab_->RelationName(rel) + "(", rel);
  }
  std::sort(relations.begin(), relations.end());
  for (const auto& [prefix, rel] : relations) {
    const RelationData& data = relations_.at(rel);
    std::vector<uint32_t> order(data.NumTuples());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return RowLess(Row(rel, data, a), Row(rel, data, b), data.arity,
                     values);
    });
    for (uint32_t row : order) {
      if ((governor != nullptr && !governor->Poll()) || !out->ok()) {
        return false;
      }
      const Value* tuple = Row(rel, data, row);
      out->Append(prefix);
      for (uint32_t i = 0; i < data.arity; ++i) {
        if (i > 0) out->Append(", ");
        out->Append(values.Get(tuple[i]));
      }
      out->Append(")\n");
    }
  }
  out->Flush();
  return out->ok();
}

std::string Instance::ToString() const {
  ChunkedWriter out;
  WriteCanonical(&out);
  return out.Take();
}

std::string Instance::ToExactText() const {
  std::string out;
  for (RelationId rel : active_relations_) {
    AppendExactText(rel, 0, NumTuples(rel), &out);
  }
  return out;
}

void Instance::AppendExactText(RelationId relation, uint64_t begin,
                               uint64_t end, std::string* out) const {
  const RelationData& data = relations_.at(relation);
  const std::string& name = vocab_->RelationName(relation);
  for (uint64_t row = begin; row < end; ++row) {
    const Value* tuple = Row(relation, data, row);
    *out += name;
    *out += '(';
    for (uint32_t i = 0; i < data.arity; ++i) {
      if (i > 0) *out += ", ";
      *out += tuple[i].is_null() ? NullIndexName(tuple[i].index())
                                 : ValueToString(tuple[i]);
    }
    *out += ")\n";
  }
}

void CopyFacts(const Instance& src, Instance* dst) {
  dst->EnsureNulls(src.num_nulls());
  for (RelationId rel : src.ActiveRelations()) {
    for (size_t row = 0, n = src.NumTuples(rel); row < n; ++row) {
      dst->AddFact(rel, src.Tuple(rel, static_cast<uint32_t>(row)));
    }
  }
}

// ---------------------------------------------------------------------------
// Out-of-core backend

Status Instance::EnableSpill(const SpillConfig& config) {
  if (spill_) {
    return Status::InvalidArgument("spill is already enabled");
  }
  if (NumFacts() != 0) {
    return Status::InvalidArgument(
        "EnableSpill requires an empty instance (facts already added)");
  }
  if (config.dir.empty()) {
    return Status::InvalidArgument("spill directory must not be empty");
  }
  if (config.segment_bytes == 0) {
    return Status::InvalidArgument("spill segment size must be positive");
  }
  spill_ = std::make_unique<SpillState>();
  spill_->config = config;
  return Status::Ok();
}

uint64_t Instance::SpillResidentBytes() const {
  return spill_->hot_bytes.load(std::memory_order_relaxed) +
         spill_->meta_bytes;
}

bool Instance::SealedContains(RelationId relation, const RelationData& data,
                              size_t hash,
                              std::span<const Value> args) const {
  const uint32_t hash32 = Hash32(hash);
  const uint64_t probe = uint64_t(hash32) << 32;
  for (const std::vector<uint64_t>& run : data.digest_runs) {
    for (auto p = std::lower_bound(run.begin(), run.end(), probe);
         p != run.end() && (*p >> 32) == hash32; ++p) {
      const uint64_t row = *p & 0xffffffffull;
      const std::vector<Value>& flat =
          EnsureHot(relation, data, row / data.rows_per_segment);
      const Value* tuple =
          flat.data() + (row % data.rows_per_segment) * data.arity;
      if (std::equal(args.begin(), args.end(), tuple)) return true;
    }
  }
  return false;
}

void Instance::MaybeSeal(RelationData& data) {
  if (data.TailRows() < data.rows_per_segment) return;
  const uint32_t arity = data.arity;
  const uint64_t rows = data.rows_per_segment;

  // The sealed rows leave the tail: uncharge exactly what AddFact charged
  // for them and their dedup/posting entries.
  row_bytes_ -= rows * (uint64_t(arity) * sizeof(Value) + kRowOverheadBytes);
  uint64_t index_sub =
      data.dedup.size() * kIndexNodeBytes + rows * sizeof(uint32_t);
  for (const auto& m : data.position_index) {
    index_sub += m.size() * kIndexNodeBytes + rows * sizeof(uint32_t);
  }
  index_bytes_ -= index_sub;

  // Digest run over the sealed rows, with global row ids.
  std::vector<uint64_t> digest;
  digest.reserve(rows);
  for (uint64_t r = 0; r < rows; ++r) {
    const Value* tuple = data.flat.data() + r * arity;
    size_t h = TupleHash({tuple, arity});
    digest.push_back((uint64_t(Hash32(h)) << 32) | (data.sealed_rows + r));
  }
  std::sort(digest.begin(), digest.end());
  data.digest_runs.push_back(std::move(digest));
  MergeDigestRuns(&data.digest_runs);

  // Frequency run per position, read off the tail posting lists before
  // they are cleared.
  for (uint32_t pos = 0; pos < arity; ++pos) {
    CountRun run;
    run.reserve(data.position_index[pos].size());
    for (const auto& [value, posting] : data.position_index[pos]) {
      run.emplace_back(value.raw(), static_cast<uint32_t>(posting.size()));
    }
    std::sort(run.begin(), run.end());
    data.count_runs[pos].push_back(std::move(run));
    MergeCountRuns(&data.count_runs[pos]);
  }

  // Seal: the tail's flat becomes the segment's hot payload.
  data.segments.push_back(std::make_unique<Segment>());
  Segment& seg = *data.segments.back();
  seg.flat = std::move(data.flat);
  seg.min_raw.assign(arity, 0xffffffffu);
  seg.max_raw.assign(arity, 0);
  for (uint64_t r = 0; r < rows; ++r) {
    for (uint32_t pos = 0; pos < arity; ++pos) {
      uint32_t raw = seg.flat[r * arity + pos].raw();
      seg.min_raw[pos] = std::min(seg.min_raw[pos], raw);
      seg.max_raw[pos] = std::max(seg.max_raw[pos], raw);
    }
  }
  data.flat.clear();
  data.dedup.clear();
  for (auto& m : data.position_index) m.clear();
  data.sealed_rows += rows;
  spill_->hot_bytes.fetch_add(rows * uint64_t(arity) * sizeof(Value),
                              std::memory_order_relaxed);
  ++spill_->sealed_segments;
  spill_->spilled_bytes += SegmentPayloadBytes(rows, arity);

  // Resident summaries: digest and count runs plus per-segment metadata.
  uint64_t meta = 0;
  for (const auto& [rel, rd] : relations_) {
    for (const auto& run : rd.digest_runs) {
      meta += run.size() * sizeof(uint64_t);
    }
    for (const auto& pos_runs : rd.count_runs) {
      for (const auto& run : pos_runs) meta += run.size() * sizeof(uint64_t);
    }
    meta += rd.segments.size() * (SpillState::kSegmentMetaBytes +
                                  uint64_t(rd.arity) * 2 * sizeof(uint32_t));
  }
  spill_->meta_bytes = meta;

  // Soft cap: sealing is a serial safe point, so relieve pressure here
  // (the governor's pressure hook covers the polling path).
  if (spill_->config.max_resident_bytes != 0 &&
      ApproxBytes() > spill_->config.max_resident_bytes) {
    EvictToBudget(spill_->config.max_resident_bytes);
  }
}

const std::vector<Value>& Instance::EnsureHot(RelationId relation,
                                              const RelationData& data,
                                              uint64_t segment) const {
  Segment& seg = *data.segments[segment];
  if (seg.hot.load(std::memory_order_acquire)) {
    seg.accessed.store(true, std::memory_order_relaxed);
    return seg.flat;
  }
  std::lock_guard<std::mutex> lock(spill_->fault_mutex);
  if (seg.hot.load(std::memory_order_acquire)) {
    seg.accessed.store(true, std::memory_order_relaxed);
    return seg.flat;
  }
  std::string path =
      Cat(spill_->config.dir, "/",
          SegmentFileName(relation, static_cast<uint32_t>(segment)));
  auto loaded = LoadSegment(path);
  if (!loaded.ok() || loaded->relation_index != relation ||
      loaded->arity != data.arity ||
      loaded->rows() != data.rows_per_segment) {
    // A segment file this store wrote (and fsynced) is unreadable or
    // swapped. The tuple read path has no Status channel and continuing
    // would silently drop facts, so fail loudly and definitely — defined
    // behavior, never UB. Reachable only through external corruption of
    // the spill directory mid-run; corruption at load time is a typed
    // error (see snapshot resume and segment_corrupt_test).
    std::fprintf(stderr, "tgdkit: fatal: spilled segment '%s' unreadable: %s\n",
                 path.c_str(),
                 loaded.ok() ? "header does not match the store"
                             : loaded.status().ToString().c_str());
    std::abort();
  }
  std::vector<Value> flat;
  flat.reserve(loaded->values.size());
  for (uint32_t raw : loaded->values) flat.push_back(Value::FromRaw(raw));
  seg.flat = std::move(flat);
  spill_->hot_bytes.fetch_add(seg.flat.size() * sizeof(Value),
                              std::memory_order_relaxed);
  spill_->faults.fetch_add(1, std::memory_order_relaxed);
  seg.accessed.store(true, std::memory_order_relaxed);
  seg.hot.store(true, std::memory_order_release);
  return seg.flat;
}

bool Instance::FlushSegment(RelationId relation, uint64_t segment) const {
  const RelationData& data = relations_.at(relation);
  Segment& seg = *data.segments[segment];
  if (!seg.dirty) return true;
  assert(seg.hot.load(std::memory_order_acquire) &&
         "a dirty segment always has its payload resident");
  std::vector<uint32_t> words;
  words.reserve(seg.flat.size());
  for (Value v : seg.flat) words.push_back(v.raw());
  std::string bytes =
      SerializeSegment(relation, data.arity, words.data(), words.size());
  std::string path =
      Cat(spill_->config.dir, "/",
          SegmentFileName(relation, static_cast<uint32_t>(segment)));
  Status st = AtomicWriteFile(path, bytes);
  if (!st.ok()) {
    if (spill_->io_error.ok()) spill_->io_error = st;
    return false;
  }
  seg.crc32 = SegmentPayloadCrc(words.data(), words.size());
  seg.crc_valid = true;
  seg.dirty = false;
  ++spill_->segment_writes;
  return true;
}

Status Instance::FlushDirtySegments() const {
  if (!spill_) return Status::Ok();
  for (RelationId rel : active_relations_) {
    for (uint64_t s = 0; s < relations_.at(rel).segments.size(); ++s) {
      if (!FlushSegment(rel, s)) return spill_->io_error;
    }
  }
  return spill_->io_error;
}

uint64_t Instance::EvictToBudget(uint64_t target_bytes) {
  if (!spill_) return 0;
  // Deterministic second-chance clock over (relation activation order,
  // segment index), with a persistent hand. The first pass over a
  // recently-used segment clears its accessed bit; the second evicts it.
  std::vector<std::pair<RelationId, uint64_t>> order;
  for (RelationId rel : active_relations_) {
    for (uint64_t s = 0; s < relations_.at(rel).segments.size(); ++s) {
      order.emplace_back(rel, s);
    }
  }
  if (order.empty()) return 0;
  uint64_t freed = 0;
  size_t hand = spill_->clock_hand % order.size();
  for (size_t step = 0;
       step < 2 * order.size() && ApproxBytes() > target_bytes; ++step) {
    auto [rel, seg_index] = order[hand];
    hand = (hand + 1) % order.size();
    Segment& seg = *relations_.at(rel).segments[seg_index];
    if (!seg.hot.load(std::memory_order_acquire)) continue;
    if (seg.accessed.exchange(false, std::memory_order_relaxed)) continue;
    // Persist before dropping; a failed write (e.g. ENOSPC) keeps the
    // payload resident and the error sticky, so memory pressure then
    // surfaces as the governor's ResourceExhausted stop.
    if (!FlushSegment(rel, seg_index)) continue;
    uint64_t bytes = seg.flat.size() * sizeof(Value);
    seg.hot.store(false, std::memory_order_release);
    std::vector<Value>().swap(seg.flat);
    spill_->hot_bytes.fetch_sub(bytes, std::memory_order_relaxed);
    freed += bytes;
    ++spill_->evictions;
  }
  spill_->clock_hand = hand;
  return freed;
}

void Instance::MarkAllSealedClean() {
  for (auto& [rel, data] : relations_) {
    for (const std::unique_ptr<Segment>& seg : data.segments) {
      if (!seg->dirty) continue;
      assert(seg->hot.load(std::memory_order_acquire));
      if (!seg->crc_valid) {
        std::vector<uint32_t> words;
        words.reserve(seg->flat.size());
        for (Value v : seg->flat) words.push_back(v.raw());
        seg->crc32 = SegmentPayloadCrc(words.data(), words.size());
        seg->crc_valid = true;
      }
      seg->dirty = false;
    }
  }
}

void Instance::SetSpillResidentCap(uint64_t max_resident_bytes) {
  if (!spill_) return;
  spill_->config.max_resident_bytes = max_resident_bytes;
}

SpillStats Instance::spill_stats() const {
  SpillStats stats;
  if (!spill_) return stats;
  stats.sealed_segments = spill_->sealed_segments;
  stats.spilled_bytes = spill_->spilled_bytes;
  stats.faults = spill_->faults.load(std::memory_order_relaxed);
  stats.evictions = spill_->evictions;
  stats.segment_writes = spill_->segment_writes;
  return stats;
}

uint64_t Instance::SpillSegmentBytes() const {
  return spill_->config.segment_bytes;
}

uint64_t Instance::SpillRowsPerSegment(RelationId relation) const {
  uint32_t arity = vocab_->RelationArity(relation);
  return std::max<uint64_t>(
      1, spill_->config.segment_bytes / (uint64_t(arity) * sizeof(Value)));
}

uint64_t Instance::SpillSealedSegments(RelationId relation) const {
  auto it = relations_.find(relation);
  return it == relations_.end() ? 0 : it->second.segments.size();
}

Instance::SealedSegmentInfo Instance::SpillSegmentInfo(
    RelationId relation, uint64_t segment) const {
  const RelationData& data = relations_.at(relation);
  const Segment& seg = *data.segments[segment];
  SealedSegmentInfo info;
  info.filename = SegmentFileName(relation, static_cast<uint32_t>(segment));
  info.rows = data.rows_per_segment;
  assert(seg.crc_valid && "SpillSegmentInfo requires a flushed segment");
  info.crc32 = seg.crc32;
  return info;
}

const std::string& Instance::spill_dir() const {
  return spill_->config.dir;
}

Status ParseFacts(std::string_view text, FactDialect dialect,
                  Vocabulary* vocab, Instance* out, uint32_t declared_nulls) {
  const bool exact = dialect == FactDialect::kExact;
  if (exact) out->EnsureNulls(declared_nulls);
  size_t pos = 0;
  auto skip_space = [&] {
    while (pos < text.size()) {
      char c = text[pos];
      if (c == '#' || (c == '/' && text.substr(pos, 2) == "//")) {
        pos = std::min(text.find('\n', pos), text.size());
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos;
      } else {
        break;
      }
    }
  };
  auto take = [&](char c) {
    skip_space();
    if (pos >= text.size() || text[pos] != c) return false;
    ++pos;
    return true;
  };
  // An IDENT ([A-Za-z_][A-Za-z0-9_$]*) or INT ([0-9]+) at `from`.
  auto word_at = [&](size_t from) {
    size_t end = from;
    if (end < text.size() && IsDigit(text[end])) {
      while (end < text.size() && IsDigit(text[end])) ++end;
    } else if (end < text.size() && IsIdentStart(text[end])) {
      while (end < text.size() && IsIdentChar(text[end])) ++end;
    }
    return text.substr(from, end - from);
  };
  // "line L, column C: what" at byte `at`. A syntax error also names what
  // stands there, as the dependency lexer names its tokens, and a byte
  // that starts no token is reported as such.
  auto error = [&](size_t at, std::string_view what, bool syntax) {
    std::string_view before = text.substr(0, at);
    size_t newline = before.rfind('\n');
    std::string where = Cat(
        "line ", 1 + std::count(before.begin(), before.end(), '\n'),
        ", column ", newline == std::string_view::npos ? at + 1 : at - newline,
        ": ");
    if (!syntax) return Status::ParseError(Cat(where, what));
    std::string found = "end of input";
    if (at < text.size()) {
      char c = text[at];
      std::string_view two = text.substr(at, 2);
      if (IsIdentStart(c)) {
        found = Cat("identifier '", word_at(at), "'");
      } else if (IsDigit(c) || c == '"') {
        found = IsDigit(c) ? "integer" : "string";
      } else if (two == "->" || two == ":-") {
        found = Cat("'", two, "'");
      } else if (std::string_view("(),.;&=[]{}:").find(c) !=
                 std::string_view::npos) {
        found = Cat("'", text.substr(at, 1), "'");
      } else {
        return Status::ParseError(
            Cat(where, "unexpected character '", text.substr(at, 1), "'"));
      }
    }
    return Status::ParseError(Cat(where, what, " (found ", found, ")"));
  };

  std::vector<Value> args;
  std::unordered_map<std::string_view, Value> labels;
  std::string unescaped;
  std::string_view last_name;  // the previous fact's relation
  RelationId last_relation = kInvalidSymbol;
  for (skip_space(); pos < text.size(); skip_space()) {
    const size_t name_at = pos;
    std::string_view name =
        IsIdentStart(text[pos]) ? word_at(pos) : std::string_view();
    if (name.empty()) return error(pos, "expected relation name", true);
    if (name != last_name && IsReservedWord(name)) {
      return error(pos, Cat("reserved word '", name, "' used as relation name"),
                   true);
    }
    pos += name.size();
    if (!take('(')) return error(pos, "expected '('", true);
    skip_space();
    if (pos < text.size() && text[pos] == ')') {
      return error(pos, Cat("fact '", name, "' needs at least one argument"),
                   true);
    }
    args.clear();
    do {
      skip_space();
      const size_t at = pos;
      char c = at < text.size() ? text[at] : '\0';
      if (c == '"') {
        unescaped.clear();
        for (++pos; pos < text.size() && text[pos] != '"' &&
                    text[pos] != '\n';
             ++pos) {
          if (exact && text[pos] == '\\' && pos + 1 < text.size()) {
            ++pos;
            unescaped += text[pos] == 'n' ? '\n' : text[pos];
          } else if (exact) {
            unescaped += text[pos];
          }
        }
        if (pos >= text.size() || text[pos] != '"') {
          return error(pos, "unterminated string literal", false);
        }
        std::string_view raw = text.substr(at + 1, pos++ - at - 1);
        args.push_back(Value::Constant(
            vocab->InternConstant(exact ? std::string_view(unescaped) : raw)));
        continue;
      }
      std::string_view word = word_at(at);
      if (word.empty()) return error(at, "expected constant or _null", true);
      pos += word.size();
      if (word[0] != '_') {
        args.push_back(Value::Constant(vocab->InternConstant(word)));
        continue;
      }
      std::string_view label = word.substr(1);
      if (exact && label.size() > 1 && label[0] == 'N' &&
          std::all_of(label.begin() + 1, label.end(), IsDigit)) {
        uint64_t index = 0;
        for (char d : label.substr(1)) {
          index = std::min<uint64_t>(index * 10 + (d - '0'), UINT32_MAX);
        }
        if (index >= declared_nulls) {
          return error(at, Cat("null ", word, " is past the declared count ",
                               declared_nulls), false);
        }
        args.push_back(Value::Null(static_cast<uint32_t>(index)));
        continue;
      }
      auto it = labels.find(label);
      if (it == labels.end()) {
        it = labels.emplace(label, out->FreshNull(std::string(label))).first;
      }
      args.push_back(it->second);
    } while (take(','));
    if (!take(')')) return error(pos, "expected ')'", true);
    if (!exact && !take('.')) return error(pos, "expected '.'", true);
    const uint32_t arity = static_cast<uint32_t>(args.size());
    if (name != last_name) {
      last_name = name;
      last_relation = vocab->FindRelation(name);
      if (last_relation == kInvalidSymbol) {
        last_relation = vocab->InternRelation(name, arity);
      }
    }
    if (vocab->RelationArity(last_relation) != arity) {
      return error(name_at,
                   Cat("relation '", name, "' used with arity ", arity,
                       " but declared with arity ",
                       vocab->RelationArity(last_relation)),
                   false);
    }
    out->AddFact(last_relation, args);
  }
  return Status::Ok();
}

}  // namespace tgdkit
