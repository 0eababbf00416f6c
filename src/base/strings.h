// Small string helpers used by printers and error messages.
#pragma once

#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace tgdkit {

/// The output of a printer that may produce more text than should be held
/// at once. Text is appended to a buffer; given a stream, the buffer is
/// written out whenever it reaches kChunkBytes, so the printer holds one
/// chunk plus its longest single append. Without a stream the buffer only
/// grows and Take() returns it: the string form of the same printer.
class ChunkedWriter {
 public:
  static constexpr size_t kChunkBytes = 64 * 1024;

  /// String mode: everything stays in the buffer.
  ChunkedWriter() = default;
  explicit ChunkedWriter(std::ostream* out) : out_(out) {
    buffer_.reserve(kChunkBytes);
  }
  ChunkedWriter(const ChunkedWriter&) = delete;
  ChunkedWriter& operator=(const ChunkedWriter&) = delete;
  ~ChunkedWriter() { Flush(); }

  void Append(std::string_view text) {
    buffer_.append(text);
    MaybeFlush();
  }
  void Append(char c) {
    buffer_.push_back(c);
    MaybeFlush();
  }

  /// False once the stream has failed; printers stop at the next line or
  /// term node. Always true in string mode.
  bool ok() const { return out_ == nullptr || !out_->fail(); }

  /// Writes the buffered text to the stream (no-op in string mode).
  void Flush() {
    if (out_ == nullptr || buffer_.empty()) return;
    out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }

  /// String mode: the text written so far.
  std::string Take() { return std::move(buffer_); }

 private:
  void MaybeFlush() {
    if (out_ != nullptr && buffer_.size() >= kChunkBytes) Flush();
  }

  std::ostream* out_ = nullptr;
  std::string buffer_;
};

/// Joins the elements of `items` with `sep`, applying `render` to each.
template <typename Container, typename Render>
std::string JoinMapped(const Container& items, std::string_view sep,
                       Render render) {
  std::string out;
  bool first = true;
  for (const auto& item : items) {
    if (!first) out += sep;
    first = false;
    out += render(item);
  }
  return out;
}

/// Joins string-like elements with `sep`.
template <typename Container>
std::string Join(const Container& items, std::string_view sep) {
  return JoinMapped(items, sep, [](const auto& s) { return std::string(s); });
}

/// Concatenates streamable arguments into a string (mini StrCat).
template <typename... Args>
std::string Cat(const Args&... args) {
  std::ostringstream oss;
  (oss << ... << args);
  return oss.str();
}

/// 64-bit hash combiner (boost-style with a 64-bit golden-ratio constant).
inline void HashCombine(size_t* seed, size_t value) {
  *seed ^= value + 0x9e3779b97f4a7c15ULL + (*seed << 6) + (*seed >> 2);
}

/// Hashes a range of integral values.
template <typename It>
size_t HashRange(It begin, It end) {
  size_t seed = 0xcbf29ce484222325ULL;
  for (It it = begin; it != end; ++it) {
    HashCombine(&seed, static_cast<size_t>(*it));
  }
  return seed;
}

}  // namespace tgdkit
