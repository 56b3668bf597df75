// Byte-level serialization used for all inter-machine messages in the MPC
// simulator.  Forcing every payload through a byte encoding keeps the memory
// accounting honest: a machine's input size is exactly the number of bytes
// delivered to it, as in the MPC model.
//
// Two reading models are provided:
//   * `ByteReader`  — a cursor over one contiguous buffer.
//   * `ChainReader` — a cursor over a `ByteChain`, an ordered list of
//     non-owning byte fragments.  A machine inbox is naturally a list of
//     payloads from different senders; reading them through a chain avoids
//     the concat-copy the old `gather` path performed every round.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/contracts.hpp"

namespace mpcsd {

using Bytes = std::vector<std::byte>;
using ByteSpan = std::span<const std::byte>;

/// Appends POD values / vectors to a growing byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Pre-allocates capacity for `total` bytes.  Call once with the final
  /// (or estimated) message size before a burst of puts; incremental exact
  /// reserves would defeat the vector's geometric growth.
  void reserve(std::size_t total) { buf_.reserve(total); }

  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteWriter::put requires a trivially copyable type");
    append(reinterpret_cast<const std::byte*>(&value), sizeof(T));
  }

  /// Length-prefixed vector of trivially copyable elements.
  template <typename T>
  void put_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(v.size());
    if (!v.empty()) {
      append(reinterpret_cast<const std::byte*>(v.data()), v.size() * sizeof(T));
    }
  }

  void put_string(const std::string& s) {
    put<std::uint64_t>(s.size());
    if (!s.empty()) {
      append(reinterpret_cast<const std::byte*>(s.data()), s.size());
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] const Bytes& bytes() const noexcept { return buf_; }

 private:
  // resize + memcpy instead of range insert: same growth behaviour, no
  // iterator plumbing on the hot path, and no GCC -O3 `-Wnonnull` false
  // positives from the libstdc++ range-insert internals.
  void append(const std::byte* data, std::size_t n) {
    const std::size_t old = buf_.size();
    buf_.resize(old + n);
    std::memcpy(buf_.data() + old, data, n);
  }

  Bytes buf_;
};

/// Reads values back in the order they were written.  Over-reads throw.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& buf) noexcept : buf_(buf.data()), size_(buf.size()) {}
  ByteReader(const std::byte* data, std::size_t size) noexcept
      : buf_(data), size_(size) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    MPCSD_EXPECTS(sizeof(T) <= size_ - pos_);
    T out;
    std::memcpy(&out, buf_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return out;
  }

  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = get<std::uint64_t>();
    // Divide instead of multiplying: `n` comes off the wire, and
    // `n * sizeof(T)` can wrap for an adversarial length prefix.
    MPCSD_EXPECTS(n <= (size_ - pos_) / sizeof(T));
    std::vector<T> out(n);
    if (n > 0) std::memcpy(out.data(), buf_ + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return out;
  }

  std::string get_string() {
    const auto n = get<std::uint64_t>();
    MPCSD_EXPECTS(n <= size_ - pos_);
    std::string out(reinterpret_cast<const char*>(buf_ + pos_), n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  const std::byte* buf_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// An ordered sequence of non-owning byte fragments, logically one buffer.
/// The referenced storage (payloads in a `Mail`, machine inputs, ...) must
/// outlive the chain.  Empty fragments are dropped on insertion.
class ByteChain {
 public:
  ByteChain() = default;

  void add(ByteSpan part) {
    if (part.empty()) return;
    parts_.push_back(part);
    total_ += part.size();
  }
  // Guard against chaining a temporary buffer: the chain does not own bytes.
  void add(Bytes&&) = delete;

  void add(const ByteChain& other) {
    for (const ByteSpan p : other.parts_) add(p);
  }

  /// Drops all fragments but keeps the part-list capacity, so chains held
  /// in round-scoped arenas can be refilled without reallocating.
  void clear() noexcept {
    parts_.clear();
    total_ = 0;
  }

  [[nodiscard]] const std::vector<ByteSpan>& parts() const noexcept { return parts_; }
  [[nodiscard]] std::size_t total_bytes() const noexcept { return total_; }
  [[nodiscard]] bool empty() const noexcept { return total_ == 0; }

  /// Copies the fragments into one contiguous buffer (compat / tests).
  [[nodiscard]] Bytes to_bytes() const {
    Bytes out(total_);
    std::size_t off = 0;
    for (const ByteSpan p : parts_) {
      std::memcpy(out.data() + off, p.data(), p.size());
      off += p.size();
    }
    return out;
  }

 private:
  std::vector<ByteSpan> parts_;
  std::size_t total_ = 0;
};

/// `ByteReader` over a `ByteChain`: same API, values may straddle fragment
/// boundaries (the fast path stays within one fragment).  Over-reads throw.
class ChainReader {
 public:
  explicit ChainReader(const ByteChain& chain) noexcept
      : chain_(&chain), remaining_(chain.total_bytes()) {}
  // The reader borrows the chain; a temporary would dangle immediately.
  explicit ChainReader(ByteChain&&) = delete;

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T out;
    read_raw(reinterpret_cast<std::byte*>(&out), sizeof(T));
    return out;
  }

  template <typename T>
  std::vector<T> get_vector() {
    std::vector<T> out;
    append_to(out, get<std::uint64_t>());
    return out;
  }

  /// Appends the next `n` values to `out` with one copy per fragment they
  /// span.  `n` comes off the wire: it is checked against the bytes left
  /// before `out` grows.
  template <typename T>
  void append_to(std::vector<T>& out, std::uint64_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    MPCSD_EXPECTS(n <= remaining_ / sizeof(T));
    const std::size_t old = out.size();
    out.resize(old + n);
    if (n > 0) read_raw(reinterpret_cast<std::byte*>(out.data() + old), n * sizeof(T));
  }

  std::string get_string() {
    const auto n = get<std::uint64_t>();
    MPCSD_EXPECTS(n <= remaining_);
    std::string out(n, '\0');
    if (n > 0) read_raw(reinterpret_cast<std::byte*>(out.data()), n);
    return out;
  }

  [[nodiscard]] bool exhausted() const noexcept { return remaining_ == 0; }
  [[nodiscard]] std::size_t remaining() const noexcept { return remaining_; }

 private:
  void read_raw(std::byte* out, std::size_t n) {
    MPCSD_EXPECTS(n <= remaining_);
    const auto& parts = chain_->parts();
    while (n > 0) {
      const ByteSpan part = parts[part_];
      const std::size_t take = std::min(n, part.size() - off_);
      std::memcpy(out, part.data() + off_, take);
      out += take;
      off_ += take;
      n -= take;
      remaining_ -= take;
      if (off_ == part.size()) {
        ++part_;
        off_ = 0;
      }
    }
  }

  const ByteChain* chain_;
  std::size_t part_ = 0;       ///< current fragment index
  std::size_t off_ = 0;        ///< offset within the current fragment
  std::size_t remaining_ = 0;  ///< bytes left across all fragments
};

/// Concatenates several byte buffers (a machine's inbox) into one.
Bytes concat(const std::vector<Bytes>& parts);

}  // namespace mpcsd
