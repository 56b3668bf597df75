// Fenwick (binary indexed) trees.
//
// Two flavours are used by the library:
//   * `FenwickMin`  — prefix minimum with point updates over an arbitrary
//     ordered value type; the engine of the O(m log² m) sparse Ulam DP and
//     the O(T log T) tuple-combine DP.  The value type may carry a payload
//     (e.g. an argmin index) as long as `operator<` orders it.
//   * `FenwickSum`  — prefix sums, used by workload statistics.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "common/contracts.hpp"

namespace mpcsd {

/// Prefix-minimum Fenwick tree over indices [0, n).  `update(i, v)` lowers
/// position i to min(current, v); `prefix_min(i)` returns min over [0, i].
/// `identity` must compare >= every inserted value.
template <typename T>
class FenwickMin {
 public:
  FenwickMin(std::size_t n, T identity)
      : n_(n), identity_(identity), tree_(n + 1, identity) {}

  /// Convenience constructor for arithmetic types.
  explicit FenwickMin(std::size_t n)
      : FenwickMin(n, std::numeric_limits<T>::max()) {}

  void clear() { tree_.assign(n_ + 1, identity_); }

  /// Resizes to indices [0, n), every position at the identity; keeps the
  /// allocation, so one tree can serve many short-lived uses.
  void reset(std::size_t n) {
    n_ = n;
    tree_.assign(n_ + 1, identity_);
  }

  void update(std::size_t i, T value) {
    MPCSD_EXPECTS(i < n_);
    for (std::size_t k = i + 1; k <= n_; k += k & (~k + 1)) {
      if (value < tree_[k]) tree_[k] = value;
    }
  }

  /// Minimum over [0, i] inclusive; `identity()` if the range is empty.
  [[nodiscard]] T prefix_min(std::size_t i) const {
    if (n_ == 0) return identity_;
    if (i >= n_) i = n_ - 1;
    T best = identity_;
    for (std::size_t k = i + 1; k > 0; k -= k & (~k + 1)) {
      if (tree_[k] < best) best = tree_[k];
    }
    return best;
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] const T& identity() const noexcept { return identity_; }

 private:
  std::size_t n_;
  T identity_;
  std::vector<T> tree_;
};

/// Prefix-sum Fenwick tree over indices [0, n).
template <typename T>
class FenwickSum {
 public:
  explicit FenwickSum(std::size_t n) : n_(n), tree_(n + 1, T{}) {}

  void add(std::size_t i, T delta) {
    MPCSD_EXPECTS(i < n_);
    for (std::size_t k = i + 1; k <= n_; k += k & (~k + 1)) tree_[k] += delta;
  }

  /// Sum over [0, i] inclusive.
  [[nodiscard]] T prefix_sum(std::size_t i) const {
    if (n_ == 0) return T{};
    if (i >= n_) i = n_ - 1;
    T total{};
    for (std::size_t k = i + 1; k > 0; k -= k & (~k + 1)) total += tree_[k];
    return total;
  }

  [[nodiscard]] T range_sum(std::size_t lo, std::size_t hi) const {
    if (lo > hi) return T{};
    T total = prefix_sum(hi);
    if (lo > 0) total -= prefix_sum(lo - 1);
    return total;
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

 private:
  std::size_t n_;
  std::vector<T> tree_;
};

}  // namespace mpcsd
