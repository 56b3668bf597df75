#include "seq/edit_distance_os.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "seq/edit_distance.hpp"
#include "seq/edit_distance_fast.hpp"
#include "seq/myers.hpp"

namespace mpcsd::seq {

namespace {

/// Longest common prefix of a and b.
std::size_t common_prefix(SymView a, SymView b) {
  const std::size_t lim = std::min(a.size(), b.size());
  std::size_t p = 0;
  while (p < lim && a[p] == b[p]) ++p;
  return p;
}

/// Longest common suffix of a and b.
std::size_t common_suffix(SymView a, SymView b) {
  const std::size_t lim = std::min(a.size(), b.size());
  std::size_t s = 0;
  while (s < lim && a[a.size() - 1 - s] == b[b.size() - 1 - s]) ++s;
  return s;
}

/// The banded walk stops paying once the window covers this fraction of
/// the pattern's blocks; a full-width bounded run (SIMD-dispatched, cost
/// independent of the cap) resolves the remainder.
bool band_still_narrow(std::int64_t pattern_len, std::int64_t k) {
  return 4 * (2 * k + 1) < pattern_len;
}

/// Core solve after trim: a is the pattern (|a| <= |b|), both non-empty,
/// limit >= |b| - |a|.
std::optional<std::int64_t> solve_core(SymView a, SymView b,
                                       std::int64_t limit,
                                       std::uint64_t* work) {
  const auto m = static_cast<std::int64_t>(a.size());
  const auto n = static_cast<std::int64_t>(b.size());
  if (m * n <= kTinyCells) return edit_distance_bounded(a, b, limit, work);

  std::int64_t k = std::min(std::max<std::int64_t>(1, n - m), limit);
  while (band_still_narrow(m, k)) {
    const auto d = edit_distance_myers_banded(a, b, k, nullptr);
    // Same modelled charge as the scalar doubling driver: the attempted
    // band's area, succeed or fail.
    if (work != nullptr) *work += band_cells(n, m, k);
    if (d.has_value()) return d;
    if (k == limit) return std::nullopt;
    k = std::min(2 * k, limit);
  }

  // Wide-band regime: one full-width bounded run (the runtime-dispatched
  // kernel family), charged as the band the ladder would have finished at.
  std::uint64_t words = 0;
  const auto d = edit_distance_myers_bounded(a, b, limit, &words);
  if (work != nullptr) {
    const auto charge_k =
        d.has_value() ? std::min(limit, std::max<std::int64_t>(2 * *d, 1))
                      : limit;
    *work += myers_bounded_cells(a.size(), words, charge_k);
  }
  return d;
}

}  // namespace

std::optional<std::int64_t> edit_distance_output_sensitive_bounded(
    SymView a, SymView b, std::int64_t limit, std::uint64_t* work) {
  MPCSD_EXPECTS(limit >= 0);
  if (a.size() > b.size()) std::swap(a, b);  // a = pattern (fewer blocks)
  const std::size_t prefix = common_prefix(a, b);
  a = a.subspan(prefix);
  b = b.subspan(prefix);
  const std::size_t suffix = common_suffix(a, b);
  a = a.subspan(0, a.size() - suffix);
  b = b.subspan(0, b.size() - suffix);

  const auto m = static_cast<std::int64_t>(a.size());
  const auto n = static_cast<std::int64_t>(b.size());
  if (n - m > limit) return std::nullopt;  // length gap lower bound
  if (m == 0) return n;                    // includes the equal-strings case
  return solve_core(a, b, limit, work);
}

std::int64_t edit_distance_output_sensitive(SymView a, SymView b,
                                            std::uint64_t* work) {
  // d <= max(|a|, |b|) always, so the capped driver never censors.
  const auto limit = static_cast<std::int64_t>(std::max(a.size(), b.size()));
  return *edit_distance_output_sensitive_bounded(a, b, limit, work);
}

}  // namespace mpcsd::seq
