#include "seq/edit_distance_fast.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/contracts.hpp"
#include "seq/edit_distance.hpp"
#include "seq/myers.hpp"

namespace mpcsd::seq {

/// Piecewise linear in i, so the sum has a closed form.
std::uint64_t band_cells(std::int64_t rows, std::int64_t cols, std::int64_t k) {
  if (rows <= 0 || cols < 0) return 0;
  const std::int64_t c1 = std::clamp<std::int64_t>(cols - k, 0, rows);
  const std::int64_t sum_hi = c1 * (c1 + 1) / 2 + k * c1 + (rows - c1) * cols;
  const std::int64_t c2 = std::clamp<std::int64_t>(rows - k, 0, rows);
  const std::int64_t sum_lo = c2 * (c2 + 1) / 2;
  return static_cast<std::uint64_t>(sum_hi - sum_lo + rows);
}

std::uint64_t myers_bounded_cells(std::size_t pattern_len, std::uint64_t words,
                                  std::int64_t charge_k) {
  const auto blocks = static_cast<std::uint64_t>((pattern_len + 63) / 64);
  const auto columns = blocks == 0 ? 0 : static_cast<std::int64_t>(words / blocks);
  return band_cells(columns, static_cast<std::int64_t>(pattern_len), charge_k);
}

namespace {

std::int64_t cell_product(SymView a, SymView b) {
  return static_cast<std::int64_t>(a.size()) * static_cast<std::int64_t>(b.size());
}

/// Myers pays ceil(pattern/64) words per text column no matter how narrow
/// the band; it wins only when the band itself is at least ~kCellsPerWord
/// cells per pattern word.
bool myers_band_profitable(std::size_t pattern_len, std::int64_t k) {
  const auto blocks = static_cast<std::int64_t>((pattern_len + 63) / 64);
  return 2 * k + 1 >= kCellsPerWord * blocks;
}

/// Runs the bounded bit-parallel kernel with the shorter string as the
/// pattern and charges `work` the modelled band cells: the full band on
/// success, the processed-column prefix of it on early abort.
std::optional<std::int64_t> myers_banded_charged(SymView a, SymView b,
                                                 std::int64_t k,
                                                 std::int64_t charge_k,
                                                 std::uint64_t* work) {
  if (a.size() > b.size()) std::swap(a, b);  // a = pattern (fewer blocks)
  std::uint64_t words = 0;
  const auto d = edit_distance_myers_bounded(a, b, k, &words);
  if (work != nullptr) *work += myers_bounded_cells(a.size(), words, charge_k);
  return d;
}

}  // namespace

EditKernel edit_distance_fast_kernel(SymView a, SymView b) {
  if (a.empty() || b.empty()) return EditKernel::kScalar;
  if (cell_product(a, b) <= kTinyCells) return EditKernel::kScalar;
  return EditKernel::kMyers;
}

EditKernel edit_distance_banded_fast_kernel(SymView a, SymView b, std::int64_t k) {
  if (a.empty() || b.empty() || cell_product(a, b) <= kTinyCells) {
    return EditKernel::kScalarBanded;
  }
  return myers_band_profitable(std::min(a.size(), b.size()), k)
             ? EditKernel::kMyersBounded
             : EditKernel::kScalarBanded;
}

std::int64_t edit_distance_fast(SymView a, SymView b, std::uint64_t* work) {
  if (edit_distance_fast_kernel(a, b) == EditKernel::kScalar) {
    return edit_distance(a, b, work);
  }
  if (a.size() > b.size()) std::swap(a, b);  // a = pattern (fewer blocks)
  const auto d = edit_distance_myers(a, b, nullptr);
  // Same modelled charge as the scalar row DP: every cell of the table.
  if (work != nullptr) *work += static_cast<std::uint64_t>(cell_product(a, b));
  return d;
}

std::optional<std::int64_t> edit_distance_banded_fast(SymView a, SymView b,
                                                      std::int64_t k,
                                                      std::uint64_t* work) {
  MPCSD_EXPECTS(k >= 0);
  if (edit_distance_banded_fast_kernel(a, b, k) == EditKernel::kScalarBanded) {
    return edit_distance_banded(a, b, k, work);
  }
  return myers_banded_charged(a, b, k, k, work);
}

std::optional<std::int64_t> edit_distance_bounded_fast(SymView a, SymView b,
                                                       std::int64_t limit,
                                                       std::uint64_t* work) {
  MPCSD_EXPECTS(limit >= 0);
  const auto gap = std::abs(static_cast<std::int64_t>(a.size()) -
                            static_cast<std::int64_t>(b.size()));
  if (gap > limit) return std::nullopt;
  const std::size_t pattern_len = std::min(a.size(), b.size());
  std::int64_t k = 1;
  for (;;) {
    const std::int64_t cap = std::min(k, limit);
    if (cell_product(a, b) > kTinyCells &&
        myers_band_profitable(pattern_len, cap)) {
      // The bit-parallel cost is independent of the cap, so skip the rest
      // of the doubling ladder and resolve at the full limit in one shot.
      // Model the charge as the band the scalar ladder would have finished
      // at: half-width < 2d on success, the full capped band when censored.
      std::uint64_t words = 0;
      SymView p = a.size() <= b.size() ? a : b;
      SymView t = a.size() <= b.size() ? b : a;
      const auto d = edit_distance_myers_bounded(p, t, limit, &words);
      if (work != nullptr) {
        const auto charge_k =
            d.has_value() ? std::min(limit, std::max<std::int64_t>(2 * *d, 1))
                          : limit;
        *work += myers_bounded_cells(p.size(), words, charge_k);
      }
      return d;
    }
    if (auto d = edit_distance_banded(a, b, cap, work)) return d;
    if (cap == limit) return std::nullopt;
    k *= 2;
  }
}

}  // namespace mpcsd::seq
