// Dispatching fast edit-distance kernels.
//
// `edit_distance_fast` and friends compute exactly the same values as the
// scalar engines in edit_distance.hpp (pinned by differential tests) but
// route each call to the cheapest kernel:
//
//   * Myers/Hyyrö bit-parallel (myers.hpp) — processes 64 DP cells per
//     word op; wins whenever the scalar would touch >= ~kCellsPerWord
//     cells per pattern word, i.e. full DPs and wide bands.
//   * scalar banded DP — wins for narrow bands (small k on long strings),
//     where the bit-vector still pays ceil(m/64) words per column.
//   * scalar row DP — wins for tiny inputs where mask setup dominates.
//
// Work metering stays in *modelled DP cells*, exactly the unit the scalar
// kernels charge and Table 1 counts: the dispatcher converts bit-parallel
// word counts back to the cells the modelled band/full DP would touch, so
// swapping kernels changes wall-clock, never the work model.  (On censored
// pairs the modelled band area is a deterministic piecewise-linear estimate
// of the scalar's data-dependent early-abort count; see docs/ALGORITHMS.md
// "Kernel selection & performance".)
#pragma once

#include <cstdint>
#include <optional>

#include "seq/types.hpp"

namespace mpcsd::seq {

/// Which kernel a fast entry point routes to (introspection for tests,
/// benches, and the docs' dispatch table).
enum class EditKernel : std::uint8_t {
  kScalar,        ///< Wagner–Fischer row DP
  kScalarBanded,  ///< Ukkonen band (with doubling in the bounded driver)
  kMyers,         ///< blocked bit-parallel, unbounded
  kMyersBounded,  ///< blocked bit-parallel with early abort at the cap
};

/// A Myers word op covers 64 cells but costs ~this many scalar cell updates;
/// the dispatcher picks Myers when the modelled cells per word exceed it.
inline constexpr std::int64_t kCellsPerWord = 8;

/// Below this many DP cells the scalar row DP beats any mask setup.
inline constexpr std::int64_t kTinyCells = 1024;

/// Exact edit distance; value-identical to `edit_distance`.  Charges
/// |a|·|b| modelled cells (as the scalar does) regardless of kernel.
std::int64_t edit_distance_fast(SymView a, SymView b, std::uint64_t* work = nullptr);

/// Exact distance if <= k, nullopt otherwise; value-identical to
/// `edit_distance_banded`.
std::optional<std::int64_t> edit_distance_banded_fast(SymView a, SymView b,
                                                      std::int64_t k,
                                                      std::uint64_t* work = nullptr);

/// Exact distance with cap `limit`; value-identical to
/// `edit_distance_bounded`.  Scalar band-doubling while bands are narrow,
/// then one bit-parallel bounded run instead of ever-wider scalar bands
/// (Myers' cost does not grow with the cap).
std::optional<std::int64_t> edit_distance_bounded_fast(SymView a, SymView b,
                                                       std::int64_t limit,
                                                       std::uint64_t* work = nullptr);

/// Modelled cells of a half-width-k Ukkonen band over a rows x cols DP:
/// sum over i = 1..rows of |[max(0, i-k), min(cols, i+k)]|.  The charge
/// unit every bit-parallel entry point converts its word counts back to;
/// shared with the output-sensitive driver (edit_distance_os.hpp).
std::uint64_t band_cells(std::int64_t rows, std::int64_t cols, std::int64_t k);

/// The modelled charge of one `edit_distance_myers_bounded` run with a
/// `pattern_len` pattern that metered `words`: the half-width-`charge_k`
/// band over the text columns it processed (words / pattern blocks) — all
/// of them on success, the prefix up to the abort when censored.  The one
/// words-to-cells conversion every bounded bit-parallel caller charges.
std::uint64_t myers_bounded_cells(std::size_t pattern_len, std::uint64_t words,
                                  std::int64_t charge_k);

/// The kernel `edit_distance_fast(a, b)` would run.
EditKernel edit_distance_fast_kernel(SymView a, SymView b);

/// The kernel `edit_distance_banded_fast(a, b, k)` would run.
EditKernel edit_distance_banded_fast_kernel(SymView a, SymView b, std::int64_t k);

}  // namespace mpcsd::seq
