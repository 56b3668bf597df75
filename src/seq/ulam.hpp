// Exact Ulam distance (edit distance over repeat-free strings) and the
// local Ulam distance (lulam) used by Algorithm 1 of the paper.
//
// Structure theorem (classic; pinned against Wagner–Fischer by tests):
// because every symbol occurs at most once per string, the common characters
// of a and b form a set of at most min(|a|,|b|) match points (p, q) with
// a[p] == b[q], and
//
//     ulam(a, b) = min over increasing chains of match points of
//         start-gap + sum over consecutive (j -> i) of
//             max(p_i - p_j - 1,  q_i - q_j - 1)     + end-gap,
//
// where the start/end gaps pay max(prefix, suffix) on both strings (global
// mode) or only the block-side gap (local mode, where the substring
// boundaries gamma/kappa are free).  Both a dense O(m²) reference and a
// sparse O(m log² m) divide-and-conquer engine are provided; they agree
// exactly.
//
// Local Ulam (`local_ulam`) returns, in addition to the minimal distance
// over all substrings of t, one substring t[gamma, kappa) achieving it —
// the quantity Lemma 1 of the paper reasons about.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "seq/combine.hpp"
#include "seq/types.hpp"

namespace mpcsd::seq {

/// A common character: a[p] == b[q] (0-based).
struct MatchPoint {
  std::int64_t p = 0;
  std::int64_t q = 0;

  friend bool operator==(const MatchPoint&, const MatchPoint&) = default;
};

/// All match points between repeat-free a and b, sorted by p (equivalently:
/// at most one per symbol).  O(|a| + |b|) expected.
std::vector<MatchPoint> match_points(SymView a, SymView b);

/// Exact Ulam distance via the sparse engine.  Preconditions: both views
/// repeat-free (checked).  O(m log² m) after match-point extraction.
std::int64_t ulam_distance(SymView a, SymView b, std::uint64_t* work = nullptr);

/// Dense O(m²) reference implementation (test oracle, small inputs).
std::int64_t ulam_distance_dense(SymView a, SymView b,
                                 std::uint64_t* work = nullptr);

/// Result of the local Ulam computation: the minimum Ulam distance between
/// `block` and any substring of `t`, plus one optimal window.
struct LocalUlamResult {
  Interval window;        ///< [gamma, kappa) in t; empty when no match helps
  std::int64_t distance = 0;
};

/// lulam(block, t) — sparse engine.  Preconditions: repeat-free (checked).
LocalUlamResult local_ulam(SymView block, SymView t, std::uint64_t* work = nullptr);

/// Dense reference for lulam.
LocalUlamResult local_ulam_dense(SymView block, SymView t,
                                 std::uint64_t* work = nullptr);

/// Brute-force lulam via trying every substring (tiny inputs; test oracle).
LocalUlamResult local_ulam_bruteforce(SymView block, SymView t);

// ---------------------------------------------------------------------------
// Match-point entry points.
//
// A simulated machine holds a block of s plus the position of each block
// character in s̄ (the paper's Õ(n^{1-x}) feed) — never s̄ itself.  Because
// the chain DP only consumes match points and the two lengths, the whole
// Ulam machinery runs on that feed directly.
// ---------------------------------------------------------------------------

/// Compresses match points (sorted by p) into maximal diagonal runs,
/// expressed as zero-distance combine tuples: [p_s, p_e+1) x [q_s, q_e+1),
/// sorted by p.  An exchange argument shows some optimal chain always uses
/// maximal runs in full, so the chain DP may operate on runs — for similar
/// strings this shrinks the instance from ~n points to ~d runs.
std::vector<Tuple> diagonal_runs(const std::vector<MatchPoint>& pts);

/// Ulam distance from match points.  `pts` must be sorted by p with strictly
/// increasing p and pairwise distinct q; na/nb are the string lengths.
std::int64_t ulam_from_match_points(const std::vector<MatchPoint>& pts,
                                    std::int64_t na, std::int64_t nb,
                                    std::uint64_t* work = nullptr);

/// Bounded Ulam distance: returns the exact distance when it is <= cap and
/// std::nullopt otherwise.  Internally restricts the chain DP to the
/// diagonal band |p - q| <= cap (any alignment of cost <= cap stays inside
/// it), so the cost scales with the band population, not with |pts|.
/// No library code calls it: Algorithm 1's per-candidate engine
/// (`ulam_mpc::BlockEvaluator`) clips the block's diagonal runs and runs
/// one chain DP per window start instead, and the tests and
/// `fuzz_ulam_eval_diff` keep this point-level engine as its oracle.
std::optional<std::int64_t> bounded_ulam_from_match_points(
    const std::vector<MatchPoint>& pts, std::int64_t na, std::int64_t nb,
    std::int64_t cap, std::uint64_t* work = nullptr);

/// lulam from match points against an implicit string t of length nb.
LocalUlamResult local_ulam_from_match_points(const std::vector<MatchPoint>& pts,
                                             std::int64_t na, std::int64_t nb,
                                             std::uint64_t* work = nullptr);

/// A full optimal Ulam transformation: the chain of kept (matched)
/// characters.  Everything outside the chain is substituted/inserted/
/// deleted; the cost decomposes as
///   start-gap + sum of max-gaps between consecutive chain points + end-gap
/// and equals ulam(a, b).
struct UlamAlignment {
  std::vector<MatchPoint> chain;  ///< strictly increasing in p and q
  std::int64_t distance = 0;
};

/// Optimal chain recovery (sparse engine + predecessor tracking).
UlamAlignment ulam_alignment(SymView a, SymView b, std::uint64_t* work = nullptr);

}  // namespace mpcsd::seq
