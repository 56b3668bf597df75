// AVX2 multi-word Myers kernel: 4 pattern words per 256-bit lane group.
//
// See myers_kernel.hpp for the recurrence and the lane-parallel carry
// scheme.  This TU is compiled with -mavx2 (per-TU, set in src/CMakeLists);
// the dispatcher only selects the kernel after a runtime CPU probe, so the
// binary stays portable.  When the toolchain cannot target AVX2 at all,
// the TU degrades to a nullptr registration and dispatch falls through to
// the scalar kernel.
//
// The TU also holds the prefix pass's lane kernel (four texts per vector;
// see myers_kernel.hpp).
#include "seq/myers_kernel.hpp"

#if defined(__AVX2__) && defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace mpcsd::seq::detail {

namespace {

/// Words per 256-bit chunk and chunks per carry stripe: one 64-bit scalar
/// mask holds generate/propagate/carry bits for 64 words = 16 chunks.
constexpr std::size_t kLaneWords = 4;
constexpr std::size_t kStripeChunks = 16;

/// kBit0[mask] has 1 in the low bit of lane l iff bit l of mask is set —
/// re-injects resolved carry/shift bits into lanes without crossing the
/// vector/scalar boundary per lane.
alignas(32) constexpr std::uint64_t kBit0[16][kLaneWords] = {
    {0, 0, 0, 0}, {1, 0, 0, 0}, {0, 1, 0, 0}, {1, 1, 0, 0},
    {0, 0, 1, 0}, {1, 0, 1, 0}, {0, 1, 1, 0}, {1, 1, 1, 0},
    {0, 0, 0, 1}, {1, 0, 0, 1}, {0, 1, 0, 1}, {1, 1, 0, 1},
    {0, 0, 1, 1}, {1, 0, 1, 1}, {0, 1, 1, 1}, {1, 1, 1, 1},
};

inline __m256i bit0_lanes(std::uint64_t mask) {
  return _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kBit0[mask & 0xF]));
}

/// Cross-word 1-bit left shift of `v` as a big integer, entirely in vector
/// registers: rotate lanes up (0x93 moves lane k to k+1 and lane 3 to 0),
/// take each lane's old top bit, and splice the carry word in at lane 0.
/// On return `*carry` holds the rotated top bits, so its lane 0 is this
/// chunk's carry-out — ready to be spliced into the next chunk.
inline __m256i shift1_lanes(__m256i v, __m256i* carry) {
  const __m256i tops = _mm256_srli_epi64(_mm256_permute4x64_epi64(v, 0x93), 63);
  const __m256i inj = _mm256_blend_epi32(tops, *carry, 0x03);
  *carry = tops;
  return _mm256_or_si256(_mm256_slli_epi64(v, 1), inj);
}

inline __m256i loadu(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void storeu(std::uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// Sign bit (bit 63) of each 64-bit lane as a 4-bit scalar mask.
inline unsigned top_bits(__m256i v) {
  return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(v)));
}

std::optional<std::int64_t> run(const MyersMasks& masks, SymView b,
                                std::int64_t bound, std::uint64_t* work) {
  const std::int64_t m = masks.m;
  const auto n = static_cast<std::int64_t>(b.size());
  const std::size_t blocks = masks.blocks;
  const std::size_t chunks = (blocks + kLaneWords - 1) / kLaneWords;
  const std::size_t state_words = chunks * kLaneWords;  // <= masks.stride

  // Pv all-ones / Mv zero, including padding lanes: padding is inert (all
  // cross-word flows move upward only; see myers_kernel.hpp).
  std::vector<std::uint64_t> state(2 * state_words, 0);
  std::uint64_t* pv = state.data();
  std::uint64_t* mv = state.data() + state_words;
  std::fill(pv, pv + state_words, ~0ULL);

  const std::size_t last_chunk = chunks - 1;
  alignas(32) std::uint64_t last_probe[kLaneWords] = {0, 0, 0, 0};
  last_probe[(blocks - 1) % kLaneWords] = 1ULL << ((m - 1) & 63);
  const __m256i vlast =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(last_probe));
  const __m256i vones = _mm256_set1_epi64x(-1);
  const __m256i vboundary = _mm256_set_epi64x(0, 0, 0, 1);

  std::int64_t score = m;
  std::uint64_t words = 0;

  for (std::int64_t j = 0; j < n; ++j) {
    const std::uint64_t* eq_row = masks.row(b[static_cast<std::size_t>(j)]);
    std::uint64_t add_carry = 0;  // into the next stripe's lowest word
    // Shift carries live in lane 0 of these vectors (see shift1_lanes).
    __m256i ph_carry = vboundary;  // top boundary row: d[0][j] = j, so +1
    __m256i mh_carry = _mm256_setzero_si256();
    int hout = 0;

    for (std::size_t chunk0 = 0; chunk0 < chunks; chunk0 += kStripeChunks) {
      const std::size_t chunk_end = std::min(chunks, chunk0 + kStripeChunks);
      // Pass 1: lane adds; gather per-word generate/propagate bits.  Only
      // the bits leave this pass — sums are recomputed in pass 2 from the
      // same inputs, which is cheaper than a store/reload round trip.
      std::uint64_t g = 0;
      std::uint64_t p = 0;
#pragma GCC unroll 4
      for (std::size_t c = chunk0; c < chunk_end; ++c) {
        const std::size_t w = c * kLaneWords;
        const std::size_t sh = (c - chunk0) * kLaneWords;
        const __m256i eq = loadu(eq_row + w);
        const __m256i vpv = loadu(pv + w);
        const __m256i t = _mm256_and_si256(eq, vpv);
        const __m256i s = _mm256_add_epi64(t, vpv);
        // Carry-out of t + pv: (t & pv) | ((t | pv) & ~s), which collapses
        // to t | (pv & ~s) because t ⊆ pv — the sign bit is the carry.
        const __m256i ovf =
            _mm256_or_si256(t, _mm256_andnot_si256(s, vpv));
        const __m256i prop = _mm256_cmpeq_epi64(s, vones);
        g |= static_cast<std::uint64_t>(top_bits(ovf)) << sh;
        p |= static_cast<std::uint64_t>(top_bits(prop)) << sh;
      }
      // Resolve the whole stripe's carry chain in O(1): carry-in bits
      // c = ((g << 1 | cin) + p) ^ p (ripple through propagate runs).
      const std::uint64_t carries = (((g << 1) | add_carry) + p) ^ p;
      const std::size_t top = (chunk_end - chunk0) * kLaneWords - 1;
      add_carry = ((g >> top) & 1) |
                  (((p >> top) & 1) & ((carries >> top) & 1));

      // Pass 2: recompute the sums, inject carries, finish the column.
#pragma GCC unroll 4
      for (std::size_t c = chunk0; c < chunk_end; ++c) {
        const std::size_t w = c * kLaneWords;
        const std::size_t sh = (c - chunk0) * kLaneWords;
        const __m256i eq = loadu(eq_row + w);
        const __m256i vpv = loadu(pv + w);
        const __m256i vmv = loadu(mv + w);
        const __m256i xv = _mm256_or_si256(eq, vmv);
        const __m256i t = _mm256_and_si256(eq, vpv);
        const __m256i s = _mm256_add_epi64(_mm256_add_epi64(t, vpv),
                                           bit0_lanes(carries >> sh));
        const __m256i xh =
            _mm256_or_si256(_mm256_xor_si256(s, vpv), eq);
        const __m256i ph = _mm256_or_si256(
            vmv, _mm256_xor_si256(_mm256_or_si256(xh, vpv), vones));
        const __m256i mh = _mm256_and_si256(vpv, xh);
        if (c == last_chunk) {
          if (!_mm256_testz_si256(ph, vlast)) {
            hout = 1;
          } else if (!_mm256_testz_si256(mh, vlast)) {
            hout = -1;
          }
        }
        const __m256i ph2 = shift1_lanes(ph, &ph_carry);
        const __m256i mh2 = shift1_lanes(mh, &mh_carry);
        storeu(pv + w,
               _mm256_or_si256(mh2, _mm256_xor_si256(
                                        _mm256_or_si256(xv, ph2), vones)));
        storeu(mv + w, _mm256_and_si256(ph2, xv));
      }
    }

    score += hout;
    words += blocks;
    // Same abort rule (and thus word count) as every other kernel.
    if (bound >= 0 && score - (n - j - 1) > bound) {
      if (work != nullptr) *work += words;
      return std::nullopt;
    }
  }
  if (work != nullptr) *work += words;
  return score;
}

/// The prefix pass's lane kernel over V vectors of four texts each (V = 2
/// runs all kPassLanes).  The horizontal delta threaded word to word is a
/// pair of vectors holding 1 in the +1 lanes and the -1 lanes; the V
/// vectors of one word are independent and interleave.
template <std::size_t V>
void lanes_of(const MyersMasks& masks, const LanePass& pass) {
  static_assert(V * kLaneWords <= kPassLanes);
  const std::size_t blocks = masks.blocks;
  const auto* eq = reinterpret_cast<const long long*>(masks.eq.data());
  std::vector<std::uint64_t> state(2 * blocks * kPassLanes, 0);
  std::uint64_t* pv = state.data();
  std::uint64_t* mv = state.data() + blocks * kPassLanes;
  std::fill(pv, pv + blocks * kPassLanes, ~0ULL);

  const __m256i vones = _mm256_set1_epi64x(-1);
  const __m256i vone = _mm256_set1_epi64x(1);
  const __m256i vlast = _mm256_set1_epi64x((masks.m - 1) & 63);
  __m256i score[V];
  for (std::size_t v = 0; v < V; ++v) score[v] = _mm256_set1_epi64x(masks.m);
  std::size_t next_keep = 0;

  for (std::size_t j = 0; j < pass.columns; ++j) {
    __m256i rows[V];
    __m256i hp[V];  // top boundary row: d[0][j] = j, so +1
    __m256i hm[V];
    for (std::size_t v = 0; v < V; ++v) {
      rows[v] = loadu(pass.rows + j * kPassLanes + v * kLaneWords);
      hp[v] = vone;
      hm[v] = _mm256_setzero_si256();
    }
    for (std::size_t k = 0; k < blocks; ++k) {
      const bool last = k + 1 == blocks;
      for (std::size_t v = 0; v < V; ++v) {
        const std::size_t w = k * kPassLanes + v * kLaneWords;
        const __m256i e = _mm256_mask_i64gather_epi64(_mm256_setzero_si256(), eq + k,
                                                      rows[v], vones, 8);
        const __m256i vpv = loadu(pv + w);
        const __m256i vmv = loadu(mv + w);
        const __m256i xv = _mm256_or_si256(e, vmv);
        const __m256i eh = _mm256_or_si256(e, hm[v]);  // hin < 0
        const __m256i t = _mm256_and_si256(eh, vpv);
        const __m256i xh =
            _mm256_or_si256(_mm256_xor_si256(_mm256_add_epi64(t, vpv), vpv), eh);
        const __m256i ph = _mm256_or_si256(
            vmv, _mm256_xor_si256(_mm256_or_si256(xh, vpv), vones));
        const __m256i mh = _mm256_and_si256(vpv, xh);
        const __m256i hp_out =
            last ? _mm256_and_si256(_mm256_srlv_epi64(ph, vlast), vone)
                 : _mm256_srli_epi64(ph, 63);
        const __m256i hm_out =
            last ? _mm256_and_si256(_mm256_srlv_epi64(mh, vlast), vone)
                 : _mm256_srli_epi64(mh, 63);
        const __m256i ph2 = _mm256_or_si256(_mm256_slli_epi64(ph, 1), hp[v]);
        const __m256i mh2 = _mm256_or_si256(_mm256_slli_epi64(mh, 1), hm[v]);
        storeu(pv + w,
               _mm256_or_si256(mh2, _mm256_xor_si256(_mm256_or_si256(xv, ph2), vones)));
        storeu(mv + w, _mm256_and_si256(ph2, xv));
        hp[v] = hp_out;
        hm[v] = hm_out;
      }
    }
    for (std::size_t v = 0; v < V; ++v) {
      score[v] = _mm256_sub_epi64(_mm256_add_epi64(score[v], hp[v]), hm[v]);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(pass.scores + (j + 1) * kPassLanes +
                                                     v * kLaneWords),
                          score[v]);
    }
    if (next_keep < pass.keep_count &&
        pass.keep[next_keep] == static_cast<std::int64_t>(j + 1)) {
      std::copy(state.begin(), state.end(),
                pass.kept + next_keep * 2 * blocks * kPassLanes);
      ++next_keep;
    }
  }
}

void lanes(const MyersMasks& masks, const LanePass& pass) {
  if (pass.lanes > kLaneWords) {
    lanes_of<2>(masks, pass);
  } else {
    lanes_of<1>(masks, pass);
  }
}

}  // namespace

MyersRunFn myers_run_avx2() { return &run; }
MyersLanesFn myers_lanes_avx2() { return &lanes; }

}  // namespace mpcsd::seq::detail

#else  // toolchain cannot target AVX2: register no kernel

namespace mpcsd::seq::detail {
MyersRunFn myers_run_avx2() { return nullptr; }
MyersLanesFn myers_lanes_avx2() { return nullptr; }
}  // namespace mpcsd::seq::detail

#endif
