// AVX-512 multi-word Myers kernel: 8 pattern words per 512-bit lane group.
//
// Same lane-parallel scheme as the AVX2 TU (see myers_kernel.hpp), with
// the scalar/vector boundary crossed through mask registers instead of
// movemask/LUT round-trips: compares yield per-word bits directly, and
// `_mm512_maskz_set1_epi64` re-injects resolved carry and shift bits.
// Compiled with -mavx512f/bw/dq/vl per-TU; selected only after the runtime
// CPU probe reports all four extensions.
//
// The TU also holds the prefix pass's lane kernel (eight texts per vector;
// see myers_kernel.hpp).
#include "seq/myers_kernel.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__) && defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace mpcsd::seq::detail {

namespace {

/// Words per 512-bit chunk and chunks per carry stripe (64 words).
constexpr std::size_t kLaneWords = 8;
constexpr std::size_t kStripeChunks = 8;

inline __m512i loadu(const std::uint64_t* p) { return _mm512_loadu_si512(p); }

std::optional<std::int64_t> run(const MyersMasks& masks, SymView b,
                                std::int64_t bound, std::uint64_t* work) {
  const std::int64_t m = masks.m;
  const auto n = static_cast<std::int64_t>(b.size());
  const std::size_t blocks = masks.blocks;
  const std::size_t chunks = (blocks + kLaneWords - 1) / kLaneWords;
  const std::size_t state_words = chunks * kLaneWords;  // == masks.stride

  std::vector<std::uint64_t> state(2 * state_words, 0);
  std::uint64_t* pv = state.data();
  std::uint64_t* mv = state.data() + state_words;
  std::fill(pv, pv + state_words, ~0ULL);

  const std::size_t last_chunk = chunks - 1;
  alignas(64) std::uint64_t last_probe[kLaneWords] = {0};
  last_probe[(blocks - 1) % kLaneWords] = 1ULL << ((m - 1) & 63);
  const __m512i vlast = _mm512_load_si512(last_probe);
  const __m512i vones = _mm512_set1_epi64(-1);
  const __m512i vone = _mm512_set1_epi64(1);
  const __m512i vtop = _mm512_set1_epi64(INT64_MIN);  // bit 63 probe

  std::int64_t score = m;
  std::uint64_t words = 0;

  for (std::int64_t j = 0; j < n; ++j) {
    const std::uint64_t* eq_row = masks.row(b[static_cast<std::size_t>(j)]);
    std::uint64_t add_carry = 0;
    unsigned ph_carry = 1;  // top boundary row: d[0][j] = j, so +1
    unsigned mh_carry = 0;
    int hout = 0;

    for (std::size_t chunk0 = 0; chunk0 < chunks; chunk0 += kStripeChunks) {
      const std::size_t chunk_end = std::min(chunks, chunk0 + kStripeChunks);
      std::uint64_t g = 0;
      std::uint64_t p = 0;
      // Sums are recomputed in pass 2 from the same inputs — cheaper than
      // a store/reload round trip; only the g/p bits leave this pass.
      for (std::size_t c = chunk0; c < chunk_end; ++c) {
        const std::size_t w = c * kLaneWords;
        const std::size_t sh = (c - chunk0) * kLaneWords;
        const __m512i eq = loadu(eq_row + w);
        const __m512i vpv = loadu(pv + w);
        const __m512i t = _mm512_and_si512(eq, vpv);
        const __m512i s = _mm512_add_epi64(t, vpv);
        const __mmask8 ovf = _mm512_cmplt_epu64_mask(s, t);
        const __mmask8 prop = _mm512_cmpeq_epi64_mask(s, vones);
        g |= static_cast<std::uint64_t>(ovf) << sh;
        p |= static_cast<std::uint64_t>(prop) << sh;
      }
      const std::uint64_t carries = (((g << 1) | add_carry) + p) ^ p;
      const std::size_t top = (chunk_end - chunk0) * kLaneWords - 1;
      add_carry = ((g >> top) & 1) |
                  (((p >> top) & 1) & ((carries >> top) & 1));

      for (std::size_t c = chunk0; c < chunk_end; ++c) {
        const std::size_t w = c * kLaneWords;
        const std::size_t sh = (c - chunk0) * kLaneWords;
        const __m512i eq = loadu(eq_row + w);
        const __m512i vpv = loadu(pv + w);
        const __m512i vmv = loadu(mv + w);
        const __m512i xv = _mm512_or_si512(eq, vmv);
        const __m512i t = _mm512_and_si512(eq, vpv);
        const __m512i s = _mm512_add_epi64(
            _mm512_add_epi64(t, vpv),
            _mm512_maskz_mov_epi64(
                static_cast<__mmask8>(carries >> sh), vone));
        const __m512i xh = _mm512_or_si512(_mm512_xor_si512(s, vpv), eq);
        const __m512i ph = _mm512_or_si512(
            vmv, _mm512_xor_si512(_mm512_or_si512(xh, vpv), vones));
        const __m512i mh = _mm512_and_si512(vpv, xh);
        if (c == last_chunk) {
          if (_mm512_test_epi64_mask(ph, vlast) != 0) {
            hout = 1;
          } else if (_mm512_test_epi64_mask(mh, vlast) != 0) {
            hout = -1;
          }
        }
        const unsigned ph_tops = _mm512_test_epi64_mask(ph, vtop);
        const unsigned mh_tops = _mm512_test_epi64_mask(mh, vtop);
        // v + v == v << 1; GCC12's unmasked _mm512_slli_epi64 trips a
        // -Wmaybe-uninitialized false positive via _mm512_undefined_epi32.
        const __m512i ph2 = _mm512_or_si512(
            _mm512_add_epi64(ph, ph),
            _mm512_maskz_mov_epi64(
                static_cast<__mmask8>((ph_tops << 1) | ph_carry), vone));
        const __m512i mh2 = _mm512_or_si512(
            _mm512_add_epi64(mh, mh),
            _mm512_maskz_mov_epi64(
                static_cast<__mmask8>((mh_tops << 1) | mh_carry), vone));
        ph_carry = ph_tops >> 7;
        mh_carry = mh_tops >> 7;
        _mm512_storeu_si512(
            pv + w, _mm512_or_si512(
                        mh2, _mm512_xor_si512(_mm512_or_si512(xv, ph2), vones)));
        _mm512_storeu_si512(mv + w, _mm512_and_si512(ph2, xv));
      }
    }

    score += hout;
    words += blocks;
    if (bound >= 0 && score - (n - j - 1) > bound) {
      if (work != nullptr) *work += words;
      return std::nullopt;
    }
  }
  if (work != nullptr) *work += words;
  return score;
}

/// The prefix pass's lane kernel: all kPassLanes texts in one vector, one
/// vector per pattern word.  The horizontal delta threaded word to word is
/// a pair of lane masks (+1 lanes, -1 lanes), as is each word's outgoing
/// delta, read at bit 63 or, in the last word, at the pattern's last row.
/// Inactive lanes read the zero row and are computed like the others.
void lanes(const MyersMasks& masks, const LanePass& pass) {
  static_assert(kPassLanes == kLaneWords);
  const std::size_t blocks = masks.blocks;
  const std::uint64_t* eq = masks.eq.data();
  std::vector<std::uint64_t> state(2 * blocks * kLaneWords, 0);
  std::uint64_t* pv = state.data();
  std::uint64_t* mv = state.data() + blocks * kLaneWords;
  std::fill(pv, pv + blocks * kLaneWords, ~0ULL);

  const __m512i vones = _mm512_set1_epi64(-1);
  const __m512i vone = _mm512_set1_epi64(1);
  const __m512i vtop = _mm512_set1_epi64(INT64_MIN);  // bit 63 probe
  const __m512i vlast = _mm512_set1_epi64(
      static_cast<std::int64_t>(1ULL << ((masks.m - 1) & 63)));
  __m512i score = _mm512_set1_epi64(masks.m);
  std::size_t next_keep = 0;

  for (std::size_t j = 0; j < pass.columns; ++j) {
    const __m512i rows = loadu(pass.rows + j * kLaneWords);
    __mmask8 hp = 0xFF;  // top boundary row: d[0][j] = j, so +1
    __mmask8 hm = 0;
    for (std::size_t k = 0; k < blocks; ++k) {
      const __m512i e = _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), 0xFF, rows,
                                                    eq + k, 8);
      const __m512i vpv = loadu(pv + k * kLaneWords);
      const __m512i vmv = loadu(mv + k * kLaneWords);
      const __m512i xv = _mm512_or_si512(e, vmv);
      const __m512i eh = _mm512_mask_or_epi64(e, hm, e, vone);  // hin < 0
      const __m512i t = _mm512_and_si512(eh, vpv);
      const __m512i xh =
          _mm512_or_si512(_mm512_xor_si512(_mm512_add_epi64(t, vpv), vpv), eh);
      const __m512i ph = _mm512_or_si512(
          vmv, _mm512_xor_si512(_mm512_or_si512(xh, vpv), vones));
      const __m512i mh = _mm512_and_si512(vpv, xh);
      const __m512i probe = k + 1 == blocks ? vlast : vtop;
      const __mmask8 hp_out = _mm512_test_epi64_mask(ph, probe);
      const __mmask8 hm_out = _mm512_test_epi64_mask(mh, probe);
      // v + v == v << 1 (see `run`).
      const __m512i ph2 = _mm512_mask_or_epi64(_mm512_add_epi64(ph, ph), hp,
                                               _mm512_add_epi64(ph, ph), vone);
      const __m512i mh2 = _mm512_mask_or_epi64(_mm512_add_epi64(mh, mh), hm,
                                               _mm512_add_epi64(mh, mh), vone);
      _mm512_storeu_si512(
          pv + k * kLaneWords,
          _mm512_or_si512(mh2, _mm512_xor_si512(_mm512_or_si512(xv, ph2), vones)));
      _mm512_storeu_si512(mv + k * kLaneWords, _mm512_and_si512(ph2, xv));
      hp = hp_out;
      hm = hm_out;
    }
    score = _mm512_mask_add_epi64(score, hp, score, vone);
    score = _mm512_mask_sub_epi64(score, hm, score, vone);
    _mm512_storeu_si512(pass.scores + (j + 1) * kLaneWords, score);
    if (next_keep < pass.keep_count &&
        pass.keep[next_keep] == static_cast<std::int64_t>(j + 1)) {
      std::copy(state.begin(), state.end(),
                pass.kept + next_keep * 2 * blocks * kLaneWords);
      ++next_keep;
    }
  }
}

}  // namespace

MyersRunFn myers_run_avx512() { return &run; }
MyersLanesFn myers_lanes_avx512() { return &lanes; }

}  // namespace mpcsd::seq::detail

#else  // toolchain cannot target AVX-512: register no kernel

namespace mpcsd::seq::detail {
MyersRunFn myers_run_avx512() { return nullptr; }
MyersLanesFn myers_lanes_avx512() { return nullptr; }
}  // namespace mpcsd::seq::detail

#endif
