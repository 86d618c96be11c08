// Register-tiled inner kernels (Listing 2 / Eq. 6).
//
// The thread inner kernel of the paper is an mt x nt outer product: At is
// broadcast, Bt is a contiguous vector, Ct lives in registers for the
// whole ws loop. On CPU we express the same structure with explicit
// SIMD: one B-row vector load per step, one A broadcast per output row
// (compilers left alone tend to vectorize this nest along m instead,
// which doubles load traffic). The A operand is addressed generically as
// a_base[i*stride_i + col*stride_col] so the same kernel serves
//   - the non-packing strategy (A read in place: stride_i = lda,
//     stride_col = 1), and
//   - the packing strategy (gathered columns stored column-major:
//     stride_i = 1, stride_col = panel height).
// The column index `col` comes from an index provider — the only
// difference between V1/V2/V3 is how that index is produced.
//
// Every loop over the accumulator rows carries `#pragma GCC unroll 8`
// (8 = kMicroM, the largest MT): fully unrolled, the accumulator arrays
// live in registers at -O2 as at -O3; left rolled, -O2 keeps them on the
// stack and the kernels run at half speed or less.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/epilogue.hpp"
#include "core/pack.hpp"
#include "util/matrix.hpp"

#if defined(__SSE__) || defined(__AVX__)
#include <immintrin.h>
#define NMSPMM_HAS_PREFETCH 1
#endif

#define NMSPMM_RESTRICT __restrict__

namespace nmspmm::detail {

/// Addressing descriptor for the A operand of the inner kernel.
struct APanel {
  const float* NMSPMM_RESTRICT base = nullptr;
  index_t stride_i = 0;    ///< distance between consecutive output rows
  index_t stride_col = 0;  ///< distance between consecutive k-columns

  [[nodiscard]] APanel shifted_rows(index_t i0) const {
    return {base + i0 * stride_i, stride_i, stride_col};
  }
};

/// Index provider: resolves the A column for step p by computing
/// (p/N)*M + D[p][g] on the fly (the V1 kernel; Listing 2's
/// LoadFragByIdx reads Ds inside the loop). Stateful: must be consumed
/// with strictly increasing p starting at 0.
struct IdxFromD {
  const std::uint8_t* NMSPMM_RESTRICT d_col;  ///< &D[u0][g]
  index_t stride;                             ///< D leading dimension
  int n;                                      ///< N of N:M
  int m;                                      ///< M of N:M
  index_t window_base = 0;
  int in_window = 0;

  index_t operator()(index_t p) {
    const index_t idx = window_base + d_col[p * stride];
    if (++in_window == n) {
      in_window = 0;
      window_base += m;
    }
    return idx;
  }
};

/// Index provider reading the offline-reordered index matrix (V2: after
/// reorderingIdx the entry already names the packed column directly).
struct IdxFromRemap {
  const std::uint16_t* NMSPMM_RESTRICT remap_col;  ///< &remap[0][g]
  index_t stride;

  index_t operator()(index_t p) const { return remap_col[p * stride]; }
};

/// Index provider reading a per-group buffer the caller hoisted before
/// the loop (V3: "pre-fetch the indices required by each thread from
/// shared memory into registers", Listing 4 line 12/23).
struct IdxFromBuffer {
  const std::uint16_t* NMSPMM_RESTRICT buf;

  index_t operator()(index_t p) const { return buf[p]; }
};

/// MT x NT inner kernel: C[0..MT)[0..NT) += sum_p A[.., idx(p)] (x)
/// Bpack[p][..]. @p Prefetch additionally prefetches the B row a few
/// steps ahead (part of the V3 pipeline). With @p Accumulate false the
/// tile is stored instead of added (beta = 0), which lets the blocked
/// driver fuse the C zero-fill into the first k-chunk's stores and drop
/// one full write+read pass over C per call. @p Epi (EpilogueApply on
/// the final k-chunk, pre-shifted to this tile's C origin) finalizes
/// the tile right after its stores, while it is still L1-hot —
/// bias/activation/elementwise-mul never cost a separate pass over C.
template <int MT, int NT, bool Prefetch, bool Accumulate = true,
          class Epi = EpilogueNone, class IdxFn>
inline void micro_kernel(index_t ws, APanel a,
                         const float* NMSPMM_RESTRICT bpack, index_t ldb,
                         IdxFn idx_of, float* NMSPMM_RESTRICT c,
                         index_t ldc, const Epi& epi = {}) {
  // Fetch the epilogue's strided second-operand slice under the FMA
  // loop's compute shadow (see EpilogueApply::prefetch).
  if constexpr (Epi::kActive) epi.prefetch(MT, NT);
#if defined(__AVX512F__)
  if constexpr (NT == 16) {
    __m512 acc[MT];
#pragma GCC unroll 8
    for (int i = 0; i < MT; ++i) acc[i] = _mm512_setzero_ps();
    for (index_t p = 0; p < ws; ++p) {
      const index_t col = idx_of(p) * a.stride_col;
      const float* NMSPMM_RESTRICT ap = a.base + col;
      if constexpr (Prefetch) {
        if (p + 4 < ws)
          _mm_prefetch(reinterpret_cast<const char*>(bpack + (p + 4) * ldb),
                       _MM_HINT_T0);
      }
      const __m512 b = _mm512_loadu_ps(bpack + p * ldb);
#pragma GCC unroll 8
      for (int i = 0; i < MT; ++i)
        acc[i] = _mm512_fmadd_ps(_mm512_set1_ps(ap[i * a.stride_i]), b,
                                 acc[i]);
    }
#pragma GCC unroll 8
    for (int i = 0; i < MT; ++i) {
      float* crow = c + i * ldc;
      if constexpr (Accumulate) {
        _mm512_storeu_ps(crow, _mm512_add_ps(_mm512_loadu_ps(crow), acc[i]));
      } else {
        _mm512_storeu_ps(crow, acc[i]);
      }
    }
    if constexpr (Epi::kActive) epi.apply_tile(MT, c, ldc, NT);
    return;
  }
#elif defined(__AVX2__) && defined(__FMA__)
  if constexpr (NT == 16 && MT % 2 == 0) {
    // Two row-halves per pass keep the accumulator count within the 16
    // ymm registers AVX2 provides.
    for (int half = 0; half < MT; half += MT / 2) {
      constexpr int HM = MT / 2;
      __m256 acc[HM][2];
#pragma GCC unroll 8
      for (int i = 0; i < HM; ++i)
        acc[i][0] = acc[i][1] = _mm256_setzero_ps();
      IdxFn idx = idx_of;  // restart the (possibly stateful) stream
      for (index_t p = 0; p < ws; ++p) {
        const float* NMSPMM_RESTRICT ap =
            a.base + idx(p) * a.stride_col + half * a.stride_i;
        if constexpr (Prefetch) {
          if (p + 4 < ws)
            _mm_prefetch(reinterpret_cast<const char*>(bpack + (p + 4) * ldb),
                         _MM_HINT_T0);
        }
        const __m256 b0 = _mm256_loadu_ps(bpack + p * ldb);
        const __m256 b1 = _mm256_loadu_ps(bpack + p * ldb + 8);
#pragma GCC unroll 8
        for (int i = 0; i < HM; ++i) {
          const __m256 av = _mm256_set1_ps(ap[i * a.stride_i]);
          acc[i][0] = _mm256_fmadd_ps(av, b0, acc[i][0]);
          acc[i][1] = _mm256_fmadd_ps(av, b1, acc[i][1]);
        }
      }
#pragma GCC unroll 8
      for (int i = 0; i < HM; ++i) {
        float* crow = c + (half + i) * ldc;
        if constexpr (Accumulate) {
          _mm256_storeu_ps(crow,
                           _mm256_add_ps(_mm256_loadu_ps(crow), acc[i][0]));
          _mm256_storeu_ps(
              crow + 8, _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc[i][1]));
        } else {
          _mm256_storeu_ps(crow, acc[i][0]);
          _mm256_storeu_ps(crow + 8, acc[i][1]);
        }
      }
    }
    if constexpr (Epi::kActive) epi.apply_tile(MT, c, ldc, NT);
    return;
  }
#endif
#if defined(__AVX2__) && defined(__FMA__)
  // Narrow-vector paths for small pruning-unit lengths (L = 8 / L = 4):
  // without them the scalar fallback dominates the small-L sweep.
  if constexpr (NT == 8) {
    __m256 acc[MT];
#pragma GCC unroll 8
    for (int i = 0; i < MT; ++i) acc[i] = _mm256_setzero_ps();
    for (index_t p = 0; p < ws; ++p) {
      const float* NMSPMM_RESTRICT ap = a.base + idx_of(p) * a.stride_col;
      const __m256 b = _mm256_loadu_ps(bpack + p * ldb);
#pragma GCC unroll 8
      for (int i = 0; i < MT; ++i)
        acc[i] = _mm256_fmadd_ps(_mm256_set1_ps(ap[i * a.stride_i]), b,
                                 acc[i]);
    }
#pragma GCC unroll 8
    for (int i = 0; i < MT; ++i) {
      float* crow = c + i * ldc;
      if constexpr (Accumulate) {
        _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc[i]));
      } else {
        _mm256_storeu_ps(crow, acc[i]);
      }
    }
    if constexpr (Epi::kActive) epi.apply_tile(MT, c, ldc, NT);
    return;
  }
  if constexpr (NT == 4) {
    __m128 acc[MT];
#pragma GCC unroll 8
    for (int i = 0; i < MT; ++i) acc[i] = _mm_setzero_ps();
    for (index_t p = 0; p < ws; ++p) {
      const float* NMSPMM_RESTRICT ap = a.base + idx_of(p) * a.stride_col;
      const __m128 b = _mm_loadu_ps(bpack + p * ldb);
#pragma GCC unroll 8
      for (int i = 0; i < MT; ++i)
        acc[i] = _mm_fmadd_ps(_mm_set1_ps(ap[i * a.stride_i]), b, acc[i]);
    }
#pragma GCC unroll 8
    for (int i = 0; i < MT; ++i) {
      float* crow = c + i * ldc;
      if constexpr (Accumulate) {
        _mm_storeu_ps(crow, _mm_add_ps(_mm_loadu_ps(crow), acc[i]));
      } else {
        _mm_storeu_ps(crow, acc[i]);
      }
    }
    if constexpr (Epi::kActive) epi.apply_tile(MT, c, ldc, NT);
    return;
  }
#endif
  // Portable fallback (also the non-16/8/4-wide path).
  float acc[MT][NT] = {};
  for (index_t p = 0; p < ws; ++p) {
    const float* NMSPMM_RESTRICT ap = a.base + idx_of(p) * a.stride_col;
    const float* NMSPMM_RESTRICT b = bpack + p * ldb;
    for (int i = 0; i < MT; ++i) {
      const float av = ap[i * a.stride_i];
      for (int j = 0; j < NT; ++j) acc[i][j] += av * b[j];
    }
  }
  for (int i = 0; i < MT; ++i) {
    for (int j = 0; j < NT; ++j) {
      if constexpr (Accumulate) {
        c[i * ldc + j] += acc[i][j];
      } else {
        c[i * ldc + j] = acc[i][j];
      }
    }
  }
  if constexpr (Epi::kActive) epi.apply_tile(MT, c, ldc, NT);
}

/// Tail kernel with runtime tile bounds (mt <= 8, nt <= 16); used for the
/// ragged edges of C so the fast path above never branches.
template <bool Accumulate = true, class Epi = EpilogueNone, class IdxFn>
inline void micro_kernel_tail(index_t ws, APanel a,
                              const float* NMSPMM_RESTRICT bpack,
                              index_t ldb, IdxFn idx_of, int mt, int nt,
                              float* NMSPMM_RESTRICT c, index_t ldc,
                              const Epi& epi = {}) {
  if constexpr (Epi::kActive) epi.prefetch(mt, nt);
  float acc[8][16] = {};
  for (index_t p = 0; p < ws; ++p) {
    const float* ap = a.base + idx_of(p) * a.stride_col;
    const float* b = bpack + p * ldb;
    for (int i = 0; i < mt; ++i) {
      const float av = ap[i * a.stride_i];
      for (int j = 0; j < nt; ++j) acc[i][j] += av * b[j];
    }
  }
  for (int i = 0; i < mt; ++i) {
    for (int j = 0; j < nt; ++j) {
      if constexpr (Accumulate) {
        c[i * ldc + j] += acc[i][j];
      } else {
        c[i * ldc + j] = acc[i][j];
      }
    }
  }
  if constexpr (Epi::kActive) epi.apply_tile(mt, c, ldc, nt);
}

/// Fast-path tile sizes for the CPU micro kernel: 8 x 16 keeps the
/// accumulator in eight 16-float vector registers (AVX-512) or sixteen
/// 8-float registers (AVX2) — the CPU analog of the paper's 8x8 / 8x16
/// thread tiles.
inline constexpr int kMicroM = 8;
inline constexpr int kMicroN = 16;

#if defined(__AVX512F__)
/// The row walk below is compiled in (AVX-512 builds only: its 2 x 8
/// zmm accumulators do not fit AVX2's 16 ymm registers).
inline constexpr bool kHasRowWalk = true;

/// How far ahead of the current tile row the row walk prefetches the
/// stored B stream: 32 rows at ns = 32, which runs past the end of the
/// tile into the next one (tiles are stored in visiting order). Measured
/// on a 4-vCPU AVX-512 Xeon:
///   - decode, the five projections at m = 8: leads of 0.5 / 2 / 4 / 8
///     KB gave x1.21 / x1.55 / x1.61 / x1.55 over the two-pass path with
///     its 4-row lead;
///   - prefill, m = 256, where each strip is walked once per 8-row strip
///     and only the first walk streams it: issuing the prefetch on the
///     first walk only gave prefill_spmm tokens/s ratios 0.85 / 1.01 /
///     1.01 / 0.95 over four alternating 8 s pairs, no gain, so every
///     walk keeps the same lead.
inline constexpr index_t kRowWalkLeadBytes = 4096;

/// How far ahead of the current step the row walk prefetches the staged
/// A strip. At 4:32 sparsity each step advances about 256 B through the
/// strip (8 columns of 8 rows), so the stream crosses a 4 KB page every
/// ~16 steps, where the hardware prefetcher stops; without this prefetch
/// down's walk ran x1.15 slower. Leads of 1-4 KB measured alike, 3 KB
/// brought down back to x1.00 (4-vCPU AVX-512 Xeon).
inline constexpr index_t kRowWalkALeadBytes = 3072;

static_assert(kAStripRows == kMicroM,
              "a staged A strip is one row-walk register tile high");

/// Row walk over one 32-column strip of a resident tile for one staged
/// strip of MT <= kMicroM rows of A (V3's non-packed path): each step
/// reads one stored strip row — both 16-wide column groups, two
/// index-stream entries — into 2 x MT accumulators, so the strip is read
/// front to back once per row strip instead of once per column group and
/// row strip. The driver walks an m-block's 8-row strips back to back
/// over the same L1-hot strip; at m <= 8 (decode) there is one.
///
/// @p at is the row strip staged by stage_a_strips, k-column c at
/// at[c * a_strip_width(MT)], and @p k0 the chunk's first k-column (the
/// index streams are chunk-local). Each step turns an index entry into
/// one pointer; the MT broadcasts read fixed offsets 0, 4, ... from it.
///
/// Columns at or past @p nt (1..32) are computed but never stored; a
/// strip of at most 16 columns passes @p idx0 twice and reads the second
/// vector from the tile's zero column padding (the strip lies inside one
/// ns-wide tile row, ns a multiple of 32). The B prefetch runs
/// kRowWalkLeadBytes ahead of the strip row, clamped below @p stream_end
/// (one past the packed buffer). Every element is the same p-ascending
/// FMA chain micro_kernel computes, so the result is bit-identical to
/// V1's.
template <int MT, bool Accumulate, class Epi>
inline void row_walk_strip(index_t wb, const float* at, index_t k0,
                           const float* NMSPMM_RESTRICT b, index_t ldb,
                           const std::uint16_t* NMSPMM_RESTRICT idx0,
                           const std::uint16_t* NMSPMM_RESTRICT idx1, int nt,
                           const float* stream_end, float* NMSPMM_RESTRICT c,
                           index_t ldc, const Epi& epi) {
  if constexpr (Epi::kActive) epi.prefetch(MT, nt);
  constexpr index_t kW = a_strip_width(MT);
  constexpr index_t kLead = kRowWalkLeadBytes / sizeof(float);
  // Last strip-row start whose two lines still lie inside the buffer.
  const index_t pf_last = (stream_end - b) - 32;
  const float* const a = at + k0 * kW;
  __m512 acc0[MT], acc1[MT];
#pragma GCC unroll 8
  for (int i = 0; i < MT; ++i) acc0[i] = acc1[i] = _mm512_setzero_ps();
  for (index_t p = 0; p < wb; ++p) {
    const float* NMSPMM_RESTRICT brow = b + p * ldb;
    const char* pf = reinterpret_cast<const char*>(
        b + std::min(p * ldb + kLead, pf_last));
    _mm_prefetch(pf, _MM_HINT_T0);
    _mm_prefetch(pf + 64, _MM_HINT_T0);
    const float* a0 = a + idx0[p] * kW;
    const float* a1 = a + idx1[p] * kW;
    // Keep both step pointers in registers: otherwise GCC folds
    // a + idx * kW back into every broadcast as an indexed operand.
    asm("" : "+r"(a0), "+r"(a1));
    _mm_prefetch(reinterpret_cast<const char*>(a0) + kRowWalkALeadBytes,
                 _MM_HINT_T0);
    const __m512 b0 = _mm512_loadu_ps(brow);
    const __m512 b1 = _mm512_loadu_ps(brow + 16);
#pragma GCC unroll 8
    for (int i = 0; i < MT; ++i) {
      acc0[i] = _mm512_fmadd_ps(_mm512_set1_ps(a0[i]), b0, acc0[i]);
      acc1[i] = _mm512_fmadd_ps(_mm512_set1_ps(a1[i]), b1, acc1[i]);
    }
  }
  const auto lanes = [](int w) -> __mmask16 {
    return w >= 16 ? __mmask16{0xFFFF}
                   : static_cast<__mmask16>((1u << std::max(w, 0)) - 1u);
  };
  const __mmask16 k0m = lanes(nt);
  const __mmask16 k1m = lanes(nt - 16);
#pragma GCC unroll 8
  for (int i = 0; i < MT; ++i) {
    float* crow = c + i * ldc;
    if constexpr (Accumulate) {
      acc0[i] = _mm512_add_ps(_mm512_maskz_loadu_ps(k0m, crow), acc0[i]);
      acc1[i] = _mm512_add_ps(_mm512_maskz_loadu_ps(k1m, crow + 16), acc1[i]);
    }
    _mm512_mask_storeu_ps(crow, k0m, acc0[i]);
    _mm512_mask_storeu_ps(crow + 16, k1m, acc1[i]);
  }
  if constexpr (Epi::kActive) epi.apply_tile(MT, c, ldc, nt);
}

/// row_walk_strip for a runtime row count @p mt in [1, kMicroM].
template <bool Accumulate, class Epi, class... Args>
inline void row_walk(int mt, Args&&... args) {
  [&]<int... I>(std::integer_sequence<int, I...>) {
    ((mt == I + 1
          ? (row_walk_strip<I + 1, Accumulate, Epi>(args...), true)
          : false) ||
     ...);
  }(std::make_integer_sequence<int, kMicroM>{});
}
#else
inline constexpr bool kHasRowWalk = false;

/// Declared only, for the driver's branch under `if constexpr
/// (kHasRowWalk)`: without AVX-512 it is discarded and never instantiated.
template <bool Accumulate, class Epi, class... Args>
void row_walk(int mt, Args&&... args);
#endif

}  // namespace nmspmm::detail
