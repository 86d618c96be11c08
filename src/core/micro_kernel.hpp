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
// Both kernels, micro_kernel and the row walk, are written once, over a
// per-ISA vector description (core/vec.hpp): a register type, its width
// in floats, the number of such registers, and the operations the
// kernels use (load, masked load/store, broadcast, FMA, add, zero). Each
// tile runs on VecFor<NT> — Vec512, Vec256 or the generic four-float
// VecBase — and the register tile follows from the description's
// register count (rows_per_pass, the paper's Eq. 6 on a CPU register
// file), so every ISA runs the same loops and no option sizes the tile.
//
// Every loop over the accumulators carries `#pragma GCC unroll 16` (the
// most a pass holds: AVX-512's 2 x 8): fully unrolled, the accumulator
// arrays live in registers at -O2 as at -O3; left rolled, -O2 keeps them
// on the stack and the kernels run at half speed or less.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "core/epilogue.hpp"
#include "core/pack.hpp"
#include "core/vec.hpp"
#include "util/matrix.hpp"

#define NMSPMM_RESTRICT __restrict__

namespace nmspmm::detail {

/// Fast-path tile sizes for the CPU micro kernel: 8 x 16, the CPU analog
/// of the paper's 8x8 / 8x16 thread tiles; a 16-wide column group is one
/// L = 16 pruning unit.
inline constexpr int kMicroM = 8;
inline constexpr int kMicroN = 16;

/// Addressing descriptor for the A operand of the inner kernel.
struct APanel {
  const float* NMSPMM_RESTRICT base = nullptr;
  index_t stride_i = 0;    ///< distance between consecutive output rows
  index_t stride_col = 0;  ///< distance between consecutive k-columns

  [[nodiscard]] APanel shifted_rows(index_t i0) const {
    return {base + i0 * stride_i, stride_i, stride_col};
  }
};

/// Index provider reading a per-group stream (V3: "pre-fetch the indices
/// required by each thread from shared memory into registers", Listing 4
/// line 12/23). Every driver reads the streams PackedWeights flattened
/// at pack time through it.
struct IdxFromBuffer {
  const std::uint16_t* NMSPMM_RESTRICT buf;

  index_t operator()(index_t p) const { return buf[p]; }
};

/// One register-resident pass of micro_kernel: MT rows x NT columns, NT /
/// Vec::kWidth vectors per row, accumulator e holding row e / kV.
template <class Vec, int MT, int NT, bool Prefetch, bool Accumulate,
          class IdxFn>
inline void micro_pass(index_t ws, APanel a,
                       const float* NMSPMM_RESTRICT bpack, index_t ldb,
                       IdxFn idx_of, float* NMSPMM_RESTRICT c, index_t ldc) {
  constexpr int kV = NT / Vec::kWidth;
  static_assert(kV * Vec::kWidth == NT);
  typename Vec::V acc[MT * kV];
#pragma GCC unroll 16
  for (int e = 0; e < MT * kV; ++e) acc[e] = Vec::zero();
  for (index_t p = 0; p < ws; ++p) {
    const float* NMSPMM_RESTRICT ap = a.base + idx_of(p) * a.stride_col;
    if (Prefetch && p + 4 < ws) __builtin_prefetch(bpack + (p + 4) * ldb);
    typename Vec::V b[kV];
#pragma GCC unroll 4
    for (int v = 0; v < kV; ++v) {
      b[v] = Vec::load(bpack + p * ldb + v * Vec::kWidth);
    }
#pragma GCC unroll 16
    for (int e = 0; e < MT * kV; ++e) {
      acc[e] = Vec::fma(Vec::set1(ap[e / kV * a.stride_i]), b[e % kV], acc[e]);
    }
  }
#pragma GCC unroll 16
  for (int e = 0; e < MT * kV; ++e) {
    float* cv = c + e / kV * ldc + e % kV * Vec::kWidth;
    if constexpr (Accumulate) {
      Vec::store(cv, Vec::add(Vec::load(cv), acc[e]));
    } else {
      Vec::store(cv, acc[e]);
    }
  }
}

/// MT x NT inner kernel: C[0..MT)[0..NT) += sum_p A[.., idx(p)] (x)
/// Bpack[p][..], in passes of rows_per_pass rows over the widest
/// description that divides NT. @p Prefetch additionally prefetches the
/// B row a few steps ahead (part of the V3 pipeline). With @p Accumulate
/// false the tile is stored instead of added (beta = 0), which lets the
/// blocked driver fuse the C zero-fill into the first k-chunk's stores
/// and drop one full write+read pass over C per call. @p Epi
/// (EpilogueApply on the final k-chunk, pre-shifted to this tile's C
/// origin) finalizes the tile right after its stores, while it is still
/// L1-hot — bias/activation/elementwise-mul never cost a separate pass
/// over C.
template <int MT, int NT, bool Prefetch, bool Accumulate = true,
          class Epi = EpilogueNone, class IdxFn>
inline void micro_kernel(index_t ws, APanel a,
                         const float* NMSPMM_RESTRICT bpack, index_t ldb,
                         IdxFn idx_of, float* NMSPMM_RESTRICT c,
                         index_t ldc, const Epi& epi = {}) {
  // Fetch the epilogue's strided second-operand slice under the FMA
  // loop's compute shadow (see EpilogueApply::prefetch).
  if constexpr (Epi::kActive) epi.prefetch(MT, NT);
  using Vec = simd::VecFor<NT>;
  constexpr int kRows = simd::rows_per_pass<Vec>(NT / Vec::kWidth, kMicroM);
  [&]<int... Q>(std::integer_sequence<int, Q...>) {
    (micro_pass<Vec, std::min(kRows, MT - Q * kRows), NT, Prefetch,
                Accumulate>(ws, a.shifted_rows(Q * kRows), bpack, ldb,
                            idx_of, c + Q * kRows * ldc, ldc),
     ...);
  }(std::make_integer_sequence<int, (MT + kRows - 1) / kRows>{});
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

/// The row walk's description and register tile (Eq. 6): both 16-wide
/// column groups of a 32-column strip per step when kMicroM rows of them
/// fit the registers (AVX-512: 2 x 8 accumulators, one pass per strip),
/// else one group per step (AVX2: 4 rows x 2 ymm); and kWalkRows rows of
/// the staged strip per pass.
using WalkVec = simd::VecFor<kMicroN>;
inline constexpr int kWalkGroupVecs = kMicroN / WalkVec::kWidth;
inline constexpr int kWalkGroups =
    simd::rows_per_pass<WalkVec>(2 * kWalkGroupVecs, kMicroM) == kMicroM ? 2
                                                                       : 1;
inline constexpr int kWalkRows =
    simd::rows_per_pass<WalkVec>(kWalkGroups * kWalkGroupVecs, kMicroM);

static_assert(kAStripRows == kMicroM,
              "a staged A strip is at most one micro tile high");

/// One register-resident pass of the row walk: MT rows of a staged strip
/// kW floats wide (@p a at the pass's first row and the chunk's first
/// k-column), G column groups from @p b read through the index streams
/// @p idx0 (and @p idx1 for a second group), columns at or past @p nt
/// masked at the stores. The @p Lead pass — the first over the strip —
/// prefetches both lines of the strip row kRowWalkLeadBytes ahead and the
/// staged A kRowWalkALeadBytes ahead; later passes find both in cache.
template <class Vec, int MT, index_t kW, int G, bool Accumulate, bool Lead>
inline void walk_pass(index_t wb, const float* a,
                      const float* NMSPMM_RESTRICT b, index_t ldb,
                      const std::uint16_t* NMSPMM_RESTRICT idx0,
                      const std::uint16_t* NMSPMM_RESTRICT idx1, int nt,
                      const float* stream_end, float* NMSPMM_RESTRICT c,
                      index_t ldc) {
  constexpr int kV = G * kMicroN / Vec::kWidth;  // vectors per row
  constexpr int kGV = kMicroN / Vec::kWidth;     // vectors per group
  constexpr index_t kLead = kRowWalkLeadBytes / sizeof(float);
  // Last strip-row start whose two lines still lie inside the buffer.
  const index_t pf_last = (stream_end - b) - 2 * kMicroN;
  typename Vec::V acc[MT * kV];  // row e / kV, vector e % kV
#pragma GCC unroll 16
  for (int e = 0; e < MT * kV; ++e) acc[e] = Vec::zero();
  for (index_t p = 0; p < wb; ++p) {
    const float* NMSPMM_RESTRICT brow = b + p * ldb;
    if constexpr (Lead) {
      const char* pf = reinterpret_cast<const char*>(
          b + std::min(p * ldb + kLead, pf_last));
      __builtin_prefetch(pf);
      __builtin_prefetch(pf + 64);
    }
    const float* ag[G];
#pragma GCC unroll 2
    for (int g = 0; g < G; ++g) ag[g] = a + (g == 0 ? idx0 : idx1)[p] * kW;
    // Keep the step pointers in registers: otherwise GCC folds
    // a + idx * kW back into every broadcast as an indexed operand.
    if constexpr (G == 2) {
      asm("" : "+r"(ag[0]), "+r"(ag[1]));
    } else {
      asm("" : "+r"(ag[0]));
    }
    if constexpr (Lead) {
      __builtin_prefetch(reinterpret_cast<const char*>(ag[0]) +
                         kRowWalkALeadBytes);
    }
    typename Vec::V bv[kV];
#pragma GCC unroll 4
    for (int v = 0; v < kV; ++v) bv[v] = Vec::load(brow + v * Vec::kWidth);
#pragma GCC unroll 16
    for (int e = 0; e < MT * kV; ++e) {
      const float* ae = ag[e % kV / kGV];
      acc[e] = Vec::fma(Vec::set1(ae[e / kV]), bv[e % kV], acc[e]);
    }
  }
  typename Vec::Mask lanes[kV];
#pragma GCC unroll 4
  for (int v = 0; v < kV; ++v) lanes[v] = Vec::lanes(nt - v * Vec::kWidth);
#pragma GCC unroll 16
  for (int e = 0; e < MT * kV; ++e) {
    float* cv = c + e / kV * ldc + e % kV * Vec::kWidth;
    if constexpr (Accumulate) {
      acc[e] = Vec::add(Vec::load_n(cv, lanes[e % kV]), acc[e]);
    }
    Vec::store_n(cv, acc[e], lanes[e % kV]);
  }
}

/// Row walk over one 32-column strip of a resident tile for one staged
/// strip of MT <= kMicroM rows of A (V3's non-packed path): each step
/// of a pass reads its column groups of one stored strip row — one
/// index-stream entry per group — so the strip is read front to back once
/// per pass instead of once per column group and 8-row tile: kWalkRows
/// rows and kWalkGroups groups per pass; on AVX-512 one pass covers the
/// whole strip. The driver walks an m-block's 8-row strips back to back
/// over the same L1-hot strip; at m <= 8 (decode) there is one.
///
/// @p at is the row strip staged by stage_a_strips, k-column c at
/// at[c * a_strip_width(MT)], and @p k0 the chunk's first k-column (the
/// index streams are chunk-local). Each step turns an index entry into
/// one pointer; the broadcasts read fixed offsets 0, 4, ... from it.
///
/// Columns at or past @p nt (1..32) are computed but never stored; a
/// strip of at most 16 columns passes @p idx0 twice and either skips the
/// second group (a one-group pass) or reads it from the tile's zero
/// column padding (a two-group pass; the strip lies inside one ns-wide
/// tile row, ns a multiple of 32). The B prefetch runs kRowWalkLeadBytes
/// ahead of the strip row, clamped below @p stream_end (one past the
/// packed buffer). Every element is the same p-ascending FMA chain
/// micro_kernel computes, so the result is bit-identical to V1's.
template <int MT, bool Accumulate, class Epi>
inline void row_walk_strip(index_t wb, const float* at, index_t k0,
                           const float* NMSPMM_RESTRICT b, index_t ldb,
                           const std::uint16_t* NMSPMM_RESTRICT idx0,
                           const std::uint16_t* NMSPMM_RESTRICT idx1, int nt,
                           const float* stream_end, float* NMSPMM_RESTRICT c,
                           index_t ldc, const Epi& epi) {
  if constexpr (Epi::kActive) epi.prefetch(MT, nt);
  constexpr index_t kW = a_strip_width(MT);
  constexpr int kRowPasses = (MT + kWalkRows - 1) / kWalkRows;
  const float* const a = at + k0 * kW;
  // Pass P covers the column groups from g and the rows from r.
  const auto pass = [&]<int P>(std::integral_constant<int, P>) {
    constexpr int g = P / kRowPasses * kWalkGroups;
    constexpr int r = P % kRowPasses * kWalkRows;
    if (g > 0 && g * kMicroN >= nt) return;  // no second group
    walk_pass<WalkVec, std::min(kWalkRows, MT - r), kW, kWalkGroups,
              Accumulate, P == 0>(wb, a + r, b + g * kMicroN, ldb,
                                  g == 0 ? idx0 : idx1, idx1,
                                  nt - g * kMicroN, stream_end,
                                  c + r * ldc + g * kMicroN, ldc);
  };
  [&]<int... P>(std::integer_sequence<int, P...>) {
    (pass(std::integral_constant<int, P>{}), ...);
  }(std::make_integer_sequence<int, 2 / kWalkGroups * kRowPasses>{});
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

}  // namespace nmspmm::detail
