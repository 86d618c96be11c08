// The optimization ladder of Section III / Figure 7:
//   V1 — hierarchical blocking (Listings 1-2): cache/register tiling, A
//        staged in full (non-packing), indices resolved from D.
//   V2 — V1 + sparsity-aware memory access (Listing 3): A staged through
//        col_info packing with the offline-reordered index matrix.
//   V3 — V2 + pipeline design (Listing 4): software prefetch and the
//        sparsity-aware choice between the packed (high sparsity) and
//        non-packed (moderate sparsity) paths.
// All kernels overwrite C with A (*) (B, D). The variants are the only
// ways to serve a product; the correctness oracle they are checked
// against is spmm_reference() (core/spmm_ref.hpp) followed by
// apply_epilogue() (core/epilogue.hpp), called directly.
//
// Every variant executes against a PackedWeights — the plan-time
// pre-packed form of B' (tile-major resident values + flattened uint16
// index streams, see core/packed_weights.hpp) built once with
// PackedWeights::build, so the serving hot path never re-stages
// weights: no pack_b_block, no per-group index hoisting, B read as a
// pure linear stream. One-shot callers build the PackedWeights
// themselves (packed_kind_for names the IndexKind a variant needs).
//
// Row walk (takes_row_walk): under V3's non-packed path, with L = 16,
// every m-block is run as a row walk instead of one micro-kernel pass
// per 16-wide column group and 8-row tile, in every build. The walk
// takes a 32-column strip of the resident tile (two column groups) and
// walks its stored rows once per register pass over an 8-row strip of
// the m-block, and the strip stays L1-hot across the passes. Its
// register tile is the paper's Eq. 6 over the build's vector
// description (core/micro_kernel.hpp): with AVX-512, both groups per
// step and all 8 rows in one pass (2 x 8 zmm accumulators); with AVX2,
// one group per step in passes of fewer rows; the SSE2 baseline the
// same in passes of 2. It prefetches the stored stream 4 KB ahead, past
// the end of the tile into the next one — tiles are stored back to back
// in visiting order.
//   - Decode (m <= 8): one row strip, so the product is a stream of the
//     packed weights read once, the next tile in flight while the
//     current one computes — the CPU form of the paper's V3 pipeline.
//   - Prefill (m > 8): each step feeds a full register tile, so A is
//     read once per pass instead of once per 16-wide group and 8-row
//     tile.
// The walk reads A from 8-row strips staged once per call, k-major
// (detail::stage_a_strips): each step forms one pointer per index entry
// and broadcasts the strip's rows from fixed offsets of it, the CPU form
// of the paper's staged As tile read at fixed offsets (Section III-C).
// Blocking, accumulation order and the epilogue are unchanged, so
// results are bit-identical to V1; V1, V2 and V3-packed keep the
// per-group micro kernels, the ladder's steps and the walk's oracle.
#pragma once

#include "core/col_info.hpp"
#include "core/epilogue.hpp"
#include "core/kernel_params.hpp"
#include "core/nm_format.hpp"
#include "core/packed_weights.hpp"
#include "util/thread_pool.hpp"

namespace nmspmm {

enum class KernelVariant { kV1, kV2, kV3 };

const char* to_string(KernelVariant v);

/// The IndexKind a variant's kernels consume: V1 and V3's non-packed
/// path address A directly (kDirect); V2 and V3's packed path address
/// the col_info panel (kRemapped).
PackedWeights::IndexKind packed_kind_for(KernelVariant variant,
                                         bool use_packing);

/// True when the blocked driver runs every m-block through the row walk
/// (see the header comment) instead of the per-column-group micro
/// kernels: V3's non-packed path with L = 16, in every build, at any
/// batch size. Fixed, like the work partitioning — no option selects it.
bool takes_row_walk(KernelVariant variant, bool use_packing,
                    const NMConfig& cfg);

// Every kernel takes an optional ThreadPool. A null pool runs the exact
// serial loop nest (the bit-exact reference ordering); a pool forks once
// per call over C's n-blocks, splitting each n-block's m-blocks too only
// when the n-blocks alone cannot feed every worker. Each worker runs the
// k-chunks in order over its own C region, so the per-element
// accumulation order is the serial one and results are bit-exact across
// thread counts.
//
// Every kernel also takes an optional epilogue (core/epilogue.hpp):
// when @p epilogue is active, the final k-chunk's stores apply
// bias/activation/elementwise-mul in place of a separate pass over C.
// @p epilogue_args must satisfy validate_epilogue for C's shape;
// EpilogueArgs::other must not alias C.

/// @p packed must have been built from @p B with kDirect and the same
/// (ks, ns) as @p params.
void spmm_v1(ConstViewF A, const CompressedNM& B, ViewF C,
             const BlockingParams& params, const PackedWeights& packed,
             ThreadPool* pool = nullptr, const EpilogueSpec& epilogue = {},
             const EpilogueArgs& epilogue_args = {});

/// @p packed must have been built from @p B with kRemapped and the same
/// (ks, ns) as @p params.
void spmm_v2(ConstViewF A, const CompressedNM& B, ViewF C,
             const BlockingParams& params, const PackedWeights& packed,
             ThreadPool* pool = nullptr, const EpilogueSpec& epilogue = {},
             const EpilogueArgs& epilogue_args = {});

/// @p use_packing selects the high-sparsity packed pipeline or the
/// moderate-sparsity non-packed pipeline; @p packed's kind must match
/// (kRemapped when packing, kDirect otherwise).
void spmm_v3(ConstViewF A, const CompressedNM& B, ViewF C,
             const BlockingParams& params, bool use_packing,
             const PackedWeights& packed, ThreadPool* pool = nullptr,
             const EpilogueSpec& epilogue = {},
             const EpilogueArgs& epilogue_args = {});

/// FLOP count of the sparse product (2*m*n*w), the numerator of every
/// efficiency number in the evaluation.
inline double spmm_flops(index_t m, index_t n, index_t w) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(w);
}

}  // namespace nmspmm
