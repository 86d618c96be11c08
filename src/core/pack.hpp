// Packing (copy-in) helpers shared by the NM-SpMM kernels and the dense
// baseline — the CPU analog of staging As / Bs into shared memory.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "util/matrix.hpp"

namespace nmspmm::detail {

/// Stage A[i0..i0+mb) x [k0..k0+kb) row-major into apack (row stride
/// @p lda >= kb). Columns past the end of A (window padding) are
/// zero-filled. Used by the non-packing strategy only when the chunk
/// overlaps the padded tail (everywhere else A is read in place).
void pack_a_full(ConstViewF A, index_t i0, index_t mb, index_t k0, index_t kb,
                 float* apack, index_t lda);

/// Rows per staged A strip (stage_a_strips): the row walk's register
/// tile height.
inline constexpr index_t kAStripRows = 8;

/// Floats per staged k-column of a strip holding @p rows (1..kAStripRows)
/// rows of A: kAStripRows for every full strip, the next power of two
/// for a ragged last one, so a row walk over it steps by a shift and a
/// one-row strip is as compact as A itself.
constexpr index_t a_strip_width(index_t rows) {
  return static_cast<index_t>(
      std::bit_ceil(static_cast<std::uint64_t>(rows)));
}

/// Floats stage_a_strips writes for an m-row A at padded depth @p pk.
constexpr index_t a_strips_floats(index_t m, index_t pk) {
  const index_t full = m / kAStripRows * kAStripRows;
  return (full + (m > full ? a_strip_width(m - full) : 0)) * pk;
}

/// Stage the row strips [s_lo, s_hi) of A for V3's row walk. Strip s
/// holds rows [s*kAStripRows, +kAStripRows) clipped to A.rows(), stored
/// k-major at astrips + s * kAStripRows * pk: k-column c of the strip is
/// the a_strip_width(rows) floats at (c * width), one per row. Columns
/// past A.cols() up to @p pk (window padding) and rows past A.rows() (a
/// ragged last strip) are zero. The walk then broadcasts every A scalar
/// from a fixed offset of one per-step pointer.
void stage_a_strips(ConstViewF A, index_t pk, index_t s_lo, index_t s_hi,
                    float* astrips);

/// Gather only the columns listed in @p cols (local offsets within
/// [k0, k0+kb)) into a dense row-major panel (row stride @p lda >=
/// cols.size()) — the packing strategy of §III-C1: the staged footprint
/// shrinks from ms*ks to ms*|cols| and the kernels address it through
/// the reordered index matrix.
void pack_a_cols(ConstViewF A, index_t i0, index_t mb, index_t k0,
                 std::span<const std::int32_t> cols, float* apack,
                 index_t lda);

/// Pack B'[u0..u0+wb) x [j0..j0+nb) row-major into bpack (ld @p ldb).
void pack_b_block(ConstViewF B, index_t u0, index_t wb, index_t j0,
                  index_t nb, float* bpack, index_t ldb);

/// Process-wide counters over pack_b_block: invocations and weight bytes
/// staged. Since plan-time pre-packing (PackedWeights) the serving hot
/// path must never stage weights — regression tests assert these stay
/// flat across steady-state engine.spmm calls (the only remaining
/// callers are plan-time packing and the dense baseline).
std::uint64_t pack_b_block_calls();
std::uint64_t pack_b_block_bytes();

}  // namespace nmspmm::detail
