#include "core/pack.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace nmspmm::detail {

namespace {
std::atomic<std::uint64_t> g_pack_b_calls{0};
std::atomic<std::uint64_t> g_pack_b_bytes{0};
}  // namespace

std::uint64_t pack_b_block_calls() {
  return g_pack_b_calls.load(std::memory_order_relaxed);
}

std::uint64_t pack_b_block_bytes() {
  return g_pack_b_bytes.load(std::memory_order_relaxed);
}

void pack_a_full(ConstViewF A, index_t i0, index_t mb, index_t k0, index_t kb,
                 float* apack, index_t lda) {
  const index_t k_real = std::min(kb, A.cols() - k0);
  for (index_t i = 0; i < mb; ++i) {
    const float* src = A.row(i0 + i) + k0;
    float* dst = apack + i * lda;
    std::memcpy(dst, src, static_cast<std::size_t>(k_real) * sizeof(float));
    for (index_t c = k_real; c < kb; ++c) dst[c] = 0.0f;
  }
}

void stage_a_strips(ConstViewF A, index_t pk, index_t s_lo, index_t s_hi,
                    float* astrips) {
  const index_t k_real = A.cols();
  for (index_t s = s_lo; s < s_hi; ++s) {
    const index_t r0 = s * kAStripRows;
    const index_t rows = std::min(kAStripRows, A.rows() - r0);
    const index_t w = a_strip_width(rows);
    const float* src[kAStripRows];
    for (index_t r = 0; r < rows; ++r) src[r] = A.row(r0 + r);
    float* __restrict__ dst = astrips + r0 * pk;
    // Column by column, each k-column one contiguous run of stores:
    // measured twice as fast as row by row with strided stores.
    if (rows == kAStripRows) {
      for (index_t c = 0; c < k_real; ++c) {
        for (index_t r = 0; r < kAStripRows; ++r) {
          dst[c * kAStripRows + r] = src[r][c];
        }
      }
    } else {
      for (index_t c = 0; c < k_real; ++c) {
        for (index_t r = 0; r < w; ++r) {
          dst[c * w + r] = r < rows ? src[r][c] : 0.0f;
        }
      }
    }
    std::fill(dst + k_real * w, dst + pk * w, 0.0f);
  }
}

void pack_a_cols(ConstViewF A, index_t i0, index_t mb, index_t k0,
                 std::span<const std::int32_t> cols, float* apack,
                 index_t lda) {
  const index_t k_limit = A.cols() - k0;
  const index_t nc = static_cast<index_t>(cols.size());
  for (index_t i = 0; i < mb; ++i) {
    const float* __restrict__ src = A.row(i0 + i) + k0;
    float* __restrict__ dst = apack + i * lda;
    for (index_t cc = 0; cc < nc; ++cc) {
      const index_t local = cols[static_cast<std::size_t>(cc)];
      // Columns past the real depth belong to window padding; their B'
      // rows are zero, so the staged value only needs to be in-bounds.
      dst[cc] = local < k_limit ? src[local] : 0.0f;
    }
  }
}

void pack_b_block(ConstViewF B, index_t u0, index_t wb, index_t j0,
                  index_t nb, float* bpack, index_t ldb) {
  g_pack_b_calls.fetch_add(1, std::memory_order_relaxed);
  g_pack_b_bytes.fetch_add(
      static_cast<std::uint64_t>(wb) * static_cast<std::uint64_t>(nb) *
          sizeof(float),
      std::memory_order_relaxed);
  for (index_t u = 0; u < wb; ++u) {
    const float* src = B.row(u0 + u) + j0;
    float* dst = bpack + u * ldb;
    std::memcpy(dst, src, static_cast<std::size_t>(nb) * sizeof(float));
    for (index_t j = nb; j < ldb; ++j) dst[j] = 0.0f;
  }
}

}  // namespace nmspmm::detail
