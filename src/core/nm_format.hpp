// Compressed vector-wise N:M storage (Figure 1 of the paper).
//
// A dense weight matrix B (k x n) is compressed into
//   - values  B' : w x n, w = ceil(k/M)*N — the kept row-vectors, and
//   - indices D  : w x q, q = ceil(n/L)  — for each compressed row u and
//     column group g, the offset (< M) of the kept row inside its window.
// The original row of B'[u][j] is (u/N)*M + D[u][j/L].
#pragma once

#include <cstdint>

#include "core/nm_config.hpp"
#include "util/matrix.hpp"

namespace nmspmm {

/// The kept-vector selection: for each (compressed row u, group g) the
/// within-window offset of the vector that survives pruning. Shape w x q.
/// Offsets must be strictly increasing along each window's N rows so the
/// compressed layout preserves the original row order.
struct NMMask {
  NMConfig config;
  index_t orig_rows = 0;  ///< k before padding
  index_t cols = 0;       ///< n
  Matrix<std::uint8_t> keep;  ///< w x q within-window offsets

  [[nodiscard]] index_t compressed_rows() const { return keep.rows(); }
  [[nodiscard]] index_t num_groups() const { return keep.cols(); }

  /// Original (dense) row index backing compressed row u in group g.
  [[nodiscard]] index_t source_row(index_t u, index_t g) const {
    return (u / config.n) * config.m + keep(u, g);
  }

  /// Validate structural invariants (offset range and per-window strict
  /// monotonicity). Throws CheckError on violation.
  void validate() const;
};

/// Compressed matrix: values + index matrix, ready for the SpMM kernels.
///
/// The value matrix may be absent (see strip_values): under packed-only
/// residency the plan-time PackedWeights is the sole resident copy of
/// the weight values, and the CompressedNM keeps only the shape, config
/// and index matrix needed for plan validation. Anything that reads
/// values must gate on has_values() — the resident kernel path never
/// does; decompress and PackedWeights::build do.
struct CompressedNM {
  NMConfig config;
  index_t orig_rows = 0;   ///< k (unpadded)
  index_t cols = 0;        ///< n
  MatrixF values;          ///< w x n (empty after strip_values)
  Matrix<std::uint8_t> indices;  ///< w x q (== the mask's keep matrix)

  // w — via the index matrix, which always has the compressed row count
  // and survives strip_values.
  [[nodiscard]] index_t rows() const { return indices.rows(); }
  [[nodiscard]] index_t num_groups() const { return indices.cols(); }   // q
  [[nodiscard]] index_t source_row(index_t u, index_t g) const {
    return (u / config.n) * config.m + indices(u, g);
  }
  /// False after strip_values: the value bytes live only in the packed
  /// form and every values-consuming path must be rejected.
  [[nodiscard]] bool has_values() const { return !values.empty(); }
  /// Bytes of the compressed representation (values, when resident,
  /// plus indices).
  [[nodiscard]] std::size_t footprint_bytes() const {
    return (has_values()
                ? static_cast<std::size_t>(rows()) * cols * sizeof(float)
                : 0) +
           static_cast<std::size_t>(rows()) * num_groups();
  }
};

/// Gather the rows selected by @p mask out of dense @p B (k x n).
/// Rows beyond k (window padding) read as zero.
CompressedNM compress(ConstViewF B, const NMMask& mask);

/// Scatter a compressed matrix back to dense k x n form; pruned positions
/// become zero. Inverse of compress over the kept positions. Throws
/// CheckError when the values were stripped (packed-only residency).
MatrixF decompress(const CompressedNM& compressed);

/// Copy of @p B without the value matrix — the packed-only residency
/// form: shape, config and the index matrix survive (so rows(),
/// PackedWeights::matches and plan validation keep working) while the
/// w x n value bytes are released. The packed form built from @p B
/// becomes the only resident copy of the values; rebuilding a
/// PackedWeights from the stripped matrix is impossible.
CompressedNM strip_values(const CompressedNM& B);

/// True if dense @p B already satisfies the N:M pattern of @p mask (all
/// positions outside the mask are exactly zero).
bool matches_mask(ConstViewF B, const NMMask& mask);

}  // namespace nmspmm
