#include "core/spmm_ref.hpp"

namespace nmspmm {

void spmm_reference(ConstViewF A, const CompressedNM& B, ViewF C) {
  NMSPMM_CHECK_MSG(A.cols() == B.orig_rows,
                   "A depth " << A.cols() << " != B rows " << B.orig_rows);
  NMSPMM_CHECK(C.rows() == A.rows() && C.cols() == B.cols);
  NMSPMM_CHECK_MSG(B.has_values(),
                   "spmm_reference reads B' values, which were stripped "
                   "(packed-only residency)");
  const index_t w = B.rows();
  const index_t L = B.config.vector_length;
  for (index_t i = 0; i < A.rows(); ++i) {
    float* crow = C.row(i);
    for (index_t j = 0; j < B.cols; ++j) crow[j] = 0.0f;
    const float* arow = A.row(i);
    for (index_t u = 0; u < w; ++u) {
      const float* brow = B.values.row(u);
      for (index_t g = 0; g < B.num_groups(); ++g) {
        const index_t src = B.source_row(u, g);
        if (src >= A.cols()) continue;  // padded window rows contribute 0
        const float a = arow[src];
        const index_t c0 = g * L;
        const index_t c1 = std::min<index_t>(c0 + L, B.cols);
        for (index_t c = c0; c < c1; ++c) crow[c] += a * brow[c];
      }
    }
  }
}

void gemm_reference(ConstViewF A, ConstViewF B, ViewF C) {
  NMSPMM_CHECK(A.cols() == B.rows());
  NMSPMM_CHECK(C.rows() == A.rows() && C.cols() == B.cols());
  for (index_t i = 0; i < A.rows(); ++i) {
    float* crow = C.row(i);
    for (index_t j = 0; j < B.cols(); ++j) crow[j] = 0.0f;
    for (index_t p = 0; p < A.cols(); ++p) {
      const float a = A(i, p);
      if (a == 0.0f) continue;
      const float* brow = B.row(p);
      for (index_t j = 0; j < B.cols(); ++j) crow[j] += a * brow[j];
    }
  }
}

}  // namespace nmspmm
