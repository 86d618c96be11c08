// Deterministic horizontal reductions shared by the attention core and
// the RMSNorm prologue.
//
// A dot product reduced left-to-right (scalar) and one reduced across
// SIMD lanes produce different roundings, which would break the repo's
// bit-exactness discipline (every kernel path must produce identical
// bits so tests can compare paths with == instead of tolerances). The
// helpers here fix the reduction *shape* instead of the instruction set:
// every description (core/vec.hpp) accumulates into the same 16 virtual
// lanes (element j lands in lane j % 16 via fma) and collapses them
// through the same binary tree. IEEE adds/fmas are deterministic per
// (inputs, order), so VecScalar (sixteen floats), Vec256 (two 8-lane
// registers) and Vec512 (one 16-lane register) return identical bits by
// construction.
//
// The elementwise helpers (axpy, scale) are trivially order-free — each
// output element is one fma or mul — but live here so every hot loop in
// the attention core runs on the same description.
#pragma once

#include <cmath>

#include "core/vec.hpp"
#include "util/matrix.hpp"

namespace nmspmm::simd {

/// Number of virtual accumulator lanes every reduction shares.
inline constexpr int kReduceLanes = 16;

namespace detail {

/// Accumulators of one 16-lane reduction on @p Vec: lane l of the
/// virtual 16 is lane l % kWidth of register l / kWidth.
template <class Vec>
inline constexpr int kReduceRegs = kReduceLanes / Vec::kWidth;

/// The 16-lane dots of each of the @p H vectors a_h = a + h * lda with
/// each of @p b[0..T) over @p n elements:
/// acc[(h * T + t) * kReduceRegs + r] holds lanes r * kWidth.. of
/// dot(a_h, b[t]). Each a and b register is loaded once per 16-lane
/// step for all H x T dots. A ragged tail fmas into its lanes only; the
/// others keep their value.
template <class Vec, int H, int T>
NMSPMM_ALWAYS_INLINE void dot_lanes(const float* a, index_t lda,
                                    const float* const* b, index_t n,
                                    typename Vec::V* acc) {
  using V = typename Vec::V;
  constexpr int kR = kReduceRegs<Vec>;
  constexpr int kW = Vec::kWidth;
  const index_t n16 = n - n % kReduceLanes;
#pragma GCC unroll 16
  for (int e = 0; e < H * T * kR; ++e) acc[e] = Vec::zero();
  for (index_t j = 0; j < n16; j += kReduceLanes) {
    V av[H * kR];
#pragma GCC unroll 16
    for (int e = 0; e < H * kR; ++e) {
      av[e] = Vec::load(a + e / kR * lda + j + e % kR * kW);
    }
#pragma GCC unroll 16
    for (int e = 0; e < T * kR; ++e) {
      const V bv = Vec::load(b[e / kR] + j + e % kR * kW);
#pragma GCC unroll 8
      for (int h = 0; h < H; ++h) {
        V& d = acc[(h * T + e / kR) * kR + e % kR];
        d = Vec::fma(av[h * kR + e % kR], bv, d);
      }
    }
  }
  if (n16 == n) return;
  typename Vec::Mask tail[kR];
  V av[H * kR];
#pragma GCC unroll 16
  for (int r = 0; r < kR; ++r) {
    tail[r] = Vec::lanes(static_cast<int>(n - n16) - r * kW);
  }
#pragma GCC unroll 16
  for (int e = 0; e < H * kR; ++e) {
    av[e] = Vec::load_n(a + e / kR * lda + n16 + e % kR * kW, tail[e % kR]);
  }
#pragma GCC unroll 16
  for (int e = 0; e < T * kR; ++e) {
    const int r = e % kR;
    const V bv = Vec::load_n(b[e / kR] + n16 + r * kW, tail[r]);
#pragma GCC unroll 8
    for (int h = 0; h < H; ++h) {
      V& d = acc[(h * T + e / kR) * kR + r];
      d = Vec::fma_n(av[h * kR + r], bv, d, tail[r]);
    }
  }
}

/// Collapse one 16-lane accumulator (kReduceRegs registers, consumed)
/// through the fixed binary tree: stride 8, 4, 2, 1. The strides of
/// kWidth and up are register adds, the rest run on the stored lanes, so
/// the add order never depends on the description.
template <class Vec>
NMSPMM_ALWAYS_INLINE float lane_tree(typename Vec::V* acc) {
#pragma GCC unroll 4
  for (int s = kReduceRegs<Vec> / 2; s >= 1; s /= 2) {
#pragma GCC unroll 8
    for (int i = 0; i < s; ++i) acc[i] = Vec::add(acc[i], acc[i + s]);
  }
  alignas(64) float t[Vec::kWidth];
  Vec::store(t, acc[0]);
  for (int s = Vec::kWidth / 2; s >= 1; s /= 2) {
    for (int i = 0; i < s; ++i) t[i] += t[i + s];
  }
  return t[0];
}

}  // namespace detail

/// Deterministic dot product: sum_j a[j] * b[j] with the 16-lane fma
/// accumulation described in the header comment. Pass b == a for a sum
/// of squares.
template <class Vec = SweepVec>
inline float dot(const float* a, const float* b, index_t n) {
  typename Vec::V acc[detail::kReduceRegs<Vec>];
  detail::dot_lanes<Vec, 1, 1>(a, 0, &b, n, acc);
  return detail::lane_tree<Vec>(acc);
}

/// Deterministic sum of squares (dot of a with itself).
template <class Vec = SweepVec>
inline float sumsq(const float* a, index_t n) {
  return dot<Vec>(a, a, n);
}

/// y[j] = fma(w, x[j], y[j]). Elementwise — bit-exact across
/// descriptions because every element is a single fma.
template <class Vec = SweepVec>
inline void axpy(float w, const float* x, float* y, index_t n) {
  const typename Vec::V ww = Vec::set1(w);
  index_t j = 0;
  for (; j + Vec::kWidth <= n; j += Vec::kWidth) {
    Vec::store(y + j, Vec::fma(ww, Vec::load(x + j), Vec::load(y + j)));
  }
  for (; j < n; ++j) y[j] = std::fma(w, x[j], y[j]);
}

/// y[j] *= s. Elementwise multiply — bit-exact across descriptions.
template <class Vec = SweepVec>
inline void scale(float* y, float s, index_t n) {
  const typename Vec::V ss = Vec::set1(s);
  index_t j = 0;
  for (; j + Vec::kWidth <= n; j += Vec::kWidth) {
    Vec::store(y + j, Vec::mul(Vec::load(y + j), ss));
  }
  for (; j < n; ++j) y[j] *= s;
}

}  // namespace nmspmm::simd
