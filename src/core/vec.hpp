// Per-ISA vector descriptions: the one place the library splits by ISA.
//
// Every vector loop in the library is written once, as a template over a
// description: a register type V, its width in floats, the number of
// such registers, and the operations the loops use. That covers the SpMM
// micro kernel and row walk (core/micro_kernel.hpp), the epilogue's
// activations (core/epilogue.hpp), the deterministic reductions
// (core/reduce.hpp) and decode attention's block sweeps
// (attn/attention.cpp). The build's feature macros fix which
// descriptions exist:
//  - Vec512 (AVX-512): 32 registers of 16 floats;
//  - Vec256 (AVX2 + FMA): 16 registers of 8 floats;
//  - VecBase: four floats as a generic compiler vector (__m128 on
//    x86-64, plain scalar code elsewhere), the SpMM kernels' baseline;
//  - VecScalar: one float, the scalar form of every sweep.
//
// Bit-exactness rests on the operations: each is one IEEE operation per
// lane (fma is fused on every description except VecBase, whose a * b + c
// follows the scalar tail kernel's own contraction), so a loop written
// once gives every lane the same op sequence on every description, and
// tests compare the instantiations with ==.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

// Forces a sweep's helper inline at -O2 as at -O3: out of line, a
// helper that takes its accumulators by pointer keeps them in memory.
#define NMSPMM_ALWAYS_INLINE inline __attribute__((always_inline))

namespace nmspmm::simd {

/// One float: the scalar form of the sweeps (reductions, activations,
/// attention), with std::fma as its fused multiply-add.
struct VecScalar {
  using V = float;
  static constexpr int kWidth = 1;
  static constexpr int kRegs = 16;
  static V zero() { return 0.0f; }
  static V set1(float x) { return x; }
  static V load(const float* p) { return *p; }
  static void store(float* p, V v) { *p = v; }
  static V fma(V a, V b, V c) { return std::fma(a, b, c); }
  static V add(V a, V b) { return a + b; }
  static V sub(V a, V b) { return a - b; }
  static V mul(V a, V b) { return a * b; }
  static V div(V a, V b) { return a / b; }
  static V min(V a, V b) { return std::min(a, b); }
  static V max(V a, V b) { return std::max(a, b); }
  static V floor(V a) { return std::floor(a); }
  static V neg(V a) { return -a; }
  /// 2^fl for integral fl in [-126, 126], spliced into the exponent field.
  static V exp2i(V fl) {
    return std::bit_cast<float>((static_cast<std::int32_t>(fl) + 127) << 23);
  }
  using Mask = bool;  ///< whether the one lane is touched
  static Mask lanes(int n) { return n > 0; }
  static V load_n(const float* p, Mask m) { return m ? *p : 0.0f; }
  static void store_n(float* p, V v, Mask m) {
    if (m) *p = v;
  }
  /// fma on the lanes of @p m; the others keep @p c.
  static V fma_n(V a, V b, V c, Mask m) { return m ? std::fma(a, b, c) : c; }
  /// The largest lane (no lane NaN: max is exact in any order).
  static float hmax(V a) { return a; }
  static bool any_nan(V a) { return std::isnan(a); }
};

/// The baseline of the SpMM kernels: four floats as a generic compiler
/// vector — __m128 on x86-64, plain scalar code elsewhere. a * b + c
/// contracts to one FMA where the build has FMA and stays mul + add where
/// it has not, exactly as the scalar tail kernel's arithmetic does; so it
/// is no fused multiply-add, and the sweeps never use it.
struct VecBase {
  using V = float __attribute__((vector_size(16)));
  static constexpr int kWidth = 4;
  static constexpr int kRegs = 16;
  static V zero() { return V{}; }
  static V set1(float x) { return V{x, x, x, x}; }
  static V load(const float* p) { return load_n(p, kWidth); }
  static void store(float* p, V v) { store_n(p, v, kWidth); }
  static V fma(V a, V b, V c) { return a * b + c; }
  static V add(V a, V b) { return a + b; }
  using Mask = int;  ///< lanes to touch, 0..4
  static Mask lanes(int n) { return std::clamp(n, 0, kWidth); }
  static V load_n(const float* p, Mask m) {
    V v{};
    std::memcpy(&v, p, static_cast<std::size_t>(m) * sizeof(float));
    return v;
  }
  static void store_n(float* p, V v, Mask m) {
    std::memcpy(p, &v, static_cast<std::size_t>(m) * sizeof(float));
  }
};

// GCC 12 leaks a bogus -Wmaybe-uninitialized (or, for Vec512::hmax's
// shuffles, -Wuninitialized) out of the unmasked AVX-512 intrinsics'
// _mm512_undefined_* merge sources when they inline into the sweeps
// (GCC PR105593); silence them for the descriptions only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

#if defined(__AVX2__) && defined(__FMA__)
/// AVX2 + FMA: 16 registers of 8 floats.
struct Vec256 {
  using V = __m256;
  static constexpr int kWidth = 8;
  static constexpr int kRegs = 16;
  /// The next narrower description, for a sweep's ragged columns.
  using Half = VecScalar;
  static V zero() { return _mm256_setzero_ps(); }
  static V set1(float x) { return _mm256_set1_ps(x); }
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V div(V a, V b) { return _mm256_div_ps(a, b); }
  static V min(V a, V b) { return _mm256_min_ps(a, b); }
  static V max(V a, V b) { return _mm256_max_ps(a, b); }
  static V floor(V a) {
    return _mm256_round_ps(a, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  }
  static V neg(V a) {
    return _mm256_castsi256_ps(_mm256_xor_si256(
        _mm256_castps_si256(a), _mm256_set1_epi32(INT32_C(0x80000000))));
  }
  static V exp2i(V fl) {
    return _mm256_castsi256_ps(_mm256_slli_epi32(
        _mm256_add_epi32(_mm256_cvttps_epi32(fl), _mm256_set1_epi32(127)),
        23));
  }
  using Mask = __m256i;
  /// The first @p n lanes: none for n <= 0, all for n >= kWidth.
  static Mask lanes(int n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static V load_n(const float* p, Mask m) { return _mm256_maskload_ps(p, m); }
  static void store_n(float* p, V v, Mask m) {
    _mm256_maskstore_ps(p, m, v);
  }
  static V fma_n(V a, V b, V c, Mask m) {
    return _mm256_blendv_ps(c, _mm256_fmadd_ps(a, b, c),
                            _mm256_castsi256_ps(m));
  }
  static float hmax(V a) {
    __m128 m = _mm_max_ps(_mm256_castps256_ps128(a),
                          _mm256_extractf128_ps(a, 1));
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    return _mm_cvtss_f32(_mm_max_ss(m, _mm_shuffle_ps(m, m, 1)));
  }
  static bool any_nan(V a) {
    return _mm256_movemask_ps(_mm256_cmp_ps(a, a, _CMP_UNORD_Q)) != 0;
  }
};
#endif

#if defined(__AVX512F__) && defined(__FMA__)
/// AVX-512 (with FMA, so Vec256 exists too): 32 registers of 16 floats.
struct Vec512 {
  using V = __m512;
  static constexpr int kWidth = 16;
  static constexpr int kRegs = 32;
  using Half = Vec256;
  static V zero() { return _mm512_setzero_ps(); }
  static V set1(float x) { return _mm512_set1_ps(x); }
  static V load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  static V fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  static V add(V a, V b) { return _mm512_add_ps(a, b); }
  static V sub(V a, V b) { return _mm512_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm512_mul_ps(a, b); }
  static V div(V a, V b) { return _mm512_div_ps(a, b); }
  static V min(V a, V b) { return _mm512_min_ps(a, b); }
  static V max(V a, V b) { return _mm512_max_ps(a, b); }
  static V floor(V a) {
    return _mm512_roundscale_ps(a, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  }
  static V neg(V a) {
    return _mm512_castsi512_ps(_mm512_xor_si512(
        _mm512_castps_si512(a), _mm512_set1_epi32(INT32_C(0x80000000))));
  }
  static V exp2i(V fl) {
    return _mm512_castsi512_ps(_mm512_slli_epi32(
        _mm512_add_epi32(_mm512_cvttps_epi32(fl), _mm512_set1_epi32(127)),
        23));
  }
  using Mask = __mmask16;
  static Mask lanes(int n) {
    return n >= 16 ? Mask{0xFFFF}
                   : static_cast<Mask>((1u << std::max(n, 0)) - 1u);
  }
  static V load_n(const float* p, Mask m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  static void store_n(float* p, V v, Mask m) {
    _mm512_mask_storeu_ps(p, m, v);
  }
  static V fma_n(V a, V b, V c, Mask m) {
    return _mm512_mask3_fmadd_ps(a, b, c, m);
  }
  static float hmax(V a) {  // halves, quarters, pairs, neighbours
    V m = _mm512_max_ps(a, _mm512_shuffle_f32x4(a, a, 0x4E));
    m = _mm512_max_ps(m, _mm512_shuffle_f32x4(m, m, 0xB1));
    m = _mm512_max_ps(m, _mm512_shuffle_ps(m, m, 0x4E));
    return _mm512_cvtss_f32(_mm512_max_ps(m, _mm512_shuffle_ps(m, m, 0xB1)));
  }
  static bool any_nan(V a) {
    return _mm512_cmp_ps_mask(a, a, _CMP_UNORD_Q) != 0;
  }
  /// The 16-lane binary tree (stride 8, 4, 2, 1; simd::detail::lane_tree)
  /// of sixteen registers at once, register t's sum in lane t. Each
  /// stage shuffles two registers so one add performs that tree level
  /// for two, then four registers, with exactly the tree's operand pairs.
  static V lane_trees(const V* a) {
    V u[8];  // stride 8: quarters 0-1 register 2i, 2-3 register 2i+1
    for (int i = 0; i < 8; ++i) {
      u[i] = _mm512_add_ps(_mm512_shuffle_f32x4(a[2 * i], a[2 * i + 1], 0x44),
                           _mm512_shuffle_f32x4(a[2 * i], a[2 * i + 1], 0xEE));
    }
    V v[4];  // stride 4: quarter k holds register 4i + k
    for (int i = 0; i < 4; ++i) {
      v[i] = _mm512_add_ps(_mm512_shuffle_f32x4(u[2 * i], u[2 * i + 1], 0x88),
                           _mm512_shuffle_f32x4(u[2 * i], u[2 * i + 1], 0xDD));
    }
    // stride 2: quarter k holds registers (k, 4 + k), then (8 + k, 12 + k)
    const V w0 = _mm512_add_ps(_mm512_shuffle_ps(v[0], v[1], 0x44),
                               _mm512_shuffle_ps(v[0], v[1], 0xEE));
    const V w1 = _mm512_add_ps(_mm512_shuffle_ps(v[2], v[3], 0x44),
                               _mm512_shuffle_ps(v[2], v[3], 0xEE));
    // stride 1: lane 4k + j holds register k + 4j; permute to order.
    const V x = _mm512_add_ps(_mm512_shuffle_ps(w0, w1, 0x88),
                              _mm512_shuffle_ps(w0, w1, 0xDD));
    return _mm512_permutexvar_ps(
        _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11,
                          15),
        x);
  }
};
#endif

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// X(description) for every description the sweeps can run on in this
/// build, narrowest first: explicit instantiations and the tests'
/// comparisons against VecScalar iterate over it. SweepVec is the
/// widest, the one the sweeps run on; VecFor<NT> the widest whose width
/// divides @p NT, the one the SpMM kernels' tiles run on.
#if defined(__AVX512F__) && defined(__FMA__)
#define NMSPMM_FOR_EACH_VEC(X) X(VecScalar) X(Vec256) X(Vec512)
using SweepVec = Vec512;
template <int NT>
using VecFor = std::conditional_t<NT % 16 == 0, Vec512,
                                  std::conditional_t<NT % 8 == 0, Vec256,
                                                     VecBase>>;
#elif defined(__AVX2__) && defined(__FMA__)
#define NMSPMM_FOR_EACH_VEC(X) X(VecScalar) X(Vec256)
using SweepVec = Vec256;
template <int NT>
using VecFor = std::conditional_t<NT % 8 == 0, Vec256, VecBase>;
#else
#define NMSPMM_FOR_EACH_VEC(X) X(VecScalar)
using SweepVec = VecScalar;
template <int NT>
using VecFor = VecBase;
#endif

/// Rows per pass of a register tile @p vecs vectors wide in @p Vec's
/// registers (Eq. 6 on a CPU register file): rows x vecs accumulators
/// plus vecs operand vectors plus one broadcast or loaded value must fit.
/// Rounded down to a power of two, at most @p most and at least one, so
/// the passes over a tile of @p most rows are of equal height: AVX2 at 16
/// columns fits 6 rows, but a 6 + 2 split leaves the 2-row pass's four
/// FMA chains short of hiding the FMA latency (V1 at m = 256 ran ~34
/// against ~42 GFLOP/s with 4 + 4, -mavx2 -mfma on a 4-vCPU AVX-512 Xeon).
template <class Vec>
constexpr int rows_per_pass(int vecs, int most) {
  return static_cast<int>(std::bit_floor(static_cast<unsigned>(
      std::clamp((Vec::kRegs - 1) / vecs - 1, 1, most))));
}

}  // namespace nmspmm::simd
