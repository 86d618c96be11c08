// Epilogue fusion: elementwise post-ops applied in the last k-chunk's
// micro-kernel stores.
//
// Chained sparse layers (the SwiGLU FFN the paper's introduction
// motivates) never run a projection alone: the output immediately gets a
// bias, an activation, or an elementwise product with a sibling
// projection. Running those as separate passes re-reads and re-writes
// the whole C matrix after the SpMM already had it hot in registers.
// The blocked driver instead applies the epilogue while the final
// k-chunk's tile is still in L1, right after the accumulator store —
// the same fusion trick as the beta=0 zero-fill (the Accumulate hook).
//
// The epilogue is split in two, mirroring plan/execute:
//  - EpilogueSpec is *structural* — which ops the stores apply. It lives
//    in SpmmOptions, is hashable, and keys the plan cache.
//  - EpilogueArgs carries the *operands* (bias pointer, second matrix)
//    and is passed per execute() like A and C, so one cached plan serves
//    any operand instance.
//
// Semantics, per element (i, j) of the fully accumulated product acc:
//    v = acc + (spec.bias ? bias[j] : 0)
//    if !spec.act_on_other:  v = act(v);        if (spec.mul) v *= other[i][j]
//    if  spec.act_on_other:  v *= act(other[i][j])   // e.g. silu(gate) (.) up
//    if  spec.add:           v += residual[i][j]     // C = epilogue(AB) + D
//    C[i][j] = v
// apply_epilogue() is the unfused reference implementation of exactly
// this recipe; the fused kernels must match it bit-for-bit because both
// run the same scalar ops on the same accumulated values.
#pragma once

#include <cstdint>

#include "core/vec.hpp"
#include "util/check.hpp"
#include "util/matrix.hpp"

namespace nmspmm {

/// Activation functions the epilogue can apply.
enum class Activation : std::uint8_t { kNone, kSilu, kGelu };

const char* to_string(Activation act);

// The scalar activation helpers are deliberately opaque to the inliner:
// GCC's default fp-contract=fast may otherwise fuse a caller-side
// mul/add pair across the inlined boundary (e.g. the final p*scale of
// fast_exp with silu's 1.0f + ...), producing values a ulp away from
// the vector forms. A call boundary pins the scalar sequence to exactly
// the ops the vector lanes execute, keeping every description
// bit-identical. Scalar calls only happen on ragged tails, in scalar
// builds and in the unfused reference, so the cost is irrelevant.
#if defined(__GNUC__) || defined(__clang__)
#define NMSPMM_NO_INLINE __attribute__((noinline))
#else
#define NMSPMM_NO_INLINE
#endif

namespace detail {

// fast_exp / silu / gelu written once over a vector description
// (core/vec.hpp). Every lane executes the exact scalar op sequence (same
// min/max, same fma chain, same exponent splice), so an element produces
// the same bits whether it goes through Vec512, Vec256 or VecScalar —
// the epilogue and attention stay bit-exact across tile widths and ISAs
// while running ~vector-width faster than a libm call (which would also
// spill the kernel's live SIMD registers).

/// fast_exp's op sequence on every lane of @p x.
template <class Vec>
inline typename Vec::V exp_lanes(typename Vec::V x) {
  using V = typename Vec::V;
  const V t = Vec::min(
      Vec::max(Vec::mul(x, Vec::set1(1.4426950408889634f)),
               Vec::set1(-126.0f)),
      Vec::set1(126.0f));
  const V fl = Vec::floor(t);
  const V f = Vec::sub(t, fl);  // 2^t = 2^fl * 2^f, f in [0, 1)
  // Degree-5 minimax polynomial for 2^f on [0, 1).
  V p = Vec::set1(1.8775767e-3f);
  p = Vec::fma(p, f, Vec::set1(8.9893397e-3f));
  p = Vec::fma(p, f, Vec::set1(5.5826318e-2f));
  p = Vec::fma(p, f, Vec::set1(2.4015361e-1f));
  p = Vec::fma(p, f, Vec::set1(6.9315308e-1f));
  p = Vec::fma(p, f, Vec::set1(1.0f));
  return Vec::mul(p, Vec::exp2i(fl));
}

}  // namespace detail

/// Branch-free exp(x) (relative error < 4e-6 over the float range,
/// saturating at the overflow/underflow ends). The epilogue runs inside
/// the micro-kernel's store section, where a libm exp call would spill
/// every live SIMD register and block auto-vectorization — this
/// formulation (floor + degree-5 polynomial in explicit fma + exponent
/// bit splice) compiles to straight-line vector code. std::fma keeps
/// scalar and vectorized compilations bit-identical per element, which
/// the fused-vs-unfused bit-exactness tests rely on.
inline NMSPMM_NO_INLINE float fast_exp(float x) {
  return detail::exp_lanes<simd::VecScalar>(x);
}

namespace detail {

/// fast_exp on every lane of @p x: the scalar form through its
/// out-of-line function (see NMSPMM_NO_INLINE), the vector forms inline.
template <class Vec>
inline typename Vec::V exp_of(typename Vec::V x) {
  if constexpr (Vec::kWidth == 1) {
    return fast_exp(x);
  } else {
    return exp_lanes<Vec>(x);
  }
}

/// silu's op sequence on every lane of @p x.
template <class Vec>
inline typename Vec::V silu_lanes(typename Vec::V x) {
  return Vec::div(x, Vec::add(Vec::set1(1.0f), exp_of<Vec>(Vec::neg(x))));
}

/// gelu's op sequence on every lane of @p x.
template <class Vec>
inline typename Vec::V gelu_lanes(typename Vec::V x) {
  using V = typename Vec::V;
  const V inner =
      Vec::fma(Vec::mul(Vec::set1(0.044715f), x), Vec::mul(x, x), x);
  const V y = Vec::mul(Vec::set1(0.7978845608028654f), inner);
  const V e2 = exp_of<Vec>(Vec::mul(Vec::set1(2.0f), y));
  const V one = Vec::set1(1.0f);
  const V tanh_y = Vec::div(Vec::sub(e2, one), Vec::add(e2, one));
  return Vec::mul(Vec::mul(Vec::set1(0.5f), x), Vec::add(one, tanh_y));
}

}  // namespace detail

/// silu(x) = x * sigmoid(x) — the canonical definition shared by the
/// fused epilogue and the unfused reference, so both are bit-exact.
/// Built on fast_exp: ~4e-6 relative deviation from the libm form,
/// negligible next to the pruning approximation itself.
inline NMSPMM_NO_INLINE float silu(float x) {
  return detail::silu_lanes<simd::VecScalar>(x);
}

/// gelu(x), tanh approximation (the form LLM FFNs actually deploy),
/// with tanh expressed through fast_exp (saturates correctly at both
/// ends thanks to fast_exp's clamped range).
inline NMSPMM_NO_INLINE float gelu(float x) {
  return detail::gelu_lanes<simd::VecScalar>(x);
}

inline float apply_activation(Activation act, float x) {
  switch (act) {
    case Activation::kNone: return x;
    case Activation::kSilu: return silu(x);
    case Activation::kGelu: return gelu(x);
  }
  return x;
}

/// Structural half of the epilogue: which ops the last k-chunk's stores
/// apply. Part of SpmmOptions (hashed into the plan-cache key); the
/// operand pointers ride in EpilogueArgs per execute() call.
struct EpilogueSpec {
  Activation act = Activation::kNone;
  /// Add a per-column bias (EpilogueArgs::bias, length n) before the
  /// activation.
  bool bias = false;
  /// Multiply by a second m x n operand (EpilogueArgs::other).
  bool mul = false;
  /// When true the activation is applied to the *other* operand instead
  /// of the accumulated value: C = (acc + bias) * act(other). This is the
  /// SwiGLU shape — the up-projection's stores compute up * silu(gate)
  /// without a separate pass over either matrix. Requires mul.
  bool act_on_other = false;
  /// Residual add: after everything above, add a second m x n operand
  /// (EpilogueArgs::residual) — C = epilogue(AB) + D, the transformer
  /// skip connection, fused into the stores instead of a separate pass
  /// over C and D.
  bool add = false;

  [[nodiscard]] bool active() const {
    return act != Activation::kNone || bias || mul || add;
  }
  friend bool operator==(const EpilogueSpec&, const EpilogueSpec&) = default;
};

std::size_t hash_value(const EpilogueSpec& spec);

/// Structural half of the prologue: a normalization applied to the A
/// operand before the kernels read it. The decoder-layer shape this
/// serves is pre-norm attention/FFN: the projection consumes
/// rmsnorm(x) while the residual stream stays the *unnormalized* x —
/// folding the norm into the plan means no caller ever materializes a
/// normalized copy, so the residual path stays fused end to end.
/// Like EpilogueSpec this is structural and hashed into the plan-cache
/// key; the per-feature gain operand rides EpilogueArgs per execute().
struct PrologueSpec {
  /// RMS-normalize each row of A over its k features before the SpMM:
  ///   a'[i][j] = (a[i][j] * inv_rms(a_i)) * gain[j]
  ///   inv_rms(x) = 1 / sqrt(mean_j(x[j]^2) + eps)
  /// with gain = EpilogueArgs::rms_gain (length k).
  bool rmsnorm = false;
  /// Variance floor of the normalizer (Llama-family default).
  float eps = 1e-5f;

  [[nodiscard]] bool active() const { return rmsnorm; }
  friend bool operator==(const PrologueSpec&, const PrologueSpec&) = default;
};

std::size_t hash_value(const PrologueSpec& spec);

/// Runtime operands bound to an EpilogueSpec at execute() time.
struct EpilogueArgs {
  /// Per-column bias, length n (required iff spec.bias).
  const float* bias = nullptr;
  /// Second elementwise operand, same shape as C (required iff spec.mul).
  /// Must not alias C: the fused stores write C before reading other.
  ConstViewF other;
  /// Residual operand, same shape as C (required iff spec.add). Must not
  /// alias C for the same reason as other.
  ConstViewF residual;
  /// Per-feature RMSNorm gain, length k (required iff the plan's
  /// PrologueSpec has rmsnorm). Rides the same per-execute operand
  /// bundle as the epilogue pointers so one cached plan serves any gain
  /// instance.
  const float* rms_gain = nullptr;
};

/// Check @p args supplies what @p spec needs for an m x n output; returns
/// InvalidArgument with a specific message otherwise.
Status validate_epilogue(const EpilogueSpec& spec, const EpilogueArgs& args,
                         index_t m, index_t n);

/// Check @p args supplies the gain @p spec needs for a depth-k A operand;
/// returns InvalidArgument with a specific message otherwise.
Status validate_prologue(const PrologueSpec& spec, const EpilogueArgs& args);

/// Unfused reference: apply the epilogue recipe as a separate pass over
/// @p C (which holds the plain accumulated product). With spmm_reference
/// (core/spmm_ref.hpp) it is the unfused oracle for the fused kernels.
void apply_epilogue(const EpilogueSpec& spec, const EpilogueArgs& args,
                    ViewF C);

/// Canonical RMSNorm over rows: out[i][j] = (x[i][j] * inv_rms(x_i)) *
/// gain[j]. The single implementation behind the plan prologue, the
/// decoder's QKV/FFN norms, and the unfused reference pipelines — all
/// callers share one op sequence, so fused-vs-unfused comparisons stay
/// bit-exact. The sum of squares goes through the deterministic 16-lane
/// reduction (core/reduce.hpp), so the result is also identical across
/// scalar/AVX2/AVX-512 builds. @p out may alias @p x (in-place).
void rmsnorm_rows(ConstViewF x, const float* gain, float eps, ViewF out);

namespace detail {

/// No-op epilogue: the default template argument of micro_kernel. With
/// kActive false the tile hook compiles away entirely.
struct EpilogueNone {
  static constexpr bool kActive = false;
  void apply_tile(index_t /*rows*/, float* /*c*/, index_t /*ldc*/,
                  int /*width*/) const {}
  void prefetch(int /*rows*/, int /*width*/) const {}
  [[nodiscard]] EpilogueNone shifted(index_t /*di*/, index_t /*dj*/) const {
    return {};
  }
};

/// Active epilogue, pre-shifted so its operand pointers align with the
/// C pointer handed to the micro kernel: row i / column j of the current
/// tile map to bias[j] and other[i * other_ld + j]. One instantiation
/// serves every spec: the op flags branch per vector chunk (well
/// predicted, noise next to the activation math itself).
struct EpilogueApply {
  static constexpr bool kActive = true;
  Activation act = Activation::kNone;
  bool act_on_other = false;
  const float* bias = nullptr;   ///< tile-origin column-aligned, or null
  const float* other = nullptr;  ///< tile-origin element, or null
  index_t other_ld = 0;
  const float* residual = nullptr;  ///< tile-origin element, or null
  index_t residual_ld = 0;

  /// @p act of every lane of @p x: the scalar form through
  /// apply_activation's out-of-line calls, the vector forms inline.
  template <class Vec>
  static typename Vec::V activate(Activation act, typename Vec::V x) {
    if constexpr (Vec::kWidth == 1) {
      return apply_activation(act, x);
    } else {
      if (act == Activation::kSilu) x = silu_lanes<Vec>(x);
      if (act == Activation::kGelu) x = gelu_lanes<Vec>(x);
      return x;
    }
  }

  /// The epilogue recipe on the kWidth columns from @p j of one row
  /// (@p orow / @p rrow that row of other / residual, or null).
  template <class Vec>
  typename Vec::V finalize(typename Vec::V v, int j, const float* orow,
                           const float* rrow) const {
    if (bias != nullptr) v = Vec::add(v, Vec::load(bias + j));
    if (act_on_other) {
      v = Vec::mul(v, activate<Vec>(act, Vec::load(orow + j)));
    } else {
      v = activate<Vec>(act, v);
      if (orow != nullptr) v = Vec::mul(v, Vec::load(orow + j));
    }
    if (rrow != nullptr) v = Vec::add(v, Vec::load(rrow + j));
    return v;
  }

  /// Finalize columns [j, width) of the tile: whole @p Vec registers,
  /// then the rest on the next narrower description, down to VecScalar.
  template <class Vec>
  NMSPMM_ALWAYS_INLINE void apply_cols(index_t rows, float* c, index_t ldc, int j,
                  int width) const {
    for (; j + Vec::kWidth <= width; j += Vec::kWidth) {
      for (index_t i = 0; i < rows; ++i) {
        float* cij = c + i * ldc + j;
        const float* orow =
            other != nullptr ? other + i * other_ld : nullptr;
        const float* rrow =
            residual != nullptr ? residual + i * residual_ld : nullptr;
        Vec::store(cij, finalize<Vec>(Vec::load(cij), j, orow, rrow));
      }
    }
    if constexpr (Vec::kWidth > 1) {
      apply_cols<typename Vec::Half>(rows, c, ldc, j, width);
    }
  }

  /// Finalize a freshly stored rows x width tile in place (it is still
  /// L1-hot: the accumulator stores happened a few cycles ago). The row
  /// loop is innermost so the tile's rows run their activation chains
  /// concurrently — the silu/gelu dependency chain is ~100 cycles of
  /// latency, and a row-at-a-time order would serialize on it (measured
  /// ~8x slower on 8-row tiles). Every lane and the scalar tail compute
  /// the identical op sequence, so results don't depend on the path.
  /// Deliberately NOT inlined into the micro kernel: inlining hoists the
  /// activation polynomials' ~20 vector constants into registers across
  /// the whole kernel, starving the FMA loop's accumulators into spills
  /// (measured ~5% on the up-projection); as a call the constants load
  /// once per tile, amortized over rows x width elements.
  NMSPMM_NO_INLINE void apply_tile(index_t rows, float* c, index_t ldc,
                                   int width) const {
    apply_cols<simd::SweepVec>(rows, c, ldc, 0, width);
  }

  /// Issue prefetches for the tile's slice of the second operand. The
  /// micro kernel calls this before its FMA loop: `other` is read in
  /// 64-byte strips with a full-row stride between them — a pattern the
  /// hardware prefetcher will not cover — so without this the epilogue
  /// pays a DRAM latency per tile row instead of riding the kernel's
  /// compute shadow.
  void prefetch(int rows, int width) const {
    for (int i = 0; i < rows; ++i) {
      // An unaligned strip can straddle a line boundary; touching the
      // last element's line too costs nothing when it is the same line.
      if (other != nullptr) {
        const float* row = other + i * other_ld;
        __builtin_prefetch(row, 0, 3);
        __builtin_prefetch(row + (width - 1), 0, 3);
      }
      if (residual != nullptr) {
        const float* row = residual + i * residual_ld;
        __builtin_prefetch(row, 0, 3);
        __builtin_prefetch(row + (width - 1), 0, 3);
      }
    }
  }

  /// Sweep-prefetch the whole (rows x cols) block of the second operand
  /// the upcoming m-block will consume. Issued once per m-block of the
  /// final k-chunk, thousands of cycles ahead of the consuming stores,
  /// and in address order — so page walks resolve sequentially and the
  /// per-tile reads land in cache instead of paying a DRAM latency per
  /// 64-byte strip.
  void prefetch_block(index_t rows, index_t cols) const {
    if (other == nullptr && residual == nullptr) return;
    constexpr index_t kFloatsPerLine = 64 / sizeof(float);
    for (index_t i = 0; i < rows; ++i) {
      if (other != nullptr) {
        const float* row = other + i * other_ld;
        for (index_t j = 0; j < cols; j += kFloatsPerLine) {
          __builtin_prefetch(row + j, 0, 2);
        }
      }
      if (residual != nullptr) {
        const float* row = residual + i * residual_ld;
        for (index_t j = 0; j < cols; j += kFloatsPerLine) {
          __builtin_prefetch(row + j, 0, 2);
        }
      }
    }
  }

  /// The epilogue aligned to a sub-tile @p di rows down, @p dj columns
  /// right of this one's origin (composable, like APanel::shifted_rows).
  [[nodiscard]] EpilogueApply shifted(index_t di, index_t dj) const {
    return {act,
            act_on_other,
            bias != nullptr ? bias + dj : nullptr,
            other != nullptr ? other + di * other_ld + dj : nullptr,
            other_ld,
            residual != nullptr ? residual + di * residual_ld + dj : nullptr,
            residual_ld};
  }

  /// Root an EpilogueApply at C's (0, 0) from the validated spec + args.
  static EpilogueApply root(const EpilogueSpec& spec,
                            const EpilogueArgs& args) {
    EpilogueApply e;
    e.act = spec.act;
    e.act_on_other = spec.act_on_other;
    e.bias = spec.bias ? args.bias : nullptr;
    e.other = spec.mul ? args.other.data() : nullptr;
    e.other_ld = spec.mul ? args.other.ld() : 0;
    e.residual = spec.add ? args.residual.data() : nullptr;
    e.residual_ld = spec.add ? args.residual.ld() : 0;
    return e;
  }
};

}  // namespace detail
}  // namespace nmspmm
