// Decode-time attention core: RoPE + streaming-softmax attention over a
// paged KV cache, with GQA head mapping.
//
// One decode step per sequence is: rotate the fresh K by its position
// and append (K, V) to the cache; rotate Q by the same position; then
// compute softmax(scale * Q·Kᵀ)·V over the cached context without ever
// materializing a full logit row. attend() is token-major: one pass over
// the sequence's paged context, 16 tokens at a time, serves every query
// head. Per block it reads the block's K rows once (one page base per
// block; a block that straddles a page boundary is split at it) and
// computes every head's logits, each KV head's n_heads / n_kv_heads
// query heads sharing the loaded K registers; folds every head's
// running state, rescaling a head's sum and accumulator at most once
// per block; then reads the block's V rows once and FMAs each into
// every group head's accumulator. Each KV byte is read from memory once
// per step, a block's K rows and then its V rows as one contiguous run
// each.
//
// The softmax is the numerically-safe online form — running max with
// rescale-on-new-max, fp32 accumulation — folded a block at a time
// (OnlineSoftmax::fold) and tested against a long-double two-pass
// oracle (tests/test_attn.cpp) including adversarial logits
// (large-magnitude, all-equal, single-survivor, a new max arriving
// mid-block). A non-finite logit (inf/NaN in Q or the cached K) is a
// typed FAILED_PRECONDITION from attend(), never a throw. It names one
// KV head by a fixed rule: that of the first block holding a non-finite
// logit, the lowest KV head in that block.
//
// Bit-exactness discipline: the block sweeps are written once over a
// vector description (core/vec.hpp) and run on the build's widest,
// simd::SweepVec, with register tiles (heads and tokens per pass) sized
// from the description at compile time. Each logit is reduced through
// the same 16-lane tree as simd::dot (core/reduce.hpp), the weights come
// from fast_exp's op sequence on every lane, each head's sum adds its
// weights in token order, and the attention·V update is one fma per
// element per token in token order. So every description produces
// identical bits, equal to a per-head sweep of simd::dot,
// OnlineSoftmax::fold and simd::axpy on VecScalar; the tests assert both.
//
// GQA: query head h reads KV head h / (n_heads / n_kv_heads) — the
// grouped-query layout (n_kv_heads < n_heads) that shrinks the cache by
// the group factor. n_kv_heads == n_heads degenerates to MHA.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "attn/kv_cache.hpp"
#include "core/reduce.hpp"
#include "util/aligned_buffer.hpp"
#include "util/check.hpp"
#include "util/matrix.hpp"

namespace nmspmm::attn {

/// Attention geometry of one decoder layer.
struct AttnConfig {
  index_t n_heads = 0;
  index_t n_kv_heads = 0;  ///< divides n_heads; < n_heads means GQA
  index_t head_dim = 0;    ///< even (RoPE rotates half-split pairs)
  float rope_theta = 10000.0f;

  [[nodiscard]] index_t q_dim() const { return n_heads * head_dim; }
  [[nodiscard]] index_t kv_dim() const { return n_kv_heads * head_dim; }
  /// Width of a fused QKV projection row: Q, then K, then V.
  [[nodiscard]] index_t qkv_dim() const { return q_dim() + 2 * kv_dim(); }
  [[nodiscard]] Status validate() const;
};

/// Online (streaming) softmax accumulator for one head: fold logits in
/// context order, a block at a time; the running max keeps every exp()
/// argument <= 0 so nothing overflows no matter the logit magnitudes.
/// attend folds its heads' states by the same rule, a pass of heads at
/// a time; exposed so the numerics tests drive the fold against the
/// long-double oracle and compose attend's per-head reference. @p Vec is
/// the vector description the sweeps run on (core/vec.hpp); the tests
/// compare each one the build compiles (NMSPMM_FOR_EACH_VEC) with ==.
struct OnlineSoftmax {
  float m = -std::numeric_limits<float>::infinity();  ///< running max
  float s = 0.0f;  ///< running sum of exp(logit - m)

  /// Fold a block of @p count >= 1 logits (context order) into the
  /// running state: when the block max exceeds m, rescale s and acc[n]
  /// by exp(old_max - new_max) once (never the other way, so no exp()
  /// argument is ever positive); then write the weights
  /// w[t] = exp(logit[t] - m) and add them into s in token order. The
  /// caller completes the fold with acc[j] = fma(w[t], v_t[j], acc[j])
  /// in token order. Returns false, leaving the state untouched, when a
  /// logit is not finite.
  template <class Vec = simd::SweepVec>
  bool fold(const float* logits, index_t count, float* w, float* acc,
            index_t n);
  /// The one-logit fold: fold {logit}, then acc += w * v (fp32,
  /// acc caller-zeroed before the first add). Returns fold's result.
  template <class Vec = simd::SweepVec>
  bool add(float logit, const float* v, float* acc, index_t n);
  /// Normalize: acc[d] *= 1/s. Requires at least one successful fold.
  template <class Vec = simd::SweepVec>
  void finish(float* acc, index_t n) const;
};

/// The per-layer decode attention operator. Owns the RoPE frequency
/// table and every scratch buffer attend() touches, sized at
/// construction so the decode hot path never allocates. One instance
/// per decoder plan, serialized by the plan's run mutex (rope, append,
/// and attend write member scratch and are not thread-safe).
class DecodeAttention {
 public:
  /// Throws CheckError on invalid geometry (plan factories validate
  /// first and surface Status).
  explicit DecodeAttention(AttnConfig config);

  [[nodiscard]] const AttnConfig& config() const { return config_; }

  /// Rotate @p heads half-split head vectors of @p x in place by
  /// position @p pos (RoPE: pair (i, i + head_dim/2) by angle
  /// pos * theta^(-2i/head_dim)). The head_dim/2 (cos, sin) pairs are
  /// computed once per call and shared by every head.
  void rope(float* x, index_t heads, index_t pos);

  /// Rotate the fresh K (kv_dim floats, in place) by the sequence's
  /// current length and append (K, V) to the cache. Propagates the
  /// cache's typed statuses (NOT_FOUND / RESOURCE_EXHAUSTED).
  [[nodiscard]] Status append(KvCache& cache, std::uint64_t seq_id, float* k,
                              const float* v);

  /// Rotate Q (q_dim floats, in place) by the last cached position and
  /// write streaming-softmax attention over the cached context to
  /// @p out (q_dim floats). FAILED_PRECONDITION on an empty context or
  /// on a non-finite logit or softmax sum (inf/NaN in Q or the cached
  /// K), naming the KV head of the first failing 16-token block, the
  /// lowest in it; @p out is unspecified after an error. @p Vec as for
  /// OnlineSoftmax.
  template <class Vec = simd::SweepVec>
  [[nodiscard]] Status attend(const KvCache& cache, std::uint64_t seq_id,
                              float* q, float* out);

  /// One full decode step: append(k, v) then attend(q) — the
  /// convenience form tests and the example use; the decoder plan calls
  /// the halves separately to trace them as kv_append / attn spans.
  [[nodiscard]] Status decode_step(KvCache& cache, std::uint64_t seq_id,
                                   float* q, float* k, const float* v,
                                   float* out);

 private:
  AttnConfig config_;
  float scale_ = 0.0f;           ///< 1 / sqrt(head_dim)
  index_t group_ = 0;            ///< query heads per KV head
  index_t ld_ = 0;               ///< head_dim rounded up to 16 floats
  std::vector<float> inv_freq_;  ///< head_dim/2 RoPE inverse frequencies
  std::vector<float> rope_cs_;   ///< head_dim/2 cos, then head_dim/2 sin
  AlignedBuffer scratch_;        ///< every buffer below, 64-byte aligned
  float* q_ = nullptr;           ///< every head's Q, pre-scaled by scale_
  float* acc_ = nullptr;         ///< every head's attention·V accumulator
  float* logits_ = nullptr;      ///< n_heads x 16-token logit block
  float* w_ = nullptr;           ///< n_heads x 16-token softmax weights
  std::vector<OnlineSoftmax> sm_;  ///< one running state per query head
};

}  // namespace nmspmm::attn
