#include "attn/attention.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/epilogue.hpp"  // fast_exp, fast_exp16, fast_exp8

namespace nmspmm::attn {

Status AttnConfig::validate() const {
  std::ostringstream os;
  if (n_heads < 1) {
    os << "AttnConfig.n_heads must be >= 1, got " << n_heads;
    return Status::InvalidArgument(os.str());
  }
  if (n_kv_heads < 1 || n_kv_heads > n_heads || n_heads % n_kv_heads != 0) {
    os << "AttnConfig.n_kv_heads (" << n_kv_heads
       << ") must divide n_heads (" << n_heads << ")";
    return Status::InvalidArgument(os.str());
  }
  if (head_dim < 2 || head_dim % 2 != 0) {
    os << "AttnConfig.head_dim must be even and >= 2 (RoPE rotates "
       << "half-split pairs), got " << head_dim;
    return Status::InvalidArgument(os.str());
  }
  if (!(rope_theta > 0.0f)) {
    os << "AttnConfig.rope_theta must be positive, got " << rope_theta;
    return Status::InvalidArgument(os.str());
  }
  if (!simd::kernel_compiled(kernel)) {
    os << "attention kernel '" << simd::to_string(kernel)
       << "' is not compiled into this build";
    return Status::InvalidArgument(os.str());
  }
  return Status::Ok();
}

namespace {

/// Context tokens per block: each head's running sum and accumulator
/// are rescaled at most once per block. 16 matches the AVX-512 logit
/// reduction, which reduces one block's sixteen dots in one register.
constexpr index_t kBlock = 16;

// The three kernel-specific sweeps of a block. Each vector path mirrors
// its scalar form op for op: the logits reduce through simd::dot's
// 16-lane tree, the weights are elementwise fast_exp, and the
// attention·V update is one fma per element per token in token order.

// GCC 12 leaks a bogus -Wmaybe-uninitialized out of the unmasked
// AVX-512 intrinsics' undefined merge sources (GCC PR105593), as in
// core/epilogue.hpp's vector mirrors; silenced for these kernels only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#if defined(__AVX512F__)
/// simd::detail::lane_tree of sixteen accumulators at once (token t in
/// @p a[t]), returned in token order. Each stage shuffles two registers
/// so one add performs that tree level for two, then four tokens, with
/// exactly lane_tree's operand pairs.
inline __m512 lane_tree16x16(const __m512* a) {
  __m512 u[8];  // stride 8: quarters 0-1 token 2i, 2-3 token 2i+1
  for (int i = 0; i < 8; ++i) {
    u[i] = _mm512_add_ps(_mm512_shuffle_f32x4(a[2 * i], a[2 * i + 1], 0x44),
                         _mm512_shuffle_f32x4(a[2 * i], a[2 * i + 1], 0xEE));
  }
  __m512 v[4];  // stride 4: quarter k holds token 4i + k
  for (int i = 0; i < 4; ++i) {
    v[i] = _mm512_add_ps(_mm512_shuffle_f32x4(u[2 * i], u[2 * i + 1], 0x88),
                         _mm512_shuffle_f32x4(u[2 * i], u[2 * i + 1], 0xDD));
  }
  // stride 2: quarter k holds tokens (k, 4 + k), then (8 + k, 12 + k)
  const __m512 w0 = _mm512_add_ps(_mm512_shuffle_ps(v[0], v[1], 0x44),
                                  _mm512_shuffle_ps(v[0], v[1], 0xEE));
  const __m512 w1 = _mm512_add_ps(_mm512_shuffle_ps(v[2], v[3], 0x44),
                                  _mm512_shuffle_ps(v[2], v[3], 0xEE));
  // stride 1: lane 4k + j holds token k + 4j; permute to token order.
  const __m512 x = _mm512_add_ps(_mm512_shuffle_ps(w0, w1, 0x88),
                                 _mm512_shuffle_ps(w0, w1, 0xDD));
  return _mm512_permutexvar_ps(
      _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15),
      x);
}

inline __mmask16 tail_mask16(index_t n) {
  return static_cast<__mmask16>((1u << n) - 1u);
}
#endif

#if defined(__AVX2__) && defined(__FMA__)
/// simd::detail::lane_tree of lanes 0..7 in @p lo and 8..15 in @p hi.
inline float lane_tree8x2(__m256 lo, __m256 hi) {
  const __m256 s8 = _mm256_add_ps(lo, hi);
  const __m128 s4 = _mm_add_ps(_mm256_castps256_ps128(s8),
                               _mm256_extractf128_ps(s8, 1));
  const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  return _mm_cvtss_f32(_mm_add_ss(s2, _mm_movehdup_ps(s2)));
}

/// Lane mask of the first min(@p n, 8) lanes.
inline __m256i tail_mask8(index_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// fma into the first @p n lanes of @p c only (simd::detail::dot_tail).
inline __m256 fma_tail8(const float* a, const float* b, __m256 c,
                        index_t n) {
  const __m256i mask = tail_mask8(n);
  const __m256 f = _mm256_fmadd_ps(_mm256_maskload_ps(a, mask),
                                   _mm256_maskload_ps(b, mask), c);
  return _mm256_blendv_ps(c, f, _mm256_castsi256_ps(mask));
}
#endif

/// logits[h * kBlock + t] = dot(q_h, k_t) for the @p group heads of
/// @p q (stride @p ld) and the first @p count rows of @p k. All kBlock
/// rows of @p k must be readable (attend pads a short block with a zero
/// row), so the AVX-512 path always reduces a full block in registers.
void block_logits(const float* q, index_t group, index_t ld,
                  const float* const* k, index_t count, index_t n,
                  float* logits, Kernel kernel) {
  [[maybe_unused]] const index_t n16 = n - n % simd::kReduceLanes;
#if defined(__AVX512F__)
  if (kernel == Kernel::kAvx512) {
    const __mmask16 tail = tail_mask16(n - n16);
    for (index_t h = 0; h < group; ++h) {
      const float* qh = q + h * ld;
      __m512 acc[kBlock];
#pragma GCC unroll 16
      for (index_t t = 0; t < kBlock; ++t) acc[t] = _mm512_setzero_ps();
      for (index_t j = 0; j < n16; j += 16) {
        const __m512 qv = _mm512_loadu_ps(qh + j);
#pragma GCC unroll 16
        for (index_t t = 0; t < kBlock; ++t) {
          acc[t] = _mm512_fmadd_ps(qv, _mm512_loadu_ps(k[t] + j), acc[t]);
        }
      }
      if (tail != 0) {
        const __m512 qv = _mm512_maskz_loadu_ps(tail, qh + n16);
#pragma GCC unroll 16
        for (index_t t = 0; t < kBlock; ++t) {
          acc[t] = _mm512_mask3_fmadd_ps(
              qv, _mm512_maskz_loadu_ps(tail, k[t] + n16), acc[t], tail);
        }
      }
      _mm512_storeu_ps(logits + h * kBlock, lane_tree16x16(acc));
    }
    return;
  }
#endif
#if defined(__AVX2__) && defined(__FMA__)
  if (kernel == Kernel::kAvx2) {
    for (index_t t = 0; t < count; ++t) {
      const float* kt = k[t];
      for (index_t h = 0; h < group; ++h) {
        const float* qh = q + h * ld;
        __m256 lo = _mm256_setzero_ps();
        __m256 hi = _mm256_setzero_ps();
        for (index_t j = 0; j < n16; j += 16) {
          lo = _mm256_fmadd_ps(_mm256_loadu_ps(qh + j),
                               _mm256_loadu_ps(kt + j), lo);
          hi = _mm256_fmadd_ps(_mm256_loadu_ps(qh + j + 8),
                               _mm256_loadu_ps(kt + j + 8), hi);
        }
        if (n16 < n) lo = fma_tail8(qh + n16, kt + n16, lo, n - n16);
        if (n16 + 8 < n) {
          hi = fma_tail8(qh + n16 + 8, kt + n16 + 8, hi, n - n16 - 8);
        }
        logits[h * kBlock + t] = lane_tree8x2(lo, hi);
      }
    }
    return;
  }
#endif
  (void)kernel;
  for (index_t t = 0; t < count; ++t) {
    for (index_t h = 0; h < group; ++h) {
      logits[h * kBlock + t] =
          simd::dot(q + h * ld, k[t], n, Kernel::kScalar);
    }
  }
}

/// w[t] = fast_exp(logits[t] - m) for t < count.
void block_exp(const float* logits, float m, index_t count, float* w,
               Kernel kernel) {
  index_t t = 0;
#if defined(__AVX512F__)
  if (kernel == Kernel::kAvx512) {
    const __m512 mm = _mm512_set1_ps(m);
    for (; t < count; t += 16) {
      const __mmask16 mask = tail_mask16(std::min<index_t>(16, count - t));
      _mm512_mask_storeu_ps(
          w + t, mask,
          detail::fast_exp16(
              _mm512_sub_ps(_mm512_maskz_loadu_ps(mask, logits + t), mm)));
    }
    return;
  }
#endif
#if defined(__AVX2__) && defined(__FMA__)
  if (kernel == Kernel::kAvx2) {
    const __m256 mm = _mm256_set1_ps(m);
    for (; t + 8 <= count; t += 8) {
      _mm256_storeu_ps(w + t, detail::fast_exp8(_mm256_sub_ps(
                                  _mm256_loadu_ps(logits + t), mm)));
    }
  }
#endif
  (void)kernel;
  for (; t < count; ++t) w[t] = fast_exp(logits[t] - m);
}

/// acc_h[j] = fma(w[h * kBlock + t], v_t[j], acc_h[j]) for t = 0..count-1
/// in order, for every group head h (acc_h = acc + h * ld). The block's
/// V rows come from memory once for the whole group; the heads after
/// the first re-read them from L1.
void block_axpy(const float* w, const float* const* v, index_t count,
                float* acc, index_t group, index_t ld, index_t n,
                Kernel kernel) {
#if defined(__AVX512F__)
  if (kernel == Kernel::kAvx512) {
    for (index_t h = 0; h < group; ++h) {
      const float* wh = w + h * kBlock;
      float* ah = acc + h * ld;
      index_t j = 0;
      for (; j + 64 <= n; j += 64) {  // four registers per pass
        __m512 a0 = _mm512_loadu_ps(ah + j);
        __m512 a1 = _mm512_loadu_ps(ah + j + 16);
        __m512 a2 = _mm512_loadu_ps(ah + j + 32);
        __m512 a3 = _mm512_loadu_ps(ah + j + 48);
        for (index_t t = 0; t < count; ++t) {
          const __m512 wt = _mm512_set1_ps(wh[t]);
          const float* vt = v[t] + j;
          a0 = _mm512_fmadd_ps(wt, _mm512_loadu_ps(vt), a0);
          a1 = _mm512_fmadd_ps(wt, _mm512_loadu_ps(vt + 16), a1);
          a2 = _mm512_fmadd_ps(wt, _mm512_loadu_ps(vt + 32), a2);
          a3 = _mm512_fmadd_ps(wt, _mm512_loadu_ps(vt + 48), a3);
        }
        _mm512_storeu_ps(ah + j, a0);
        _mm512_storeu_ps(ah + j + 16, a1);
        _mm512_storeu_ps(ah + j + 32, a2);
        _mm512_storeu_ps(ah + j + 48, a3);
      }
      for (; j < n; j += 16) {
        const __mmask16 mask = tail_mask16(std::min<index_t>(16, n - j));
        __m512 a = _mm512_maskz_loadu_ps(mask, ah + j);
        for (index_t t = 0; t < count; ++t) {
          a = _mm512_fmadd_ps(_mm512_set1_ps(wh[t]),
                              _mm512_maskz_loadu_ps(mask, v[t] + j), a);
        }
        _mm512_mask_storeu_ps(ah + j, mask, a);
      }
    }
    return;
  }
#endif
#if defined(__AVX2__) && defined(__FMA__)
  if (kernel == Kernel::kAvx2) {
    for (index_t h = 0; h < group; ++h) {
      const float* wh = w + h * kBlock;
      float* ah = acc + h * ld;
      index_t j = 0;
      for (; j + 32 <= n; j += 32) {
        __m256 a0 = _mm256_loadu_ps(ah + j);
        __m256 a1 = _mm256_loadu_ps(ah + j + 8);
        __m256 a2 = _mm256_loadu_ps(ah + j + 16);
        __m256 a3 = _mm256_loadu_ps(ah + j + 24);
        for (index_t t = 0; t < count; ++t) {
          const __m256 wt = _mm256_set1_ps(wh[t]);
          const float* vt = v[t] + j;
          a0 = _mm256_fmadd_ps(wt, _mm256_loadu_ps(vt), a0);
          a1 = _mm256_fmadd_ps(wt, _mm256_loadu_ps(vt + 8), a1);
          a2 = _mm256_fmadd_ps(wt, _mm256_loadu_ps(vt + 16), a2);
          a3 = _mm256_fmadd_ps(wt, _mm256_loadu_ps(vt + 24), a3);
        }
        _mm256_storeu_ps(ah + j, a0);
        _mm256_storeu_ps(ah + j + 8, a1);
        _mm256_storeu_ps(ah + j + 16, a2);
        _mm256_storeu_ps(ah + j + 24, a3);
      }
      for (; j + 8 <= n; j += 8) {
        __m256 a = _mm256_loadu_ps(ah + j);
        for (index_t t = 0; t < count; ++t) {
          a = _mm256_fmadd_ps(_mm256_set1_ps(wh[t]),
                              _mm256_loadu_ps(v[t] + j), a);
        }
        _mm256_storeu_ps(ah + j, a);
      }
      for (; j < n; ++j) {
        for (index_t t = 0; t < count; ++t) {
          ah[j] = std::fma(wh[t], v[t][j], ah[j]);
        }
      }
    }
    return;
  }
#endif
  (void)kernel;
  for (index_t t = 0; t < count; ++t) {
    for (index_t h = 0; h < group; ++h) {
      simd::axpy(w[h * kBlock + t], v[t], acc + h * ld, n, Kernel::kScalar);
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Prefetch the cache lines of @p n floats at @p p into L1.
inline void prefetch_row(const float* p, index_t n) {
#if defined(__SSE__)
  const char* bytes = reinterpret_cast<const char*>(p);
  for (std::size_t b = 0; b < static_cast<std::size_t>(n) * sizeof(float);
       b += 64) {
    _mm_prefetch(bytes + b, _MM_HINT_T0);
  }
#else
  (void)p;
  (void)n;
#endif
}

Status non_finite(std::uint64_t seq_id, index_t kv_head, const char* what) {
  std::ostringstream os;
  os << "sequence " << seq_id << ", KV head " << kv_head << ": " << what
     << " is not finite (inf/NaN in the query or the cached keys)";
  return Status::FailedPrecondition(os.str());
}

}  // namespace

bool OnlineSoftmax::fold(const float* logits, index_t count, float* w,
                         float* acc, index_t n, Kernel kernel) {
  float bmax = logits[0];
  for (index_t t = 0; t < count; ++t) {
    if (!std::isfinite(logits[t])) return false;
    bmax = std::max(bmax, logits[t]);
  }
  const Kernel k = simd::resolve(kernel);
  if (bmax > m) {
    // New max: rescale the running sum and accumulator into the new
    // frame, once for the whole block. On the first fold m is -inf, so
    // r underflows to fast_exp's clamp floor (~2^-126) — harmless
    // against the zeroed s and acc.
    const float r = fast_exp(m - bmax);
    s *= r;
    simd::scale(acc, r, n, k);
    m = bmax;
  }
  block_exp(logits, m, count, w, k);  // arguments <= 0: never overflow
  for (index_t t = 0; t < count; ++t) s += w[t];
  return true;
}

bool OnlineSoftmax::add(float logit, const float* v, float* acc, index_t n,
                        Kernel kernel) {
  // A new max weighs fast_exp(0) == 1.0f exactly, so the one-logit fold
  // is the classic per-token online softmax bit for bit.
  float w = 0.0f;
  if (!fold(&logit, 1, &w, acc, n, kernel)) return false;
  simd::axpy(w, v, acc, n, kernel);
  return true;
}

void OnlineSoftmax::finish(float* acc, index_t n, Kernel kernel) const {
  NMSPMM_CHECK_MSG(s > 0.0f, "OnlineSoftmax::finish before any add");
  simd::scale(acc, 1.0f / s, n, kernel);
}

DecodeAttention::DecodeAttention(AttnConfig config) : config_(config) {
  NMSPMM_CHECK_OK(config_.validate());
  scale_ = 1.0f / std::sqrt(static_cast<float>(config_.head_dim));
  group_ = config_.n_heads / config_.n_kv_heads;
  ld_ = static_cast<index_t>(round_up(
      static_cast<std::size_t>(config_.head_dim), simd::kReduceLanes));
  const index_t half = config_.head_dim / 2;
  inv_freq_.resize(static_cast<std::size_t>(half));
  for (index_t i = 0; i < half; ++i) {
    inv_freq_[static_cast<std::size_t>(i)] = std::pow(
        config_.rope_theta,
        -2.0f * static_cast<float>(i) / static_cast<float>(config_.head_dim));
  }
  rope_cs_.resize(static_cast<std::size_t>(config_.head_dim));
  const auto heads = static_cast<std::size_t>(group_);
  const std::size_t head_floats = heads * static_cast<std::size_t>(ld_);
  const std::size_t block_floats = heads * kBlock;
  scratch_ = AlignedBuffer(
      (2 * head_floats + 2 * block_floats + static_cast<std::size_t>(ld_)) *
      sizeof(float));
  q_ = scratch_.as<float>();
  acc_ = q_ + head_floats;
  logits_ = acc_ + head_floats;
  w_ = logits_ + block_floats;
  zero_row_ = w_ + block_floats;
  std::fill_n(zero_row_, ld_, 0.0f);
  sm_.resize(heads);
}

void DecodeAttention::rope(float* x, index_t heads, index_t pos) {
  const index_t hd = config_.head_dim;
  const index_t half = hd / 2;
  const auto p = static_cast<float>(pos);
  float* cos_t = rope_cs_.data();
  float* sin_t = cos_t + half;
  for (index_t i = 0; i < half; ++i) {
    const float angle = p * inv_freq_[static_cast<std::size_t>(i)];
    cos_t[i] = std::cos(angle);
    sin_t[i] = std::sin(angle);
  }
  for (index_t h = 0; h < heads; ++h) {
    float* xh = x + h * hd;
    for (index_t i = 0; i < half; ++i) {
      const float c = cos_t[i];
      const float s = sin_t[i];
      const float x0 = xh[i];
      const float x1 = xh[i + half];
      xh[i] = x0 * c - x1 * s;
      xh[i + half] = x0 * s + x1 * c;
    }
  }
}

Status DecodeAttention::append(KvCache& cache, std::uint64_t seq_id, float* k,
                               const float* v) {
  if (cache.token_row() != config_.kv_dim()) {
    std::ostringstream os;
    os << "KV cache holds " << cache.token_row()
       << " floats per token but the attention geometry needs "
       << config_.kv_dim();
    return Status::InvalidArgument(os.str());
  }
  const auto len = cache.seq_len(seq_id);
  if (!len.ok()) return len.status();
  rope(k, config_.n_kv_heads, *len);
  return cache.append(seq_id, k, v);
}

Status DecodeAttention::attend(const KvCache& cache, std::uint64_t seq_id,
                               float* q, float* out) {
  if (cache.token_row() != config_.kv_dim()) {
    std::ostringstream os;
    os << "KV cache holds " << cache.token_row()
       << " floats per token but the attention geometry needs "
       << config_.kv_dim();
    return Status::InvalidArgument(os.str());
  }
  const auto view = cache.view(seq_id);
  if (!view.ok()) return view.status();
  if (view->len == 0) {
    std::ostringstream os;
    os << "sequence " << seq_id
       << " has an empty context; append its first token before attending";
    return Status::FailedPrecondition(os.str());
  }
  rope(q, config_.n_heads, view->len - 1);
  const Kernel kernel = simd::resolve(config_.kernel);
  const index_t hd = config_.head_dim;
  const index_t len = view->len;
  const float* k_rows[kBlock];
  const float* v_rows[kBlock];
  for (index_t g = 0; g < config_.n_kv_heads; ++g) {
    // One pass over KV head g's context serves its whole query group.
    // Q is pre-scaled, so a logit is the tree-reduced dot as stored.
    const float* qg = q + g * group_ * hd;
    for (index_t h = 0; h < group_; ++h) {
      for (index_t j = 0; j < hd; ++j) {
        q_[h * ld_ + j] = scale_ * qg[h * hd + j];
      }
      std::fill_n(acc_ + h * ld_, hd, 0.0f);
      sm_[static_cast<std::size_t>(h)] = OnlineSoftmax{};
    }
    const index_t kv_off = g * hd;
    for (index_t t0 = 0; t0 < len; t0 += kBlock) {
      const index_t count = std::min(kBlock, len - t0);
      for (index_t t = 0; t < count; ++t) {
        k_rows[t] = view->k(t0 + t) + kv_off;
        v_rows[t] = view->v(t0 + t) + kv_off;
      }
      std::fill(k_rows + count, k_rows + kBlock, zero_row_);
      // A head's rows sit a full token row apart, a stride the hardware
      // prefetchers follow poorly: request the next block's lines now.
      const index_t next_end = std::min(len, t0 + count + kBlock);
      for (index_t t = t0 + count; t < next_end; ++t) {
        prefetch_row(view->k(t) + kv_off, hd);
        prefetch_row(view->v(t) + kv_off, hd);
      }
      block_logits(q_, group_, ld_, k_rows, count, hd, logits_, kernel);
      for (index_t h = 0; h < group_; ++h) {
        if (!sm_[static_cast<std::size_t>(h)].fold(
                logits_ + h * kBlock, count, w_ + h * kBlock, acc_ + h * ld_,
                hd, kernel)) {
          return non_finite(seq_id, g, "an attention logit");
        }
      }
      block_axpy(w_, v_rows, count, acc_, group_, ld_, hd, kernel);
    }
    for (index_t h = 0; h < group_; ++h) {
      const OnlineSoftmax& sm = sm_[static_cast<std::size_t>(h)];
      if (!std::isfinite(sm.s) || !(sm.s > 0.0f)) {
        return non_finite(seq_id, g, "the softmax sum");
      }
      float* acc = acc_ + h * ld_;
      sm.finish(acc, hd, kernel);
      std::copy_n(acc, hd, out + (g * group_ + h) * hd);
    }
  }
  return Status::Ok();
}

Status DecodeAttention::decode_step(KvCache& cache, std::uint64_t seq_id,
                                    float* q, float* k, const float* v,
                                    float* out) {
  NMSPMM_RETURN_IF_ERROR(append(cache, seq_id, k, v));
  return attend(cache, seq_id, q, out);
}

}  // namespace nmspmm::attn
