#include "attn/attention.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/epilogue.hpp"  // fast_exp, detail::exp_of

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
  return Status::Ok();
}

namespace {

/// Context tokens per block: each head's running sum and accumulator
/// are rescaled at most once per block. 16 matches the AVX-512 logit
/// reduction, which reduces one block's sixteen dots in one register.
constexpr index_t kBlock = 16;

// The three sweeps of a block, written once over a vector description
// (core/vec.hpp). Every lane runs the scalar op sequence: the logits
// reduce through simd::dot's 16-lane tree, the weights are elementwise
// fast_exp, and the attention·V update is one fma per element per token
// in token order.

/// logits[h * kBlock + t] = dot(q_h, k_t) for the @p group heads of
/// @p q (stride @p ld) and the first @p count rows of @p k, in passes of
/// as many tokens as the description's registers hold (Eq. 6, as for the
/// SpMM tiles): Vec512 reduces a whole block per pass. All kBlock rows
/// of @p k must be readable (attend pads a short block with a zero row);
/// a pass may write logits past @p count.
template <class Vec>
void block_logits(const float* q, index_t group, index_t ld,
                  const float* const* k, index_t count, index_t n,
                  float* logits) {
  constexpr int kR = simd::detail::kReduceRegs<Vec>;
  constexpr int kT = simd::rows_per_pass<Vec>(kR, kBlock);
  for (index_t t0 = 0; t0 < count; t0 += kT) {
    for (index_t h = 0; h < group; ++h) {
      typename Vec::V acc[kT * kR];
      simd::detail::dot_lanes<Vec, kT>(q + h * ld, k + t0, n, acc);
      float* out = logits + h * kBlock + t0;
      if constexpr (kT == Vec::kWidth && requires { Vec::lane_trees(acc); }) {
        Vec::store(out, Vec::lane_trees(acc));
      } else {
#pragma GCC unroll 16
        for (int t = 0; t < kT; ++t) {
          out[t] = simd::detail::lane_tree<Vec>(acc + t * kR);
        }
      }
    }
  }
}

/// w[t] = fast_exp(logits[t] - m) for t < count.
template <class Vec>
void block_exp(const float* logits, float m, index_t count, float* w) {
  const typename Vec::V mm = Vec::set1(m);
  for (index_t t = 0; t < count; t += Vec::kWidth) {
    const typename Vec::Mask mask = Vec::lanes(static_cast<int>(count - t));
    Vec::store_n(w + t,
                 detail::exp_of<Vec>(Vec::sub(Vec::load_n(logits + t, mask),
                                              mm)),
                 mask);
  }
}

/// acc_h[j] = fma(w[h * kBlock + t], v_t[j], acc_h[j]) for t = 0..count-1
/// in order, for every group head h (acc_h = acc + h * ld): four
/// registers of each head's accumulator per pass over the tokens, then a
/// masked register at a time. The block's V rows come from memory once
/// for the whole group; the heads after the first re-read them from L1.
template <class Vec>
void block_axpy(const float* w, const float* const* v, index_t count,
                float* acc, index_t group, index_t ld, index_t n) {
  constexpr int kW = Vec::kWidth;
  for (index_t h = 0; h < group; ++h) {
    const float* wh = w + h * kBlock;
    float* ah = acc + h * ld;
    index_t j = 0;
    for (; j + 4 * kW <= n; j += 4 * kW) {
      typename Vec::V a[4];
#pragma GCC unroll 4
      for (int u = 0; u < 4; ++u) a[u] = Vec::load(ah + j + u * kW);
      for (index_t t = 0; t < count; ++t) {
        const typename Vec::V wt = Vec::set1(wh[t]);
        const float* vt = v[t] + j;
#pragma GCC unroll 4
        for (int u = 0; u < 4; ++u) {
          a[u] = Vec::fma(wt, Vec::load(vt + u * kW), a[u]);
        }
      }
#pragma GCC unroll 4
      for (int u = 0; u < 4; ++u) Vec::store(ah + j + u * kW, a[u]);
    }
    for (; j < n; j += kW) {
      const typename Vec::Mask mask = Vec::lanes(static_cast<int>(n - j));
      typename Vec::V a = Vec::load_n(ah + j, mask);
      for (index_t t = 0; t < count; ++t) {
        a = Vec::fma(Vec::set1(wh[t]), Vec::load_n(v[t] + j, mask), a);
      }
      Vec::store_n(ah + j, a, mask);
    }
  }
}

/// Prefetch the cache lines of @p n floats at @p p into L1.
inline void prefetch_row(const float* p, index_t n) {
  const char* bytes = reinterpret_cast<const char*>(p);
  for (std::size_t b = 0; b < static_cast<std::size_t>(n) * sizeof(float);
       b += 64) {
    __builtin_prefetch(bytes + b, 0, 3);
  }
}

Status non_finite(std::uint64_t seq_id, index_t kv_head, const char* what) {
  std::ostringstream os;
  os << "sequence " << seq_id << ", KV head " << kv_head << ": " << what
     << " is not finite (inf/NaN in the query or the cached keys)";
  return Status::FailedPrecondition(os.str());
}

}  // namespace

template <class Vec>
bool OnlineSoftmax::fold(const float* logits, index_t count, float* w,
                         float* acc, index_t n) {
  float bmax = logits[0];
  for (index_t t = 0; t < count; ++t) {
    if (!std::isfinite(logits[t])) return false;
    bmax = std::max(bmax, logits[t]);
  }
  if (bmax > m) {
    // New max: rescale the running sum and accumulator into the new
    // frame, once for the whole block. On the first fold m is -inf, so
    // r underflows to fast_exp's clamp floor (~2^-126) — harmless
    // against the zeroed s and acc.
    const float r = fast_exp(m - bmax);
    s *= r;
    simd::scale<Vec>(acc, r, n);
    m = bmax;
  }
  block_exp<Vec>(logits, m, count, w);  // arguments <= 0: never overflow
  for (index_t t = 0; t < count; ++t) s += w[t];
  return true;
}

template <class Vec>
bool OnlineSoftmax::add(float logit, const float* v, float* acc, index_t n) {
  // A new max weighs fast_exp(0) == 1.0f exactly, so the one-logit fold
  // is the classic per-token online softmax bit for bit.
  float w = 0.0f;
  if (!fold<Vec>(&logit, 1, &w, acc, n)) return false;
  simd::axpy<Vec>(w, v, acc, n);
  return true;
}

template <class Vec>
void OnlineSoftmax::finish(float* acc, index_t n) const {
  NMSPMM_CHECK_MSG(s > 0.0f, "OnlineSoftmax::finish before any add");
  simd::scale<Vec>(acc, 1.0f / s, n);
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

template <class Vec>
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
      block_logits<Vec>(q_, group_, ld_, k_rows, count, hd, logits_);
      for (index_t h = 0; h < group_; ++h) {
        if (!sm_[static_cast<std::size_t>(h)].fold<Vec>(
                logits_ + h * kBlock, count, w_ + h * kBlock, acc_ + h * ld_,
                hd)) {
          return non_finite(seq_id, g, "an attention logit");
        }
      }
      block_axpy<Vec>(w_, v_rows, count, acc_, group_, ld_, hd);
    }
    for (index_t h = 0; h < group_; ++h) {
      const OnlineSoftmax& sm = sm_[static_cast<std::size_t>(h)];
      if (!std::isfinite(sm.s) || !(sm.s > 0.0f)) {
        return non_finite(seq_id, g, "the softmax sum");
      }
      float* acc = acc_ + h * ld_;
      sm.finish<Vec>(acc, hd);
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

// The sweeps for every description this build compiles: attend runs on
// simd::SweepVec, the tests compare the others against VecScalar.
#define NMSPMM_INSTANTIATE_ATTN(V)                                         \
  template bool OnlineSoftmax::fold<simd::V>(const float*, index_t,      \
                                             float*, float*, index_t);    \
  template bool OnlineSoftmax::add<simd::V>(float, const float*, float*,  \
                                            index_t);                     \
  template void OnlineSoftmax::finish<simd::V>(float*, index_t) const;    \
  template Status DecodeAttention::attend<simd::V>(                       \
      const KvCache&, std::uint64_t, float*, float*);
NMSPMM_FOR_EACH_VEC(NMSPMM_INSTANTIATE_ATTN)
#undef NMSPMM_INSTANTIATE_ATTN

}  // namespace nmspmm::attn
