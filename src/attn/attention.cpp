#include "attn/attention.hpp"

#include <algorithm>
#include <bit>
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
/// reduction, which reduces sixteen dots in one register.
constexpr index_t kBlock = 16;

// The sweeps of a block, written once over a vector description
// (core/vec.hpp). Each serves a pass of kH query heads of one KV head's
// group from one load of the shared K or V rows, with register tiles
// sized from kH at compile time. Every lane runs the scalar op sequence:
// the logits reduce through simd::dot's 16-lane tree, the weights are
// elementwise fast_exp, the sum adds them in token order, and the
// attention·V update is one fma per element per token in token order.

/// Calls f.template operator()<H>(h) for head ranges [h, h + H) that
/// cover [0, @p heads) in order: passes of kMost heads, then one each of
/// the smaller powers of two the remainder needs.
template <int kMost, class F>
NMSPMM_ALWAYS_INLINE void for_head_passes(index_t heads, const F& f) {
  index_t h = 0;
  for (; h + kMost <= heads; h += kMost) f.template operator()<kMost>(h);
  if constexpr (kMost > 1) {
    for_head_passes<kMost / 2>(heads - h, [&]<int H>(index_t i) {
      f.template operator()<H>(h + i);
    });
  }
}

/// Heads per Q·Kᵀ pass: their Q registers of one 16-lane step and at
/// least one token's accumulators for each must fit beside a K register.
template <class Vec>
constexpr int kLogitHeads = static_cast<int>(std::bit_floor(
    static_cast<unsigned>(std::clamp(
        (Vec::kRegs - 1) / (2 * simd::detail::kReduceRegs<Vec>), 1, 8))));

/// logits[h * kBlock + t] = dot(q_h, k_t) for the kH heads
/// q_h = q + h * ld and the @p count rows k_t = k + t * row. A pass holds
/// the heads' Q registers of one 16-lane step and the accumulators of as
/// many tokens as the registers fit (Eq. 6, as for the SpMM tiles), so
/// each K register is loaded once for all kH heads. On Vec512 a pass is
/// sixteen dots, reduced in one register.
template <class Vec, int kH>
void head_logits(const float* q, index_t ld, const float* k, index_t row,
                 index_t count, index_t n, float* logits) {
  constexpr int kW = Vec::kWidth;
  constexpr int kR = simd::detail::kReduceRegs<Vec>;
  constexpr int kT = simd::rows_per_pass<Vec>(kH * kR, kBlock / kH);
  constexpr int kA = kH * kT;  // dots per pass; dot h * kT + t
  for (index_t t0 = 0; t0 < count; t0 += kT) {
    const int valid = static_cast<int>(std::min<index_t>(kT, count - t0));
    const float* kt[kT];  // a short pass re-reads its last row
#pragma GCC unroll 16
    for (int t = 0; t < kT; ++t) {
      kt[t] = k + (t0 + std::min(t, valid - 1)) * row;
    }
    typename Vec::V acc[kA * kR];
    simd::detail::dot_lanes<Vec, kH, kT>(q, ld, kt, n, acc);
    if constexpr (kA == kW && kR == 1 &&
                  requires { Vec::lane_trees(acc); }) {
      alignas(64) float dots[kW];
      Vec::store(dots, Vec::lane_trees(acc));
      for (int h = 0; h < kH; ++h) {
        float* out = logits + h * kBlock + t0;
        if (valid == kT) {  // a constant count: no byte-wise copy loop
          std::copy_n(dots + h * kT, kT, out);
        } else {
          std::copy_n(dots + h * kT, valid, out);
        }
      }
    } else {
      for (int h = 0; h < kH; ++h) {
        for (int t = 0; t < valid; ++t) {
          logits[h * kBlock + t0 + t] =
              simd::detail::lane_tree<Vec>(acc + (h * kT + t) * kR);
        }
      }
    }
  }
}

/// Registers of each head's accumulator per attention·V pass over the
/// tokens, and the heads that fit beside them: kH x kAxpyVecs
/// accumulators, the kAxpyVecs V registers and one broadcast weight.
constexpr int kAxpyVecs = 4;
template <class Vec>
constexpr int kAxpyHeads = simd::rows_per_pass<Vec>(kAxpyVecs, 8);

/// acc_h[j] = fma(w[h * kBlock + t], v_t[j], acc_h[j]) for t = 0..count-1
/// in order, for the kH heads acc_h = acc + h * ld and the rows
/// v_t = v + t * row: kAxpyVecs (masked) registers of every head's
/// accumulator per pass over the tokens, each V register loaded once for
/// the kH heads.
template <class Vec, int kH>
void head_axpy(const float* w, const float* v, index_t row, index_t count,
               float* acc, index_t ld, index_t n) {
  using V = typename Vec::V;
  constexpr int kW = Vec::kWidth;
  constexpr int kU = kAxpyVecs;
  for (index_t j = 0; j < n; j += kU * kW) {
    typename Vec::Mask mask[kU];
    V a[kH * kU];
#pragma GCC unroll 4
    for (int u = 0; u < kU; ++u) {
      mask[u] = Vec::lanes(static_cast<int>(n - j) - u * kW);
    }
#pragma GCC unroll 32
    for (int e = 0; e < kH * kU; ++e) {
      a[e] = Vec::load_n(acc + e / kU * ld + j + e % kU * kW, mask[e % kU]);
    }
    for (index_t t = 0; t < count; ++t) {
      V vt[kU];
#pragma GCC unroll 4
      for (int u = 0; u < kU; ++u) {
        vt[u] = Vec::load_n(v + t * row + j + u * kW, mask[u]);
      }
#pragma GCC unroll 8
      for (int h = 0; h < kH; ++h) {
        const V wt = Vec::set1(w[h * kBlock + t]);
#pragma GCC unroll 4
        for (int u = 0; u < kU; ++u) {
          a[h * kU + u] = Vec::fma(wt, vt[u], a[h * kU + u]);
        }
      }
    }
#pragma GCC unroll 32
    for (int e = 0; e < kH * kU; ++e) {
      Vec::store_n(acc + e / kU * ld + j + e % kU * kW, a[e], mask[e % kU]);
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

/// Running states folded per block pass: kFoldHeads interleaved sums.
constexpr int kFoldHeads = 8;

/// OnlineSoftmax::fold for the kH states sm[h], whose @p count logits,
/// weights and accumulators sit at logits + h * stride, w + h * stride
/// and acc + h * ld. The finiteness test and the block max are vector
/// ops; the sums run as kH interleaved chains, each in token order.
/// Returns the lowest head with a non-finite logit, leaving every state
/// untouched, or kH once all are folded.
template <class Vec, int kH>
int fold_heads(OnlineSoftmax* sm, const float* logits, index_t stride,
               index_t count, float* w, float* acc, index_t ld, index_t n) {
  using V = typename Vec::V;
  constexpr int kW = Vec::kWidth;
  float bmax[kH];
  for (int h = 0; h < kH; ++h) {
    const float* l = logits + h * stride;
    V mx = Vec::set1(l[0]);
    V nan = Vec::zero();  // x - x: NaN exactly where x is not finite
    index_t t = 0;
    for (; t + kW <= count; t += kW) {
      const V x = Vec::load(l + t);
      mx = Vec::max(mx, x);
      nan = Vec::add(nan, Vec::sub(x, x));
    }
    bool finite = !Vec::any_nan(nan);
    bmax[h] = Vec::hmax(mx);
    for (; t < count; ++t) {
      finite = finite && std::isfinite(l[t]);
      bmax[h] = std::max(bmax[h], l[t]);
    }
    if (!finite) return h;
  }
  float s[kH];
  for (int h = 0; h < kH; ++h) {
    OnlineSoftmax& st = sm[h];
    if (bmax[h] > st.m) {
      // New max: rescale the running sum and accumulator into the new
      // frame, once for the whole block. On the first fold m is -inf,
      // so r underflows to fast_exp's clamp floor (~2^-126) — harmless
      // against the zeroed s and acc.
      const float r = fast_exp(st.m - bmax[h]);
      st.s *= r;
      simd::scale<Vec>(acc + h * ld, r, n);
      st.m = bmax[h];
    }
    // Arguments <= 0: never overflow.
    block_exp<Vec>(logits + h * stride, st.m, count, w + h * stride);
    s[h] = st.s;
  }
  for (index_t t = 0; t < count; ++t) {
#pragma GCC unroll 8
    for (int h = 0; h < kH; ++h) s[h] += w[h * stride + t];
  }
  for (int h = 0; h < kH; ++h) sm[h].s = s[h];
  return kH;
}

/// Calls f(off, k, v, n) for the runs of tokens [t0, t0 + count) that
/// share a KV page, in order: k + i * row and v + i * row (i < n) are the
/// K and V rows of token t0 + off + i. A block within one page is one
/// run; only a block that straddles a page boundary is split.
template <class F>
NMSPMM_ALWAYS_INLINE void for_page_runs(const KvCache::SeqView& view,
                                        index_t t0, index_t count,
                                        const F& f) {
  for (index_t off = 0; off < count;) {
    const index_t t = t0 + off;
    const index_t slot = t % view.page_tokens;
    const float* page = view.pages[t / view.page_tokens];
    const index_t n = std::min(count - off, view.page_tokens - slot);
    f(off, page + slot * view.row, page + (view.page_tokens + slot) * view.row,
      n);
    off += n;
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
  return fold_heads<Vec, 1>(this, logits, 0, count, w, acc, 0, n) == 1;
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
  const auto heads = static_cast<std::size_t>(config_.n_heads);
  const std::size_t head_floats = heads * static_cast<std::size_t>(ld_);
  const std::size_t block_floats = heads * kBlock;
  scratch_ = AlignedBuffer((2 * head_floats + 2 * block_floats) *
                           sizeof(float));
  q_ = scratch_.as<float>();
  acc_ = q_ + head_floats;
  logits_ = acc_ + head_floats;
  w_ = logits_ + block_floats;
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
  const index_t row = view->row;
  // Q is pre-scaled, so a logit is the tree-reduced dot as stored.
  for (index_t h = 0; h < config_.n_heads; ++h) {
    for (index_t j = 0; j < hd; ++j) q_[h * ld_ + j] = scale_ * q[h * hd + j];
    std::fill_n(acc_ + h * ld_, hd, 0.0f);
    sm_[static_cast<std::size_t>(h)] = OnlineSoftmax{};
  }
  // One pass over the context serves every head: each block's K rows,
  // then its V rows, are read once, a page run at a time, and every KV
  // head's group takes its slice of them.
  for (index_t t0 = 0; t0 < len; t0 += kBlock) {
    const index_t count = std::min(kBlock, len - t0);
    for_page_runs(*view, t0, count,
                  [&](index_t off, const float* k, const float*, index_t n) {
      for (index_t g = 0; g < config_.n_kv_heads; ++g) {
        for_head_passes<kLogitHeads<Vec>>(group_, [&]<int H>(index_t h) {
          const index_t qh = g * group_ + h;
          head_logits<Vec, H>(q_ + qh * ld_, ld_, k + g * hd, row, n, hd,
                              logits_ + qh * kBlock + off);
        });
      }
    });
    index_t bad = -1;  // the lowest head with a non-finite logit
    for_head_passes<kFoldHeads>(config_.n_heads, [&]<int H>(index_t h) {
      if (bad >= 0) return;
      const int i = fold_heads<Vec, H>(sm_.data() + h, logits_ + h * kBlock,
                                       kBlock, count, w_ + h * kBlock,
                                       acc_ + h * ld_, ld_, hd);
      if (i < H) bad = h + i;
    });
    if (bad >= 0) return non_finite(seq_id, bad / group_, "an attention logit");
    for_page_runs(*view, t0, count,
                  [&](index_t off, const float*, const float* v, index_t n) {
      for (index_t g = 0; g < config_.n_kv_heads; ++g) {
        for_head_passes<kAxpyHeads<Vec>>(group_, [&]<int H>(index_t h) {
          const index_t qh = g * group_ + h;
          head_axpy<Vec, H>(w_ + qh * kBlock + off, v + g * hd, row, n,
                            acc_ + qh * ld_, ld_, hd);
        });
      }
    });
  }
  for (index_t h = 0; h < config_.n_heads; ++h) {
    const OnlineSoftmax& sm = sm_[static_cast<std::size_t>(h)];
    if (!std::isfinite(sm.s) || !(sm.s > 0.0f)) {
      return non_finite(seq_id, h / group_, "the softmax sum");
    }
    float* acc = acc_ + h * ld_;
    sm.finish<Vec>(acc, hd);
    std::copy_n(acc, hd, out + h * hd);
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
