// Decode attention + KV cache: the deterministic 16-lane reductions and
// the GQA-grouped, token-blocked attend loop must be bit-identical on
// every vector description the build compiles, the streaming softmax (per logit and per block)
// and attend must match a long-double two-pass oracle on adversarial
// logits, non-finite logits must be typed errors, RoPE must be
// an isometry with position 0 the identity, and the paged KvCache must
// enforce its typed lifecycle statuses, page budget, and recycling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "attn/attention.hpp"
#include "attn/kv_cache.hpp"
#include "core/epilogue.hpp"
#include "core/reduce.hpp"
#include "tests/testing.hpp"
#include "workloads/generators.hpp"

namespace nmspmm {
namespace {

using attn::AttnConfig;
using attn::DecodeAttention;
using attn::KvCache;
using attn::KvCacheOptions;
using attn::OnlineSoftmax;
using simd::VecScalar;

// ----------------------------------------------------------- reductions

TEST(Reduce, DotBitExactAcrossKernels) {
  Rng rng(3);
  // 77 exercises full 16-lane blocks plus a ragged 13-element tail.
  const MatrixF a = random_matrix(1, 77, rng, -2.0f, 2.0f);
  const MatrixF b = random_matrix(1, 77, rng, -2.0f, 2.0f);
  const float want = simd::dot<VecScalar>(a.row(0), b.row(0), 77);
  for_each_vec([&]<class Vec>() {
    EXPECT_EQ(want, simd::dot<Vec>(a.row(0), b.row(0), 77))
        << "width " << Vec::kWidth;
    EXPECT_EQ(simd::sumsq<VecScalar>(a.row(0), 77),
              simd::sumsq<Vec>(a.row(0), 77))
        << "width " << Vec::kWidth;
  });
}

TEST(Reduce, ElementwiseBitExactAcrossKernels) {
  Rng rng(5);
  const MatrixF x = random_matrix(1, 45, rng, -3.0f, 3.0f);
  const MatrixF y0 = random_matrix(1, 45, rng, -3.0f, 3.0f);
  std::vector<float> want(y0.row(0), y0.row(0) + 45);
  simd::axpy<VecScalar>(0.37f, x.row(0), want.data(), 45);
  simd::scale<VecScalar>(want.data(), 1.61f, 45);
  for_each_vec([&]<class Vec>() {
    std::vector<float> got(y0.row(0), y0.row(0) + 45);
    simd::axpy<Vec>(0.37f, x.row(0), got.data(), 45);
    simd::scale<Vec>(got.data(), 1.61f, 45);
    EXPECT_EQ(want, got) << "width " << Vec::kWidth;
  });
}

TEST(Reduce, DotMatchesLongDoubleReference) {
  Rng rng(7);
  const MatrixF a = random_matrix(1, 200, rng, -1.0f, 1.0f);
  const MatrixF b = random_matrix(1, 200, rng, -1.0f, 1.0f);
  long double ref = 0.0L;
  for (index_t j = 0; j < 200; ++j) {
    ref += static_cast<long double>(a.row(0)[j]) * b.row(0)[j];
  }
  const float got = simd::dot(a.row(0), b.row(0), 200);
  EXPECT_NEAR(static_cast<double>(ref), got, 1e-4);
}

// ------------------------------------------------------ online softmax

/// Two-pass long-double softmax-weighted average of v over the logits —
/// the numerically trustworthy oracle the streaming form must track.
std::vector<float> oracle_softmax(const std::vector<float>& logits,
                                  const std::vector<std::vector<float>>& vs,
                                  index_t n) {
  long double m = -std::numeric_limits<long double>::infinity();
  for (float l : logits) m = std::max(m, static_cast<long double>(l));
  long double denom = 0.0L;
  for (float l : logits) denom += expl(static_cast<long double>(l) - m);
  std::vector<float> out(static_cast<std::size_t>(n), 0.0f);
  for (index_t j = 0; j < n; ++j) {
    long double acc = 0.0L;
    for (std::size_t t = 0; t < logits.size(); ++t) {
      acc += expl(static_cast<long double>(logits[t]) - m) *
             vs[t][static_cast<std::size_t>(j)];
    }
    out[static_cast<std::size_t>(j)] =
        static_cast<float>(acc / denom);
  }
  return out;
}

/// Stream @p logits (V rows seeded) through OnlineSoftmax and compare
/// with the oracle: one add() per logit when @p block is 0, otherwise
/// fold() @p block logits at a time followed by acc += w[t] * v_t in
/// token order, as attend drives it.
void check_online_vs_oracle(const std::vector<float>& logits,
                            double tolerance, index_t block = 0) {
  const index_t n = 24;
  Rng rng(11);
  std::vector<std::vector<float>> vs;
  for (std::size_t t = 0; t < logits.size(); ++t) {
    const MatrixF row = random_matrix(1, n, rng, -1.0f, 1.0f);
    vs.emplace_back(row.row(0), row.row(0) + n);
  }
  std::vector<float> acc(static_cast<std::size_t>(n), 0.0f);
  OnlineSoftmax sm;
  if (block == 0) {
    for (std::size_t t = 0; t < logits.size(); ++t) {
      sm.add(logits[t], vs[t].data(), acc.data(), n);
    }
  } else {
    const auto len = static_cast<index_t>(logits.size());
    std::vector<float> w(static_cast<std::size_t>(block));
    for (index_t t0 = 0; t0 < len; t0 += block) {
      const index_t count = std::min(block, len - t0);
      ASSERT_TRUE(sm.fold(logits.data() + t0, count, w.data(), acc.data(), n));
      for (index_t t = 0; t < count; ++t) {
        simd::axpy(w[static_cast<std::size_t>(t)],
                   vs[static_cast<std::size_t>(t0 + t)].data(), acc.data(), n);
      }
    }
  }
  sm.finish(acc.data(), n);
  const std::vector<float> want = oracle_softmax(logits, vs, n);
  for (index_t j = 0; j < n; ++j) {
    EXPECT_NEAR(want[static_cast<std::size_t>(j)],
                acc[static_cast<std::size_t>(j)], tolerance)
        << "block " << block << " element " << j;
  }
}

TEST(OnlineSoftmax, MatchesOracleOnRandomLogits) {
  Rng rng(13);
  const MatrixF l = random_matrix(1, 64, rng, -4.0f, 4.0f);
  // fast_exp carries ~4e-6 relative error per call; 64 fp32 adds keep
  // the streamed result within ~1e-5 of the long-double two-pass form.
  check_online_vs_oracle(std::vector<float>(l.row(0), l.row(0) + 64), 5e-5);
}

TEST(OnlineSoftmax, LargeMagnitudeLogitsDoNotOverflow) {
  // A naive exp(logit) overflows float at ~88; the running max keeps
  // every argument <= 0 so 500-magnitude logits stream safely.
  check_online_vs_oracle({480.0f, 500.0f, 495.0f, -500.0f, 499.0f}, 5e-5);
}

TEST(OnlineSoftmax, AllEqualLogitsAverage) {
  // Equal logits ⇒ the plain mean of the V rows, no matter the shift.
  check_online_vs_oracle({7.25f, 7.25f, 7.25f, 7.25f}, 5e-5);
}

TEST(OnlineSoftmax, SingleSurvivorDominates) {
  // One logit 200 above the rest: the softmax is a one-hot select of
  // its V row (competitors' weights underflow to exactly zero).
  check_online_vs_oracle({-150.0f, 50.0f, -150.0f, -180.0f}, 5e-5);
}

TEST(OnlineSoftmax, FinishedWeightsSumToOne) {
  OnlineSoftmax sm;
  const float one = 1.0f;
  float acc = 0.0f;
  for (float l : {3.0f, -2.0f, 9.0f, 9.0f}) sm.add(l, &one, &acc, 1);
  sm.finish(&acc, 1);
  // v == 1 everywhere, so the attention output is the weight sum.
  EXPECT_NEAR(1.0f, acc, 1e-6);
}

TEST(OnlineSoftmax, BlockFoldMatchesOracleAtEveryBlockSize) {
  // The same adversarial sets as above, folded 1, 3, 16 and 40 logits at
  // a time: new maxima arrive mid-block, at a block start, and in later
  // blocks, next to ±500 magnitudes and exact ties.
  Rng rng(14);
  const MatrixF l = random_matrix(1, 40, rng, -4.0f, 4.0f);
  std::vector<float> mixed(l.row(0), l.row(0) + 40);
  mixed[5] = 9.0f;     // new max mid-block
  mixed[16] = 12.0f;   // new max at the second block's start
  mixed[21] = 500.0f;  // new max mid-way through a later block
  mixed[22] = -500.0f;
  mixed[30] = 499.0f;
  mixed[38] = 500.0f;  // ties the max in the last block
  for (index_t block : {1, 3, 16, 40}) {
    check_online_vs_oracle(mixed, 5e-5, block);
    check_online_vs_oracle({480.0f, 500.0f, 495.0f, -500.0f, 499.0f}, 5e-5,
                           block);
    check_online_vs_oracle({7.25f, 7.25f, 7.25f, 7.25f}, 5e-5, block);
    check_online_vs_oracle({-150.0f, 50.0f, -150.0f, -180.0f}, 5e-5, block);
  }
}

TEST(OnlineSoftmax, BlockFoldBitExactAcrossKernels) {
  // 37 logits in blocks of 16: the exp runs full vectors and a ragged
  // tail, and the rescale fires mid-stream.
  Rng rng(15);
  const MatrixF l = random_matrix(1, 37, rng, -30.0f, 30.0f);
  const MatrixF v = random_matrix(37, 19, rng, -1.0f, 1.0f);
  auto run = [&]<class Vec>() {
    std::vector<float> acc(19, 0.0f), w(16);
    OnlineSoftmax sm;
    for (index_t t0 = 0; t0 < 37; t0 += 16) {
      const index_t count = std::min<index_t>(16, 37 - t0);
      EXPECT_TRUE(
          sm.fold<Vec>(l.row(0) + t0, count, w.data(), acc.data(), 19));
      for (index_t t = 0; t < count; ++t) {
        simd::axpy<Vec>(w[static_cast<std::size_t>(t)], v.row(t0 + t),
                        acc.data(), 19);
      }
    }
    acc.push_back(sm.s);
    acc.push_back(sm.m);
    return acc;
  };
  const std::vector<float> want = run.template operator()<VecScalar>();
  for_each_vec([&]<class Vec>() {
    EXPECT_EQ(want, run.template operator()<Vec>()) << "width " << Vec::kWidth;
  });
}

TEST(OnlineSoftmax, NonFiniteLogitIsRejectedWithoutStateChange) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float one = 1.0f;
  for (float bad : {inf, -inf, nan}) {
    OnlineSoftmax sm;
    float acc = 0.0f;
    ASSERT_TRUE(sm.add(2.0f, &one, &acc, 1));
    const float m = sm.m, s = sm.s, a = acc;
    const float block[3] = {1.0f, bad, 3.0f};
    float w[3];
    EXPECT_FALSE(sm.fold(block, 3, w, &acc, 1)) << bad;
    EXPECT_FALSE(sm.add(bad, &one, &acc, 1)) << bad;
    EXPECT_EQ(m, sm.m);
    EXPECT_EQ(s, sm.s);
    EXPECT_EQ(a, acc);
  }
}

// ---------------------------------------------------------------- RoPE

TEST(Rope, PositionZeroIsIdentity) {
  AttnConfig cfg;
  cfg.n_heads = 2;
  cfg.n_kv_heads = 2;
  cfg.head_dim = 8;
  DecodeAttention op(cfg);
  Rng rng(17);
  const MatrixF x0 = random_matrix(1, cfg.q_dim(), rng);
  std::vector<float> x(x0.row(0), x0.row(0) + cfg.q_dim());
  op.rope(x.data(), cfg.n_heads, 0);
  EXPECT_EQ(std::vector<float>(x0.row(0), x0.row(0) + cfg.q_dim()), x);
}

TEST(Rope, RotationPreservesNorm) {
  AttnConfig cfg;
  cfg.n_heads = 1;
  cfg.n_kv_heads = 1;
  cfg.head_dim = 64;
  DecodeAttention op(cfg);
  Rng rng(19);
  const MatrixF x0 = random_matrix(1, cfg.head_dim, rng);
  std::vector<float> x(x0.row(0), x0.row(0) + cfg.head_dim);
  const double before = simd::sumsq(x.data(), cfg.head_dim);
  op.rope(x.data(), 1, 1000);
  const double after = simd::sumsq(x.data(), cfg.head_dim);
  EXPECT_NEAR(before, after, 1e-3 * before);
  // And a nonzero position must actually move the vector.
  EXPECT_NE(x0.row(0)[0], x[0]);
}

TEST(Rope, RelativePositionProperty) {
  // RoPE's defining property: <rope(q, p), rope(k, p + d)> depends on
  // the offset d only. Check two absolute positions give the same dot.
  AttnConfig cfg;
  cfg.n_heads = 1;
  cfg.n_kv_heads = 1;
  cfg.head_dim = 32;
  DecodeAttention op(cfg);
  Rng rng(23);
  const MatrixF qm = random_matrix(1, cfg.head_dim, rng);
  const MatrixF km = random_matrix(1, cfg.head_dim, rng);
  auto rotated_dot = [&](index_t q_pos, index_t k_pos) {
    std::vector<float> q(qm.row(0), qm.row(0) + cfg.head_dim);
    std::vector<float> k(km.row(0), km.row(0) + cfg.head_dim);
    op.rope(q.data(), 1, q_pos);
    op.rope(k.data(), 1, k_pos);
    return simd::dot(q.data(), k.data(), cfg.head_dim);
  };
  EXPECT_NEAR(rotated_dot(3, 7), rotated_dot(10, 14), 2e-3);
}

// ------------------------------------------------------------- KvCache

KvCacheOptions small_cache(index_t max_tokens = 8, index_t page_tokens = 2) {
  KvCacheOptions opt;
  opt.n_kv_heads = 2;
  opt.head_dim = 4;
  opt.page_tokens = page_tokens;
  opt.max_tokens = max_tokens;
  return opt;
}

TEST(KvCache, LifecycleStatusesAreTyped) {
  KvCache cache(small_cache());
  std::vector<float> kv(static_cast<std::size_t>(cache.token_row()), 1.0f);

  // Unknown sequence: NOT_FOUND from append and seq_len alike.
  EXPECT_EQ(StatusCode::kNotFound,
            cache.append(42, kv.data(), kv.data()).code());
  EXPECT_EQ(StatusCode::kNotFound, cache.seq_len(42).status().code());
  EXPECT_FALSE(cache.has_sequence(42));

  NMSPMM_ASSERT_OK(cache.begin_sequence(42));
  EXPECT_TRUE(cache.has_sequence(42));
  // Double begin and double free: FAILED_PRECONDITION.
  EXPECT_EQ(StatusCode::kFailedPrecondition,
            cache.begin_sequence(42).code());
  NMSPMM_ASSERT_OK(cache.append(42, kv.data(), kv.data()));
  NMSPMM_ASSERT_OK(cache.free_sequence(42));
  EXPECT_EQ(StatusCode::kFailedPrecondition, cache.free_sequence(42).code());
}

TEST(KvCache, CapacityExhaustionIsRetryable) {
  // 8-token budget (4 pages of 2): two sequences of 4 tokens fill it.
  KvCache cache(small_cache());
  std::vector<float> kv(static_cast<std::size_t>(cache.token_row()), 1.0f);
  NMSPMM_ASSERT_OK(cache.begin_sequence(1));
  NMSPMM_ASSERT_OK(cache.begin_sequence(2));
  for (int t = 0; t < 4; ++t) {
    NMSPMM_ASSERT_OK(cache.append(1, kv.data(), kv.data()));
    NMSPMM_ASSERT_OK(cache.append(2, kv.data(), kv.data()));
  }
  const Status full = cache.append(1, kv.data(), kv.data());
  EXPECT_EQ(StatusCode::kResourceExhausted, full.code());
  EXPECT_TRUE(is_retryable(full.code()));
  // The advertised retry path: freeing any sequence releases pages.
  NMSPMM_ASSERT_OK(cache.free_sequence(2));
  NMSPMM_ASSERT_OK(cache.append(1, kv.data(), kv.data()));
}

TEST(KvCache, PagesRecycleWithoutNewAllocation) {
  KvCache cache(small_cache());
  std::vector<float> kv(static_cast<std::size_t>(cache.token_row()), 1.0f);
  NMSPMM_ASSERT_OK(cache.begin_sequence(1));
  for (int t = 0; t < 4; ++t) {
    NMSPMM_ASSERT_OK(cache.append(1, kv.data(), kv.data()));
  }
  const auto before = cache.stats();
  EXPECT_EQ(2u, before.pages_allocated);
  NMSPMM_ASSERT_OK(cache.free_sequence(1));

  NMSPMM_ASSERT_OK(cache.begin_sequence(2));
  for (int t = 0; t < 4; ++t) {
    NMSPMM_ASSERT_OK(cache.append(2, kv.data(), kv.data()));
  }
  const auto after = cache.stats();
  EXPECT_EQ(before.pages_allocated, after.pages_allocated);
  EXPECT_EQ(2u, after.pages_recycled);
  EXPECT_EQ(before.resident_bytes, after.resident_bytes);
  EXPECT_EQ(1u, after.freed_sequences);
  EXPECT_EQ(1u, after.live_sequences);
}

TEST(KvCache, ViewExposesAppendedTokensInOrder) {
  KvCache cache(small_cache());
  const index_t row = cache.token_row();
  NMSPMM_ASSERT_OK(cache.begin_sequence(9));
  // Token t gets K filled with t+0.5 and V with -(t+0.5): distinguishes
  // page halves and token order across a page boundary (page_tokens=2).
  for (int t = 0; t < 3; ++t) {
    const float tag = static_cast<float>(t) + 0.5f;
    std::vector<float> k(static_cast<std::size_t>(row), tag);
    std::vector<float> v(static_cast<std::size_t>(row), -tag);
    NMSPMM_ASSERT_OK(cache.append(9, k.data(), v.data()));
  }
  auto view = cache.view(9);
  NMSPMM_ASSERT_OK(view.status());
  ASSERT_EQ(3, view->len);
  for (index_t t = 0; t < 3; ++t) {
    const float tag = static_cast<float>(t) + 0.5f;
    EXPECT_EQ(tag, view->k(t)[0]);
    EXPECT_EQ(tag, view->k(t)[row - 1]);
    EXPECT_EQ(-tag, view->v(t)[0]);
  }
  EXPECT_EQ(3, *cache.seq_len(9));
}

TEST(KvCache, StatsAccountBytes) {
  KvCache cache(small_cache());
  const auto page_bytes = static_cast<std::size_t>(2) * 2 *
                          static_cast<std::size_t>(cache.token_row()) *
                          sizeof(float);
  EXPECT_EQ(page_bytes, cache.stats().page_bytes);
  EXPECT_EQ(4, cache.stats().capacity_pages);
  EXPECT_EQ(0u, cache.stats().resident_bytes);
  std::vector<float> kv(static_cast<std::size_t>(cache.token_row()), 1.0f);
  NMSPMM_ASSERT_OK(cache.begin_sequence(1));
  NMSPMM_ASSERT_OK(cache.append(1, kv.data(), kv.data()));
  const auto stats = cache.stats();
  // One page in use, carved from a slab that holds the whole 4-page
  // budget (far below 2 MiB): resident counts the slab.
  EXPECT_EQ(1u, stats.pages_allocated);
  EXPECT_EQ(4 * page_bytes, stats.resident_bytes);
  EXPECT_EQ(2 * static_cast<std::size_t>(cache.token_row()) * sizeof(float),
            stats.appended_bytes);
  EXPECT_EQ(1u, stats.appended_tokens);
}

TEST(KvCache, PagesAreCarvedFromTwoMebibyteSlabs) {
  // 64 KiB pages (16 tokens x 8 KV heads x 64, K and V): 32 to a 2 MiB
  // slab, each slab 2 MiB-aligned; the 33rd page opens a second slab.
  KvCacheOptions opt;
  opt.n_kv_heads = 8;
  opt.head_dim = 64;
  opt.page_tokens = 16;
  opt.max_tokens = 100 * 16;
  KvCache cache(opt);
  ASSERT_EQ(std::size_t{64} << 10, cache.stats().page_bytes);
  std::vector<float> kv(static_cast<std::size_t>(cache.token_row()), 1.0f);
  NMSPMM_ASSERT_OK(cache.begin_sequence(1));
  for (index_t t = 0; t < 32 * 16; ++t) {
    NMSPMM_ASSERT_OK(cache.append(1, kv.data(), kv.data()));
  }
  EXPECT_EQ(kHugePageBytes, cache.stats().resident_bytes);
  const auto view = cache.view(1);
  NMSPMM_ASSERT_OK(view.status());
  EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(view->pages[0]) %
                    kHugePageBytes);
  EXPECT_EQ(view->pages[0] + 31 * 2 * 16 * cache.token_row(),
            view->pages[31]);
  NMSPMM_ASSERT_OK(cache.append(1, kv.data(), kv.data()));
  EXPECT_EQ(33u, cache.stats().pages_allocated);
  EXPECT_EQ(2 * kHugePageBytes, cache.stats().resident_bytes);
}

// ----------------------------------------------------- GQA attention

TEST(DecodeAttention, GqaBitExactAcrossKernels) {
  // 8 query heads over 2 KV heads (group of 4); head_dim 24 leaves a
  // ragged 8-lane tail in every 16-lane dot. attend on each compiled
  // description decodes the same stream; outputs must match VecScalar's
  // with ==.
  AttnConfig base;
  base.n_heads = 8;
  base.n_kv_heads = 2;
  base.head_dim = 24;

  KvCacheOptions kv_opt;
  kv_opt.n_kv_heads = base.n_kv_heads;
  kv_opt.head_dim = base.head_dim;
  kv_opt.page_tokens = 3;  // several page walks in a 10-token context
  kv_opt.max_tokens = 12;

  const int steps = 10;
  Rng rng(29);
  const MatrixF qs = random_matrix(steps, base.q_dim(), rng);
  const MatrixF ks = random_matrix(steps, base.kv_dim(), rng);
  const MatrixF vs = random_matrix(steps, base.kv_dim(), rng);

  auto run = [&]<class Vec>() {
    DecodeAttention op(base);
    KvCache cache(kv_opt);
    NMSPMM_CHECK_OK(cache.begin_sequence(1));
    std::vector<float> out(
        static_cast<std::size_t>(steps) * base.q_dim());
    std::vector<float> q(static_cast<std::size_t>(base.q_dim()));
    std::vector<float> k(static_cast<std::size_t>(base.kv_dim()));
    for (int t = 0; t < steps; ++t) {
      std::copy_n(qs.row(t), base.q_dim(), q.data());
      std::copy_n(ks.row(t), base.kv_dim(), k.data());
      NMSPMM_CHECK_OK(op.append(cache, 1, k.data(), vs.row(t)));
      NMSPMM_CHECK_OK(op.attend<Vec>(
          cache, 1, q.data(),
          out.data() + static_cast<std::size_t>(t) * base.q_dim()));
    }
    return out;
  };

  const std::vector<float> want = run.template operator()<VecScalar>();
  for_each_vec([&]<class Vec>() {
    EXPECT_EQ(want, run.template operator()<Vec>()) << "width " << Vec::kWidth;
  });
}

/// Decode @p steps tokens of seeded Q/K/V through a fresh cache, with
/// attend on @p Vec, and return every step's attention output,
/// concatenated.
template <class Vec>
std::vector<float> decode_outputs(AttnConfig cfg, index_t page_tokens,
                                  int steps, std::uint64_t seed) {
  KvCacheOptions kv_opt;
  kv_opt.n_kv_heads = cfg.n_kv_heads;
  kv_opt.head_dim = cfg.head_dim;
  kv_opt.page_tokens = page_tokens;
  kv_opt.max_tokens = steps;
  Rng rng(seed);
  const MatrixF qs = random_matrix(steps, cfg.q_dim(), rng);
  const MatrixF ks = random_matrix(steps, cfg.kv_dim(), rng);
  const MatrixF vs = random_matrix(steps, cfg.kv_dim(), rng);
  DecodeAttention op(cfg);
  KvCache cache(kv_opt);
  NMSPMM_CHECK_OK(cache.begin_sequence(1));
  std::vector<float> out(static_cast<std::size_t>(steps) * cfg.q_dim());
  std::vector<float> q(static_cast<std::size_t>(cfg.q_dim()));
  std::vector<float> k(static_cast<std::size_t>(cfg.kv_dim()));
  for (int t = 0; t < steps; ++t) {
    std::copy_n(qs.row(t), cfg.q_dim(), q.data());
    std::copy_n(ks.row(t), cfg.kv_dim(), k.data());
    NMSPMM_CHECK_OK(op.append(cache, 1, k.data(), vs.row(t)));
    NMSPMM_CHECK_OK(op.attend<Vec>(
        cache, 1, q.data(),
        out.data() + static_cast<std::size_t>(t) * cfg.q_dim()));
  }
  return out;
}

TEST(DecodeAttention, BlockedLoopBitExactAcrossKernelsGrid) {
  // Group sizes 1 (MHA) through 8, head_dim 24 (ragged 16-lane tail) and
  // 64, pages of 3 and 64 tokens. 70 steps visit contexts 1..70: every
  // ragged last block (count 1..15), exact multiples of the 16-token
  // block, and blocks that straddle page boundaries.
  for (index_t group : {1, 2, 4, 8}) {
    for (index_t head_dim : {24, 64}) {
      for (index_t page_tokens : {3, 64}) {
        AttnConfig cfg;
        cfg.n_kv_heads = 2;
        cfg.n_heads = 2 * group;
        cfg.head_dim = head_dim;
        const std::vector<float> want =
            decode_outputs<VecScalar>(cfg, page_tokens, 70, 101 + group);
        for_each_vec([&]<class Vec>() {
          EXPECT_EQ(want,
                    decode_outputs<Vec>(cfg, page_tokens, 70, 101 + group))
              << "width " << Vec::kWidth << " group " << group
              << " head_dim " << head_dim << " page_tokens " << page_tokens;
        });
      }
    }
  }
}

/// The per-head sweep attend's outputs are defined by, composed from
/// public pieces: RoPE on a copy of Q, Q pre-scaled by 1/sqrt(head_dim),
/// one simd::dot<VecScalar> per logit (the 16-lane tree every sweep
/// reduces through), OnlineSoftmax::fold<VecScalar> per 16-token block,
/// one simd::axpy<VecScalar> per token in token order, then finish.
std::vector<float> block_order_oracle(DecodeAttention& op,
                                      const KvCache::SeqView& view,
                                      std::vector<float> q) {
  const AttnConfig& cfg = op.config();
  const index_t hd = cfg.head_dim;
  const index_t group = cfg.n_heads / cfg.n_kv_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  op.rope(q.data(), cfg.n_heads, view.len - 1);
  std::vector<float> out(q.size(), 0.0f);
  std::vector<float> qs(static_cast<std::size_t>(hd));
  float logits[16];
  float w[16];
  for (index_t h = 0; h < cfg.n_heads; ++h) {
    for (index_t j = 0; j < hd; ++j) {
      qs[static_cast<std::size_t>(j)] =
          scale * q[static_cast<std::size_t>(h * hd + j)];
    }
    const index_t off = (h / group) * hd;
    float* acc = out.data() + h * hd;
    OnlineSoftmax sm;
    for (index_t t0 = 0; t0 < view.len; t0 += 16) {
      const index_t count = std::min<index_t>(16, view.len - t0);
      for (index_t t = 0; t < count; ++t) {
        logits[t] = simd::dot<VecScalar>(qs.data(), view.k(t0 + t) + off, hd);
      }
      EXPECT_TRUE(sm.fold<VecScalar>(logits, count, w, acc, hd));
      for (index_t t = 0; t < count; ++t) {
        simd::axpy<VecScalar>(w[t], view.v(t0 + t) + off, acc, hd);
      }
    }
    sm.finish<VecScalar>(acc, hd);
  }
  return out;
}

TEST(DecodeAttention, AttendMatchesBlockOrderOracleBitForBit) {
  // attend's block sweeps against the per-head oracle above, memcmp-equal
  // on every description: group sizes 1 (MHA) through 8; head_dim 2 (a
  // lone ragged tail), 24, 64 and 128; pages shorter than, equal to and
  // longer than a block, so blocks straddle pages of 2, 3 and 7 tokens;
  // contexts on both sides of block boundaries. Every 23rd key is
  // scaled up so new maxima keep arriving mid-block.
  const index_t contexts[] = {1, 15, 16, 17, 64, 65, 200};
  const index_t max_context = 200;
  for (index_t group : {1, 2, 4, 8}) {
    for (index_t head_dim : {2, 24, 64, 128}) {
      for (index_t page_tokens : {2, 3, 7, 16, 64}) {
        AttnConfig cfg;
        cfg.n_kv_heads = 2;
        cfg.n_heads = 2 * group;
        cfg.head_dim = head_dim;
        KvCacheOptions kv_opt;
        kv_opt.n_kv_heads = cfg.n_kv_heads;
        kv_opt.head_dim = head_dim;
        kv_opt.page_tokens = page_tokens;
        kv_opt.max_tokens = max_context;
        KvCache cache(kv_opt);
        NMSPMM_ASSERT_OK(cache.begin_sequence(1));
        DecodeAttention op(cfg);
        Rng rng(static_cast<std::uint64_t>(group * 1000 + head_dim * 10 +
                                           page_tokens));
        const MatrixF ks = random_matrix(max_context, cfg.kv_dim(), rng);
        const MatrixF vs = random_matrix(max_context, cfg.kv_dim(), rng);
        const MatrixF q0 = random_matrix(1, cfg.q_dim(), rng, -2.0f, 2.0f);
        const std::vector<float> q(q0.row(0), q0.row(0) + cfg.q_dim());
        index_t len = 0;
        for (index_t context : contexts) {
          for (; len < context; ++len) {
            std::vector<float> k(ks.row(len), ks.row(len) + cfg.kv_dim());
            if (len % 23 == 9) {
              for (float& x : k) x *= 4.0f;
            }
            NMSPMM_ASSERT_OK(op.append(cache, 1, k.data(), vs.row(len)));
          }
          const auto view = cache.view(1);
          NMSPMM_ASSERT_OK(view.status());
          const std::vector<float> want = block_order_oracle(op, *view, q);
          for_each_vec([&]<class Vec>() {
            std::vector<float> qv = q;
            std::vector<float> got(want.size());
            NMSPMM_ASSERT_OK(op.attend<Vec>(cache, 1, qv.data(), got.data()));
            EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                                     want.size() * sizeof(float)))
                << "width " << Vec::kWidth << " group " << group
                << " head_dim " << head_dim << " page_tokens " << page_tokens
                << " context " << context;
          });
        }
      }
    }
  }
}

/// Two-pass long-double attention for every query head over the cached
/// context, from the rotated Q attend leaves in place.
std::vector<float> oracle_attend(const AttnConfig& cfg,
                                 const KvCache::SeqView& view,
                                 const std::vector<float>& q_rot) {
  const index_t hd = cfg.head_dim;
  const index_t group = cfg.n_heads / cfg.n_kv_heads;
  const long double scale = 1.0L / sqrtl(static_cast<long double>(hd));
  std::vector<float> out(static_cast<std::size_t>(cfg.q_dim()));
  std::vector<long double> logits(static_cast<std::size_t>(view.len));
  for (index_t h = 0; h < cfg.n_heads; ++h) {
    const float* qh = q_rot.data() + h * hd;
    const index_t off = (h / group) * hd;
    long double m = -std::numeric_limits<long double>::infinity();
    for (index_t t = 0; t < view.len; ++t) {
      long double dot = 0.0L;
      for (index_t j = 0; j < hd; ++j) {
        dot += static_cast<long double>(qh[j]) * view.k(t)[off + j];
      }
      logits[static_cast<std::size_t>(t)] = scale * dot;
      m = std::max(m, scale * dot);
    }
    long double denom = 0.0L;
    for (long double l : logits) denom += expl(l - m);
    for (index_t j = 0; j < hd; ++j) {
      long double acc = 0.0L;
      for (index_t t = 0; t < view.len; ++t) {
        acc += expl(logits[static_cast<std::size_t>(t)] - m) *
               view.v(t)[off + j];
      }
      out[static_cast<std::size_t>(h * hd + j)] =
          static_cast<float>(acc / denom);
    }
  }
  return out;
}

TEST(DecodeAttention, AttendMatchesLongDoubleOracleOnAdversarialLogits) {
  // K rows are one-hot on the coordinate where head 0's rotated query is
  // largest, scaled so head 0 sees chosen logits: a new max mid-block,
  // another at a later block's start and mid-way through it, ±500
  // magnitudes, and a tie in the last (ragged) block. Head 1 is head 0
  // halved (exactly, through RoPE's linearity), so it sees the same
  // pattern at half the magnitude. head_dim 64 makes the 1/8 logit scale
  // exact, so the only fp32 logit error is one rounding.
  AttnConfig cfg;
  cfg.n_heads = 2;
  cfg.n_kv_heads = 1;
  cfg.head_dim = 64;
  const index_t len = 40;  // blocks of 16, 16 and 8
  KvCacheOptions kv_opt;
  kv_opt.n_kv_heads = 1;
  kv_opt.head_dim = cfg.head_dim;
  kv_opt.page_tokens = 7;
  kv_opt.max_tokens = len;
  KvCache cache(kv_opt);
  NMSPMM_ASSERT_OK(cache.begin_sequence(1));
  DecodeAttention op(cfg);

  Rng rng(41);
  const MatrixF q0 = random_matrix(1, cfg.head_dim, rng);
  std::vector<float> q(static_cast<std::size_t>(cfg.q_dim()));
  for (index_t j = 0; j < cfg.head_dim; ++j) {
    q[static_cast<std::size_t>(j)] = q0.row(0)[j];
    q[static_cast<std::size_t>(cfg.head_dim + j)] = 0.5f * q0.row(0)[j];
  }
  std::vector<float> q_rot = q;
  op.rope(q_rot.data(), cfg.n_heads, len - 1);  // what attend will apply
  index_t hot = 0;
  for (index_t j = 1; j < cfg.head_dim; ++j) {
    if (std::fabs(q_rot[static_cast<std::size_t>(j)]) >
        std::fabs(q_rot[static_cast<std::size_t>(hot)])) {
      hot = j;
    }
  }

  const MatrixF base = random_matrix(1, len, rng, -2.0f, 2.0f);
  std::vector<float> want_logits(base.row(0), base.row(0) + len);
  want_logits[5] = 8.0f;     // new max mid-block
  want_logits[9] = 12.0f;    // and again in the same block
  want_logits[16] = 40.0f;   // new max at the second block's start
  want_logits[21] = 500.0f;  // new max mid-way through it
  want_logits[22] = -500.0f;
  want_logits[30] = 497.0f;
  want_logits[35] = -500.0f;
  want_logits[37] = 500.0f;  // ties the max in the ragged last block
  const MatrixF vs = random_matrix(len, cfg.kv_dim(), rng, -1.0f, 1.0f);
  const float unit = 0.125f * q_rot[static_cast<std::size_t>(hot)];
  for (index_t t = 0; t < len; ++t) {
    std::vector<float> k(static_cast<std::size_t>(cfg.kv_dim()), 0.0f);
    k[static_cast<std::size_t>(hot)] =
        want_logits[static_cast<std::size_t>(t)] / unit;
    NMSPMM_ASSERT_OK(cache.append(1, k.data(), vs.row(t)));  // K as given
  }

  std::vector<float> out(static_cast<std::size_t>(cfg.q_dim()));
  NMSPMM_ASSERT_OK(op.attend(cache, 1, q.data(), out.data()));
  ASSERT_EQ(q_rot, q);  // attend rotated Q in place exactly as predicted
  const auto view = cache.view(1);
  NMSPMM_ASSERT_OK(view.status());
  const std::vector<float> want = oracle_attend(cfg, *view, q_rot);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(want[i], out[i], 5e-5) << "element " << i;
  }
}

TEST(DecodeAttention, AttendMatchesLongDoubleOracleOnRandomContexts) {
  // Random Q/K/V through decode_step (RoPE on both sides), GQA group 4,
  // ragged head_dim 24, 3-token pages: every step's output against the
  // two-pass oracle over the cache as it stands after that step.
  AttnConfig cfg;
  cfg.n_heads = 8;
  cfg.n_kv_heads = 2;
  cfg.head_dim = 24;
  const int steps = 37;
  KvCacheOptions kv_opt;
  kv_opt.n_kv_heads = cfg.n_kv_heads;
  kv_opt.head_dim = cfg.head_dim;
  kv_opt.page_tokens = 3;
  kv_opt.max_tokens = steps;
  KvCache cache(kv_opt);
  NMSPMM_ASSERT_OK(cache.begin_sequence(1));
  DecodeAttention op(cfg);
  Rng rng(43);
  std::vector<float> out(static_cast<std::size_t>(cfg.q_dim()));
  for (int t = 0; t < steps; ++t) {
    const MatrixF qm = random_matrix(1, cfg.q_dim(), rng, -3.0f, 3.0f);
    const MatrixF km = random_matrix(1, cfg.kv_dim(), rng, -3.0f, 3.0f);
    const MatrixF vm = random_matrix(1, cfg.kv_dim(), rng);
    std::vector<float> q(qm.row(0), qm.row(0) + cfg.q_dim());
    std::vector<float> k(km.row(0), km.row(0) + cfg.kv_dim());
    NMSPMM_ASSERT_OK(
        op.decode_step(cache, 1, q.data(), k.data(), vm.row(0), out.data()));
    const auto view = cache.view(1);
    NMSPMM_ASSERT_OK(view.status());
    const std::vector<float> want = oracle_attend(cfg, *view, q);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(want[i], out[i], 5e-5) << "step " << t << " element " << i;
    }
  }
}

TEST(DecodeAttention, NonFiniteLogitIsTypedErrorNotThrow) {
  // A poisoned key (±inf / NaN) or a poisoned query yields
  // FAILED_PRECONDITION from attend, naming the KV head of the first
  // failing 16-token block, the lowest in it; a clean sequence in the
  // same cache still attends normally afterwards.
  AttnConfig cfg;
  cfg.n_heads = 4;
  cfg.n_kv_heads = 2;
  cfg.head_dim = 16;
  KvCacheOptions kv_opt;
  kv_opt.n_kv_heads = cfg.n_kv_heads;
  kv_opt.head_dim = cfg.head_dim;
  kv_opt.page_tokens = 4;
  kv_opt.max_tokens = 64;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(47);
  const MatrixF clean_q = random_matrix(1, cfg.q_dim(), rng);
  const MatrixF kv = random_matrix(1, cfg.kv_dim(), rng);
  struct Case {
    const char* name;
    std::vector<std::pair<int, index_t>> poisoned;  // (token, KV head)
    bool poison_query;
    const char* kv_head;  // what the Status must name
  };
  const Case cases[] = {
      {"query", {}, true, "KV head 0"},
      {"head 1 late", {{17, 1}}, false, "KV head 1"},
      {"head 1 early, head 0 late", {{2, 1}, {17, 0}}, false, "KV head 1"},
      {"both in one block", {{18, 1}, {19, 0}}, false, "KV head 0"},
  };
  for (float bad : {inf, -inf, nan}) {
    for (const Case& c : cases) {
      KvCache cache(kv_opt);
      DecodeAttention op(cfg);
      NMSPMM_ASSERT_OK(cache.begin_sequence(1));
      NMSPMM_ASSERT_OK(cache.begin_sequence(2));
      for (int t = 0; t < 20; ++t) {
        std::vector<float> k(kv.row(0), kv.row(0) + cfg.kv_dim());
        NMSPMM_ASSERT_OK(cache.append(2, k.data(), kv.row(0)));
        for (const auto& [token, head] : c.poisoned) {
          if (token == t) {
            k[static_cast<std::size_t>(head * cfg.head_dim + 3)] = bad;
          }
        }
        NMSPMM_ASSERT_OK(cache.append(1, k.data(), kv.row(0)));
      }
      std::vector<float> q(clean_q.row(0), clean_q.row(0) + cfg.q_dim());
      if (c.poison_query) q[5] = bad;
      std::vector<float> out(static_cast<std::size_t>(cfg.q_dim()));
      const Status st = op.attend(cache, 1, q.data(), out.data());
      EXPECT_EQ(StatusCode::kFailedPrecondition, st.code())
          << bad << " " << c.name << ": " << st.to_string();
      EXPECT_NE(std::string::npos, st.to_string().find(c.kv_head))
          << bad << " " << c.name << ": " << st.to_string();
      std::copy_n(clean_q.row(0), cfg.q_dim(), q.data());
      NMSPMM_EXPECT_OK(op.attend(cache, 2, q.data(), out.data()));
      for (float o : out) EXPECT_TRUE(std::isfinite(o));
    }
  }
}

TEST(DecodeAttention, GqaMatchesExplicitHeadMapping) {
  // With K constant per KV head and V distinct per KV head, every query
  // head's output must be (a convex combination of) its group's V rows
  // only — head h reads KV head h / group and nothing else.
  AttnConfig cfg;
  cfg.n_heads = 4;
  cfg.n_kv_heads = 2;
  cfg.head_dim = 8;
  DecodeAttention op(cfg);
  KvCacheOptions kv_opt;
  kv_opt.n_kv_heads = cfg.n_kv_heads;
  kv_opt.head_dim = cfg.head_dim;
  kv_opt.page_tokens = 2;
  kv_opt.max_tokens = 4;
  KvCache cache(kv_opt);
  NMSPMM_ASSERT_OK(cache.begin_sequence(1));

  std::vector<float> q(static_cast<std::size_t>(cfg.q_dim()), 0.1f);
  std::vector<float> k(static_cast<std::size_t>(cfg.kv_dim()), 0.0f);
  std::vector<float> v(static_cast<std::size_t>(cfg.kv_dim()));
  // KV head 0's V rows are all 1.0, KV head 1's all 2.0.
  std::fill_n(v.data(), cfg.head_dim, 1.0f);
  std::fill_n(v.data() + cfg.head_dim, cfg.head_dim, 2.0f);
  std::vector<float> out(static_cast<std::size_t>(cfg.q_dim()));
  NMSPMM_ASSERT_OK(
      op.decode_step(cache, 1, q.data(), k.data(), v.data(), out.data()));
  // Query heads 0/1 map to KV head 0, heads 2/3 to KV head 1. K == 0
  // makes all weights equal, so outputs equal the group's V exactly.
  for (index_t h = 0; h < cfg.n_heads; ++h) {
    const float want = h < 2 ? 1.0f : 2.0f;
    for (index_t j = 0; j < cfg.head_dim; ++j) {
      EXPECT_EQ(want, out[static_cast<std::size_t>(h * cfg.head_dim + j)])
          << "head " << h << " element " << j;
    }
  }
}

TEST(DecodeAttention, AttendOnEmptyContextFailsPrecondition) {
  AttnConfig cfg;
  cfg.n_heads = 2;
  cfg.n_kv_heads = 2;
  cfg.head_dim = 8;
  DecodeAttention op(cfg);
  KvCacheOptions kv_opt;
  kv_opt.n_kv_heads = cfg.n_kv_heads;
  kv_opt.head_dim = cfg.head_dim;
  kv_opt.max_tokens = 4;
  kv_opt.page_tokens = 2;
  KvCache cache(kv_opt);
  NMSPMM_ASSERT_OK(cache.begin_sequence(1));
  std::vector<float> q(static_cast<std::size_t>(cfg.q_dim()), 1.0f);
  std::vector<float> out(static_cast<std::size_t>(cfg.q_dim()));
  EXPECT_EQ(StatusCode::kFailedPrecondition,
            op.attend(cache, 1, q.data(), out.data()).code());
}

TEST(AttnConfig, ValidateRejectsBadGeometry) {
  AttnConfig cfg;
  cfg.n_heads = 8;
  cfg.n_kv_heads = 3;  // does not divide 8
  cfg.head_dim = 64;
  EXPECT_EQ(StatusCode::kInvalidArgument, cfg.validate().code());
  cfg.n_kv_heads = 4;
  cfg.head_dim = 63;  // odd: RoPE needs half-split pairs
  EXPECT_EQ(StatusCode::kInvalidArgument, cfg.validate().code());
  cfg.head_dim = 64;
  NMSPMM_EXPECT_OK(cfg.validate());
}

}  // namespace
}  // namespace nmspmm
