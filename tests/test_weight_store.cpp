// mem::WeightStore (mem/weight_store.hpp) — the packed-weight residency
// subsystem:
//   - packed-only plans: the original B' value buffer is released after
//     pre-packing (steady-state resident weight bytes ~ 1x the packed
//     footprint), outputs stay bit-identical to default-mode runs across
//     V1/V2/V3 at 1 and 4 threads, and values-consuming entry points
//     are rejected;
//   - byte budget: cold packed forms are evicted LRU and transparently
//     repacked on the next touch, with hit/miss/evict/repack counters
//     matching the forced schedule and serving staying correct;
//   - pinning: a pinned form is never evicted mid-execute, and leases
//     whose source died fail pin() instead of serving stale tiles;
//   - interning: batch-size buckets and engines sharing a store share
//     one packed form per (weights, blocking, kind);
//   - NUMA placement plumbing degrades gracefully on single-node hosts.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/nmspmm.hpp"
#include "tests/testing.hpp"
#include "util/numa_alloc.hpp"
#include "workloads/generators.hpp"

namespace nmspmm {
namespace {

using mem::ResidencyMode;
using mem::WeightStore;
using mem::WeightStoreOptions;

std::shared_ptr<const CompressedNM> make_weights(index_t k, index_t n,
                                                 const NMConfig& cfg,
                                                 unsigned seed) {
  Rng rng(seed);
  return std::make_shared<const CompressedNM>(
      random_compressed_int(k, n, cfg, rng));
}

model::FfnBlock make_block(index_t hidden, index_t ffn, const NMConfig& cfg,
                           unsigned seed) {
  Rng rng(seed);
  model::FfnBlock block;
  block.gate = std::make_shared<const CompressedNM>(
      random_compressed_int(hidden, ffn, cfg, rng));
  block.up = std::make_shared<const CompressedNM>(
      random_compressed_int(hidden, ffn, cfg, rng));
  block.down = std::make_shared<const CompressedNM>(
      random_compressed_int(ffn, hidden, cfg, rng));
  return block;
}

TEST(WeightStore, PackedOnlyBitIdenticalAcrossVariantsAndThreads) {
  const NMConfig cfg{2, 4, 8};
  const index_t m = 23, k = 192, n = 136;  // ragged on every axis
  const auto B = make_weights(k, n, cfg, 101);
  Rng rng(102);
  const MatrixF A = random_int_matrix(m, k, rng);

  for (const KernelVariant variant :
       {KernelVariant::kV1, KernelVariant::kV2, KernelVariant::kV3}) {
    for (const unsigned threads : {1u, 4u}) {
      SpmmOptions opt;
      opt.variant = variant;
      EngineOptions default_opt;
      default_opt.num_threads = threads;
      Engine default_engine(default_opt);
      MatrixF c_default(m, n);
      NMSPMM_ASSERT_OK(
          default_engine.spmm(A.view(), B, c_default.view(), opt));

      EngineOptions packed_opt;
      packed_opt.num_threads = threads;
      packed_opt.residency = ResidencyMode::kPackedOnly;
      packed_opt.weight_store = std::make_shared<WeightStore>();
      Engine packed_engine(packed_opt);
      MatrixF c_packed(m, n);
      NMSPMM_ASSERT_OK(packed_engine.spmm(A.view(), B, c_packed.view(), opt));
      // Repeat on the warm plan: the stripped weights must keep serving.
      NMSPMM_ASSERT_OK(packed_engine.spmm(A.view(), B, c_packed.view(), opt));

      EXPECT_EQ(max_abs_diff(c_default.cview(), c_packed.cview()), 0.0)
          << to_string(variant) << " threads=" << threads
          << ": packed-only diverged from default residency";
    }
  }
}

TEST(WeightStore, PackedOnlyPlanDropsValuesAndKeepsOnePackedCopy) {
  const NMConfig cfg{1, 8, 8};
  const auto B = make_weights(256, 192, cfg, 111);
  const std::size_t full_bytes = B->footprint_bytes();

  EngineOptions opt;
  opt.num_threads = 1;
  opt.residency = ResidencyMode::kPackedOnly;
  opt.weight_store = std::make_shared<WeightStore>();
  Engine engine(opt);
  auto plan = engine.plan_for(8, B);
  NMSPMM_ASSERT_OK(plan.status());

  // The plan's weights are the stripped form: indices survive (plan
  // validation needs the shape), the w x n value matrix is gone.
  EXPECT_FALSE((*plan)->weights().has_values());
  EXPECT_EQ((*plan)->weights().rows(), B->rows());
  EXPECT_EQ((*plan)->residency(), ResidencyMode::kPackedOnly);
  const std::size_t stripped_bytes = (*plan)->weights().footprint_bytes();
  const std::size_t packed_bytes = (*plan)->weight_lease()->footprint_bytes();
  EXPECT_LT(stripped_bytes, full_bytes / 4)
      << "stripping should drop the dominant value bytes";
  // Steady-state resident weight bytes ~ 1x packed footprint: the
  // stripped leftover is the uint8 index matrix, an order of magnitude
  // below the packed form (which itself carries values + uint16 streams).
  EXPECT_LT(stripped_bytes, packed_bytes / 4);

  // Values-consuming entry points are rejected for this plan's weights.
  EXPECT_THROW((void)decompress((*plan)->weights()), CheckError);
  EXPECT_THROW((void)PackedWeights::build((*plan)->weights(), 64, 64,
                                          PackedWeights::IndexKind::kDirect),
               CheckError);
  const CompressedNM& stripped = (*plan)->weights();
  EXPECT_THROW(spmm_reference(MatrixF(8, stripped.orig_rows).view(), stripped,
                              MatrixF(8, stripped.cols).view()),
               CheckError);
}

TEST(WeightStore, PackedOnlyModelPlanResidencyStats) {
  const NMConfig cfg{2, 4, 8};
  const index_t hidden = 96, ffn = 160, tokens = 16;
  model::FfnBlock block = make_block(hidden, ffn, cfg, 121);
  Rng rng(122);
  const MatrixF A = random_int_matrix(7, hidden, rng);

  MatrixF out_default(7, hidden);
  std::size_t default_packed = 0;
  {
    EngineOptions opt;
    opt.num_threads = 1;
    Engine engine(opt);
    auto plan = engine.plan_model(tokens, block);
    NMSPMM_ASSERT_OK(plan.status());
    NMSPMM_ASSERT_OK((*plan)->run(A.view(), out_default.view()));
    const auto stats = (*plan)->stats();
    EXPECT_EQ(stats.residency, ResidencyMode::kDefault);
    // Default mode retains the full weights next to the packed forms.
    EXPECT_EQ(stats.weight_bytes, block.gate->footprint_bytes() +
                                      block.up->footprint_bytes() +
                                      block.down->footprint_bytes());
    default_packed = stats.packed_bytes;
  }

  EngineOptions opt;
  opt.num_threads = 1;
  opt.residency = ResidencyMode::kPackedOnly;
  opt.weight_store = std::make_shared<WeightStore>();
  Engine engine(opt);
  auto plan = engine.plan_model(tokens, block);
  NMSPMM_ASSERT_OK(plan.status());
  // Drop the originals: the ModelPlan holds only stripped weights, so
  // from here the packed forms are the sole resident copy of the values.
  block.gate.reset();
  block.up.reset();
  block.down.reset();

  MatrixF out_packed(7, hidden);
  NMSPMM_ASSERT_OK((*plan)->run(A.view(), out_packed.view()));
  EXPECT_EQ(max_abs_diff(out_default.cview(), out_packed.cview()), 0.0);

  const auto stats = (*plan)->stats();
  EXPECT_EQ(stats.residency, ResidencyMode::kPackedOnly);
  EXPECT_EQ(stats.packed_bytes, default_packed)
      << "packed footprint must not change with residency mode";
  // Resident weight bytes ~ 1x packed: what's left besides the packed
  // forms is the three uint8 index matrices.
  EXPECT_LT(stats.weight_bytes, stats.packed_bytes / 4);
  EXPECT_EQ(stats.store.leases, 3u);  // gate, up, down interned once each
  EXPECT_GE(stats.store.misses, 3u);
  EXPECT_GE(stats.packed_numa_node, -1);  // recorded; -1 on 1-node hosts
}

TEST(WeightStore, BudgetEvictsColdFormsAndRepacksOnDemand) {
  const NMConfig cfg{2, 4, 8};
  const index_t m = 5, k = 128, n = 128;
  const auto W1 = make_weights(k, n, cfg, 131);
  const auto W2 = make_weights(k, n, cfg, 132);
  Rng rng(133);
  const MatrixF A = random_int_matrix(m, k, rng);
  MatrixF expect1(m, n), expect2(m, n);
  spmm_reference(A.view(), *W1, expect1.view());
  spmm_reference(A.view(), *W2, expect2.view());

  // Probe one packed footprint so the budget can be sized to hold
  // exactly one of the two (identically shaped) matrices.
  std::size_t one_footprint = 0;
  {
    auto probe = std::make_shared<WeightStore>();
    EngineOptions opt;
    opt.num_threads = 1;
    opt.weight_store = probe;
    Engine engine(opt);
    auto plan = engine.plan_for(m, W1);
    NMSPMM_ASSERT_OK(plan.status());
    one_footprint = probe->stats().resident_bytes;
  }
  ASSERT_GT(one_footprint, 0u);

  WeightStoreOptions store_opt;
  store_opt.max_resident_bytes = one_footprint + one_footprint / 2;
  auto store = std::make_shared<WeightStore>(store_opt);
  EngineOptions opt;
  opt.num_threads = 1;
  opt.weight_store = store;
  Engine engine(opt);

  MatrixF c(m, n);
  NMSPMM_ASSERT_OK(engine.spmm(A.view(), W1, c.view()));  // build W1
  EXPECT_EQ(max_abs_diff(expect1.cview(), c.cview()), 0.0);
  NMSPMM_ASSERT_OK(engine.spmm(A.view(), W2, c.view()));  // build W2 -> evict W1
  EXPECT_EQ(max_abs_diff(expect2.cview(), c.cview()), 0.0);
  {
    const auto stats = store->stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.repacks, 0u);
    EXPECT_LE(stats.resident_bytes, store_opt.max_resident_bytes);
  }

  // Touching the evicted W1 repacks it transparently — and evicts W2.
  NMSPMM_ASSERT_OK(engine.spmm(A.view(), W1, c.view()));
  EXPECT_EQ(max_abs_diff(expect1.cview(), c.cview()), 0.0);
  {
    const auto stats = store->stats();
    EXPECT_EQ(stats.repacks, 1u);
    EXPECT_EQ(stats.evictions, 2u);
  }
  // A warm touch of the resident form is a hit, not another repack.
  NMSPMM_ASSERT_OK(engine.spmm(A.view(), W1, c.view()));
  EXPECT_EQ(max_abs_diff(expect1.cview(), c.cview()), 0.0);
  const auto stats = store->stats();
  EXPECT_EQ(stats.repacks, 1u);
  EXPECT_GE(stats.hits, 1u);
}

TEST(WeightStore, PinnedFormsSurviveEvictionPressure) {
  const NMConfig cfg{2, 4, 8};
  const auto W1 = make_weights(128, 128, cfg, 141);
  const auto W2 = make_weights(128, 128, cfg, 142);
  const BlockingParams p = [&] {
    BlockingParams bp = table1_preset(SizeClass::kSmall);
    bp.ks = derive_ks(cfg, bp.ms, bp.ns, 32 * 1024, 128);
    return bp;
  }();

  // Budget below a single footprint: maximum pressure — anything
  // unpinned is evicted immediately.
  WeightStoreOptions store_opt;
  store_opt.max_resident_bytes = 1;
  auto store = std::make_shared<WeightStore>(store_opt);

  auto l1 = store->acquire(W1, p.ks, p.ns, PackedWeights::IndexKind::kDirect);
  auto pin1 = l1->pin();  // an in-flight execute streams from these tiles
  ASSERT_NE(pin1, nullptr);

  auto l2 = store->acquire(W2, p.ks, p.ns, PackedWeights::IndexKind::kDirect);
  // Pressure could only be relieved by evicting W2 itself (W1 is
  // pinned); either way the pinned form must still be resident.
  EXPECT_NE(l1->resident(), nullptr)
      << "a pinned packed form was evicted under budget pressure";
  EXPECT_EQ(l1->resident().get(), pin1.get());

  // Releasing the pin frees the store to evict W1 on the next pressure.
  pin1.reset();
  auto pin2 = l2->pin();  // repack W2 if it was evicted; evicts idle W1
  ASSERT_NE(pin2, nullptr);
  EXPECT_EQ(l1->resident(), nullptr);
  const auto stats = store->stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(stats.pinned_bytes, l2->footprint_bytes());
}

TEST(WeightStore, PinFailsWhenSourceDiedInsteadOfServingStaleTiles) {
  const NMConfig cfg{2, 4, 8};
  auto W = make_weights(128, 128, cfg, 151);
  const BlockingParams p = [&] {
    BlockingParams bp = table1_preset(SizeClass::kSmall);
    bp.ks = derive_ks(cfg, bp.ms, bp.ns, 32 * 1024, 128);
    return bp;
  }();
  WeightStoreOptions store_opt;
  store_opt.max_resident_bytes = 1;  // evict on every unpin
  auto store = std::make_shared<WeightStore>(store_opt);
  auto lease = store->acquire(W, p.ks, p.ns,
                              PackedWeights::IndexKind::kDirect);
  lease->pin().reset();  // unpin under a 1-byte budget -> evicted
  EXPECT_EQ(lease->resident(), nullptr);
  W.reset();  // the repack source dies
  EXPECT_THROW((void)lease->pin(), CheckError);
}

TEST(WeightStore, EnginesSharingAStoreShareOnePackedForm) {
  const NMConfig cfg{2, 4, 8};
  const auto B = make_weights(128, 160, cfg, 161);
  auto store = std::make_shared<WeightStore>();
  EngineOptions opt;
  opt.num_threads = 1;
  opt.weight_store = store;
  Engine e1(opt);
  Engine e2(opt);
  // Pin the blocking so both buckets derive identical (ks, ns): the
  // store interns per (weights, ks, ns, kind).
  SpmmOptions spmm_opt;
  BlockingParams params = table1_preset(SizeClass::kSmall);
  params.ks = 64;
  spmm_opt.params = params;
  auto p1 = e1.plan_for(4, B, spmm_opt);
  auto p2 = e2.plan_for(500, B, spmm_opt);  // other engine AND bucket
  NMSPMM_ASSERT_OK(p1.status());
  NMSPMM_ASSERT_OK(p2.status());
  EXPECT_EQ((*p1)->weight_lease().get(), (*p2)->weight_lease().get())
      << "engines on one store built separate packed forms";
  EXPECT_EQ(store->stats().leases, 1u);
  EXPECT_EQ(store->stats().misses, 1u);
}

TEST(WeightStore, PackedOnlyUpgradePinsAnEvictableLease) {
  const NMConfig cfg{2, 4, 8};
  const auto B = make_weights(128, 128, cfg, 171);
  const BlockingParams p = [&] {
    BlockingParams bp = table1_preset(SizeClass::kSmall);
    bp.ks = derive_ks(cfg, bp.ms, bp.ns, 32 * 1024, 128);
    return bp;
  }();
  WeightStoreOptions store_opt;
  store_opt.max_resident_bytes = 1;
  auto store = std::make_shared<WeightStore>(store_opt);
  auto evictable = store->acquire(B, p.ks, p.ns,
                                  PackedWeights::IndexKind::kDirect);
  EXPECT_TRUE(evictable->evictable());
  // A packed-only claim on the same form makes it permanently resident
  // (its caller is about to strip the only repack source).
  auto pinned = store->acquire(B, p.ks, p.ns,
                               PackedWeights::IndexKind::kDirect,
                               ResidencyMode::kPackedOnly);
  EXPECT_EQ(pinned.get(), evictable.get());
  EXPECT_FALSE(pinned->evictable());
  EXPECT_NE(pinned->resident(), nullptr);
}

TEST(WeightStore, ConcurrentExecutesUnderBudgetStayCorrect) {
  // Thrash regime: two matrices, a budget that holds ~one, four threads
  // hammering both — every execute races eviction and repack of the
  // form it pins. Outputs must stay exact throughout (ASan/UBSan cover
  // the lifetime side).
  const NMConfig cfg{2, 4, 8};
  const index_t m = 3, k = 96, n = 96;
  const auto W1 = make_weights(k, n, cfg, 201);
  const auto W2 = make_weights(k, n, cfg, 202);
  Rng rng(203);
  const MatrixF A = random_int_matrix(m, k, rng);
  MatrixF expect1(m, n), expect2(m, n);
  spmm_reference(A.view(), *W1, expect1.view());
  spmm_reference(A.view(), *W2, expect2.view());

  WeightStoreOptions store_opt;
  store_opt.max_resident_bytes = 1;  // nothing unpinned survives
  EngineOptions opt;
  opt.num_threads = 1;  // serial kernels; concurrency is between callers
  opt.weight_store = std::make_shared<WeightStore>(store_opt);
  Engine engine(opt);

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const auto& W = t % 2 == 0 ? W1 : W2;
      const MatrixF& expect = t % 2 == 0 ? expect1 : expect2;
      MatrixF c(m, n);
      for (int i = 0; i < 25; ++i) {
        if (!engine.spmm(A.view(), W, c.view()).ok() ||
            max_abs_diff(expect.cview(), c.cview()) != 0.0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = opt.weight_store->stats();
  EXPECT_EQ(stats.pinned_bytes, 0u) << "pins leaked past their executes";
  EXPECT_GE(stats.repacks, 1u) << "the budget never forced a repack";
}

TEST(WeightStore, NumaPlumbingDegradesGracefully) {
  // On the single-node CI hosts every query must answer without error:
  // >= 1 node, and recorded placement either a real node id or -1.
  EXPECT_GE(numa::num_nodes(), 1);
  const NMConfig cfg{2, 4, 8};
  const auto B = make_weights(128, 128, cfg, 181);
  ThreadPool pool(4);
  auto store = std::make_shared<WeightStore>();
  const BlockingParams p = [&] {
    BlockingParams bp = table1_preset(SizeClass::kSmall);
    bp.ks = derive_ks(cfg, bp.ms, bp.ns, 32 * 1024, 128);
    return bp;
  }();
  auto lease = store->acquire(B, p.ks, p.ns,
                              PackedWeights::IndexKind::kDirect,
                              ResidencyMode::kDefault, nullptr);
  EXPECT_GE(lease->numa_node(), -1);
  EXPECT_LT(lease->numa_node(), numa::num_nodes());
}

TEST(WeightStore, StripValuesKeepsShapeAndIndices) {
  const NMConfig cfg{2, 4, 8};
  const auto B = make_weights(96, 72, cfg, 191);
  const CompressedNM stripped = strip_values(*B);
  EXPECT_FALSE(stripped.has_values());
  EXPECT_TRUE(B->has_values());
  EXPECT_EQ(stripped.rows(), B->rows());
  EXPECT_EQ(stripped.num_groups(), B->num_groups());
  EXPECT_EQ(stripped.orig_rows, B->orig_rows);
  EXPECT_EQ(stripped.cols, B->cols);
  EXPECT_EQ(stripped.config, B->config);
  for (index_t u = 0; u < B->rows(); ++u) {
    for (index_t g = 0; g < B->num_groups(); ++g) {
      ASSERT_EQ(stripped.indices(u, g), B->indices(u, g));
    }
  }
  EXPECT_THROW((void)decompress(stripped), CheckError);
  MatrixF A(1, 96), C(1, 72);
  A.zero();
  EXPECT_THROW(spmm_reference(A.view(), stripped, C.view()),
               CheckError);
}

}  // namespace
}  // namespace nmspmm
