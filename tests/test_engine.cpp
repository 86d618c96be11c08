// nmspmm::Engine: plan-cache hit/miss behavior across batch sizes, LRU
// eviction, Status error surface, thread-safety of concurrent spmm()
// calls, and bit-exactness of parallel execution vs 1 thread for every
// kernel variant.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "core/nmspmm.hpp"
#include "tests/testing.hpp"
#include "workloads/generators.hpp"

namespace nmspmm {
namespace {

std::shared_ptr<const CompressedNM> shared_weights(index_t k, index_t n,
                                                   const NMConfig& cfg,
                                                   Rng& rng) {
  return std::make_shared<const CompressedNM>(
      random_compressed_int(k, n, cfg, rng));
}

MatrixF reference_for(ConstViewF A, const CompressedNM& B) {
  MatrixF C(A.rows(), B.cols);
  spmm_reference(A, B, C.view());
  return C;
}

TEST(EnginePool, Resolution) {
  // num_threads=1 must be strictly serial: no pool at all, so plans
  // built by this engine cannot fall back to the global pool.
  EngineOptions serial;
  serial.num_threads = 1;
  Engine serial_engine(serial);
  EXPECT_EQ(serial_engine.pool(), nullptr);
  EXPECT_EQ(serial_engine.num_threads(), 1u);

  // The default engine aliases the process-global pool instead of
  // spawning a second worker set.
  Engine default_engine;
  EXPECT_EQ(default_engine.pool(), &ThreadPool::global());

  // An explicit non-default count gets a dedicated pool of that size.
  EngineOptions four;
  four.num_threads = ThreadPool::global().size() + 3;
  Engine four_engine(four);
  EXPECT_EQ(four_engine.num_threads(), ThreadPool::global().size() + 3);
  EXPECT_NE(four_engine.pool(), &ThreadPool::global());
}

TEST(EngineCache, BucketsBatchSizes) {
  EXPECT_EQ(Engine::bucket_batch(1), 16);
  EXPECT_EQ(Engine::bucket_batch(16), 16);
  EXPECT_EQ(Engine::bucket_batch(17), 32);
  EXPECT_EQ(Engine::bucket_batch(33), 64);
  EXPECT_EQ(Engine::bucket_batch(1000), 1024);
}

TEST(EngineCache, BucketClampsInsteadOfOverflowing) {
  // Pre-fix, doubling past 2^62 signed-overflowed (UB manifesting as an
  // infinite loop). Huge batches now get an exact, unbucketed plan size.
  constexpr index_t kMaxBucket = index_t{1} << 62;
  EXPECT_EQ(Engine::bucket_batch(kMaxBucket), kMaxBucket);
  EXPECT_EQ(Engine::bucket_batch(kMaxBucket + 1), kMaxBucket + 1);
  EXPECT_EQ(Engine::bucket_batch(std::numeric_limits<index_t>::max()),
            std::numeric_limits<index_t>::max());
  // The largest in-range power of two still buckets normally.
  EXPECT_EQ(Engine::bucket_batch((index_t{1} << 40) + 1),
            index_t{1} << 41);
}

TEST(EngineCache, HitMissAcrossBatchSizes) {
  Rng rng(600);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  Engine engine;

  auto run = [&](index_t m) {
    const MatrixF A = random_int_matrix(m, k, rng);
    MatrixF C(m, n);
    NMSPMM_ASSERT_OK(engine.spmm(A.view(), B, C.view()));
    EXPECT_EQ(max_abs_diff(reference_for(A.view(), *B).cview(), C.cview()),
              0.0) << "m=" << m;
  };

  run(8);  // miss: builds the m<=16 bucket plan
  auto stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.size, 1u);

  run(16);  // same bucket: hit
  run(3);   // same bucket: hit
  stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);

  run(40);  // bucket 64: miss — the engine re-plans instead of failing
  stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.size, 2u);

  run(64);  // bucket 64 again: hit
  stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 3u);
}

TEST(EngineCache, DistinctOptionsAndWeightsGetDistinctPlans) {
  Rng rng(601);
  const index_t k = 64, n = 64;
  auto B1 = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  auto B2 = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  Engine engine;
  const MatrixF A = random_int_matrix(16, k, rng);
  MatrixF C(16, n);

  NMSPMM_ASSERT_OK(engine.spmm(A.view(), B1, C.view()));
  NMSPMM_ASSERT_OK(engine.spmm(A.view(), B2, C.view()));  // other weights
  SpmmOptions v1;
  v1.variant = KernelVariant::kV1;
  NMSPMM_ASSERT_OK(engine.spmm(A.view(), B1, C.view(), v1));  // other opts
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.size, 3u);
}

TEST(EngineCache, EvictsLeastRecentlyUsed) {
  Rng rng(602);
  const index_t k = 64, n = 64;
  EngineOptions opt;
  opt.plan_cache_capacity = 2;
  opt.num_threads = 1;
  Engine engine(opt);
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  NMSPMM_ASSERT_OK(engine.plan_for(16, B).status());
  NMSPMM_ASSERT_OK(engine.plan_for(32, B).status());
  NMSPMM_ASSERT_OK(engine.plan_for(64, B).status());  // evicts bucket 16
  auto stats = engine.cache_stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  NMSPMM_ASSERT_OK(engine.plan_for(16, B).status());  // rebuilt: miss
  stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 4u);
}

TEST(EngineCache, EvictingLastPlanOfABucketReleasesItsPackedWeights) {
  // Plan-cache LRU x packed-weights interning: the interned PackedWeights
  // of a weight matrix must die with the last plan referencing it (no
  // leak past eviction), and a re-plan must re-pack exactly once — the
  // build counter (PackedWeights::build_count) is the pack-counter
  // instrumentation shared with test_packed_weights.
  Rng rng(604);
  const index_t k = 64, n = 64;
  EngineOptions opt;
  opt.plan_cache_capacity = 2;
  opt.num_threads = 1;
  opt.weight_store = std::make_shared<mem::WeightStore>();
  Engine engine(opt);
  auto B1 = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  auto B2 = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  // Pin the blocking so both buckets of B1 share one packed form.
  SpmmOptions spmm_opt;
  BlockingParams params = table1_preset(SizeClass::kSmall);
  params.ks = 32;
  spmm_opt.params = params;

  const std::uint64_t builds0 = PackedWeights::build_count();
  NMSPMM_ASSERT_OK(engine.plan_for(16, B1, spmm_opt).status());
  NMSPMM_ASSERT_OK(engine.plan_for(64, B1, spmm_opt).status());
  EXPECT_EQ(PackedWeights::build_count() - builds0, 1u)
      << "two buckets of one weight matrix must share a single pack";
  EXPECT_EQ(opt.weight_store->stats().leases, 1u);
  const std::size_t resident_b1 = opt.weight_store->stats().resident_bytes;
  EXPECT_GT(resident_b1, 0u);

  // Evict bucket 16, then bucket 64 — the *last* plan holding B1's
  // packed form. Its lease must release the bytes, not leak them.
  NMSPMM_ASSERT_OK(engine.plan_for(16, B2, spmm_opt).status());
  NMSPMM_ASSERT_OK(engine.plan_for(64, B2, spmm_opt).status());
  EXPECT_EQ(engine.cache_stats().size, 2u);
  {
    const auto stats = opt.weight_store->stats();
    EXPECT_EQ(stats.leases, 1u) << "B1's lease must die with its last plan";
    EXPECT_LT(stats.resident_bytes, 2 * resident_b1)
        << "evicting both B1 plans leaked B1's PackedWeights";
  }

  // Re-planning B1 re-packs exactly once, shared again across buckets.
  const std::uint64_t builds1 = PackedWeights::build_count();
  NMSPMM_ASSERT_OK(engine.plan_for(16, B1, spmm_opt).status());
  NMSPMM_ASSERT_OK(engine.plan_for(64, B1, spmm_opt).status());
  EXPECT_EQ(PackedWeights::build_count() - builds1, 1u)
      << "re-plan after eviction must re-pack exactly once";
}

TEST(EngineCache, PlanOutlivesEviction) {
  Rng rng(603);
  const index_t k = 64, n = 64;
  EngineOptions opt;
  opt.plan_cache_capacity = 1;
  Engine engine(opt);
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  auto plan = engine.plan_for(16, B);
  NMSPMM_ASSERT_OK(plan.status());
  NMSPMM_ASSERT_OK(engine.plan_for(1024, B).status());  // evicts the first
  EXPECT_EQ(engine.cache_stats().size, 1u);

  const MatrixF A = random_int_matrix(16, k, rng);
  MatrixF C(16, n);
  NMSPMM_ASSERT_OK((*plan)->execute(A.view(), C.view()));
  EXPECT_EQ(max_abs_diff(reference_for(A.view(), *B).cview(), C.cview()),
            0.0);
}

TEST(EngineStatus, ReportsInvalidInputsWithoutThrowing) {
  Rng rng(604);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  Engine engine;

  EXPECT_EQ(engine.plan_for(16, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.plan_for(0, B).status().code(),
            StatusCode::kInvalidArgument);

  const MatrixF wrong_depth = random_int_matrix(16, 48, rng);
  MatrixF C(16, n);
  EXPECT_EQ(engine.spmm(wrong_depth.view(), B, C.view()).code(),
            StatusCode::kInvalidArgument);

  const MatrixF A = random_int_matrix(16, k, rng);
  MatrixF wrong_out(16, 48);
  EXPECT_EQ(engine.spmm(A.view(), B, wrong_out.view()).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineConcurrency, ParallelCallersAgreeWithReference) {
  Rng rng(605);
  const index_t k = 96, n = 64;
  auto B = shared_weights(k, n, NMConfig{4, 8, 8}, rng);
  Engine engine;

  // Pre-generate per-thread problems (Rng is not thread-safe).
  struct Problem {
    MatrixF a;
    MatrixF expect;
    index_t m;
  };
  std::vector<Problem> problems;
  for (const index_t m : {1, 7, 16, 33, 64, 5, 128, 20}) {
    Problem p;
    p.m = m;
    p.a = random_int_matrix(m, k, rng);
    p.expect = reference_for(p.a.view(), *B);
    problems.push_back(std::move(p));
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> callers;
  callers.reserve(problems.size());
  for (const Problem& p : problems) {
    callers.emplace_back([&engine, &B, &p, &mismatches, &errors] {
      for (int iter = 0; iter < 8; ++iter) {
        MatrixF c(p.m, p.expect.cols());
        if (!engine.spmm(p.a.view(), B, c.view()).ok()) {
          ++errors;
          return;
        }
        if (max_abs_diff(p.expect.cview(), c.cview()) != 0.0) ++mismatches;
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // All callers of one bucket share a plan: every (bucket, opts) pair is
  // built at most... twice under a benign race, but served hits after.
  const auto stats = engine.cache_stats();
  EXPECT_GT(stats.hits, 0u);
}

TEST(EngineParallel, OneVsManyThreadsBitExactAllVariants) {
  Rng rng(606);
  const index_t m = 80, k = 128, n = 96;
  const MatrixF A = random_int_matrix(m, k, rng);
  for (const NMConfig cfg : {kSparsity50, kSparsity875}) {
    auto B = shared_weights(k, n, cfg, rng);
    struct Case {
      KernelVariant variant;
      PackingMode packing;
    };
    for (const Case c : {Case{KernelVariant::kV1, PackingMode::kAuto},
                         Case{KernelVariant::kV2, PackingMode::kAlways},
                         Case{KernelVariant::kV3, PackingMode::kAlways},
                         Case{KernelVariant::kV3, PackingMode::kNever}}) {
      SpmmOptions serial;
      serial.variant = c.variant;
      serial.packing = c.packing;
      serial.num_threads = 1;
      SpmmOptions parallel = serial;
      parallel.num_threads = 4;

      MatrixF c_serial(m, n), c_parallel(m, n);
      NMSPMM_ASSERT_OK(
          SpmmPlan::create(m, B, serial).execute(A.view(), c_serial.view()));
      NMSPMM_ASSERT_OK(SpmmPlan::create(m, B, parallel)
                           .execute(A.view(), c_parallel.view()));
      EXPECT_EQ(max_abs_diff(c_serial.cview(), c_parallel.cview()), 0.0)
          << to_string(c.variant) << " at " << cfg.to_string();
    }
  }
}

TEST(EngineParallel, SmallBatchWideOutputUsesNBlockPartitioning) {
  // m = 16 gives a single m-block, so a multi-threaded engine must
  // partition n-blocks; the result must still be bit-exact vs serial.
  Rng rng(607);
  const index_t m = 16, k = 128, n = 512;
  const MatrixF A = random_int_matrix(m, k, rng);
  auto B = shared_weights(k, n, kSparsity75, rng);

  SpmmOptions serial;
  serial.num_threads = 1;
  MatrixF c_serial(m, n);
  NMSPMM_ASSERT_OK(
      SpmmPlan::create(m, B, serial).execute(A.view(), c_serial.view()));

  EngineOptions opt;
  opt.num_threads = 4;
  Engine engine(opt);
  MatrixF c_engine(m, n);
  NMSPMM_ASSERT_OK(engine.spmm(A.view(), B, c_engine.view()));
  EXPECT_EQ(max_abs_diff(c_serial.cview(), c_engine.cview()), 0.0);
}

}  // namespace
}  // namespace nmspmm
