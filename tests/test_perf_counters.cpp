// obs::PerfCounterSet: graceful fallback when perf_event_open is
// unavailable (the common sandbox/CI case), real counting where the
// kernel allows it, PerfCounts arithmetic, and ModelPlan stage
// attribution (wall times always, counters while profiling).
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>

#include "core/nmspmm.hpp"
#include "obs/perf_counters.hpp"
#include "tests/testing.hpp"
#include "workloads/generators.hpp"

namespace nmspmm {
namespace {

TEST(PerfCounters, ForcedOpenFailureDegradesToUnsupported) {
  obs::PerfCounterSet::Options opt;
  opt.force_errno = EPERM;  // what perf_event_paranoid sandboxes return
  obs::PerfCounterSet perf(opt);
  EXPECT_FALSE(perf.supported());
  EXPECT_EQ(perf.error(), EPERM);
  // start/stop must be harmless no-ops reporting zeroed, unsupported
  // counts — profiling sites never branch on perf availability.
  perf.start();
  const obs::PerfCounts counts = perf.stop();
  EXPECT_FALSE(counts.supported);
  EXPECT_EQ(counts.cycles, 0u);
  EXPECT_EQ(counts.instructions, 0u);
  EXPECT_EQ(counts.cache_misses, 0u);
  EXPECT_EQ(counts.time_enabled_ns, 0u);
  EXPECT_EQ(counts.ipc(), 0.0);
  EXPECT_EQ(counts.misses_per_kilo_instr(), 0.0);
}

TEST(PerfCounters, RealCountersMeasureWorkWhenTheKernelAllows) {
  obs::PerfCounterSet perf;
  if (!perf.supported()) {
    GTEST_SKIP() << "perf_event_open unavailable here (errno "
                 << perf.error() << ")";
  }
  perf.start();
  // Enough dependent work that cycles/instructions cannot read zero.
  volatile std::uint64_t sink = 1;
  for (int i = 0; i < 100000; ++i) sink = sink * 2654435761u + 1;
  const obs::PerfCounts counts = perf.stop();
  EXPECT_TRUE(counts.supported);
  EXPECT_GT(counts.cycles, 0u);
  EXPECT_GT(counts.instructions, 0u);
  EXPECT_GT(counts.ipc(), 0.0);
  EXPECT_GT(counts.time_enabled_ns, 0u);
  // A stopped set can be restarted; the reset means the second region
  // is counted on its own, not cumulatively.
  perf.start();
  const obs::PerfCounts empty_region = perf.stop();
  EXPECT_TRUE(empty_region.supported);
  EXPECT_LT(empty_region.instructions, counts.instructions);
}

TEST(PerfCounters, CountsAccumulateAndDeriveRates) {
  obs::PerfCounts a;
  a.cycles = 1000;
  a.instructions = 2000;
  a.cache_misses = 10;
  a.time_enabled_ns = 5;
  a.supported = true;
  obs::PerfCounts b;
  b.cycles = 500;
  b.instructions = 1000;
  b.cache_misses = 5;
  b.stalled_backend = 7;
  b += a;
  EXPECT_EQ(b.cycles, 1500u);
  EXPECT_EQ(b.instructions, 3000u);
  EXPECT_EQ(b.cache_misses, 15u);
  EXPECT_EQ(b.stalled_backend, 7u);
  EXPECT_EQ(b.time_enabled_ns, 5u);
  EXPECT_TRUE(b.supported);  // supported ORs: any measured part counts
  EXPECT_DOUBLE_EQ(b.ipc(), 2.0);
  EXPECT_DOUBLE_EQ(b.misses_per_kilo_instr(), 5.0);
  EXPECT_EQ(obs::PerfCounts{}.ipc(), 0.0);
  EXPECT_EQ(obs::PerfCounts{}.misses_per_kilo_instr(), 0.0);
}

std::shared_ptr<model::ModelPlan> small_ffn_plan(Engine& engine, Rng& rng) {
  const NMConfig cfg{2, 4, 16};
  model::FfnBlock block;
  block.gate = std::make_shared<const CompressedNM>(
      random_compressed_int(64, 112, cfg, rng));
  block.up = std::make_shared<const CompressedNM>(
      random_compressed_int(64, 112, cfg, rng));
  block.down = std::make_shared<const CompressedNM>(
      random_compressed_int(112, 64, cfg, rng));
  auto plan = engine.plan_model(8, {block});
  NMSPMM_CHECK_OK(plan.status());
  return *plan;
}

TEST(ModelPlanProfiling, StatsAttributeProjectionsWhenEnabled) {
  Rng rng(77);
  Engine engine;
  auto plan = small_ffn_plan(engine, rng);

  // Off by default: wall times only, no counters, stats say so.
  const MatrixF a = random_int_matrix(8, 64, rng);
  MatrixF out(8, 64);
  NMSPMM_ASSERT_OK(plan->run(a.view(), out.view()));
  EXPECT_FALSE(plan->stats().stages.enabled);
  EXPECT_EQ(plan->stats().stages.profiled_runs, 0u);

  plan->set_profiling(true);
  EXPECT_TRUE(plan->profiling());
  for (int i = 0; i < 3; ++i) {
    NMSPMM_ASSERT_OK(plan->run(a.view(), out.view()));
  }
  const model::ModelPlan::Stats stats = plan->stats();
  EXPECT_TRUE(stats.stages.enabled);
  EXPECT_EQ(stats.stages.profiled_runs, 3u);
  if (stats.stages.supported) {
    EXPECT_TRUE(stats.stages[model::Stage::kGate].perf.supported);
    EXPECT_GT(stats.stages[model::Stage::kGate].perf.cycles, 0u);
    EXPECT_GT(stats.stages[model::Stage::kUp].perf.cycles, 0u);
    EXPECT_GT(stats.stages[model::Stage::kDown].perf.cycles, 0u);
  } else {
    // perf unavailable: profiling must be inert, not broken.
    EXPECT_FALSE(stats.stages[model::Stage::kGate].perf.supported);
    EXPECT_EQ(stats.stages[model::Stage::kGate].perf.cycles, 0u);
  }

  // Disabling stops accumulation but keeps what was measured.
  plan->set_profiling(false);
  NMSPMM_ASSERT_OK(plan->run(a.view(), out.view()));
  const auto after = plan->stats();
  EXPECT_FALSE(after.stages.enabled);
  EXPECT_EQ(after.stages.runs, 5u);
  EXPECT_EQ(after.stages.profiled_runs, stats.stages.profiled_runs);
  EXPECT_EQ(after.stages[model::Stage::kGate].perf.cycles,
            stats.stages[model::Stage::kGate].perf.cycles);
}

TEST(ModelPlanProfiling, WallTimesCoverEveryStageWithoutCounters) {
  Rng rng(78);
  Engine engine;
  auto plan = small_ffn_plan(engine, rng);
  const MatrixF a = random_int_matrix(8, 64, rng);
  MatrixF out(8, 64);

  constexpr std::uint64_t kRuns = 4;
  std::chrono::nanoseconds wall{0};
  for (std::uint64_t i = 0; i < kRuns; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    NMSPMM_ASSERT_OK(plan->run(a.view(), out.view()));
    wall += std::chrono::steady_clock::now() - t0;
  }
  const model::StageProfile::Snapshot stages = plan->stats().stages;
  EXPECT_EQ(stages.runs, kRuns);
  EXPECT_EQ(stages.profiled_runs, 0u);
  std::uint64_t total_ns = 0;
  for (const model::Stage stage :
       {model::Stage::kGate, model::Stage::kUp, model::Stage::kDown}) {
    EXPECT_EQ(stages[stage].calls, kRuns) << model::to_string(stage);
    EXPECT_GT(stages[stage].ns, 0u) << model::to_string(stage);
    EXPECT_FALSE(stages[stage].perf.supported) << model::to_string(stage);
    total_ns += stages[stage].ns;
  }
  // The stages run inside the caller's window, one after another.
  EXPECT_LE(total_ns, static_cast<std::uint64_t>(wall.count()));
  // The decoder's stages are not the FFN's.
  for (const model::Stage stage : {model::Stage::kQkv,
                                   model::Stage::kKvAppend,
                                   model::Stage::kAttend,
                                   model::Stage::kAttnOut}) {
    EXPECT_EQ(stages[stage].calls, 0u) << model::to_string(stage);
  }
}

TEST(ModelPlanProfiling, SnapshotRunsConcurrentlyWithRunsAndToggles) {
  Rng rng(79);
  Engine engine;
  auto plan = small_ffn_plan(engine, rng);
  const MatrixF a = random_int_matrix(8, 64, rng);
  constexpr std::uint64_t kRuns = 16;

  // The snapshot is lock-free: a scraper reads and toggles while runs
  // go on. TSan checks the race-freedom; every total only grows.
  std::atomic<bool> done{false};
  std::thread runner([&] {
    MatrixF out(8, 64);
    for (std::uint64_t i = 0; i < kRuns; ++i) {
      EXPECT_TRUE(plan->run(a.view(), out.view()).ok());
    }
    done.store(true, std::memory_order_release);
  });
  std::uint64_t last_runs = 0, last_ns = 0;
  bool monotone = true;
  for (int i = 0; !done.load(std::memory_order_acquire); ++i) {
    plan->set_profiling(i % 2 == 0);
    const model::StageProfile::Snapshot s = plan->stats().stages;
    const std::uint64_t ns = s[model::Stage::kDown].ns;
    monotone = monotone && s.runs >= last_runs && ns >= last_ns;
    last_runs = s.runs;
    last_ns = ns;
  }
  runner.join();
  EXPECT_TRUE(monotone);
  const model::StageProfile::Snapshot s = plan->stats().stages;
  EXPECT_EQ(s.runs, kRuns);
  EXPECT_LE(s.profiled_runs, kRuns);
  EXPECT_EQ(s[model::Stage::kDown].calls, kRuns);
}

}  // namespace
}  // namespace nmspmm
