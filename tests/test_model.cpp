// model::FfnBlock / model::ModelPlan: the fused FFN pipeline must match
// the unfused three-call pipeline bit-for-bit (same plans, epilogue
// applied by hand), and stay within accumulation tolerance of the pure
// reference; plus validation, resident-memory stats, the per-stage wall
// times of model::StageProfile, and Server::submit_ffn
// batched serving.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/nmspmm.hpp"
#include "model/stage_profile.hpp"
#include "serve/server.hpp"
#include "tests/testing.hpp"
#include "workloads/generators.hpp"

namespace nmspmm {
namespace {

std::shared_ptr<const CompressedNM> int_weights(index_t k, index_t n,
                                                const NMConfig& cfg,
                                                Rng& rng) {
  return std::make_shared<const CompressedNM>(
      random_compressed_int(k, n, cfg, rng));
}

std::vector<float> int_bias(index_t n, Rng& rng) {
  const MatrixF row = random_int_matrix(1, n, rng);
  return std::vector<float>(row.row(0), row.row(0) + n);
}

model::FfnBlock make_block(index_t hidden, index_t ffn, const NMConfig& cfg,
                           Rng& rng, bool with_bias,
                           Activation act = Activation::kSilu) {
  model::FfnBlock block;
  block.gate = int_weights(hidden, ffn, cfg, rng);
  block.up = int_weights(hidden, ffn, cfg, rng);
  block.down = int_weights(ffn, hidden, cfg, rng);
  if (with_bias) {
    block.gate_bias = int_bias(ffn, rng);
    block.up_bias = int_bias(ffn, rng);
    block.down_bias = int_bias(hidden, rng);
  }
  block.act = act;
  return block;
}

/// Reference FFN forward from the Eq. 1 kernel plus scalar loops — fully
/// independent of the plan/epilogue machinery.
MatrixF reference_ffn(ConstViewF A, const model::FfnBlock& block) {
  const index_t m = A.rows();
  const index_t ffn = block.ffn_dim();
  const index_t hidden = block.hidden_out();
  MatrixF gate(m, ffn), up(m, ffn), out(m, hidden);
  spmm_reference(A, *block.gate, gate.view());
  spmm_reference(A, *block.up, up.view());
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < ffn; ++j) {
      float g = gate(i, j);
      float u = up(i, j);
      if (!block.gate_bias.empty()) g += block.gate_bias[j];
      if (!block.up_bias.empty()) u += block.up_bias[j];
      gate(i, j) = u * apply_activation(block.act, g);
    }
  }
  spmm_reference(gate.view(), *block.down, out.view());
  if (!block.down_bias.empty()) {
    for (index_t i = 0; i < m; ++i) {
      for (index_t j = 0; j < hidden; ++j) out(i, j) += block.down_bias[j];
    }
  }
  return out;
}

/// Unfused pipeline through the *same* engine plans (no epilogues) with
/// the activation applied by hand: bit-identical inputs at every stage,
/// so the fused ModelPlan must agree exactly.
MatrixF unfused_pipeline(Engine& engine, ConstViewF A,
                         const model::FfnBlock& block) {
  const index_t m = A.rows();
  const index_t ffn = block.ffn_dim();
  MatrixF gate(m, ffn), up(m, ffn), out(m, block.hidden_out());
  engine.spmm(A, block.gate, gate.view()).check_ok();
  engine.spmm(A, block.up, up.view()).check_ok();
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < ffn; ++j) {
      float g = gate(i, j);
      float u = up(i, j);
      if (!block.gate_bias.empty()) g += block.gate_bias[j];
      if (!block.up_bias.empty()) u += block.up_bias[j];
      gate(i, j) = u * apply_activation(block.act, g);
    }
  }
  engine.spmm(gate.view(), block.down, out.view()).check_ok();
  if (!block.down_bias.empty()) {
    for (index_t i = 0; i < m; ++i) {
      for (index_t j = 0; j < out.cols(); ++j) {
        out(i, j) += block.down_bias[j];
      }
    }
  }
  return out;
}

TEST(ModelPlan, FusedRunMatchesUnfusedPipelineBitExactly) {
  Rng rng(950);
  const NMConfig cfg{2, 4, 16};
  const index_t hidden = 96, ffn = 176, tokens = 33;  // ragged everywhere
  for (const bool with_bias : {false, true}) {
    const model::FfnBlock block = make_block(hidden, ffn, cfg, rng, with_bias);
    Engine engine;
    auto plan = engine.plan_model(tokens, block);
    NMSPMM_ASSERT_OK(plan.status());

    const MatrixF A = random_int_matrix(tokens, hidden, rng);
    MatrixF out(tokens, hidden);
    NMSPMM_ASSERT_OK((*plan)->run(A.view(), out.view()));

    // Same plans, same scalar activation math: exact agreement. (The
    // fused path's only difference is *where* the epilogue runs.)
    const MatrixF want = unfused_pipeline(engine, A.view(), block);
    EXPECT_EQ(max_abs_diff(want.cview(), out.cview()), 0.0)
        << "with_bias=" << with_bias;

    // Independent reference: tolerance covers the down-projection's
    // accumulation-order difference on non-integer h.
    const MatrixF ref = reference_ffn(A.view(), block);
    EXPECT_LT(max_abs_diff(ref.cview(), out.cview()), 1e-3)
        << "with_bias=" << with_bias;

    // Smaller batches ride the same plan.
    MatrixF small_out(5, hidden);
    NMSPMM_ASSERT_OK(
        (*plan)->run(A.view().block(0, 0, 5, hidden), small_out.view()));
    for (index_t i = 0; i < 5; ++i) {
      for (index_t j = 0; j < hidden; ++j) {
        EXPECT_EQ(small_out(i, j), out(i, j));
      }
    }
  }
}

TEST(ModelPlan, FusedResidualMatchesUnfusedResidualPassBitExactly) {
  Rng rng(958);
  const NMConfig cfg{2, 4, 16};
  const index_t hidden = 96, ffn = 176, tokens = 21;
  for (const bool with_bias : {false, true}) {
    model::FfnBlock block = make_block(hidden, ffn, cfg, rng, with_bias);
    block.residual = true;
    Engine engine;
    auto plan = engine.plan_model(tokens, block);
    NMSPMM_ASSERT_OK(plan.status());

    const MatrixF A = random_int_matrix(tokens, hidden, rng);
    MatrixF out(tokens, hidden);
    NMSPMM_ASSERT_OK((*plan)->run(A.view(), out.view()));

    // Unfused oracle: same plans without the residual epilogue, then the
    // skip connection as a separate elementwise pass. The fused path adds
    // the same two floats in the same order (v += residual last), so
    // agreement must be exact.
    model::FfnBlock unfused = block;
    unfused.residual = false;
    MatrixF want = unfused_pipeline(engine, A.view(), unfused);
    for (index_t i = 0; i < tokens; ++i) {
      for (index_t j = 0; j < hidden; ++j) want(i, j) += A.view()(i, j);
    }
    EXPECT_EQ(max_abs_diff(want.cview(), out.cview()), 0.0)
        << "with_bias=" << with_bias;
  }
}

TEST(ModelPlan, ResidualRequiresMatchingHiddenDims) {
  Rng rng(959);
  const NMConfig cfg{2, 4, 16};
  Engine engine;
  model::FfnBlock block = make_block(64, 112, cfg, rng, false);
  block.down = int_weights(112, 80, cfg, rng);  // hidden 64 -> 80
  block.residual = true;
  EXPECT_EQ(engine.plan_model(8, block).status().code(),
            StatusCode::kInvalidArgument);
  block.residual = false;  // without the skip connection the shape is fine
  NMSPMM_ASSERT_OK(engine.plan_model(8, block).status());
}

TEST(ModelPlan, ResidualRejectsOutAliasingInput) {
  // The fused residual stores write out before they read the block
  // input, so a residual run whose out is A is refused, not computed.
  Rng rng(960);
  const NMConfig cfg{2, 4, 16};
  model::FfnBlock block = make_block(64, 112, cfg, rng, false);
  block.residual = true;
  Engine engine;
  auto plan = engine.plan_model(8, block);
  NMSPMM_ASSERT_OK(plan.status());
  MatrixF x = random_int_matrix(8, 64, rng);
  const MatrixF before = x;
  EXPECT_EQ((*plan)->run(x.view(), x.view()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(max_abs_diff(before.cview(), x.cview()), 0.0);
  // A separate out buffer runs.
  MatrixF out(8, 64);
  NMSPMM_ASSERT_OK((*plan)->run(x.view(), out.view()));
}

TEST(ModelPlan, GeluGatingAndMultiThreadedRunsAgree) {
  Rng rng(951);
  const NMConfig cfg{1, 8, 8};  // high sparsity
  const model::FfnBlock block =
      make_block(64, 120, cfg, rng, /*with_bias=*/true, Activation::kGelu);
  const MatrixF A = random_int_matrix(17, 64, rng);

  MatrixF serial_out(17, 64), parallel_out(17, 64);
  {
    EngineOptions opt;
    opt.num_threads = 1;
    Engine engine(opt);
    auto plan = engine.plan_model(32, block);
    NMSPMM_ASSERT_OK(plan.status());
    NMSPMM_ASSERT_OK((*plan)->run(A.view(), serial_out.view()));
  }
  {
    EngineOptions opt;
    opt.num_threads = 4;
    Engine engine(opt);
    auto plan = engine.plan_model(32, block);
    NMSPMM_ASSERT_OK(plan.status());
    NMSPMM_ASSERT_OK((*plan)->run(A.view(), parallel_out.view()));
  }
  // Kernels are bit-exact across thread counts; the fused epilogue must
  // preserve that (each tile finalized once, by its owning worker).
  EXPECT_EQ(max_abs_diff(serial_out.cview(), parallel_out.cview()), 0.0);
  const MatrixF ref = reference_ffn(A.view(), block);
  EXPECT_LT(max_abs_diff(ref.cview(), serial_out.cview()), 1e-3);
}

TEST(ModelPlan, ValidatesBlocksAndBatches) {
  Rng rng(953);
  const NMConfig cfg{2, 4, 16};
  Engine engine;

  model::FfnBlock block = make_block(64, 112, cfg, rng, false);
  {  // null weights
    model::FfnBlock bad = block;
    bad.down = nullptr;
    EXPECT_EQ(engine.plan_model(8, bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  {  // up projection disagrees with gate
    model::FfnBlock bad = block;
    bad.up = int_weights(64, 80, cfg, rng);
    EXPECT_EQ(engine.plan_model(8, bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  {  // down consumes the wrong width
    model::FfnBlock bad = block;
    bad.down = int_weights(80, 64, cfg, rng);
    EXPECT_EQ(engine.plan_model(8, bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  {  // bias width mismatch
    model::FfnBlock bad = block;
    bad.up_bias = int_bias(7, rng);
    EXPECT_EQ(engine.plan_model(8, bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(engine.plan_model(0, block).status().code(),
            StatusCode::kInvalidArgument);

  // Batch-time validation.
  auto plan = engine.plan_model(8, block);
  NMSPMM_ASSERT_OK(plan.status());
  const MatrixF A = random_int_matrix(9, 64, rng);  // > planned tokens
  MatrixF out(9, 64);
  EXPECT_EQ((*plan)->run(A.view(), out.view()).code(),
            StatusCode::kFailedPrecondition);
  const MatrixF bad_depth = random_int_matrix(4, 48, rng);
  MatrixF out4(4, 64);
  EXPECT_EQ((*plan)->run(bad_depth.view(), out4.view()).code(),
            StatusCode::kInvalidArgument);
  MatrixF bad_out(4, 48);
  EXPECT_EQ(
      (*plan)->run(A.view().block(0, 0, 4, 64), bad_out.view()).code(),
      StatusCode::kInvalidArgument);
}

TEST(ModelPlan, StatsReportResidentFootprint) {
  Rng rng(954);
  const NMConfig cfg{2, 4, 16};
  model::FfnBlock block = make_block(64, 112, cfg, rng, false);
  Engine engine;
  auto plan = engine.plan_model(16, block);
  NMSPMM_ASSERT_OK(plan.status());

  const model::ModelPlan::Stats stats = (*plan)->stats();
  EXPECT_EQ(stats.planned_tokens, 16);
  EXPECT_EQ(stats.weight_bytes, block.gate->footprint_bytes() +
                                    block.up->footprint_bytes() +
                                    block.down->footprint_bytes());
  // Every projection's plan pre-packs its weights; the packed forms are
  // surfaced (PackedWeights::footprint_bytes) for the memory budget.
  EXPECT_GT(stats.packed_bytes, 0u);
  EXPECT_GT(stats.scratch_bytes, 0u);
  EXPECT_EQ(stats.resident_bytes(),
            stats.weight_bytes + stats.packed_bytes + stats.scratch_bytes);

  // Tied gate and up (one shared_ptr) count once, and the interning
  // registry means their packed form counts once too.
  model::FfnBlock tied_block = block;
  tied_block.up = block.gate;
  auto tied = engine.plan_model(16, tied_block);
  NMSPMM_ASSERT_OK(tied.status());
  const model::ModelPlan::Stats tied_stats = (*tied)->stats();
  EXPECT_EQ(tied_stats.weight_bytes, block.gate->footprint_bytes() +
                                         block.down->footprint_bytes());
  EXPECT_LT(tied_stats.packed_bytes, stats.packed_bytes);
}

std::shared_ptr<model::ModelPlan> small_ffn_plan(Engine& engine, Rng& rng) {
  auto plan = engine.plan_model(
      8, make_block(64, 112, {2, 4, 16}, rng, /*with_bias=*/false));
  NMSPMM_CHECK_OK(plan.status());
  return *plan;
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
  std::uint64_t total_ns = 0;
  for (const model::Stage stage :
       {model::Stage::kGate, model::Stage::kUp, model::Stage::kDown}) {
    EXPECT_EQ(stages[stage].calls, kRuns) << model::to_string(stage);
    EXPECT_GT(stages[stage].ns, 0u) << model::to_string(stage);
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

TEST(ModelPlanProfiling, SnapshotRunsConcurrentlyWithRuns) {
  Rng rng(79);
  Engine engine;
  auto plan = small_ffn_plan(engine, rng);
  const MatrixF a = random_int_matrix(8, 64, rng);
  constexpr std::uint64_t kRuns = 16;

  // The snapshot is lock-free: a scraper reads while runs go on. TSan
  // checks the race-freedom; every total only grows.
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
  while (!done.load(std::memory_order_acquire)) {
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
  EXPECT_EQ(s[model::Stage::kDown].calls, kRuns);
}

TEST(StageProfile, FailingStageReturnsItsStatusAndIsStillTimed) {
  model::StageProfile profile;
  profile.begin_run();
  const model::StageProfile::Snapshot before = profile.snapshot();
  std::uint64_t elapsed_ns = 0;
  const Status status = profile.run(
      model::Stage::kUp,
      [] {
        // Spin until the clock ticks, so the stage's time cannot be 0.
        const auto t0 = std::chrono::steady_clock::now();
        while (std::chrono::steady_clock::now() == t0) {
        }
        return Status::Internal("stage failed");
      },
      &elapsed_ns);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(), "stage failed");

  const model::StageProfile::Snapshot after = profile.snapshot();
  EXPECT_EQ(after.runs, 1u);
  EXPECT_EQ(after[model::Stage::kUp].calls,
            before[model::Stage::kUp].calls + 1);
  EXPECT_GT(after[model::Stage::kUp].ns, 0u);
  EXPECT_EQ(elapsed_ns,
            after[model::Stage::kUp].ns - before[model::Stage::kUp].ns);
  // No other stage is charged.
  EXPECT_EQ(after[model::Stage::kGate].calls, 0u);
  EXPECT_EQ(after[model::Stage::kDown].calls, 0u);
}

TEST(ServerFfn, SubmitFfnCoalescesAndMatchesDirectRuns) {
  Rng rng(955);
  const NMConfig cfg{2, 4, 16};
  const index_t hidden = 64, ffn = 96;
  const model::FfnBlock block = make_block(hidden, ffn, cfg, rng, true);

  ServerOptions opt;
  opt.max_batch_rows = 16;
  opt.max_wait_us = 200000;          // only full batches flush early
  opt.bypass_single_rows = false;    // force everything through batching
  Server server(opt);
  auto plan_or = server.engine().plan_model(32, block);
  NMSPMM_ASSERT_OK(plan_or.status());
  std::shared_ptr<model::ModelPlan> plan = *plan_or;

  struct Request {
    MatrixF a;
    MatrixF out;
    MatrixF expect;
    std::future<Status> done;
  };
  std::vector<Request> requests;
  for (int i = 0; i < 24; ++i) {
    Request r;
    r.a = random_int_matrix(1 + i % 3, hidden, rng);
    r.out = MatrixF(r.a.rows(), hidden);
    r.expect = MatrixF(r.a.rows(), hidden);
    plan->run(r.a.view(), r.expect.view()).check_ok();
    requests.push_back(std::move(r));
  }
  for (Request& r : requests) {
    r.done = server.submit_ffn(r.a.view(), plan, r.out.view());
  }
  for (Request& r : requests) NMSPMM_ASSERT_OK(r.done.get());
  // Rows are independent in every projection, so batched serving must
  // agree bit-exactly with the per-request runs.
  for (const Request& r : requests) {
    EXPECT_EQ(max_abs_diff(r.expect.cview(), r.out.cview()), 0.0);
  }
  const Server::GroupStats stats = server.model_stats(plan.get());
  EXPECT_EQ(stats.requests, 24u);
  EXPECT_LT(stats.batches, stats.requests);  // genuinely coalesced
  EXPECT_GT(stats.full_flushes, 0u);
  EXPECT_EQ(stats.bypassed, 0u);
}

TEST(ServerFfn, RejectsRequestsBeyondThePlanTokenBudget) {
  Rng rng(956);
  const NMConfig cfg{2, 4, 16};
  const model::FfnBlock block = make_block(64, 96, cfg, rng, false);
  Server server;
  auto plan_or = server.engine().plan_model(4, block);
  NMSPMM_ASSERT_OK(plan_or.status());

  const MatrixF big = random_int_matrix(5, 64, rng);
  MatrixF out(5, 64);
  auto refused = server.submit_ffn(big.view(), *plan_or, out.view());
  EXPECT_EQ(refused.get().code(), StatusCode::kFailedPrecondition);
  auto null_plan = server.submit_ffn(big.view(), nullptr, out.view());
  EXPECT_EQ(null_plan.get().code(), StatusCode::kInvalidArgument);
}

TEST(ServerFfn, SingleRowFfnRequestsBypassTheDispatcher) {
  Rng rng(957);
  const NMConfig cfg{2, 4, 16};
  const model::FfnBlock block = make_block(64, 96, cfg, rng, false);
  Server server;  // bypass on by default
  auto plan_or = server.engine().plan_model(16, block);
  NMSPMM_ASSERT_OK(plan_or.status());
  std::shared_ptr<model::ModelPlan> plan = *plan_or;

  for (int i = 0; i < 6; ++i) {
    const MatrixF a = random_int_matrix(1, 64, rng);
    MatrixF out(1, 64), want(1, 64);
    plan->run(a.view(), want.view()).check_ok();
    auto done = server.submit_ffn(a.view(), plan, out.view());
    // A bypassed request is already resolved when submit returns.
    ASSERT_EQ(done.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    NMSPMM_ASSERT_OK(done.get());
    EXPECT_EQ(max_abs_diff(want.cview(), out.cview()), 0.0);
  }
  const Server::GroupStats stats = server.model_stats(plan.get());
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.bypassed, 6u);
  EXPECT_EQ(stats.batches, 0u);  // bypass skips batch accounting
}

}  // namespace
}  // namespace nmspmm
