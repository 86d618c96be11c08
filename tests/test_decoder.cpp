// model::DecoderLayer / model::DecoderPlan: the fused decoder layer
// (RMSNorm prologue -> QKV SpMM -> paged-KV attention -> output
// projection + residual -> FFN) must match the unfused reference
// bit-for-bit at 1 and 4 threads, the RMSNorm prologue must match the
// shared rmsnorm_rows helper, sequence lifecycle errors must stay typed
// through the plan, and Server::submit_decode must serve the plan with
// per-sequence status isolation on both the bypass and batched paths.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/nmspmm.hpp"
#include "model/decoder.hpp"
#include "serve/server.hpp"
#include "tests/testing.hpp"
#include "workloads/generators.hpp"

namespace nmspmm {
namespace {

std::shared_ptr<const CompressedNM> weights_for(index_t k, index_t n,
                                                const NMConfig& cfg,
                                                Rng& rng) {
  return std::make_shared<const CompressedNM>(
      random_compressed(k, n, cfg, rng));
}

std::vector<float> gain_row(index_t n, Rng& rng) {
  const MatrixF row = random_matrix(1, n, rng, 0.9f, 1.1f);
  return std::vector<float>(row.row(0), row.row(0) + n);
}

/// A small GQA decoder layer: hidden 64, 4 heads over 2 KV heads of
/// dim 16, ffn 96 — every projection planned from the same weights the
/// unfused reference multiplies.
model::DecoderLayer make_layer(Rng& rng, const NMConfig& cfg) {
  model::DecoderLayer layer;
  layer.attn.n_heads = 4;
  layer.attn.n_kv_heads = 2;
  layer.attn.head_dim = 16;
  const index_t hidden = 64, ffn = 96;
  layer.qkv = weights_for(hidden, layer.attn.qkv_dim(), cfg, rng);
  layer.out_proj = weights_for(layer.attn.q_dim(), hidden, cfg, rng);
  layer.attn_norm = gain_row(hidden, rng);
  layer.ffn.gate = weights_for(hidden, ffn, cfg, rng);
  layer.ffn.up = weights_for(hidden, ffn, cfg, rng);
  layer.ffn.down = weights_for(ffn, hidden, cfg, rng);
  layer.ffn.act = Activation::kSilu;
  layer.ffn.input_norm = gain_row(hidden, rng);
  layer.ffn.residual = true;
  return layer;
}

attn::KvCacheOptions cache_for(index_t max_tokens,
                               index_t page_tokens = 4) {
  attn::KvCacheOptions opt;  // geometry comes from layer.attn at plan time
  opt.page_tokens = page_tokens;
  opt.max_tokens = max_tokens;
  return opt;
}

void silu_mul_rows(MatrixF& gate, const MatrixF& up) {
  for (index_t i = 0; i < gate.rows(); ++i) {
    float* g = gate.row(i);
    const float* u = up.row(i);
    for (index_t j = 0; j < gate.cols(); ++j) {
      g[j] = apply_activation(Activation::kSilu, g[j]) * u[j];
    }
  }
}

void add_rows(MatrixF& y, const MatrixF& x) {
  for (index_t i = 0; i < y.rows(); ++i) {
    float* yi = y.row(i);
    const float* xi = x.row(i);
    for (index_t j = 0; j < y.cols(); ++j) yi[j] += xi[j];
  }
}

// ----------------------------------------------------------- prologue

TEST(Prologue, FusedRmsnormMatchesSharedHelperBitExactly) {
  Rng rng(31);
  const NMConfig cfg{2, 4, 16};
  const index_t m = 5, k = 64, n = 48;
  auto B = weights_for(k, n, cfg, rng);
  const MatrixF A = random_matrix(m, k, rng);
  const std::vector<float> gain = gain_row(k, rng);

  Engine engine;
  SpmmOptions fused_opt;
  fused_opt.prologue.rmsnorm = true;
  fused_opt.prologue.eps = 1e-5f;
  auto plan = engine.plan_for(m, B, fused_opt);
  NMSPMM_ASSERT_OK(plan.status());
  EpilogueArgs args;
  args.rms_gain = gain.data();
  MatrixF fused(m, n);
  NMSPMM_ASSERT_OK((*plan)->execute(A.cview(), fused.view(), args));

  // Unfused: the same rmsnorm_rows the decoder reference uses, then a
  // plain plan over the normalized copy.
  MatrixF normed(m, k);
  rmsnorm_rows(A.cview(), gain.data(), 1e-5f, normed.view());
  MatrixF want(m, n);
  NMSPMM_ASSERT_OK(engine.spmm(normed.cview(), B, want.view()));
  EXPECT_EQ(max_abs_diff(want.cview(), fused.cview()), 0.0);
}

TEST(Prologue, ExecuteWithoutGainIsRejected) {
  Rng rng(32);
  const NMConfig cfg{2, 4, 16};
  auto B = weights_for(32, 16, cfg, rng);
  Engine engine;
  SpmmOptions opt;
  opt.prologue.rmsnorm = true;
  auto plan = engine.plan_for(2, B, opt);
  NMSPMM_ASSERT_OK(plan.status());
  const MatrixF A = random_matrix(2, 32, rng);
  MatrixF C(2, 16);
  // No rms_gain operand: the plan must refuse, not read null.
  EXPECT_EQ((*plan)->execute(A.cview(), C.view(), EpilogueArgs{}).code(),
            StatusCode::kInvalidArgument);
}

TEST(Ffn, InputNormFusesTheFfnPreNorm) {
  Rng rng(33);
  const NMConfig cfg{2, 4, 16};
  const index_t m = 4, hidden = 64, ffn = 96;
  model::FfnBlock block;
  block.gate = weights_for(hidden, ffn, cfg, rng);
  block.up = weights_for(hidden, ffn, cfg, rng);
  block.down = weights_for(ffn, hidden, cfg, rng);
  block.act = Activation::kSilu;
  block.input_norm = gain_row(hidden, rng);
  block.residual = true;

  Engine engine;
  auto plan = engine.plan_model(m, block);
  NMSPMM_ASSERT_OK(plan.status());
  const MatrixF x = random_matrix(m, hidden, rng, -0.5f, 0.5f);
  MatrixF fused(m, hidden);
  NMSPMM_ASSERT_OK((*plan)->run(x.cview(), fused.view()));

  MatrixF normed(m, hidden);
  rmsnorm_rows(x.cview(), block.input_norm.data(), block.norm_eps,
               normed.view());
  MatrixF gate(m, ffn), up(m, ffn), want(m, hidden);
  NMSPMM_ASSERT_OK(engine.spmm(normed.cview(), block.gate, gate.view()));
  NMSPMM_ASSERT_OK(engine.spmm(normed.cview(), block.up, up.view()));
  silu_mul_rows(gate, up);
  NMSPMM_ASSERT_OK(engine.spmm(gate.cview(), block.down, want.view()));
  add_rows(want, x);  // residual adds the *unnormalized* input
  EXPECT_EQ(max_abs_diff(want.cview(), fused.cview()), 0.0);
}

// --------------------------------------------------------- validation

TEST(DecoderLayer, ValidateRejectsInconsistentShapes) {
  Rng rng(37);
  const NMConfig cfg{2, 4, 16};
  const model::DecoderLayer good = make_layer(rng, cfg);
  NMSPMM_EXPECT_OK(good.validate());

  model::DecoderLayer bad = good;
  bad.qkv = nullptr;
  EXPECT_EQ(bad.validate().code(), StatusCode::kInvalidArgument);

  bad = good;
  bad.out_proj = bad.qkv;  // wrong orientation for the output projection
  EXPECT_EQ(bad.validate().code(), StatusCode::kInvalidArgument);

  bad = good;
  bad.attn_norm.resize(13);  // gain width != hidden
  EXPECT_EQ(bad.validate().code(), StatusCode::kInvalidArgument);

  bad = good;
  bad.ffn.residual = false;  // the layer needs the fused residual add
  EXPECT_EQ(bad.validate().code(), StatusCode::kInvalidArgument);

  bad = good;
  bad.attn.n_kv_heads = 3;  // does not divide n_heads
  EXPECT_EQ(bad.validate().code(), StatusCode::kInvalidArgument);
}

TEST(DecoderPlan, PlanDecoderValidatesUpFront) {
  Rng rng(38);
  const NMConfig cfg{2, 4, 16};
  Engine engine;
  model::DecoderLayer layer = make_layer(rng, cfg);
  EXPECT_EQ(engine.plan_decoder(0, layer, cache_for(16)).status().code(),
            StatusCode::kInvalidArgument);
  attn::KvCacheOptions no_capacity = cache_for(0);
  EXPECT_EQ(engine.plan_decoder(2, layer, no_capacity).status().code(),
            StatusCode::kInvalidArgument);
  NMSPMM_ASSERT_OK(engine.plan_decoder(2, layer, cache_for(16)).status());
}

// ---------------------------------------------------- fused vs unfused

TEST(DecoderPlan, MatchesUnfusedReferenceAtOneAndFourThreads) {
  Rng rng(41);
  const NMConfig cfg{2, 4, 16};
  model::DecoderLayer layer = make_layer(rng, cfg);
  const index_t hidden = layer.hidden();
  const index_t q_dim = layer.attn.q_dim();
  const index_t kv_dim = layer.attn.kv_dim();
  const index_t seqs = 3;
  const int steps = 6;

  EngineOptions serial_opt;
  serial_opt.num_threads = 1;
  EngineOptions pooled_opt;
  pooled_opt.num_threads = 4;
  Engine serial(serial_opt);
  Engine pooled(pooled_opt);
  auto plan1 = serial.plan_decoder(seqs, layer, cache_for(seqs * 8));
  NMSPMM_ASSERT_OK(plan1.status());
  auto plan4 = pooled.plan_decoder(seqs, layer, cache_for(seqs * 8));
  NMSPMM_ASSERT_OK(plan4.status());

  attn::DecodeAttention ref_attn(layer.attn);
  attn::KvCacheOptions ref_kv_opt = cache_for(seqs * 8);
  ref_kv_opt.n_kv_heads = layer.attn.n_kv_heads;
  ref_kv_opt.head_dim = layer.attn.head_dim;
  attn::KvCache ref_kv(ref_kv_opt);

  std::vector<std::uint64_t> ids = {5, 9, 11};
  for (std::uint64_t id : ids) {
    NMSPMM_ASSERT_OK((*plan1)->begin_sequence(id));
    NMSPMM_ASSERT_OK((*plan4)->begin_sequence(id));
    NMSPMM_ASSERT_OK(ref_kv.begin_sequence(id));
  }

  MatrixF x = random_matrix(seqs, hidden, rng, -0.5f, 0.5f);
  MatrixF out1(seqs, hidden), out4(seqs, hidden);
  MatrixF normed(seqs, hidden), qkv(seqs, layer.attn.qkv_dim());
  MatrixF attn_o(seqs, q_dim), x1(seqs, hidden);
  MatrixF normed2(seqs, hidden);
  MatrixF gate(seqs, layer.ffn.gate->cols), up(seqs, layer.ffn.up->cols);
  MatrixF ref_out(seqs, hidden);
  std::vector<Status> row_status(seqs);

  for (int step = 0; step < steps; ++step) {
    NMSPMM_ASSERT_OK((*plan1)->decode(x.cview(), ids.data(), out1.view(),
                                      row_status.data()));
    for (const Status& s : row_status) NMSPMM_ASSERT_OK(s);
    NMSPMM_ASSERT_OK((*plan4)->decode(x.cview(), ids.data(), out4.view(),
                                      row_status.data()));
    for (const Status& s : row_status) NMSPMM_ASSERT_OK(s);

    rmsnorm_rows(x.cview(), layer.attn_norm.data(), layer.norm_eps,
                 normed.view());
    NMSPMM_ASSERT_OK(serial.spmm(normed.cview(), layer.qkv, qkv.view()));
    for (index_t s = 0; s < seqs; ++s) {
      float* row = qkv.row(s);
      NMSPMM_ASSERT_OK(ref_attn.decode_step(
          ref_kv, ids[static_cast<std::size_t>(s)], row, row + q_dim,
          row + q_dim + kv_dim, attn_o.row(s)));
    }
    NMSPMM_ASSERT_OK(serial.spmm(attn_o.cview(), layer.out_proj, x1.view()));
    add_rows(x1, x);
    rmsnorm_rows(x1.cview(), layer.ffn.input_norm.data(), layer.ffn.norm_eps,
                 normed2.view());
    NMSPMM_ASSERT_OK(serial.spmm(normed2.cview(), layer.ffn.gate,
                                 gate.view()));
    NMSPMM_ASSERT_OK(serial.spmm(normed2.cview(), layer.ffn.up, up.view()));
    silu_mul_rows(gate, up);
    NMSPMM_ASSERT_OK(serial.spmm(gate.cview(), layer.ffn.down,
                                 ref_out.view()));
    add_rows(ref_out, x1);

    ASSERT_EQ(max_abs_diff(out1.cview(), ref_out.cview()), 0.0)
        << "1-thread divergence at step " << step;
    ASSERT_EQ(max_abs_diff(out4.cview(), ref_out.cview()), 0.0)
        << "4-thread divergence at step " << step;
    // Autoregressive feedback.
    for (index_t s = 0; s < seqs; ++s) {
      std::copy_n(ref_out.row(s), hidden, x.row(s));
    }
  }

  const model::DecoderPlan::Stats stats = (*plan1)->stats();
  EXPECT_EQ(stats.planned_tokens, seqs);
  EXPECT_GT(stats.weight_bytes, 0u);
  EXPECT_GT(stats.kv.resident_bytes, 0u);
  EXPECT_EQ(stats.kv.appended_tokens,
            static_cast<std::uint64_t>(seqs) * steps);
  EXPECT_GT(stats.resident_bytes(), stats.kv.resident_bytes);
}

// ----------------------------------------------------------- lifecycle

TEST(DecoderPlan, SequenceLifecycleStatusesStayTyped) {
  Rng rng(43);
  const NMConfig cfg{2, 4, 16};
  Engine engine;
  // Capacity of exactly one page (4 tokens) forces quick exhaustion.
  auto plan_or = engine.plan_decoder(2, make_layer(rng, cfg), cache_for(4));
  NMSPMM_ASSERT_OK(plan_or.status());
  model::DecoderPlan& plan = **plan_or;
  const index_t hidden = plan.hidden();

  MatrixF x = random_matrix(1, hidden, rng);
  MatrixF out(1, hidden);
  Status row;
  std::uint64_t id = 7;

  // Unknown sequence: the batch succeeds, the row carries NOT_FOUND.
  NMSPMM_ASSERT_OK(plan.decode(x.cview(), &id, out.view(), &row));
  EXPECT_EQ(row.code(), StatusCode::kNotFound);

  NMSPMM_ASSERT_OK(plan.begin_sequence(7));
  EXPECT_TRUE(plan.has_sequence(7));
  EXPECT_EQ(plan.begin_sequence(7).code(), StatusCode::kFailedPrecondition);

  // Page budget: 4 tokens fit, the 5th append is RESOURCE_EXHAUSTED and
  // marked retryable for the serving layer's backoff machinery.
  for (int t = 0; t < 4; ++t) {
    NMSPMM_ASSERT_OK(plan.decode(x.cview(), &id, out.view(), &row));
    NMSPMM_ASSERT_OK(row);
  }
  NMSPMM_ASSERT_OK(plan.decode(x.cview(), &id, out.view(), &row));
  EXPECT_EQ(row.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(is_retryable(row.code()));
  EXPECT_EQ(*plan.seq_len(7), 4);

  // The retry path: freeing releases the page; a fresh sequence decodes.
  NMSPMM_ASSERT_OK(plan.free_sequence(7));
  EXPECT_EQ(plan.free_sequence(7).code(), StatusCode::kFailedPrecondition);
  NMSPMM_ASSERT_OK(plan.begin_sequence(8));
  id = 8;
  NMSPMM_ASSERT_OK(plan.decode(x.cview(), &id, out.view(), &row));
  NMSPMM_ASSERT_OK(row);
  EXPECT_EQ(plan.stats().kv.pages_recycled, 1u);
}

TEST(DecoderPlan, PoisonedContextIsARowErrorNotAThrow) {
  // One sequence's input row carries +inf, -inf, or NaN. Through the
  // RMSNorm prologue and the QKV projection it poisons that sequence's
  // Q and cached K, so attend sees non-finite logits: the row gets a
  // typed FAILED_PRECONDITION, the batch status stays Ok, nothing
  // throws, and the batchmates' outputs match a twin plan fed only
  // clean rows bit for bit. The poison stays in the context, so the
  // sequence's next (clean) step fails the same way.
  Rng rng(45);
  const NMConfig cfg{2, 4, 16};
  const model::DecoderLayer layer = make_layer(rng, cfg);
  const index_t seqs = 3;
  const std::vector<std::uint64_t> ids = {1, 2, 3};
  for (float bad : {std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity(),
                    std::numeric_limits<float>::quiet_NaN()}) {
    Engine engine;
    auto poisoned_or = engine.plan_decoder(seqs, layer, cache_for(seqs * 8));
    NMSPMM_ASSERT_OK(poisoned_or.status());
    auto clean_or = engine.plan_decoder(seqs, layer, cache_for(seqs * 8));
    NMSPMM_ASSERT_OK(clean_or.status());
    model::DecoderPlan& poisoned = **poisoned_or;
    model::DecoderPlan& clean = **clean_or;
    for (std::uint64_t id : ids) {
      NMSPMM_ASSERT_OK(poisoned.begin_sequence(id));
      NMSPMM_ASSERT_OK(clean.begin_sequence(id));
    }
    const index_t hidden = poisoned.hidden();
    std::vector<Status> rows(seqs), clean_rows(seqs);
    MatrixF out(seqs, hidden), want(seqs, hidden);
    for (int step = 0; step < 3; ++step) {
      const MatrixF x = random_matrix(seqs, hidden, rng, -0.5f, 0.5f);
      MatrixF x_bad = x;
      if (step == 1) x_bad(1, 7) = bad;
      NMSPMM_ASSERT_OK(
          poisoned.decode(x_bad.cview(), ids.data(), out.view(), rows.data()));
      NMSPMM_ASSERT_OK(
          clean.decode(x.cview(), ids.data(), want.view(), clean_rows.data()));
      for (const Status& row : clean_rows) NMSPMM_ASSERT_OK(row);
      for (index_t i = 0; i < seqs; ++i) {
        const Status& row = rows[static_cast<std::size_t>(i)];
        if (i == 1 && step >= 1) {
          EXPECT_EQ(row.code(), StatusCode::kFailedPrecondition)
              << "value " << bad << " step " << step << ": "
              << row.to_string();
          continue;
        }
        NMSPMM_ASSERT_OK(row);
        for (index_t j = 0; j < hidden; ++j) {
          ASSERT_EQ(want(i, j), out(i, j))
              << "value " << bad << " step " << step << " row " << i;
        }
      }
    }
  }
}

TEST(DecoderPlan, UnnormalizedFeedbackEndsInRowErrorsNotAThrow) {
  // Without norm gains, feeding the layer its own output grows the
  // activations geometrically until Q·Kᵀ overflows. That used to throw
  // out of decode(); it now surfaces as typed row errors.
  Rng rng(46);
  const NMConfig cfg{2, 4, 16};
  model::DecoderLayer layer = make_layer(rng, cfg);
  layer.attn_norm.clear();
  layer.ffn.input_norm.clear();
  Engine engine;
  const index_t seqs = 2;
  auto plan_or = engine.plan_decoder(seqs, layer, cache_for(seqs * 256));
  NMSPMM_ASSERT_OK(plan_or.status());
  model::DecoderPlan& plan = **plan_or;
  const std::vector<std::uint64_t> ids = {1, 2};
  for (std::uint64_t id : ids) NMSPMM_ASSERT_OK(plan.begin_sequence(id));
  const index_t hidden = plan.hidden();
  MatrixF x = random_matrix(seqs, hidden, rng, -0.5f, 0.5f);
  MatrixF out(seqs, hidden);
  std::vector<Status> rows(seqs);
  int failed_at = -1;
  for (int step = 0; step < 256 && failed_at < 0; ++step) {
    NMSPMM_ASSERT_OK(
        plan.decode(x.cview(), ids.data(), out.view(), rows.data()));
    for (const Status& row : rows) {
      if (!row.ok()) {
        EXPECT_EQ(row.code(), StatusCode::kFailedPrecondition)
            << row.to_string();
        failed_at = step;
      }
    }
    x = out;
  }
  EXPECT_GT(failed_at, 0) << "the activations never overflowed";
}

TEST(DecoderPlan, BatchStatusesStayBatchLevel) {
  Rng rng(44);
  const NMConfig cfg{2, 4, 16};
  Engine engine;
  auto plan_or = engine.plan_decoder(2, make_layer(rng, cfg), cache_for(8));
  NMSPMM_ASSERT_OK(plan_or.status());
  model::DecoderPlan& plan = **plan_or;
  const index_t hidden = plan.hidden();
  std::vector<std::uint64_t> ids = {1, 2, 3};
  std::vector<Status> rows(3);

  // Wrong depth: InvalidArgument before any row runs.
  MatrixF bad = random_matrix(2, hidden + 1, rng);
  MatrixF out2(2, hidden);
  EXPECT_EQ(plan.decode(bad.cview(), ids.data(), out2.view(), rows.data())
                .code(),
            StatusCode::kInvalidArgument);
  // Over the planned batch: FAILED_PRECONDITION.
  MatrixF a3 = random_matrix(3, hidden, rng);
  MatrixF out3(3, hidden);
  EXPECT_EQ(plan.decode(a3.cview(), ids.data(), out3.view(), rows.data())
                .code(),
            StatusCode::kFailedPrecondition);
  // Null arrays: InvalidArgument.
  MatrixF a2 = random_matrix(2, hidden, rng);
  EXPECT_EQ(plan.decode(a2.cview(), nullptr, out2.view(), rows.data())
                .code(),
            StatusCode::kInvalidArgument);
}

// --------------------------------------------------- stage attribution

/// A plan over sequences 1..rows, each begun, with one fixed input row
/// per sequence.
struct StagePlan {
  std::shared_ptr<model::DecoderPlan> plan;
  MatrixF x;
};

StagePlan stage_plan(Engine& engine, index_t rows, index_t max_tokens,
                     Rng& rng) {
  auto plan = engine.plan_decoder(rows, make_layer(rng, NMConfig{2, 4, 16}),
                                  cache_for(max_tokens));
  NMSPMM_CHECK_OK(plan.status());
  for (index_t i = 0; i < rows; ++i) {
    NMSPMM_CHECK_OK((*plan)->begin_sequence(static_cast<std::uint64_t>(i + 1)));
  }
  return {*plan, random_matrix(rows, (*plan)->hidden(), rng)};
}

/// Runs @p steps decode steps; returns the caller-measured wall time of
/// the decode() calls.
std::chrono::nanoseconds decode_steps(StagePlan& p, int steps) {
  const index_t rows = p.x.rows();
  std::vector<std::uint64_t> ids;
  for (index_t i = 0; i < rows; ++i) ids.push_back(i + 1);
  std::vector<Status> row_status(rows);
  MatrixF out(rows, p.plan->hidden());
  std::chrono::nanoseconds wall{0};
  for (int s = 0; s < steps; ++s) {
    const auto t0 = std::chrono::steady_clock::now();
    const Status status =
        p.plan->decode(p.x.cview(), ids.data(), out.view(), row_status.data());
    wall += std::chrono::steady_clock::now() - t0;
    EXPECT_TRUE(status.ok()) << status.to_string();
    for (const Status& row : row_status) {
      EXPECT_TRUE(row.ok()) << row.to_string();
    }
  }
  return wall;
}

constexpr model::Stage kAttnStages[] = {
    model::Stage::kQkv, model::Stage::kKvAppend, model::Stage::kAttend,
    model::Stage::kAttnOut};
constexpr model::Stage kFfnStages[] = {model::Stage::kGate, model::Stage::kUp,
                                       model::Stage::kDown};

TEST(DecoderPlan, StagesTimeEveryStepWithoutCounters) {
  Rng rng(51);
  Engine engine;
  StagePlan p = stage_plan(engine, 2, 32, rng);
  constexpr int kSteps = 5;
  const std::chrono::nanoseconds wall = decode_steps(p, kSteps);

  const model::DecoderPlan::Stats stats = p.plan->stats();
  EXPECT_EQ(stats.stages.runs, static_cast<std::uint64_t>(kSteps));
  std::uint64_t total_ns = 0;
  for (const model::Stage stage : kAttnStages) {
    EXPECT_EQ(stats.stages[stage].calls, static_cast<std::uint64_t>(kSteps))
        << model::to_string(stage);
    EXPECT_GT(stats.stages[stage].ns, 0u) << model::to_string(stage);
    total_ns += stats.stages[stage].ns;
  }
  // The FFN tail attributes its own projections under ffn.stages.
  for (const model::Stage stage : kFfnStages) {
    EXPECT_EQ(stats.stages[stage].calls, 0u) << model::to_string(stage);
    EXPECT_EQ(stats.ffn.stages[stage].calls,
              static_cast<std::uint64_t>(kSteps))
        << model::to_string(stage);
    EXPECT_GT(stats.ffn.stages[stage].ns, 0u) << model::to_string(stage);
    total_ns += stats.ffn.stages[stage].ns;
  }
  // Every stage runs inside the caller's decode() window, one at a time.
  EXPECT_LE(total_ns, static_cast<std::uint64_t>(wall.count()));
}

TEST(DecoderPlan, StatsRunsConcurrentlyWithDecode) {
  Rng rng(53);
  Engine engine;
  constexpr int kSteps = 24;
  StagePlan p = stage_plan(engine, 2, 2 * kSteps, rng);

  // stats() takes no plan lock: a scraper polls it while a decode loop
  // runs. TSan checks the race-freedom; the KV counters must only grow.
  std::atomic<bool> done{false};
  std::thread decoder([&] {
    decode_steps(p, kSteps);
    done.store(true, std::memory_order_release);
  });
  std::uint64_t last_tokens = 0;
  bool monotone = true;
  while (!done.load(std::memory_order_acquire)) {
    const model::DecoderPlan::Stats s = p.plan->stats();
    monotone = monotone && s.kv.appended_tokens >= last_tokens;
    last_tokens = s.kv.appended_tokens;
  }
  decoder.join();
  EXPECT_TRUE(monotone);
  const model::DecoderPlan::Stats final_stats = p.plan->stats();
  EXPECT_EQ(final_stats.kv.appended_tokens, 2u * kSteps);
  EXPECT_EQ(final_stats.stages.runs, static_cast<std::uint64_t>(kSteps));
  EXPECT_EQ(final_stats.stages[model::Stage::kAttend].calls,
            static_cast<std::uint64_t>(kSteps));
}

// -------------------------------------------------- Server integration

TEST(ServerDecode, SingleStepsBypassAndMatchDirectDecode) {
  Rng rng(47);
  const NMConfig cfg{2, 4, 16};
  // One layer, planned twice: plan_decoder copies it, so the served plan
  // and the directly-driven twin share the exact same weights.
  const model::DecoderLayer layer = make_layer(rng, cfg);
  Server server;  // bypass on by default
  auto plan_or = server.engine().plan_decoder(4, layer, cache_for(64));
  NMSPMM_ASSERT_OK(plan_or.status());
  std::shared_ptr<model::DecoderPlan> plan = *plan_or;
  const index_t hidden = plan->hidden();

  Engine twin;
  auto want_or = twin.plan_decoder(4, layer, cache_for(64));
  NMSPMM_ASSERT_OK(want_or.status());
  std::shared_ptr<model::DecoderPlan> want_plan = *want_or;

  NMSPMM_ASSERT_OK(plan->begin_sequence(1));
  NMSPMM_ASSERT_OK(want_plan->begin_sequence(1));
  Rng data_rng(48);
  for (int step = 0; step < 5; ++step) {
    const MatrixF x = random_matrix(1, hidden, data_rng, -0.5f, 0.5f);
    MatrixF out(1, hidden), want(1, hidden);
    std::uint64_t id = 1;
    Status row;
    NMSPMM_ASSERT_OK(want_plan->decode(x.cview(), &id, want.view(), &row));
    NMSPMM_ASSERT_OK(row);
    auto done = server.submit_decode(1, x.cview(), plan, out.view());
    ASSERT_EQ(done.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);  // bypassed: already resolved
    NMSPMM_ASSERT_OK(done.get());
    EXPECT_EQ(max_abs_diff(want.cview(), out.cview()), 0.0);
  }
  const Server::GroupStats stats = server.decode_stats(plan.get());
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.bypassed, 5u);
}

TEST(ServerDecode, CoalescedBatchesIsolatePerSequenceFailures) {
  Rng rng(49);
  const NMConfig cfg{2, 4, 16};
  ServerOptions opt;
  opt.num_shards = 1;
  opt.max_batch_rows = 4;
  opt.max_wait_us = 200000;        // only full batches flush early
  opt.bypass_single_rows = false;  // force the batched path
  // Exactly the four decode rows fit under the shed mark; the failed row
  // must give its row back like the others (checked at the end).
  opt.admission = AdmissionPolicy::kShed;
  opt.shed_pending_rows = 4;
  Server server(opt);
  auto plan_or = server.engine().plan_decoder(4, make_layer(rng, cfg),
                                              cache_for(64));
  NMSPMM_ASSERT_OK(plan_or.status());
  std::shared_ptr<model::DecoderPlan> plan = *plan_or;
  const index_t hidden = plan->hidden();

  // Sequences 1..3 are live; 99 was never begun. Submitting all four
  // fills the 4-row budget, so they coalesce into one decode batch.
  for (std::uint64_t id = 1; id <= 3; ++id) {
    NMSPMM_ASSERT_OK(plan->begin_sequence(id));
  }
  std::vector<MatrixF> xs, outs;
  for (int i = 0; i < 4; ++i) {
    xs.push_back(random_matrix(1, hidden, rng, -0.5f, 0.5f));
    outs.emplace_back(1, hidden);
  }
  std::vector<std::future<Status>> futures;
  const std::uint64_t ids[] = {1, 2, 99, 3};
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.submit_decode(ids[i], xs[static_cast<std::size_t>(
                                                        i)].cview(),
                                           plan,
                                           outs[static_cast<std::size_t>(i)]
                                               .view()));
  }
  EXPECT_EQ(futures[0].get().code(), StatusCode::kOk);
  EXPECT_EQ(futures[1].get().code(), StatusCode::kOk);
  EXPECT_EQ(futures[2].get().code(), StatusCode::kNotFound);
  EXPECT_EQ(futures[3].get().code(), StatusCode::kOk);

  const Server::GroupStats stats = server.decode_stats(plan.get());
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, 2u);   // genuinely coalesced
  EXPECT_EQ(stats.errors, 1u);    // only the unknown sequence failed
  // The three live sequences really decoded: their contexts advanced.
  for (std::uint64_t id = 1; id <= 3; ++id) {
    EXPECT_EQ(*plan->seq_len(id), 1);
  }
  // Every row, the failed one included, released its pending row: a
  // fresh 4-row request passes admission instead of being shed.
  const auto weights = weights_for(hidden, hidden, cfg, rng);
  const MatrixF a = random_matrix(4, hidden, rng);
  MatrixF c(4, hidden);
  NMSPMM_EXPECT_OK(server.submit(a.cview(), weights, c.view()).get());
  EXPECT_EQ(server.stats().shed_requests, 0u);
}

TEST(ServerDecode, MixedTargetKindsShareOneShard) {
  Rng rng(53);
  const NMConfig cfg{2, 4, 16};
  ServerOptions opt;
  opt.num_shards = 1;              // every target lands on one dispatcher
  opt.bypass_single_rows = false;  // force the batched path
  opt.max_batch_rows = 8;
  opt.max_wait_us = 200;
  opt.trace_sample_n = 1;
  Server server(opt);

  // Plain SpMM over integer data: bit-exact under any batching.
  const index_t k = 64, n = 48;
  auto weights = std::make_shared<const CompressedNM>(
      random_compressed_int(k, n, cfg, rng));
  const model::DecoderLayer layer = make_layer(rng, cfg);
  auto ffn_or = server.engine().plan_model(8, layer.ffn);
  NMSPMM_ASSERT_OK(ffn_or.status());
  std::shared_ptr<model::ModelPlan> ffn = *ffn_or;
  auto decode_or = server.engine().plan_decoder(4, layer, cache_for(64));
  NMSPMM_ASSERT_OK(decode_or.status());
  std::shared_ptr<model::DecoderPlan> decode = *decode_or;
  Engine direct;
  auto twin_or = direct.plan_decoder(4, layer, cache_for(64));
  NMSPMM_ASSERT_OK(twin_or.status());
  std::shared_ptr<model::DecoderPlan> twin = *twin_or;
  const index_t hidden = decode->hidden();

  constexpr std::uint64_t kSeqs = 4;
  for (std::uint64_t id = 1; id <= kSeqs; ++id) {
    NMSPMM_ASSERT_OK(decode->begin_sequence(id));
    NMSPMM_ASSERT_OK(twin->begin_sequence(id));
  }
  struct Request {
    MatrixF a;
    MatrixF out;
    MatrixF want;
    std::future<Status> done;
  };
  constexpr int kRounds = 3;
  std::uint64_t spmm_requests = 0, ffn_requests = 0, decode_requests = 0;
  for (int round = 0; round < kRounds; ++round) {
    // One burst interleaves all three kinds; each live sequence steps
    // once per burst (its next step depends on this one's KV append).
    std::vector<Request> spmm, ffn_reqs, steps;
    for (std::uint64_t i = 0; i < kSeqs; ++i) {
      Request s;
      s.a = random_int_matrix(1 + static_cast<index_t>(i % 3), k, rng);
      s.out = MatrixF(s.a.rows(), n);
      s.want = MatrixF(s.a.rows(), n);
      NMSPMM_ASSERT_OK(direct.spmm(s.a.cview(), weights, s.want.view()));
      s.done = server.submit(s.a.cview(), weights, s.out.view());
      spmm.push_back(std::move(s));

      Request f;
      f.a = random_int_matrix(1 + static_cast<index_t>(i % 2), hidden, rng);
      f.out = MatrixF(f.a.rows(), hidden);
      f.want = MatrixF(f.a.rows(), hidden);
      NMSPMM_ASSERT_OK(ffn->run(f.a.cview(), f.want.view()));
      f.done = server.submit_ffn(f.a.cview(), ffn, f.out.view());
      ffn_reqs.push_back(std::move(f));

      Request d;
      const std::uint64_t id = i + 1;
      d.a = random_matrix(1, hidden, rng, -0.5f, 0.5f);
      d.out = MatrixF(1, hidden);
      d.want = MatrixF(1, hidden);
      Status row;
      NMSPMM_ASSERT_OK(twin->decode(d.a.cview(), &id, d.want.view(), &row));
      NMSPMM_ASSERT_OK(row);
      d.done = server.submit_decode(id, d.a.cview(), decode, d.out.view());
      steps.push_back(std::move(d));
    }
    for (auto* batch : {&spmm, &ffn_reqs, &steps}) {
      for (Request& r : *batch) {
        NMSPMM_ASSERT_OK(r.done.get());
        EXPECT_EQ(max_abs_diff(r.want.cview(), r.out.cview()), 0.0)
            << "round " << round;
      }
    }
    spmm_requests += spmm.size();
    ffn_requests += ffn_reqs.size();
    decode_requests += steps.size();
  }

  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.groups, 3u);
  EXPECT_EQ(stats.totals.requests,
            spmm_requests + ffn_requests + decode_requests);
  EXPECT_EQ(stats.totals.errors, 0u);
  EXPECT_EQ(server.weights_stats(weights.get()).requests, spmm_requests);
  EXPECT_EQ(server.model_stats(ffn.get()).requests, ffn_requests);
  EXPECT_EQ(server.decode_stats(decode.get()).requests, decode_requests);

  // Every traced request's spans name its own target object.
  const auto address = [](const void* p) {
    return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p));
  };
  const std::map<std::uint64_t, std::uint64_t> expected = {
      {address(weights.get()), spmm_requests},
      {address(ffn.get()), ffn_requests},
      {address(decode.get()), decode_requests}};
  EXPECT_EQ(stats.trace_drops, 0u);
  std::map<std::uint64_t, std::uint64_t> target_of;  // trace id -> target
  for (const obs::TraceSpan& s : server.tracer()->snapshot()) {
    if (s.trace_id == 0) continue;  // attention / KV spans carry no request
    const auto [it, inserted] = target_of.emplace(s.trace_id, s.target);
    EXPECT_EQ(it->second, s.target) << "trace " << s.trace_id;
    EXPECT_EQ(expected.count(s.target), 1u) << "trace " << s.trace_id;
  }
  std::map<std::uint64_t, std::uint64_t> traced;  // target -> requests
  for (const auto& [id, target] : target_of) ++traced[target];
  EXPECT_EQ(traced, expected);
}

TEST(ServerDecode, RejectsMalformedSubmissions) {
  Rng rng(51);
  const NMConfig cfg{2, 4, 16};
  Server server;
  auto plan_or = server.engine().plan_decoder(2, make_layer(rng, cfg),
                                              cache_for(16));
  NMSPMM_ASSERT_OK(plan_or.status());
  std::shared_ptr<model::DecoderPlan> plan = *plan_or;
  const index_t hidden = plan->hidden();

  MatrixF x1(1, hidden), x2(2, hidden), out(1, hidden);
  EXPECT_EQ(server.submit_decode(1, x1.cview(), nullptr, out.view())
                .get()
                .code(),
            StatusCode::kInvalidArgument);
  // Decode is strictly one token row per submission.
  MatrixF out2(2, hidden);
  EXPECT_EQ(server.submit_decode(1, x2.cview(), plan, out2.view())
                .get()
                .code(),
            StatusCode::kInvalidArgument);
  MatrixF narrow(1, hidden - 1);
  EXPECT_EQ(server.submit_decode(1, narrow.cview(), plan, out.view())
                .get()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace nmspmm
