// nmspmm::Server: dynamic micro-batching correctness (coalesced results
// bit-exact vs serial engine.spmm), max-wait flushes, concurrent
// submitters across weight matrices, per-request rejection, and shutdown
// draining in-flight requests. Plus the BatchQueue policy in isolation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/nmspmm.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"
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

using serve::RequestClass;
using serve::Stage;
using obs::SpanKind;
using SpanKinds = std::set<SpanKind>;
const SpanKinds kBatchedSpans = {SpanKind::kSubmit, SpanKind::kQueue,
                                 SpanKind::kGather, SpanKind::kExecute,
                                 SpanKind::kTotal};
const SpanKinds kBypassSpans = {SpanKind::kSubmit, SpanKind::kExecute,
                                SpanKind::kTotal};

/// Expect @p latency's sample count per stage of @p cls, in Stage order
/// (submit, queue, gather, execute, total).
void expect_stage_counts(const serve::TelemetrySnapshot& latency,
                         RequestClass cls,
                         const std::vector<std::uint64_t>& counts) {
  for (int st = 0; st < serve::kNumStages; ++st) {
    EXPECT_EQ(latency.stage(cls, static_cast<Stage>(st)).count,
              counts[static_cast<std::size_t>(st)])
        << serve::to_string(cls) << " "
        << serve::to_string(static_cast<Stage>(st));
  }
}

/// For a server tracing every request (trace_sample_n = 1): expect the
/// spans of each (class, stage) to number exactly the histogram samples
/// stats().latency holds for it, and return how many requests left each
/// set of span kinds.
std::map<SpanKinds, int> expect_spans_match_stages(const Server& server) {
  std::uint64_t spans[serve::kNumClasses][serve::kNumStages] = {};
  std::map<std::uint64_t, SpanKinds> by_request;
  for (const obs::TraceSpan& s : server.tracer()->snapshot()) {
    if (s.trace_id == 0) continue;  // batch-window spans (repack, attn)
    ++spans[s.cls][static_cast<int>(s.kind)];
    by_request[s.trace_id].insert(s.kind);
  }
  const serve::TelemetrySnapshot latency = server.stats().latency;
  for (int c = 0; c < serve::kNumClasses; ++c) {
    for (int st = 0; st < serve::kNumStages; ++st) {
      EXPECT_EQ(spans[c][st], latency.stages[c][st].count)
          << serve::to_string(static_cast<RequestClass>(c)) << " "
          << serve::to_string(static_cast<Stage>(st));
    }
  }
  std::map<SpanKinds, int> paths;
  for (const auto& [id, kinds] : by_request) ++paths[kinds];
  return paths;
}

TEST(BatchQueuePolicy, ReadyOnRowBudgetOrDeadline) {
  using namespace std::chrono;
  BatchQueue queue;
  const auto t0 = BatchQueue::Clock::now();
  MatrixF a(3, 8), c(3, 8);
  queue.push(BatchRequest{a.view(), c.view(), {}, t0, t0});
  EXPECT_EQ(queue.pending_rows(), 3);

  // Not full, deadline not reached.
  EXPECT_FALSE(queue.ready(t0 + microseconds(10), 8, microseconds(100)));
  // Deadline reached.
  EXPECT_TRUE(queue.ready(t0 + microseconds(100), 8, microseconds(100)));
  // Row budget reached.
  MatrixF a2(5, 8), c2(5, 8);
  queue.push(BatchRequest{a2.view(), c2.view(), {}, t0, t0});
  EXPECT_TRUE(queue.ready(t0 + microseconds(10), 8, microseconds(100)));
}

TEST(BatchQueuePolicy, TakeBatchRespectsRowBudgetButNeverStarves) {
  BatchQueue queue;
  const auto t0 = BatchQueue::Clock::now();
  MatrixF big(10, 4), c_big(10, 4);
  MatrixF small(2, 4), c_small(2, 4);
  queue.push(BatchRequest{big.view(), c_big.view(), {}, t0, t0});
  queue.push(BatchRequest{small.view(), c_small.view(), {}, t0, t0});

  // An oversized request flushes alone instead of deadlocking.
  auto first = queue.take_batch(/*max_rows=*/4);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].a.rows(), 10);
  EXPECT_EQ(queue.pending_rows(), 2);
  auto second = queue.take_batch(4);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.max_depth_seen(), 2u);
}

TEST(Server, CoalescedResultsMatchSerialEngineBitExactly) {
  Rng rng(900);
  const index_t k = 96, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 32;
  opt.max_wait_us = 200000;  // generous: only full batches flush early
  Server server(opt);

  struct Request {
    MatrixF a;
    MatrixF c;
    MatrixF expect;
    std::future<Status> done;
  };
  std::vector<Request> requests;
  for (int i = 0; i < 48; ++i) {
    Request r;
    r.a = random_int_matrix(1 + i % 4, k, rng);
    r.c = MatrixF(r.a.rows(), n);
    r.expect = reference_for(r.a.view(), *B);
    requests.push_back(std::move(r));
  }
  for (Request& r : requests) {
    r.done = server.submit(r.a.view(), B, r.c.view());
  }
  for (Request& r : requests) NMSPMM_ASSERT_OK(r.done.get());

  // Integer-valued operands: the batched product must agree bit-exactly
  // with the per-request reference.
  for (const Request& r : requests) {
    EXPECT_EQ(max_abs_diff(r.expect.cview(), r.c.cview()), 0.0);
  }

  // ~120 rows submitted against a 32-row budget: requests genuinely
  // coalesced instead of being served one by one.
  const Server::GroupStats stats = server.weights_stats(B.get());
  EXPECT_EQ(stats.requests, 48u);
  EXPECT_LT(stats.batches, stats.requests);
  EXPECT_GT(stats.full_flushes, 0u);
}

TEST(Server, MaxWaitFlushesPartialBatch) {
  Rng rng(901);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 1024;  // never fills from one tiny request
  opt.max_wait_us = 2000;
  Server server(opt);

  const MatrixF A = random_int_matrix(2, k, rng);
  MatrixF C(2, n);
  auto done = server.submit(A.view(), B, C.view());
  // The only flush trigger is the max-wait deadline.
  ASSERT_EQ(done.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  NMSPMM_ASSERT_OK(done.get());
  EXPECT_EQ(max_abs_diff(reference_for(A.view(), *B).cview(), C.cview()),
            0.0);
  EXPECT_GE(server.weights_stats(B.get()).timeout_flushes, 1u);
}

TEST(Server, ConcurrentSubmittersAcrossTwoWeightMatrices) {
  Rng rng(902);
  const index_t k = 64;
  auto B1 = shared_weights(k, 48, NMConfig{2, 4, 16}, rng);
  auto B2 = shared_weights(k, 80, NMConfig{4, 8, 8}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 16;
  opt.max_wait_us = 500;
  Server server(opt);

  // Pre-generate per-thread problems (Rng is not thread-safe).
  struct Problem {
    std::shared_ptr<const CompressedNM> weights;
    MatrixF a;
    MatrixF c;
    MatrixF expect;
  };
  const int kThreads = 6, kPerThread = 16;
  std::vector<std::vector<Problem>> work(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      Problem p;
      p.weights = (t + i) % 2 == 0 ? B1 : B2;
      p.a = random_int_matrix(1 + i % 3, k, rng);
      p.c = MatrixF(p.a.rows(), p.weights->cols);
      p.expect = reference_for(p.a.view(), *p.weights);
      work[static_cast<std::size_t>(t)].push_back(std::move(p));
    }
  }

  std::vector<std::thread> submitters;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&server, &work, &failures, t] {
      for (Problem& p : work[static_cast<std::size_t>(t)]) {
        auto done = server.submit(p.a.view(), p.weights, p.c.view());
        if (!done.get().ok()) ++failures;
      }
    });
  }
  for (auto& s : submitters) s.join();
  EXPECT_EQ(failures.load(), 0);

  for (const auto& thread_work : work) {
    for (const Problem& p : thread_work) {
      EXPECT_EQ(max_abs_diff(p.expect.cview(), p.c.cview()), 0.0);
    }
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.totals.requests,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.groups, 2u);
  EXPECT_EQ(stats.totals.errors, 0u);
}

TEST(Server, RejectsMalformedRequestsWithoutPoisoningTheBatch) {
  Rng rng(903);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 64;
  opt.max_wait_us = 1000;
  Server server(opt);

  const MatrixF good_a = random_int_matrix(2, k, rng);
  MatrixF good_c(2, n);
  const MatrixF bad_a = random_int_matrix(2, k + 16, rng);  // wrong depth
  MatrixF bad_c(2, n);
  MatrixF mismatched_c(2, n + 16);  // wrong output shape

  auto good = server.submit(good_a.view(), B, good_c.view());
  auto bad_depth = server.submit(bad_a.view(), B, bad_c.view());
  auto bad_out = server.submit(good_a.view(), B, mismatched_c.view());
  auto null_weights = server.submit(good_a.view(), nullptr, good_c.view());

  EXPECT_EQ(bad_depth.get().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad_out.get().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(null_weights.get().code(), StatusCode::kInvalidArgument);
  NMSPMM_ASSERT_OK(good.get());
  EXPECT_EQ(max_abs_diff(reference_for(good_a.view(), *B).cview(),
                         good_c.cview()),
            0.0);
}

TEST(Server, EvictsIdleGroupsBeyondMaxGroups) {
  Rng rng(905);
  const index_t k = 64, n = 64;
  ServerOptions opt;
  opt.max_batch_rows = 4;
  opt.max_wait_us = 100;
  opt.max_groups = 2;
  opt.num_shards = 1;  // max_groups is per shard; pin for portability
  // The engine's plan cache pins weights too; bound it so releases are
  // observable through use_count below.
  opt.engine.plan_cache_capacity = 1;
  Server server(opt);

  // Serve six distinct weight matrices sequentially; with a cap of 2,
  // idle groups must be evicted and their weights references released.
  std::vector<std::shared_ptr<const CompressedNM>> weights;
  for (int i = 0; i < 6; ++i) {
    weights.push_back(shared_weights(k, n, NMConfig{2, 4, 16}, rng));
    const MatrixF A = random_int_matrix(1, k, rng);
    MatrixF C(1, n);
    NMSPMM_ASSERT_OK(server.submit(A.view(), weights.back(), C.view()).get());
  }

  // All six groups were seen and every request counted, even though most
  // group records have been retired.
  const auto stats = server.stats();
  EXPECT_EQ(stats.groups, 6u);
  EXPECT_EQ(stats.totals.requests, 6u);

  // The prune that necessarily ran before the last batch was dispatched
  // had already released at least three of the earlier weights: with the
  // group evicted and its plan aged out of the size-1 plan cache, only
  // the test's own shared_ptr remains.
  int released = 0;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    if (weights[i].use_count() == 1) ++released;
  }
  EXPECT_GE(released, 3);
}

TEST(Server, SingleRowRequestsBypassDispatchWhenQueueIsEmpty) {
  Rng rng(906);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  Server server;  // bypass_single_rows defaults on
  for (int i = 0; i < 8; ++i) {
    const MatrixF A = random_int_matrix(1, k, rng);
    MatrixF C(1, n);
    auto done = server.submit(A.view(), B, C.view());
    // Bypassed requests are served synchronously: the future is already
    // resolved when submit returns, with a correct result.
    ASSERT_EQ(done.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    NMSPMM_ASSERT_OK(done.get());
    EXPECT_EQ(max_abs_diff(reference_for(A.view(), *B).cview(), C.cview()),
              0.0);
  }

  // Bypass skips batch accounting entirely: requests and rows count,
  // batches and flush counters do not move.
  const Server::GroupStats stats = server.weights_stats(B.get());
  EXPECT_EQ(stats.requests, 8u);
  EXPECT_EQ(stats.rows, 8u);
  EXPECT_EQ(stats.bypassed, 8u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.full_flushes, 0u);
  EXPECT_EQ(stats.timeout_flushes, 0u);
  EXPECT_EQ(stats.max_queue_depth, 0u);
}

TEST(Server, BypassCanBeDisabled) {
  Rng rng(907);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.bypass_single_rows = false;
  opt.max_wait_us = 500;
  Server server(opt);
  const MatrixF A = random_int_matrix(1, k, rng);
  MatrixF C(1, n);
  NMSPMM_ASSERT_OK(server.submit(A.view(), B, C.view()).get());
  const Server::GroupStats stats = server.weights_stats(B.get());
  EXPECT_EQ(stats.bypassed, 0u);
  EXPECT_EQ(stats.batches, 1u);
}

TEST(Server, DispatcherGuardFailsBatchWithInternalInsteadOfTerminating) {
  Rng rng(908);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 2;
  opt.max_wait_us = 60 * 1000 * 1000;  // flush only when full
  opt.bypass_single_rows = false;      // force the queued path
  opt.max_staging_bytes = 1;  // any multi-request gather trips the guard
  opt.trace_sample_n = 1;
  Server server(opt);

  // Two 1-row requests coalesce into one 2-row batch whose staging
  // (oversized for the 1-byte cap) throws inside serve_batch. The
  // dispatcher must fail both futures with INTERNAL — the ROADMAP's
  // std::terminate scenario — and keep serving afterwards.
  const MatrixF a1 = random_int_matrix(1, k, rng);
  const MatrixF a2 = random_int_matrix(1, k, rng);
  MatrixF c1(1, n), c2(1, n);
  auto f1 = server.submit(a1.view(), B, c1.view());
  auto f2 = server.submit(a2.view(), B, c2.view());
  EXPECT_EQ(f1.get().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(f2.get().code(), StatusCode::kResourceExhausted);

  // The server survived: a lone request (no staging needed) still works.
  const MatrixF a3 = random_int_matrix(2, k, rng);
  MatrixF c3(2, n);
  auto f3 = server.submit(a3.view(), B, c3.view());
  NMSPMM_ASSERT_OK(f3.get());
  EXPECT_EQ(max_abs_diff(reference_for(a3.view(), *B).cview(), c3.cview()),
            0.0);

  const Server::GroupStats stats = server.weights_stats(B.get());
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_GE(stats.batches, 2u);
  EXPECT_EQ(server.stats().totals.errors, 2u);

  // The failed batch's requests recorded only their submit stage; the
  // lone one that followed recorded every stage.
  const auto latency = server.stats().latency;
  expect_stage_counts(latency, RequestClass::kDecode, {2, 0, 0, 0, 0});
  expect_stage_counts(latency, RequestClass::kPrefill, {1, 1, 1, 1, 1});
  const auto paths = expect_spans_match_stages(server);
  EXPECT_EQ(paths, (std::map<SpanKinds, int>{{{SpanKind::kSubmit}, 2},
                                             {kBatchedSpans, 1}}));
}

TEST(Server, RejectsEpilogueOptionsOnBatchedSubmissions) {
  Rng rng(909);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  Server server;
  const MatrixF A = random_int_matrix(2, k, rng);
  MatrixF C(2, n);
  SpmmOptions options;
  options.epilogue.act = Activation::kSilu;
  auto done = server.submit(A.view(), B, C.view(), options);
  EXPECT_EQ(done.get().code(), StatusCode::kInvalidArgument);
}

TEST(Server, ShutdownDrainsInFlightRequests) {
  Rng rng(904);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 1 << 20;  // never full
  opt.max_wait_us = 60 * 1000 * 1000;  // requests would sit for a minute
  Server server(opt);

  struct Request {
    MatrixF a;
    MatrixF c;
    MatrixF expect;
    std::future<Status> done;
  };
  std::vector<Request> requests;
  for (int i = 0; i < 8; ++i) {
    Request r;
    r.a = random_int_matrix(2, k, rng);
    r.c = MatrixF(2, n);
    r.expect = reference_for(r.a.view(), *B);
    requests.push_back(std::move(r));
  }
  for (Request& r : requests) {
    r.done = server.submit(r.a.view(), B, r.c.view());
  }

  // Shutdown must serve everything already accepted, not abandon it.
  server.shutdown();
  for (Request& r : requests) {
    ASSERT_EQ(r.done.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    NMSPMM_ASSERT_OK(r.done.get());
    EXPECT_EQ(max_abs_diff(r.expect.cview(), r.c.cview()), 0.0);
  }

  // After shutdown, new submissions fail fast instead of hanging.
  Request late;
  late.a = random_int_matrix(1, k, rng);
  late.c = MatrixF(1, n);
  auto refused = server.submit(late.a.view(), B, late.c.view());
  EXPECT_EQ(refused.get().code(), StatusCode::kUnavailable);
}

TEST(ServerSlo, NearDeadlineRequestFlushesBeforeMaxWait) {
  Rng rng(910);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 1 << 20;        // never full
  opt.max_wait_us = 60 * 1000 * 1000;  // fixed policy would wait a minute
  opt.slo_aware = true;
  opt.slo_margin_us = 2000;
  Server server(opt);

  const MatrixF A = random_int_matrix(2, k, rng);
  MatrixF C(2, n);
  const auto submitted = std::chrono::steady_clock::now();
  // 50ms SLO: the only way this resolves before max_wait is the
  // deadline-driven early flush.
  auto done = server.submit(A.view(), B, C.view(), {}, /*deadline_us=*/50000);
  ASSERT_EQ(done.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  NMSPMM_ASSERT_OK(done.get());
  const auto waited = std::chrono::steady_clock::now() - submitted;
  EXPECT_LT(waited, std::chrono::seconds(5));  // nowhere near max_wait
  EXPECT_EQ(max_abs_diff(reference_for(A.view(), *B).cview(), C.cview()),
            0.0);
  const Server::GroupStats stats = server.weights_stats(B.get());
  EXPECT_EQ(stats.slo_flushes, 1u);
  EXPECT_EQ(stats.timeout_flushes, 0u);
}

TEST(ServerSlo, SloAwareOffWaitsOutMaxWaitAndCountsTheViolation) {
  Rng rng(911);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 1 << 20;
  opt.max_wait_us = 30000;  // 30ms fixed flush window
  opt.slo_aware = false;    // deadlines tracked, never acted on
  Server server(opt);

  const MatrixF A = random_int_matrix(2, k, rng);
  MatrixF C(2, n);
  auto done = server.submit(A.view(), B, C.view(), {}, /*deadline_us=*/1000);
  ASSERT_EQ(done.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  NMSPMM_ASSERT_OK(done.get());  // still served, just late
  const Server::GroupStats stats = server.weights_stats(B.get());
  EXPECT_EQ(stats.slo_flushes, 0u);
  EXPECT_GE(stats.timeout_flushes, 1u);
  EXPECT_GE(stats.slo_violations, 1u);
}

TEST(ServerSlo, ShutdownFailsExpiredDeadlinesInsteadOfServingThem) {
  Rng rng(912);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 1 << 20;
  opt.max_wait_us = 60 * 1000 * 1000;  // nothing flushes before shutdown
  opt.slo_aware = false;               // keep the expired request queued
  opt.trace_sample_n = 1;
  Server server(opt);

  MatrixF a_expired = random_int_matrix(2, k, rng);
  MatrixF c_expired(2, n);
  const MatrixF a_live = random_int_matrix(2, k, rng);
  MatrixF c_live(2, n);
  auto expired = server.submit(a_expired.view(), B, c_expired.view(), {},
                               /*deadline_us=*/1000);
  auto live = server.submit(a_live.view(), B, c_live.view());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // 1ms SLO gone

  // The drain must fail the dead request fast — not hang its future, not
  // burn drain time serving it — while still serving the live one.
  server.shutdown();
  ASSERT_EQ(expired.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(expired.get().code(), StatusCode::kDeadlineExceeded);
  ASSERT_EQ(live.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  NMSPMM_ASSERT_OK(live.get());
  EXPECT_EQ(
      max_abs_diff(reference_for(a_live.view(), *B).cview(), c_live.cview()),
      0.0);
  const auto stats = server.stats();
  EXPECT_EQ(stats.totals.errors, 1u);
  EXPECT_EQ(stats.totals.slo_violations, 1u);
  EXPECT_EQ(stats.latency.violations[static_cast<int>(RequestClass::kPrefill)],
            1u);

  // The expired request recorded submit and total, the live one every
  // stage; each left exactly the spans of the stages it recorded.
  expect_stage_counts(stats.latency, RequestClass::kPrefill, {2, 1, 1, 1, 2});
  const auto paths = expect_spans_match_stages(server);
  EXPECT_EQ(paths, (std::map<SpanKinds, int>{
                       {{SpanKind::kSubmit, SpanKind::kTotal}, 1},
                       {kBatchedSpans, 1}}));
}

TEST(ServerTelemetry, StatsExposePerStagePerClassLatency) {
  Rng rng(913);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 8;
  opt.max_wait_us = 500;
  opt.trace_sample_n = 1;
  Server server(opt);  // telemetry defaults on

  for (int i = 0; i < 6; ++i) {
    const MatrixF a1 = random_int_matrix(1, k, rng);  // decode (bypassed)
    MatrixF c1(1, n);
    NMSPMM_ASSERT_OK(server.submit(a1.view(), B, c1.view()).get());
    const MatrixF a3 = random_int_matrix(3, k, rng);  // prefill (batched)
    MatrixF c3(3, n);
    NMSPMM_ASSERT_OK(server.submit(a3.view(), B, c3.view()).get());
  }

  const auto latency = server.stats().latency;
  EXPECT_EQ(latency.requests(RequestClass::kDecode), 6u);
  EXPECT_EQ(latency.requests(RequestClass::kPrefill), 6u);
  // Batched prefill requests pass through every stage; bypassed decode
  // requests skip queue/gather but record submit/execute/total.
  expect_stage_counts(latency, RequestClass::kDecode, {6, 0, 0, 6, 6});
  expect_stage_counts(latency, RequestClass::kPrefill, {6, 6, 6, 6, 6});
  EXPECT_GT(latency.stage(RequestClass::kPrefill, Stage::kTotal).p99(), 0u);
  EXPECT_EQ(latency.total_violations(), 0u);
  EXPECT_EQ(server.stats().totals.bypassed, 6u);
  const auto paths = expect_spans_match_stages(server);
  EXPECT_EQ(paths, (std::map<SpanKinds, int>{{kBypassSpans, 6},
                                             {kBatchedSpans, 6}}));
}

// --- Sharded dispatch: the lock-free submission rings, per-shard
// dispatchers, and the multi-core execute policy.

TEST(ServerSharded, ResultsBitExactVsUnshardedOnFixedRequestSet) {
  Rng rng(920);
  const index_t k = 96;
  std::vector<std::shared_ptr<const CompressedNM>> weights;
  for (int i = 0; i < 4; ++i) {
    weights.push_back(shared_weights(k, 48 + 16 * i, NMConfig{2, 4, 16}, rng));
  }

  // One fixed request set, served by a 4-shard and a 1-shard server.
  // Integer-valued operands make both runs comparable bit-for-bit
  // against the serial reference — sharding must not change results.
  struct Problem {
    std::shared_ptr<const CompressedNM> weights;
    MatrixF a;
    MatrixF expect;
  };
  std::vector<Problem> problems;
  for (int i = 0; i < 40; ++i) {
    Problem p;
    p.weights = weights[static_cast<std::size_t>(i) % weights.size()];
    p.a = random_int_matrix(1 + i % 6, k, rng);
    p.expect = reference_for(p.a.view(), *p.weights);
    problems.push_back(std::move(p));
  }

  for (unsigned shards : {1u, 4u}) {
    ServerOptions opt;
    opt.num_shards = shards;
    opt.max_batch_rows = 16;
    opt.max_wait_us = 500;
    Server server(opt);
    EXPECT_EQ(server.options().num_shards, shards);

    std::vector<MatrixF> outputs;
    std::vector<std::future<Status>> done;
    outputs.reserve(problems.size());
    for (const Problem& p : problems) {
      outputs.emplace_back(p.a.rows(), p.weights->cols);
    }
    for (std::size_t i = 0; i < problems.size(); ++i) {
      done.push_back(server.submit(problems[i].a.view(), problems[i].weights,
                                   outputs[i].view()));
    }
    for (auto& f : done) NMSPMM_ASSERT_OK(f.get());
    for (std::size_t i = 0; i < problems.size(); ++i) {
      EXPECT_EQ(max_abs_diff(problems[i].expect.cview(), outputs[i].cview()),
                0.0)
          << "request " << i << " with " << shards << " shard(s)";
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.shards, shards);
    EXPECT_EQ(stats.totals.requests, problems.size());
    EXPECT_EQ(stats.groups, weights.size());
    EXPECT_EQ(stats.totals.errors, 0u);
  }
}

TEST(ServerSharded, SplitPolicyRunsConcurrentSerialSpmmsBitExactly) {
  Rng rng(921);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  // The split path parks lanes on the engine pool; a pool of one (this
  // box's default) would always fall back to coalescing, so ask for two
  // workers explicitly.
  opt.engine.num_threads = 2;
  opt.bypass_single_rows = false;
  opt.num_shards = 1;
  opt.max_batch_rows = 32;
  opt.max_wait_us = 200000;  // only full batches flush
  opt.trace_sample_n = 1;

  Server server(opt);
  struct Request {
    MatrixF a;
    MatrixF c;
    MatrixF expect;
    std::future<Status> done;
  };
  std::vector<Request> requests;
  // 4 x 16 rows = two full 32-row batches of prefill-sized requests.
  for (int i = 0; i < 4; ++i) {
    Request r;
    r.a = random_int_matrix(16, k, rng);
    r.c = MatrixF(16, n);
    r.expect = reference_for(r.a.view(), *B);
    requests.push_back(std::move(r));
  }
  for (Request& r : requests) {
    r.done = server.submit(r.a.view(), B, r.c.view());
  }
  for (Request& r : requests) NMSPMM_ASSERT_OK(r.done.get());
  for (const Request& r : requests) {
    EXPECT_EQ(max_abs_diff(r.expect.cview(), r.c.cview()), 0.0);
  }

  // The batches really took the split path: concurrent serial SpMMs
  // straight into the callers' views, no gather/scatter.
  const Server::GroupStats stats = server.weights_stats(B.get());
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_GE(stats.split_batches, 1u);
  EXPECT_EQ(stats.split_batches, stats.batches);

  // Split lanes record every stage of every request, like a gather.
  const auto latency = server.stats().latency;
  expect_stage_counts(latency, RequestClass::kPrefill, {4, 4, 4, 4, 4});
  expect_stage_counts(latency, RequestClass::kDecode, {0, 0, 0, 0, 0});
  const auto paths = expect_spans_match_stages(server);
  EXPECT_EQ(paths, (std::map<SpanKinds, int>{{kBatchedSpans, 4}}));
  for (const obs::TraceSpan& s : server.tracer()->snapshot()) {
    if (s.kind == SpanKind::kExecute) {
      EXPECT_EQ(s.lane, obs::ExecLane::kSplit);
    }
  }
}

TEST(ServerSharded, AutoPolicySplitsPrefillAndCoalescesDecode) {
  Rng rng(922);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.engine.num_threads = 2;
  opt.bypass_single_rows = false;
  opt.num_shards = 1;
  opt.max_batch_rows = 32;
  opt.max_wait_us = 200000;

  Server server(opt);
  // Each burst totals exactly max_batch_rows, so it flushes as one full
  // batch; only the average rows per request differs between bursts.
  auto run_burst = [&](int count, index_t rows) {
    std::vector<MatrixF> a, c, expect;
    std::vector<std::future<Status>> done;
    for (int i = 0; i < count; ++i) {
      a.push_back(random_int_matrix(rows, k, rng));
      c.emplace_back(rows, n);
      expect.push_back(reference_for(a.back().view(), *B));
    }
    for (int i = 0; i < count; ++i) {
      done.push_back(server.submit(a[static_cast<std::size_t>(i)].view(), B,
                                   c[static_cast<std::size_t>(i)].view()));
    }
    for (auto& f : done) NMSPMM_ASSERT_OK(f.get());
    for (int i = 0; i < count; ++i) {
      EXPECT_EQ(max_abs_diff(expect[static_cast<std::size_t>(i)].cview(),
                             c[static_cast<std::size_t>(i)].cview()),
                0.0);
    }
  };

  run_burst(/*count=*/2, /*rows=*/16);  // prefill, avg 16 rows: splits
  EXPECT_EQ(server.weights_stats(B.get()).split_batches, 1u);
  run_burst(/*count=*/16, /*rows=*/2);  // decode burst, avg 2: coalesces
  const Server::GroupStats stats = server.weights_stats(B.get());
  EXPECT_EQ(stats.split_batches, 1u);
  EXPECT_EQ(stats.batches, 2u);
}

TEST(ServerSharded, ConcurrentSubmittersSurviveShutdownRace) {
  Rng rng(923);
  const index_t k = 64, n = 64;
  auto B1 = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  auto B2 = shared_weights(k, n, NMConfig{4, 8, 8}, rng);

  ServerOptions opt;
  opt.num_shards = 2;
  opt.max_batch_rows = 8;
  opt.max_wait_us = 200;
  Server server(opt);

  // Four threads fire requests while the main thread shuts the server
  // down mid-stream. Every future must resolve — either OK (accepted
  // before the stop and drained) or UNAVAILABLE (rejected by the
  // fail-fast path) — and every OK result must be correct.
  struct Slot {
    MatrixF a;
    MatrixF c;
    MatrixF expect;
    std::shared_ptr<const CompressedNM> weights;
    std::future<Status> done;
  };
  const int kThreads = 4, kPerThread = 64;
  std::vector<std::vector<Slot>> slots(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      Slot s;
      s.weights = (t + i) % 2 == 0 ? B1 : B2;
      s.a = random_int_matrix(2, k, rng);
      s.c = MatrixF(2, n);
      s.expect = reference_for(s.a.view(), *s.weights);
      slots[static_cast<std::size_t>(t)].push_back(std::move(s));
    }
  }
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&slots, &server, t] {
      for (Slot& s : slots[static_cast<std::size_t>(t)]) {
        s.done = server.submit(s.a.view(), s.weights, s.c.view());
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  server.shutdown();
  for (auto& s : submitters) s.join();

  std::uint64_t served = 0, refused = 0;
  for (auto& thread_slots : slots) {
    for (Slot& s : thread_slots) {
      ASSERT_EQ(s.done.wait_for(std::chrono::seconds(10)),
                std::future_status::ready);
      const Status status = s.done.get();
      if (status.ok()) {
        ++served;
        EXPECT_EQ(max_abs_diff(s.expect.cview(), s.c.cview()), 0.0);
      } else {
        ++refused;
        EXPECT_EQ(status.code(), StatusCode::kUnavailable);
      }
    }
  }
  EXPECT_EQ(served + refused,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(server.stats().totals.requests, served);
}

TEST(ServerSharded, FullRingBackpressuresSubmittersAndCountsStalls) {
  Rng rng(924);
  const index_t k = 128, n = 128;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.num_shards = 1;
  opt.ring_capacity = 2;  // deliberately tiny: force the full-ring path
  opt.bypass_single_rows = false;
  opt.max_batch_rows = 8;
  opt.max_wait_us = 0;  // dispatcher flushes continuously (stays busy)
  Server server(opt);

  struct Request {
    MatrixF a;
    MatrixF c;
    MatrixF expect;
  };
  std::vector<Request> requests;
  for (int i = 0; i < 16; ++i) {
    Request r;
    r.a = random_int_matrix(8, k, rng);
    r.c = MatrixF(8, n);
    r.expect = reference_for(r.a.view(), *B);
    requests.push_back(std::move(r));
  }

  // Bursts of 16 submissions against a 2-slot ring while the dispatcher
  // is busy executing: some submit must find the ring full and take the
  // backpressure spin. Repeat until observed (virtually always the first
  // burst; the loop only guards against a miraculous scheduler).
  for (int burst = 0; burst < 100 && server.stats().ring_stalls == 0;
       ++burst) {
    std::vector<std::future<Status>> done;
    done.reserve(requests.size());
    for (Request& r : requests) {
      done.push_back(server.submit(r.a.view(), B, r.c.view()));
    }
    for (auto& f : done) NMSPMM_ASSERT_OK(f.get());
    for (const Request& r : requests) {
      ASSERT_EQ(max_abs_diff(r.expect.cview(), r.c.cview()), 0.0);
    }
  }
  // Backpressure stalled at least one submission, and no request was
  // lost or corrupted along the way (asserted per burst above).
  EXPECT_GT(server.stats().ring_stalls, 0u);
}

TEST(ServerSharded, EvictionDuringConcurrentFlushesReleasesWeights) {
  Rng rng(925);
  const index_t k = 64, n = 64;

  ServerOptions opt;
  opt.num_shards = 2;
  opt.max_groups = 1;  // per shard: every new target evicts the old one
  opt.bypass_single_rows = false;
  opt.max_batch_rows = 4;
  opt.max_wait_us = 100;
  opt.engine.plan_cache_capacity = 1;
  Server server(opt);

  // Two threads cycle through disjoint sets of weight matrices. With one
  // group allowed per shard, each new target evicts its predecessor —
  // routinely while the other thread's flush against the same shard is
  // mid-flight. Batches hold shared ownership of their group, so this
  // must never free state an execution still uses.
  const int kThreads = 2, kWeightsPerThread = 8;
  std::vector<std::vector<std::shared_ptr<const CompressedNM>>> weights(
      kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kWeightsPerThread; ++i) {
      weights[static_cast<std::size_t>(t)].push_back(
          shared_weights(k, n, NMConfig{2, 4, 16}, rng));
    }
  }
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&weights, &server, &failures, t] {
      Rng thread_rng(926 + static_cast<std::uint64_t>(t));
      for (int round = 0; round < 3; ++round) {
        for (const auto& w : weights[static_cast<std::size_t>(t)]) {
          const MatrixF a = random_int_matrix(2, 64, thread_rng);
          MatrixF c(2, 64);
          const MatrixF expect = reference_for(a.view(), *w);
          if (!server.submit(a.view(), w, c.view()).get().ok() ||
              max_abs_diff(expect.cview(), c.cview()) != 0.0) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  server.shutdown();

  // Eviction really released the retired groups' weight references:
  // at most one live group per shard plus the engine's size-1 plan
  // cache may still pin a matrix.
  int released = 0;
  for (const auto& thread_weights : weights) {
    for (const auto& w : thread_weights) {
      if (w.use_count() == 1) ++released;
    }
  }
  EXPECT_GE(released, kThreads * kWeightsPerThread - 3);
  const auto stats = server.stats();
  // groups counts creations: every eviction-then-return starts a fresh
  // group, so three rounds over 16 targets with a cap of 1 per shard
  // must have recreated far more than the 16 distinct targets.
  EXPECT_GE(stats.groups,
            static_cast<std::size_t>(kThreads * kWeightsPerThread));
  EXPECT_EQ(stats.totals.errors, 0u);
}

TEST(ServerSharded, SeededTrafficReplayIsReproducibleAcrossShardedRuns) {
  Rng rng(927);
  const index_t k = 96, n = 96;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  serve::TrafficOptions traffic;
  traffic.offered_rps = 2000.0;
  traffic.duration_s = 0.05;
  traffic.submit_threads = 2;
  traffic.seed = 7;
  traffic.classes.resize(2);
  traffic.classes[0].name = "decode";
  traffic.classes[0].rows_min = traffic.classes[0].rows_max = 1;
  traffic.classes[0].weight = 0.8;
  traffic.classes[1].name = "prefill";
  traffic.classes[1].rows_min = 4;
  traffic.classes[1].rows_max = 8;
  traffic.classes[1].weight = 0.2;

  auto run_once = [&]() -> serve::TrafficReport {
    ServerOptions opt;
    opt.num_shards = 2;
    opt.max_batch_rows = 16;
    opt.max_wait_us = 200;
    Server server(opt);
    std::vector<serve::TrafficTarget> targets(1);
    targets[0].weights = B;
    auto report = serve::run_open_loop(server, targets, traffic);
    EXPECT_TRUE(report.status().ok());
    if (!report.status().ok()) return {};
    return *report;
  };

  // The schedule is a pure function of (seed, options): two fresh
  // sharded servers must see the identical request stream, and every
  // request must resolve OK both times. Latency of course differs.
  const serve::TrafficReport first = run_once();
  const serve::TrafficReport second = run_once();
  EXPECT_GT(first.submitted, 0u);
  EXPECT_EQ(first.submitted, second.submitted);
  EXPECT_EQ(first.ok, first.submitted);
  EXPECT_EQ(second.ok, second.submitted);
  EXPECT_EQ(first.errors, 0u);
  ASSERT_EQ(first.classes.size(), second.classes.size());
  for (std::size_t i = 0; i < first.classes.size(); ++i) {
    EXPECT_EQ(first.classes[i].name, second.classes[i].name);
    EXPECT_EQ(first.classes[i].submitted, second.classes[i].submitted);
    EXPECT_EQ(first.classes[i].ok, second.classes[i].ok);
  }
}

TEST(ServerSharded, StatsReadableLockFreeDuringConcurrentLoad) {
  Rng rng(928);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.num_shards = 2;
  opt.max_batch_rows = 8;
  opt.max_wait_us = 200;
  Server server(opt);

  // A poller hammers the lock-free stats()/weights_stats() readers while
  // submitters run — the TSan job proves the reads race-free; here we
  // check they are also monotone and settle to the exact totals.
  std::atomic<bool> stop_polling{false};
  std::thread poller([&] {
    std::uint64_t last_requests = 0;
    while (!stop_polling.load(std::memory_order_acquire)) {
      const auto stats = server.stats();
      EXPECT_GE(stats.totals.requests, last_requests);
      EXPECT_GE(stats.totals.requests,
                stats.totals.bypassed + stats.totals.errors);
      last_requests = stats.totals.requests;
      static_cast<void>(server.weights_stats(B.get()));
    }
  });

  const int kThreads = 2, kPerThread = 100;
  std::vector<std::vector<MatrixF>> as(kThreads), cs(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      as[static_cast<std::size_t>(t)].push_back(
          random_int_matrix(1 + i % 3, k, rng));
      cs[static_cast<std::size_t>(t)].emplace_back(
          as[static_cast<std::size_t>(t)].back().rows(), n);
    }
  }
  std::vector<std::thread> submitters;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      auto& ta = as[static_cast<std::size_t>(t)];
      auto& tc = cs[static_cast<std::size_t>(t)];
      for (int i = 0; i < kPerThread; ++i) {
        if (!server
                 .submit(ta[static_cast<std::size_t>(i)].view(), B,
                         tc[static_cast<std::size_t>(i)].view())
                 .get()
                 .ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& s : submitters) s.join();
  stop_polling.store(true, std::memory_order_release);
  poller.join();

  EXPECT_EQ(failures.load(), 0);
  const auto stats = server.stats();
  EXPECT_EQ(stats.totals.requests,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.totals.errors, 0u);
  EXPECT_EQ(stats.shards, 2u);
}

// ------------------------------------------------------------- overload

TEST(ServerOverload, ShedFailsFastOverHighWaterAndCountsShedBytes) {
  Rng rng(930);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.num_shards = 1;
  opt.admission = AdmissionPolicy::kShed;
  opt.shed_pending_rows = 2;       // exactly one 2-row request fits
  opt.bypass_single_rows = false;
  opt.max_batch_rows = 64;
  opt.max_wait_us = 60 * 1000 * 1000;  // first request parks in its queue
  Server server(opt);

  const MatrixF a1 = random_int_matrix(2, k, rng);
  const MatrixF a2 = random_int_matrix(2, k, rng);
  MatrixF c1(2, n), c2(2, n);
  // First request fills the high-water mark and sits pending (the
  // dispatcher will not flush for a minute)...
  auto f1 = server.submit(a1.view(), B, c1.view());
  ASSERT_EQ(f1.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);
  // ...so the second is refused immediately, without blocking.
  auto f2 = server.submit(a2.view(), B, c2.view());
  ASSERT_EQ(f2.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(f2.get().code(), StatusCode::kResourceExhausted);

  auto stats = server.stats();
  EXPECT_EQ(stats.shed_requests, 1u);
  EXPECT_GT(stats.shed_bytes, 0u);
  server.shutdown();  // drains the parked request
  NMSPMM_ASSERT_OK(f1.get());
  EXPECT_EQ(max_abs_diff(reference_for(a1.view(), *B).cview(), c1.cview()),
            0.0);
  // Conservation: the shed request never entered the served totals.
  stats = server.stats();
  EXPECT_EQ(stats.totals.requests, 1u);
  EXPECT_EQ(stats.shed_requests, 1u);
}

TEST(ServerOverload, ShedByClassProtectsSingleRowDecode) {
  Rng rng(931);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.num_shards = 1;
  opt.admission = AdmissionPolicy::kShedByClass;
  opt.shed_pending_rows = 1;  // any multi-row admission trips the mark
  opt.bypass_single_rows = false;
  Server server(opt);

  // Prefill (multi-row) sheds under the mark; a decode row submitted at
  // the same pressure rides the blocking path and is served.
  const MatrixF prefill = random_int_matrix(2, k, rng);
  MatrixF c_prefill(2, n);
  auto shed = server.submit(prefill.view(), B, c_prefill.view());
  EXPECT_EQ(shed.get().code(), StatusCode::kResourceExhausted);

  const MatrixF decode = random_int_matrix(1, k, rng);
  MatrixF c_decode(1, n);
  auto served = server.submit(decode.view(), B, c_decode.view());
  NMSPMM_ASSERT_OK(served.get());
  EXPECT_EQ(max_abs_diff(reference_for(decode.view(), *B).cview(),
                         c_decode.cview()),
            0.0);
  const auto stats = server.stats();
  EXPECT_EQ(stats.shed_requests, 1u);
  EXPECT_EQ(stats.totals.requests, 1u);
}

// Every resolution path must give back the rows it added to the shard's
// pending-rows gauge. With shed_pending_rows = R, a leak of even one row
// sheds the next R-row request, so after each path resolves a fresh
// R-row request must pass admission. (The shutdown drain's expiry path
// releases through the same release_request, but after shutdown every
// submit is refused before admission, so the gauge is unobservable and
// a leak there could not shed anything.)
TEST(ServerOverload, ShedMarkIsReleasedOnEveryResolutionPath) {
  Rng rng(935);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  // Coalesced: two R/2-row requests gathered into one batch. Split: two
  // prefill-sized requests on a 2-worker engine run as concurrent serial
  // SpMMs, each resolved from its own lane.
  struct Path {
    const char* name;
    index_t mark;
    unsigned threads;
    std::uint64_t split_batches;
  };
  for (const Path& path :
       {Path{"coalesced", 4, 1, 0}, Path{"split", 32, 2, 1}}) {
    SCOPED_TRACE(path.name);
    ServerOptions opt;
    opt.num_shards = 1;
    opt.admission = AdmissionPolicy::kShed;
    opt.shed_pending_rows = static_cast<std::size_t>(path.mark);
    opt.bypass_single_rows = false;
    opt.max_batch_rows = path.mark;      // R pending rows flush as one batch
    opt.max_wait_us = 60 * 1000 * 1000;  // nothing else flushes
    opt.engine.num_threads = path.threads;
    Server server(opt);
    // Holds each request's A and C (stable addresses) past its future.
    std::deque<MatrixF> keep;
    auto submit = [&](index_t rows) {
      keep.push_back(random_int_matrix(rows, k, rng));
      const ConstViewF a = keep.back().cview();
      keep.emplace_back(rows, n);
      return server.submit(a, B, keep.back().view());
    };
    auto first = submit(path.mark / 2);
    auto second = submit(path.mark / 2);
    NMSPMM_ASSERT_OK(first.get());
    NMSPMM_ASSERT_OK(second.get());
    EXPECT_EQ(server.weights_stats(B.get()).split_batches,
              path.split_batches);
    NMSPMM_EXPECT_OK(submit(path.mark).get());
    EXPECT_EQ(server.stats().shed_requests, 0u);
  }
}

TEST(ServerOverload, BlockedSubmitFailsAtItsOwnDeadline) {
  Rng rng(932);
  const index_t k = 128, n = 128;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.num_shards = 1;
  opt.ring_capacity = 2;  // tiny: submits routinely find it full
  opt.bypass_single_rows = false;
  opt.max_batch_rows = 8;
  opt.max_wait_us = 0;  // dispatcher flushes continuously (stays busy)
  Server server(opt);

  // An already-expired deadline turns a full-ring stall into an
  // immediate DEADLINE_EXCEEDED — the submitter never spins past its
  // own SLO. Requests that find a free slot are still served (a missed
  // deadline alone does not fail a request outside shutdown drain).
  // Contending submitters keep the ring full long enough that some
  // stalled submit is guaranteed to re-check after its 1us budget;
  // repeat bursts until observed (virtually always the first burst).
  const int kThreads = 3, kPerThread = 32;
  for (int burst = 0;
       burst < 20 && server.stats().submit_deadline_fails == 0; ++burst) {
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        Rng thread_rng(933 + static_cast<std::uint64_t>(t));
        std::vector<MatrixF> bufs;
        bufs.reserve(kPerThread * 2);
        std::vector<std::future<Status>> done;
        for (int i = 0; i < kPerThread; ++i) {
          bufs.push_back(random_int_matrix(8, k, thread_rng));
          bufs.emplace_back(8, n);
          done.push_back(server.submit(bufs[bufs.size() - 2].view(), B,
                                       bufs.back().view(), {},
                                       /*deadline_us=*/1));
        }
        for (auto& f : done) {
          const Status status = f.get();
          EXPECT_TRUE(status.ok() ||
                      status.code() == StatusCode::kDeadlineExceeded)
              << status.to_string();
        }
      });
    }
    for (auto& th : submitters) th.join();
  }
  EXPECT_GT(server.stats().submit_deadline_fails, 0u);
}

TEST(ServerOverload, OpenLoopRetryBudgetBoundsRetryStorms) {
  Rng rng(933);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.num_shards = 1;
  opt.admission = AdmissionPolicy::kShed;
  opt.shed_pending_rows = 1;  // 2-row requests can never be admitted
  opt.bypass_single_rows = false;
  Server server(opt);

  serve::TrafficOptions traffic;
  traffic.offered_rps = 3000.0;
  traffic.duration_s = 0.1;
  traffic.submit_threads = 2;
  traffic.seed = 11;
  traffic.classes.resize(1);
  traffic.classes[0].name = "prefill";
  traffic.classes[0].rows_min = traffic.classes[0].rows_max = 2;
  traffic.retry.max_attempts = 2;
  traffic.retry.initial_backoff_us = 10;
  traffic.retry.max_backoff_us = 50;
  traffic.retry.budget_cap = 64.0;
  std::vector<serve::TrafficTarget> targets(1);
  targets[0].weights = B;
  auto report = serve::run_open_loop(server, targets, traffic);
  NMSPMM_ASSERT_OK(report.status());

  // Every attempt sheds (2 rows can never fit under a 1-row mark), so
  // zero successes ever credit the retry budget: exactly the initial
  // budget_cap tokens' worth of retries can be spent, no matter how
  // many requests fail — the storm is bounded by construction.
  ASSERT_GE(report->submitted, 65u);
  EXPECT_EQ(report->ok, 0u);
  EXPECT_EQ(report->shed, report->submitted);
  EXPECT_EQ(report->retries, 64u);
  EXPECT_EQ(report->retry_ok, 0u);
  EXPECT_GT(report->retry_denied, 0u);
  // Server-side sheds count every attempt, client-side only final fates.
  EXPECT_EQ(report->server_shed, report->submitted + report->retries);
  EXPECT_EQ(server.stats().totals.requests, 0u);
}

// The serving-surface Status taxonomy, pinned one code per documented
// error path so codes cannot silently drift (retry logic keys on them).
TEST(ServerOverload, StatusTaxonomyCoversEveryServingErrorPath) {
  Rng rng(934);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  struct Case {
    const char* name;
    StatusCode expected;
    std::function<Status()> run;
  };
  const std::vector<Case> cases = {
      {"shape mismatch", StatusCode::kInvalidArgument,
       [&] {
         Server server;
         const MatrixF a = random_int_matrix(2, k, rng);
         MatrixF c(2, n + 1);  // wrong output width
         return server.submit(a.view(), B, c.view()).get();
       }},
      {"request over the FFN plan's token budget",
       StatusCode::kFailedPrecondition,
       [&] {
         model::FfnBlock block;
         block.gate = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
         block.up = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
         block.down = shared_weights(n, k, NMConfig{2, 4, 16}, rng);
         Engine engine;
         auto plan = engine.plan_model(/*max_tokens=*/2, block);
         if (!plan.ok()) return plan.status();  // wrong code → test fails
         Server server;
         const MatrixF a = random_int_matrix(4, k, rng);  // 4 > 2 tokens
         MatrixF out(4, k);
         return server.submit_ffn(a.view(), *plan, out.view()).get();
       }},
      {"shed under admission control", StatusCode::kResourceExhausted,
       [&] {
         ServerOptions opt;
         opt.admission = AdmissionPolicy::kShed;
         opt.shed_pending_rows = 1;
         opt.bypass_single_rows = false;
         Server server(opt);
         const MatrixF a = random_int_matrix(2, k, rng);
         MatrixF c(2, n);
         return server.submit(a.view(), B, c.view()).get();
       }},
      {"deadline expired before drain", StatusCode::kDeadlineExceeded,
       [&] {
         ServerOptions opt;
         opt.bypass_single_rows = false;
         opt.max_wait_us = 60 * 1000 * 1000;  // only the drain flushes
         opt.slo_aware = false;
         Server server(opt);
         const MatrixF a = random_int_matrix(2, k, rng);
         MatrixF c(2, n);
         auto f = server.submit(a.view(), B, c.view(), {},
                                /*deadline_us=*/1);
         std::this_thread::sleep_for(std::chrono::milliseconds(1));
         server.shutdown();  // drain fast-fails the expired request
         return f.get();
       }},
      {"submit after shutdown", StatusCode::kUnavailable,
       [&] {
         Server server;
         server.shutdown();
         const MatrixF a = random_int_matrix(2, k, rng);
         MatrixF c(2, n);
         return server.submit(a.view(), B, c.view()).get();
       }},
  };
  for (const Case& c : cases) {
    const Status status = c.run();
    EXPECT_EQ(status.code(), c.expected)
        << c.name << " resolved " << status.to_string();
  }
}

TEST(ServerTelemetry, CanBeDisabled) {
  Rng rng(914);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  ServerOptions opt;
  opt.telemetry = false;
  opt.max_wait_us = 500;
  Server server(opt);
  const MatrixF A = random_int_matrix(2, k, rng);
  MatrixF C(2, n);
  NMSPMM_ASSERT_OK(server.submit(A.view(), B, C.view()).get());
  EXPECT_EQ(server.stats().latency.total_requests(), 0u);
  EXPECT_EQ(server.weights_stats(B.get()).requests, 1u);  // stats still on
}

}  // namespace
}  // namespace nmspmm
