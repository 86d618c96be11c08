// Open-loop serving benchmark: tail latency under offered load.
//
// bench_serving measures closed-loop throughput — the load adapts to the
// server, so queueing delay never builds and p99 looks flattering. This
// bench drives the Server the way production traffic does: an arrival
// schedule (serve/traffic.hpp) that does not care whether the server
// keeps up, a decode/prefill request mix with per-class SLO deadlines,
// and two FFN models sharing one budgeted WeightStore. It reports, per
// offered load, the per-class p50/p95/p99 from the Server's telemetry:
//
//   1. capacity probe: a short deliberately-overloaded run; its achieved
//      rate is the server's saturation throughput for this mix;
//   2. load sweep: >= 3 offered rates (fractions of capacity), each a
//      fresh open-loop run, per-class latency + violation counts;
//   3. SLO comparison at the middle load: fixed max-wait flushing
//      (slo_aware off) vs deadline-driven early flushing, same seed and
//      offered rate — the decode p99 gap is what the SLO-aware
//      dispatcher buys;
//   4. submit overhead: contended multi-thread submit throughput with
//      telemetry on vs off — the lock-free capture path must be free;
//   5. submit scaling: achieved rps at 1/2/4/8 submitter threads — the
//      sharded lock-free submit path must not serialize under
//      contention (emitted as "submit_scaling" for the trend gate).
//
// The sweep additionally replays the mid load with bursty MMPP-2
// arrivals (same mean rate) and emits its per-class p99 as "bursty":
// burst absorption is a tail-latency property Poisson arrivals cannot
// measure, and the trend gate watches it separately.
//
// Emits a "serving_open" section merged into BENCH_spmm.json (--merge,
// the CI mode) or a standalone JSON (--out). Exits non-zero on schema
// problems: a load with no resolved requests in a class, or a 100%
// SLO-violation rate at every load (the deadlines are mis-sized for the
// machine and the numbers would gate on noise).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/artifact.hpp"
#include "bench/bench_common.hpp"
#include "mem/weight_store.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"

using namespace nmspmm;
using namespace nmspmm::bench;

namespace {

std::string fmt2(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// The two FFN models the traffic mix targets, planned on @p server's
/// engine so they share its (budgeted) WeightStore.
std::vector<serve::TrafficTarget> build_targets(Server& server,
                                                index_t hidden, index_t ffn,
                                                index_t max_tokens, Rng& rng) {
  const NMConfig cfg{8, 32, 16};  // 75%: the pruned-LLM operating point
  std::vector<serve::TrafficTarget> targets;
  const double weights[2] = {0.7, 0.3};
  for (int m = 0; m < 2; ++m) {
    model::FfnBlock block;
    block.gate = std::make_shared<const CompressedNM>(
        random_compressed(hidden, ffn, cfg, rng));
    block.up = std::make_shared<const CompressedNM>(
        random_compressed(hidden, ffn, cfg, rng));
    block.down = std::make_shared<const CompressedNM>(
        random_compressed(ffn, hidden, cfg, rng));
    block.residual = true;  // the PR 5 fused skip connection, served hot
    auto plan = server.engine().plan_model(max_tokens, {std::move(block)});
    NMSPMM_CHECK_OK(plan.status());
    serve::TrafficTarget target;
    target.plan = *plan;
    target.weight = weights[m];
    targets.push_back(std::move(target));
  }
  return targets;
}

struct ClassLatency {
  std::uint64_t requests = 0;
  std::uint64_t p50 = 0, p95 = 0, p99 = 0;
  double mean = 0.0;
  std::uint64_t violations = 0;
};

ClassLatency class_latency(const serve::TrafficReport& report,
                           serve::RequestClass cls) {
  ClassLatency out;
  const serve::StageSnapshot& total =
      report.latency.stage(cls, serve::Stage::kTotal);
  out.requests = total.count;
  out.p50 = total.p50();
  out.p95 = total.p95();
  out.p99 = total.p99();
  out.mean = total.mean_us();
  out.violations = report.latency.violations[static_cast<int>(cls)];
  return out;
}

void append_class_json(std::ostringstream& os, const char* name,
                       const ClassLatency& c) {
  os << "\"" << name << "\": {\"requests\": " << c.requests
     << ", \"p50_us\": " << c.p50 << ", \"p95_us\": " << c.p95
     << ", \"p99_us\": " << c.p99 << ", \"mean_us\": " << fmt2(c.mean)
     << ", \"violations\": " << c.violations << "}";
}

/// Contended-submit throughput: @p threads threads each fire @p per_thread
/// single-row requests at one small weight matrix as fast as they can.
/// Returns requests/s. Identical work whether the server records
/// telemetry or not — the on/off ratio is the capture path's cost.
double submit_throughput(Server& server,
                         const std::shared_ptr<const CompressedNM>& weights,
                         int threads, int per_thread) {
  const index_t k = weights->orig_rows, n = weights->cols;
  std::vector<MatrixF> as, cs;
  Rng rng(99);
  for (int t = 0; t < threads; ++t) {
    as.push_back(random_matrix(1, k, rng));
    cs.emplace_back(1, n);
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < per_thread; ++i) {
        NMSPMM_CHECK_OK(
            server.submit(as[t].cview(), weights, cs[t].view()).get());
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<double>(threads) * per_thread / wall;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_serving_open",
                "open-loop tail latency under offered load, JSON output");
  cli.add_int("hidden", 1024, "model hidden size");
  cli.add_int("ffn", 2752, "FFN intermediate size");
  cli.add_int("max_tokens", 256, "FFN plan token budget (>= prefill rows)");
  cli.add_int("prefill_min", 64, "smallest prefill request, rows");
  cli.add_int("prefill_max", 128, "largest prefill request, rows");
  cli.add_int("decode_deadline_us", 3000, "decode-class SLO budget");
  cli.add_int("prefill_deadline_us", 50000, "prefill-class SLO budget");
  cli.add_int("threads", 0, "engine pool size (0 = hardware concurrency)");
  cli.add_int("shards", 0, "server dispatcher shards (0 = auto)");
  cli.add_int("submit_threads", 2, "open-loop source threads");
  cli.add_int("seed", 42, "traffic schedule seed");
  cli.add_int("store_budget_mb", 256,
              "shared WeightStore budget for both models");
  cli.add_double("duration_s", 0.5, "submission window per load");
  cli.add_flag("bursty", false, "MMPP-2 arrivals instead of Poisson");
  cli.add_flag("smoke", false,
               "CI mode: tiny shapes, fixed low offered rates, short runs");
  cli.add_string("out", "", "write a standalone JSON artifact to this path");
  cli.add_string("merge", "",
                 "merge the serving_open section into this bench JSON");
  cli.add_string("trace", "",
                 "replay the lowest sweep load fully traced and dump a "
                 "Chrome/Perfetto trace here (+ <path>.prom metrics)");
  if (!cli.parse(argc, argv)) return 1;

  const bool smoke = cli.get_flag("smoke");
  const index_t hidden = smoke ? 256 : cli.get_int("hidden");
  const index_t ffn = smoke ? 704 : cli.get_int("ffn");
  const index_t prefill_min = smoke ? 16 : cli.get_int("prefill_min");
  const index_t prefill_max = smoke ? 48 : cli.get_int("prefill_max");
  const index_t max_tokens = smoke ? 64 : cli.get_int("max_tokens");
  const double duration_s = smoke ? 0.2 : cli.get_double("duration_s");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const int submit_threads = static_cast<int>(cli.get_int("submit_threads"));
  if (prefill_max > max_tokens) {
    std::cerr << "--prefill_max must not exceed --max_tokens\n";
    return 1;
  }

  // The request mix: latency-critical single-row decode steps dominate
  // arrivals; occasional wide prefills contend for the same dispatcher.
  std::vector<serve::TrafficClass> classes(2);
  classes[0].name = "decode";
  classes[0].rows_min = classes[0].rows_max = 1;
  classes[0].weight = 0.9;
  classes[0].deadline_us =
      static_cast<std::uint64_t>(cli.get_int("decode_deadline_us"));
  classes[1].name = "prefill";
  classes[1].rows_min = prefill_min;
  classes[1].rows_max = prefill_max;
  classes[1].weight = 0.1;
  classes[1].deadline_us =
      static_cast<std::uint64_t>(cli.get_int("prefill_deadline_us"));

  EngineOptions engine_opt;
  engine_opt.num_threads = static_cast<unsigned>(cli.get_int("threads"));
  // Both models' packed weights live in one budgeted store — the
  // multi-tenant setup the residency subsystem exists for.
  mem::WeightStoreOptions store_opt;
  store_opt.max_resident_bytes =
      static_cast<std::size_t>(cli.get_int("store_budget_mb")) << 20;
  engine_opt.weight_store = std::make_shared<mem::WeightStore>(store_opt);

  const auto num_shards = static_cast<unsigned>(cli.get_int("shards"));

  ServerOptions sweep_opt;
  sweep_opt.engine = engine_opt;
  sweep_opt.num_shards = num_shards;
  // Measure the batching path: the single-row bypass would serve the
  // whole decode stream synchronously and there would be no queueing to
  // observe.
  sweep_opt.bypass_single_rows = false;
  sweep_opt.max_batch_rows = 64;
  sweep_opt.max_wait_us = 1000;

  Rng rng(static_cast<std::uint64_t>(7));
  Server sweep_server(sweep_opt);
  const std::vector<serve::TrafficTarget> targets =
      build_targets(sweep_server, hidden, ffn, max_tokens, rng);

  serve::TrafficOptions traffic;
  traffic.arrivals = cli.get_flag("bursty") ? serve::ArrivalProcess::kBursty
                                            : serve::ArrivalProcess::kPoisson;
  traffic.submit_threads = submit_threads;
  traffic.seed = seed;
  traffic.classes = classes;

  // --- 1. capacity probe: overload briefly; achieved rate ~= capacity.
  // Runs in smoke mode too (shorter): the sweep's smoke rates stay
  // fixed for artifact comparability, but the overload block below
  // needs the real saturation point to oversubscribe it meaningfully.
  double capacity_rps;
  {
    serve::TrafficOptions probe = traffic;
    probe.offered_rps = 50000.0;
    probe.duration_s = smoke ? 0.15 : 0.3;
    auto report = serve::run_open_loop(sweep_server, targets, probe);
    NMSPMM_CHECK_OK(report.status());
    capacity_rps = report->achieved_rps;
    std::cout << "capacity probe: " << fmt2(capacity_rps)
              << " requests/s at saturation (" << report->stalls
              << " source stalls)\n";
  }

  // --- 2. load sweep: >= 3 offered rates.
  std::vector<double> offered;
  if (smoke) {
    offered = {100.0, 200.0, 400.0};
  } else {
    offered = {0.25 * capacity_rps, 0.5 * capacity_rps, 0.8 * capacity_rps};
  }

  struct LoadResult {
    double offered_rps = 0.0;
    double achieved_rps = 0.0;
    std::uint64_t stalls = 0;
    std::uint64_t ring_stalls = 0;
    std::uint64_t slo_violations = 0;
    std::uint64_t submitted = 0;
    ClassLatency decode;
    ClassLatency prefill;
  };
  auto run_load = [&](Server& server, double rps,
                      serve::ArrivalProcess arrivals) {
    serve::TrafficOptions opts = traffic;
    opts.arrivals = arrivals;
    opts.offered_rps = std::max(1.0, rps);
    opts.duration_s = duration_s;
    auto report = serve::run_open_loop(server, targets, opts);
    NMSPMM_CHECK_OK(report.status());
    LoadResult r;
    r.offered_rps = opts.offered_rps;
    r.achieved_rps = report->achieved_rps;
    r.stalls = report->stalls;
    r.ring_stalls = report->ring_stalls;
    r.slo_violations = report->slo_violations;
    r.submitted = report->submitted;
    r.decode = class_latency(*report, serve::RequestClass::kDecode);
    r.prefill = class_latency(*report, serve::RequestClass::kPrefill);
    return r;
  };
  std::vector<LoadResult> loads;
  for (double rps : offered) {
    loads.push_back(run_load(sweep_server, rps, traffic.arrivals));
  }

  // Bursty tail: the mid-load offered rate again, but as MMPP-2
  // flash-crowd arrivals. The mean rate is identical to the Poisson
  // mid load; the p99 gap is what burst absorption costs, and the
  // committed artifact carries it so the trend gate can watch it rot.
  const LoadResult bursty_mid =
      run_load(sweep_server, loads[1].offered_rps,
               serve::ArrivalProcess::kBursty);

  ResultTable table({"arrivals", "offered rps", "achieved rps",
                     "decode p50/p95/p99 us", "prefill p50/p95/p99 us",
                     "violations", "stalls", "ring stalls"});
  auto add_load_row = [&table](const char* arrivals, const LoadResult& r) {
    std::ostringstream d, p;
    d << r.decode.p50 << "/" << r.decode.p95 << "/" << r.decode.p99;
    p << r.prefill.p50 << "/" << r.prefill.p95 << "/" << r.prefill.p99;
    table.add_row({arrivals, fmt2(r.offered_rps), fmt2(r.achieved_rps),
                   d.str(), p.str(), std::to_string(r.slo_violations),
                   std::to_string(r.stalls),
                   std::to_string(r.ring_stalls)});
  };
  const char* sweep_arrivals = cli.get_flag("bursty") ? "bursty" : "poisson";
  for (const LoadResult& r : loads) add_load_row(sweep_arrivals, r);
  add_load_row("bursty", bursty_mid);
  print_table(table);

  // Schema checks: every load must have resolved requests in both
  // classes, and at least one load must not be a 100% violation run.
  bool all_violated = true;
  for (const LoadResult& r : loads) {
    if (r.decode.requests == 0 || r.prefill.requests == 0) {
      std::cerr << "serving_open: a load resolved zero requests in a class "
                << "(offered " << fmt2(r.offered_rps) << " rps)\n";
      return 1;
    }
    if (r.slo_violations < r.submitted) all_violated = false;
  }
  if (all_violated) {
    std::cerr << "serving_open: 100% SLO-violation rate at every load; the "
              << "deadlines are mis-sized for this machine\n";
    return 1;
  }

  // --- overload: offered ~1.5x capacity under each admission policy.
  // The question the admission subsystem answers: when the offered rate
  // exceeds capacity, what happens to the traffic you still serve?
  // kBlock queues everything (decode p99 inherits the whole backlog),
  // kShed refuses over a pending-rows high-water mark, kShedByClass
  // sheds only prefill so the decode stream keeps its latency. Fresh
  // server + targets per policy (same seed): identical plans and
  // schedules, only the admission policy differs. Retry stays off — the
  // block measures the server's own overload response, not the
  // client's.
  struct OverloadResult {
    const char* policy = "";
    double offered_rps = 0.0;
    double achieved_rps = 0.0;
    double goodput_rps = 0.0;  ///< OK resolutions / wall time
    std::uint64_t submitted = 0;
    std::uint64_t shed = 0;         ///< client-side RESOURCE_EXHAUSTED
    std::uint64_t server_shed = 0;  ///< server-side shed counter delta
    std::uint64_t deadline_failed = 0;
    std::uint64_t stalls = 0;
    double shed_rate = 0.0;
    ClassLatency decode;
  };
  const double overload_rps = 1.5 * capacity_rps;
  // High-water mark: a few dispatcher batches of backlog. Low enough
  // that admitted decode work drains well inside its deadline, high
  // enough that transient bursts are absorbed rather than shed.
  const std::size_t shed_rows =
      static_cast<std::size_t>(4 * sweep_opt.max_batch_rows);
  auto run_overload = [&](AdmissionPolicy policy, const char* name,
                          double load_factor) {
    ServerOptions opt = sweep_opt;
    opt.admission = policy;
    opt.shed_pending_rows = shed_rows;
    Server server(opt);
    Rng target_rng(static_cast<std::uint64_t>(7));
    const auto policy_targets =
        build_targets(server, hidden, ffn, max_tokens, target_rng);
    serve::TrafficOptions opts = traffic;
    opts.offered_rps = std::max(1.0, load_factor * capacity_rps);
    // Tail percentiles at overload need more samples than the
    // throughput sweeps: keep a floor even in smoke mode.
    opts.duration_s = std::max(duration_s, 0.4);
    auto report = serve::run_open_loop(server, policy_targets, opts);
    NMSPMM_CHECK_OK(report.status());
    OverloadResult r;
    r.policy = name;
    r.offered_rps = opts.offered_rps;
    r.achieved_rps = report->achieved_rps;
    r.goodput_rps = report->duration_s > 0.0
                        ? static_cast<double>(report->ok) / report->duration_s
                        : 0.0;
    r.submitted = report->submitted;
    r.shed = report->shed;
    r.server_shed = report->server_shed;
    r.deadline_failed = report->deadline_failed;
    r.stalls = report->stalls;
    r.shed_rate = report->submitted > 0
                      ? static_cast<double>(report->shed) /
                            static_cast<double>(report->submitted)
                      : 0.0;
    r.decode = class_latency(*report, serve::RequestClass::kDecode);
    return r;
  };
  // At-capacity reference: the graceful-degradation claim is that the
  // class-aware shedder's decode tail at 1.5x capacity stays near what
  // it already was at 1.0x, so measure that anchor with the same policy
  // and config.
  const OverloadResult at_capacity =
      run_overload(AdmissionPolicy::kShedByClass, "shed_by_class", 1.0);
  const OverloadResult overload_results[3] = {
      run_overload(AdmissionPolicy::kBlock, "block", 1.5),
      run_overload(AdmissionPolicy::kShed, "shed", 1.5),
      run_overload(AdmissionPolicy::kShedByClass, "shed_by_class", 1.5),
  };
  ResultTable overload_table({"policy", "offered rps", "goodput rps",
                              "decode p99 us", "shed", "shed rate",
                              "deadline fails", "stalls"});
  for (const OverloadResult& r : overload_results) {
    overload_table.add_row({r.policy, fmt2(r.offered_rps),
                            fmt2(r.goodput_rps),
                            std::to_string(r.decode.p99),
                            std::to_string(r.shed), fmt2(r.shed_rate),
                            std::to_string(r.deadline_failed),
                            std::to_string(r.stalls)});
  }
  std::cout << "overload (" << fmt2(overload_rps) << " rps offered, "
            << "high-water " << shed_rows << " pending rows, "
            << "at-capacity shed_by_class decode p99 "
            << at_capacity.decode.p99 << " us):\n";
  print_table(overload_table);

  // --- 3. SLO-aware vs fixed max-wait flushing: same seed, same offered
  // rate, same max_wait; only the early-flush policy differs. Decode-only
  // traffic at low utilization: the flush policy governs the batching
  // wait, and only the flush-wait-dominated regime can show the gap — at
  // saturation (or under prefill head-of-line blocking) the tail is
  // execution-dominated and the extra flushes of the SLO policy only
  // cost. The rate is derived from the measured single-decode service
  // time so utilization stays ~25% even if nothing coalesces, on any
  // machine. Fresh servers so the comparison starts from identical state.
  MatrixF exec_a = random_matrix(1, hidden, rng);
  MatrixF exec_c(1, hidden);
  const double decode_exec_s = time_callable([&] {
    NMSPMM_CHECK_OK(targets[0].plan->run(exec_a.cview(), exec_c.view()));
  }, 2, 5, 0.1).median;
  const double mid_rps =
      std::min(loads[1].offered_rps, 0.25 / decode_exec_s);
  auto run_policy = [&](bool slo_aware) {
    ServerOptions opt = sweep_opt;  // carries num_shards
    opt.slo_aware = slo_aware;
    opt.max_wait_us = 5000;  // generous: what a fixed policy costs decode
    // Headroom ~ one decode batch's service time, so the early flush
    // resolves before the deadline instead of 150us before it.
    opt.slo_margin_us = 1500;
    Server server(opt);
    Rng target_rng(static_cast<std::uint64_t>(7));
    const auto policy_targets =
        build_targets(server, hidden, ffn, max_tokens, target_rng);
    serve::TrafficOptions opts = traffic;
    opts.classes = {classes[0]};  // decode only
    opts.offered_rps = mid_rps;
    opts.duration_s = duration_s;
    auto report = serve::run_open_loop(server, policy_targets, opts);
    NMSPMM_CHECK_OK(report.status());
    return *report;
  };
  const serve::TrafficReport fixed_report = run_policy(false);
  const serve::TrafficReport slo_report = run_policy(true);
  const ClassLatency fixed_decode =
      class_latency(fixed_report, serve::RequestClass::kDecode);
  const ClassLatency slo_decode =
      class_latency(slo_report, serve::RequestClass::kDecode);
  std::cout << "slo compare at " << fmt2(mid_rps)
            << " rps: decode p99 fixed " << fixed_decode.p99 << " us vs "
            << "slo-aware " << slo_decode.p99 << " us ("
            << fixed_decode.violations << " vs " << slo_decode.violations
            << " violations)\n";

  // --- 4. submit-path overhead: telemetry on vs off under contention.
  const NMConfig small_cfg{8, 32, 16};
  Rng small_rng(3);
  auto small_weights = std::make_shared<const CompressedNM>(
      random_compressed(256, 256, small_cfg, small_rng));
  const int overhead_threads = 4;
  const int per_thread = smoke ? 500 : 2000;
  auto make_overhead_server = [&](bool telemetry,
                                  std::uint32_t trace_sample_n = 0) {
    ServerOptions opt;
    opt.engine.num_threads = static_cast<unsigned>(cli.get_int("threads"));
    opt.num_shards = num_shards;
    opt.telemetry = telemetry;
    opt.trace_sample_n = trace_sample_n;
    auto server = std::make_unique<Server>(opt);
    // Warm the plan cache so the measured loop is pure submit + serve.
    MatrixF a = random_matrix(1, 256, small_rng);
    MatrixF c(1, 256);
    NMSPMM_CHECK_OK(
        server->submit(a.cview(), small_weights, c.view()).get());
    return server;
  };
  // Interleaved best-of-3: preemption and frequency ramps only ever
  // subtract throughput, so the two maxima carry the structural gap.
  auto server_on = make_overhead_server(true);
  auto server_off = make_overhead_server(false);
  double rps_on = 0.0, rps_off = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    rps_on = std::max(rps_on, submit_throughput(*server_on, small_weights,
                                                overhead_threads, per_thread));
    rps_off = std::max(
        rps_off, submit_throughput(*server_off, small_weights,
                                   overhead_threads, per_thread));
  }
  std::cout << "contended submit: " << fmt2(rps_on)
            << " rps with telemetry vs " << fmt2(rps_off)
            << " rps without (ratio " << fmt2(rps_on / rps_off) << ")\n";

  // --- 4b. tracing overhead: 1-in-N sampled span capture vs tracing
  // off, production telemetry on in both. At the default sampling rate
  // the per-submit cost is one relaxed fetch_add and a modulo, so the
  // ratio must stay ~1.0; the committed number gates in
  // check_perf_trend.py (>= 0.97, self-relative so it holds on any CPU).
  const std::uint32_t trace_every = 1024;
  auto server_traced = make_overhead_server(true, trace_every);
  auto server_untraced = make_overhead_server(true);
  double rps_traced = 0.0, rps_untraced = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    rps_traced = std::max(
        rps_traced, submit_throughput(*server_traced, small_weights,
                                      overhead_threads, per_thread));
    rps_untraced = std::max(
        rps_untraced, submit_throughput(*server_untraced, small_weights,
                                        overhead_threads, per_thread));
  }
  std::cout << "trace overhead: " << fmt2(rps_traced) << " rps sampled 1/"
            << trace_every << " vs " << fmt2(rps_untraced)
            << " rps tracing off (ratio " << fmt2(rps_traced / rps_untraced)
            << ")\n";

  // --- 5. submit scaling: achieved rps as submitter threads grow.
  // This is the sharded-dispatch payoff surface: with lock-free rings
  // the submit path itself must not serialize, so achieved throughput
  // should hold (and on multi-core, grow) as contention rises. One
  // fixed server (telemetry on — the production configuration), same
  // total request count per point, best-of-3 per point.
  const int scaling_threads[4] = {1, 2, 4, 8};
  double scaling_rps[4] = {0.0, 0.0, 0.0, 0.0};
  auto scaling_server = make_overhead_server(true);
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < 4; ++i) {
      const int threads = scaling_threads[i];
      const int per = std::max(1, overhead_threads * per_thread / threads);
      scaling_rps[i] = std::max(
          scaling_rps[i],
          submit_throughput(*scaling_server, small_weights, threads, per));
    }
  }
  std::cout << "submit scaling:";
  for (int i = 0; i < 4; ++i) {
    std::cout << " " << scaling_threads[i] << "t=" << fmt2(scaling_rps[i])
              << "rps";
  }
  std::cout << " (4t/1t ratio " << fmt2(scaling_rps[2] / scaling_rps[0])
            << ")\n";

  // --- traced replay (--trace): the lowest sweep load again on a fresh
  // fully-traced server (sample 1-in-1) with the metrics exporter
  // ticking. Dumps the Chrome/Perfetto trace to <path> and the
  // Prometheus exposition to <path>.prom — the artifacts
  // scripts/validate_trace.py schema-checks in CI.
  const std::string trace_path = cli.get_string("trace");
  if (!trace_path.empty()) {
    ServerOptions opt = sweep_opt;
    opt.trace_sample_n = 1;
    opt.trace_buffer_spans = 1u << 16;
    Server traced_server(opt);
    Rng trace_rng(static_cast<std::uint64_t>(7));
    const auto trace_targets =
        build_targets(traced_server, hidden, ffn, max_tokens, trace_rng);
    serve::TrafficOptions opts = traffic;
    opts.offered_rps = loads[0].offered_rps;
    opts.duration_s = std::min(duration_s, 0.2);
    opts.metrics_interval_ms = 20;
    opts.metrics_prometheus_path = trace_path + ".prom";
    opts.metrics_json_path = trace_path + ".metrics.json";
    auto report = serve::run_open_loop(traced_server, trace_targets, opts);
    NMSPMM_CHECK_OK(report.status());
    NMSPMM_CHECK_OK(traced_server.dump_trace(trace_path));
    const Server::Stats tstats = traced_server.stats();
    std::cout << "traced replay: wrote " << trace_path << " ("
              << tstats.trace_spans << " spans, " << tstats.trace_drops
              << " dropped) and " << trace_path << ".prom ("
              << report->timeline.size() << " timeline samples)\n";
  }

  // --- JSON section. The "gate" block is what check_perf_trend.py
  // regresses on: the mid-load per-class p99 (plus the offered rate, so
  // the gate can skip when two artifacts measured different loads).
  std::ostringstream json;
  json << "{\"schema_version\": 2, \"hidden\": " << hidden
       << ", \"ffn\": " << ffn << ", \"threads\": " << cli.get_int("threads")
       << ", \"submit_threads\": " << submit_threads << ", \"seed\": " << seed
       << ", \"arrivals\": \""
       << (cli.get_flag("bursty") ? "bursty" : "poisson") << "\""
       << ", \"capacity_rps\": " << fmt2(capacity_rps) << ",\n    \"loads\": [";
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const LoadResult& r = loads[i];
    if (i > 0) json << ",";
    json << "\n      {\"offered_rps\": " << fmt2(r.offered_rps)
         << ", \"achieved_rps\": " << fmt2(r.achieved_rps)
         << ", \"stalls\": " << r.stalls
         << ", \"ring_stalls\": " << r.ring_stalls
         << ", \"slo_violations\": " << r.slo_violations << ", ";
    append_class_json(json, "decode", r.decode);
    json << ", ";
    append_class_json(json, "prefill", r.prefill);
    json << "}";
  }
  json << "],\n    \"bursty\": {\"offered_rps\": "
       << fmt2(bursty_mid.offered_rps)
       << ", \"achieved_rps\": " << fmt2(bursty_mid.achieved_rps)
       << ", \"decode_p99_us\": " << bursty_mid.decode.p99
       << ", \"prefill_p99_us\": " << bursty_mid.prefill.p99
       << ", \"slo_violations\": " << bursty_mid.slo_violations
       << ", \"ring_stalls\": " << bursty_mid.ring_stalls << "}"
       << ",\n    \"submit_scaling\": {\"shards\": "
       << cli.get_int("shards") << ", \"points\": [";
  for (int i = 0; i < 4; ++i) {
    if (i > 0) json << ", ";
    json << "{\"threads\": " << scaling_threads[i]
         << ", \"rps\": " << fmt2(scaling_rps[i]) << "}";
  }
  json << "]}"
       << ",\n    \"slo_compare\": {\"offered_rps\": " << fmt2(mid_rps)
       << ", \"max_wait_us\": 5000"
       << ", \"fixed_decode_p99_us\": " << fixed_decode.p99
       << ", \"slo_decode_p99_us\": " << slo_decode.p99
       << ", \"fixed_violations\": " << fixed_decode.violations
       << ", \"slo_violations\": " << slo_decode.violations
       << ", \"fixed_achieved_rps\": " << fmt2(fixed_report.achieved_rps)
       << ", \"slo_achieved_rps\": " << fmt2(slo_report.achieved_rps) << "}"
       << ",\n    \"submit_overhead\": {\"threads\": " << overhead_threads
       << ", \"telemetry_on_rps\": " << fmt2(rps_on)
       << ", \"telemetry_off_rps\": " << fmt2(rps_off)
       << ", \"on_off_ratio\": " << fmt2(rps_on / rps_off) << "}"
       << ",\n    \"trace_overhead\": {\"sample_n\": " << trace_every
       << ", \"threads\": " << overhead_threads
       << ", \"traced_rps\": " << fmt2(rps_traced)
       << ", \"untraced_rps\": " << fmt2(rps_untraced)
       << ", \"on_off_ratio\": " << fmt2(rps_traced / rps_untraced) << "}"
       << ",\n    \"overload\": {\"offered_rps\": " << fmt2(overload_rps)
       << ", \"shed_pending_rows\": " << shed_rows
       << ", \"at_capacity_decode_p99_us\": " << at_capacity.decode.p99
       << ", \"policies\": [";
  for (int i = 0; i < 3; ++i) {
    const OverloadResult& r = overload_results[i];
    if (i > 0) json << ", ";
    json << "{\"policy\": \"" << r.policy
         << "\", \"achieved_rps\": " << fmt2(r.achieved_rps)
         << ", \"goodput_rps\": " << fmt2(r.goodput_rps)
         << ", \"decode_p99_us\": " << r.decode.p99
         << ", \"submitted\": " << r.submitted << ", \"shed\": " << r.shed
         << ", \"server_shed\": " << r.server_shed
         << ", \"shed_rate\": " << fmt2(r.shed_rate)
         << ", \"deadline_failed\": " << r.deadline_failed
         << ", \"stalls\": " << r.stalls << "}";
  }
  json << "]}"
       << ",\n    \"gate\": {\"offered_rps\": " << fmt2(loads[1].offered_rps)
       << ", \"decode_p99_us\": " << loads[1].decode.p99
       << ", \"prefill_p99_us\": " << loads[1].prefill.p99 << "}}";

  const std::string merge = cli.get_string("merge");
  const std::string out_path = cli.get_string("out");
  if (!merge.empty()) {
    if (!merge_section(merge, "serving_open", json.str())) {
      std::cerr << "cannot merge serving_open section into " << merge << "\n";
      return 1;
    }
    std::cout << "merged serving_open section into " << merge << "\n";
  }
  if (!out_path.empty()) {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "cannot open " << out_path << " for writing\n";
      return 1;
    }
    os << "{\n  \"bench\": \"bench_serving_open\",\n  \"schema_version\": 1,\n"
       << "  \"serving_open\": " << json.str() << "\n}\n";
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
