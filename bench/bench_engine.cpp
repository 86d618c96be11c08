// Engine serving benchmark: what the serving-oriented API buys.
//
//   1. Parallel execute — the same plan run serially (num_threads=1) vs
//      on a pool sized to hardware concurrency; reports the speedup of
//      spmm_blocked's one fork-join over C's blocks (≈1x on
//      single-core machines).
//   2. Plan caching — a ragged stream of batch sizes served through the
//      engine's bucketed plan cache vs re-planning per request (what the
//      seed API forced on callers whose batch size varied).
#include "bench/bench_common.hpp"
#include "util/timer.hpp"

using namespace nmspmm;
using namespace nmspmm::bench;

int main(int argc, char** argv) {
  CliParser cli("bench_engine", "serving API: parallel execute + plan cache");
  cli.add_int("n", 2048, "output columns");
  cli.add_int("k", 1024, "reduction depth");
  cli.add_int("m", 256, "batch rows for the parallel-execute comparison");
  cli.add_int("threads", 0, "parallel pool size (0 = hardware concurrency)");
  if (!cli.parse(argc, argv)) return 1;
  const index_t m = cli.get_int("m"), n = cli.get_int("n"),
                k = cli.get_int("k");
  if (cli.get_int("threads") < 0) {
    std::cerr << "--threads must be >= 0\n";
    return 1;
  }
  const auto threads = static_cast<unsigned>(cli.get_int("threads"));
  const NMConfig cfg = kSparsity75;

  Rng rng(21);
  const MatrixF A = random_matrix(m, k, rng);
  auto weights = std::make_shared<const CompressedNM>(
      random_compressed(k, n, cfg, rng));
  MatrixF C(m, n);

  std::cout << "=== Parallel execute: serial vs pool (" << m << " x " << n
            << " x " << k << ", " << cfg.to_string() << ") ===\n";
  SpmmOptions serial;
  serial.num_threads = 1;
  SpmmOptions parallel;
  parallel.num_threads = threads;
  const auto serial_plan = SpmmPlan::create(m, weights, serial);
  const auto parallel_plan = SpmmPlan::create(m, weights, parallel);
  const double t_serial = measure_plan(serial_plan, A.view(), C.view(), 0.2);
  const double t_parallel =
      measure_plan(parallel_plan, A.view(), C.view(), 0.2);
  const double flops = spmm_flops(m, n, weights->rows());
  ResultTable par({"path", "threads", "time ms", "GFLOP/s", "speedup"});
  par.add_row({"serial", "1", ResultTable::fmt(t_serial * 1e3, 2),
               ResultTable::fmt(flops / t_serial / 1e9, 1), "1.00"});
  const unsigned pool_size =
      threads == 0 ? ThreadPool::global().size() : threads;
  par.add_row({"parallel", std::to_string(pool_size),
               ResultTable::fmt(t_parallel * 1e3, 2),
               ResultTable::fmt(flops / t_parallel / 1e9, 1),
               ResultTable::fmt(t_serial / t_parallel, 2)});
  print_table(par);

  std::cout << "=== Plan cache: ragged batch stream (n=" << n << ", k=" << k
            << ", " << kSparsity875.to_string() << ", paper-rule packing) "
            << "===\n";
  // A decode request stream: small ragged batches, the regime where
  // per-request re-planning rivals the product itself. The paper-rule
  // packed path is the config whose offline pre-processing (col_info
  // build) is substantial — exactly what the cache amortizes. (Prefill
  // bursts are execute-bound either way; their win is the pool above.)
  auto packed_weights = std::make_shared<const CompressedNM>(
      random_compressed(k, n, kSparsity875, rng));
  SpmmOptions packed_opt;
  packed_opt.packing = PackingMode::kPaperRule;
  packed_opt.num_threads = threads;
  const index_t stream[] = {1, 4, 2, 7, 1, 16, 3, 8, 1, 2, 12, 4,
                            1, 6, 2, 1, 3, 9,  5, 8, 1, 2, 4,  1};
  std::vector<MatrixF> As;
  std::vector<MatrixF> Cs;
  for (const index_t mi : stream) {
    As.push_back(random_matrix(mi, k, rng));
    Cs.emplace_back(mi, n);
  }

  EngineOptions engine_opt;
  engine_opt.num_threads = threads;
  Engine engine(engine_opt);
  auto serve_cached = [&] {
    for (std::size_t i = 0; i < As.size(); ++i) {
      NMSPMM_CHECK_OK(
          engine.spmm(As[i].view(), packed_weights, Cs[i].view(),
                      packed_opt));
    }
  };
  auto serve_uncached = [&] {
    for (std::size_t i = 0; i < As.size(); ++i) {
      const auto plan =
          SpmmPlan::create(As[i].rows(), packed_weights, packed_opt);
      NMSPMM_CHECK_OK(plan.execute(As[i].view(), Cs[i].view()));
    }
  };
  const double t_cached = time_callable(serve_cached, 1, 3, 0.2).median;
  const double t_uncached = time_callable(serve_uncached, 1, 3, 0.2).median;

  ResultTable cache({"path", "stream time ms", "per request us", "speedup"});
  cache.add_row({"re-plan per request",
                 ResultTable::fmt(t_uncached * 1e3, 2),
                 ResultTable::fmt(t_uncached * 1e6 / std::size(stream), 1),
                 "1.00"});
  cache.add_row({"engine plan cache", ResultTable::fmt(t_cached * 1e3, 2),
                 ResultTable::fmt(t_cached * 1e6 / std::size(stream), 1),
                 ResultTable::fmt(t_uncached / t_cached, 2)});
  print_table(cache);

  // Cold-vs-warm: what one cache miss costs a single request.
  Engine cold_engine(engine_opt);
  MatrixF c1(1, n);
  const MatrixF a1 = random_matrix(1, k, rng);
  Timer cold_t;
  NMSPMM_CHECK_OK(
      cold_engine.spmm(a1.view(), packed_weights, c1.view(), packed_opt));
  const double t_cold = cold_t.millis();
  const double t_warm =
      time_callable([&] {
        NMSPMM_CHECK_OK(cold_engine.spmm(a1.view(), packed_weights,
                                         c1.view(), packed_opt));
      }, 1, 3, 0.1).median * 1e3;
  std::cout << "m=1 request latency: cold (plans) " << ResultTable::fmt(t_cold, 3)
            << " ms vs warm (cache hit) " << ResultTable::fmt(t_warm, 3)
            << " ms\n";

  const auto stats = engine.cache_stats();
  std::cout << "engine served the stream with " << stats.size
            << " cached plan(s): " << stats.hits << " hit(s), "
            << stats.misses << " miss(es)\n";
  return 0;
}
