// Machine-readable perf smoke for the plan-time pre-packed hot path.
//
// Emits BENCH_spmm.json — GFLOP/s per kernel variant on a warm plan plus
// serving throughput on an m=1 decode stream — so CI (and the perf
// trajectory across PRs) has numbers to diff instead of eyeballing
// tables. The JSON also records the steady-state pack_b_block counters,
// which must stay at zero: any re-introduction of per-call weight
// staging shows up as a nonzero "staged_calls" in the artifact. Every
// timing is wall time.
//
// Defaults are laptop/CI-friendly; pass --m/--n/--k for real sweeps.
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/pack.hpp"
#include "util/numa_alloc.hpp"

using namespace nmspmm;
using namespace nmspmm::bench;

namespace {

struct VariantResult {
  std::string name;
  double seconds = 0.0;
  double gflops = 0.0;
  double packing_ratio = 1.0;
};

/// Resident-footprint numbers for one residency mode of the same FFN
/// block (mem/weight_store.hpp): what a memory-tight multi-tenant host
/// actually pays per served model.
struct ResidencyResult {
  std::size_t weight_bytes = 0;
  std::size_t packed_bytes = 0;
  std::size_t scratch_bytes = 0;
  std::size_t resident_bytes = 0;
  int numa_node = -1;
  mem::WeightStore::Stats store;
};

ResidencyResult measure_residency(mem::ResidencyMode mode, index_t hidden,
                                  index_t ffn, index_t tokens,
                                  const NMConfig& cfg, unsigned threads,
                                  ConstViewF A, ViewF out) {
  // Fresh weights per mode so each store starts cold; identical seeds
  // make the two modes' outputs comparable bit-for-bit.
  Rng rng(2024);
  model::FfnBlock block;
  block.gate = std::make_shared<const CompressedNM>(
      random_compressed_int(hidden, ffn, cfg, rng));
  block.up = std::make_shared<const CompressedNM>(
      random_compressed_int(hidden, ffn, cfg, rng));
  block.down = std::make_shared<const CompressedNM>(
      random_compressed_int(ffn, hidden, cfg, rng));

  EngineOptions opt;
  opt.num_threads = threads;
  opt.residency = mode;
  opt.weight_store = std::make_shared<mem::WeightStore>();
  Engine engine(opt);
  auto plan = engine.plan_model(tokens, block);
  NMSPMM_CHECK_OK(plan.status());
  // Steady state: the caller's copies are gone; whatever the plan (and
  // under packed-only, only the stripped form + packed tiles) retains
  // is the true per-model residency.
  block.gate.reset();
  block.up.reset();
  block.down.reset();
  NMSPMM_CHECK_OK((*plan)->run(A, out));

  const auto stats = (*plan)->stats();
  ResidencyResult r;
  r.weight_bytes = stats.weight_bytes;
  r.packed_bytes = stats.packed_bytes;
  r.scratch_bytes = stats.scratch_bytes;
  r.resident_bytes = stats.resident_bytes();
  r.numa_node = stats.packed_numa_node;
  r.store = stats.store;
  return r;
}

std::string json_escape_free(double v) {
  // JSON has no inf/nan; clamp degenerate timings to 0.
  if (!std::isfinite(v) || v < 0.0) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

/// CPU model string (Linux), so the perf-trend gate knows whether two
/// artifacts came from comparable hardware: absolute GFLOP/s only gate
/// hard against a baseline from the same CPU class.
std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto pos = line.find("model name");
    if (pos == std::string::npos) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string name = line.substr(colon + 1);
    while (!name.empty() && name.front() == ' ') name.erase(name.begin());
    for (char& c : name) {
      if (c == '"' || c == '\\') c = ' ';  // keep the JSON trivially valid
    }
    return name;
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_resident",
                "GFLOP/s per variant + serving throughput, JSON output");
  cli.add_int("m", 256, "activation rows for the variant sweep");
  cli.add_int("n", 2048, "output columns");
  cli.add_int("k", 2048, "reduction depth");
  cli.add_int("requests", 64, "decode requests per serving iteration");
  cli.add_int("threads", 1, "pool size (1 = single-core, the CI default)");
  cli.add_string("out", "BENCH_spmm.json", "output JSON path");
  if (!cli.parse(argc, argv)) return 1;
  const index_t m = cli.get_int("m"), n = cli.get_int("n"),
                k = cli.get_int("k");
  const index_t requests = cli.get_int("requests");
  const NMConfig cfg = kSparsity875;

  Rng rng(77);
  MeasuredProblem prob = make_problem(m, n, k, cfg, rng);
  SpmmOptions base_opt;
  base_opt.num_threads = static_cast<unsigned>(cli.get_int("threads"));

  std::vector<VariantResult> results;
  for (const KernelVariant variant :
       {KernelVariant::kV1, KernelVariant::kV2, KernelVariant::kV3}) {
    SpmmOptions opt = base_opt;
    opt.variant = variant;
    const auto plan = SpmmPlan::create(m, prob.weights, opt);
    VariantResult r;
    r.name = to_string(variant);
    r.seconds = measure_plan(plan, prob.a.view(), prob.c.view());
    r.gflops = prob.flops / r.seconds * 1e-9;
    r.packing_ratio = plan.packing_ratio();
    results.push_back(r);
  }

  // Serving: warm engine, m=1 decode stream, per-request spmm. The
  // pack_b_block counters across the timed region certify the resident
  // hot path (zero staged weight bytes in steady state).
  EngineOptions engine_opt;
  engine_opt.num_threads = static_cast<unsigned>(cli.get_int("threads"));
  Engine engine(engine_opt);
  MatrixF a1 = random_matrix(1, k, rng);
  MatrixF c1(1, n);
  NMSPMM_CHECK_OK(engine.spmm(a1.view(), prob.weights, c1.view()));  // warm
  const std::uint64_t staged_calls0 = detail::pack_b_block_calls();
  const std::uint64_t staged_bytes0 = detail::pack_b_block_bytes();
  const double t_stream = time_callable([&] {
    for (index_t r = 0; r < requests; ++r) {
      NMSPMM_CHECK_OK(engine.spmm(a1.view(), prob.weights, c1.view()));
    }
  }, 1, 3, 0.2).median;
  const std::uint64_t staged_calls =
      detail::pack_b_block_calls() - staged_calls0;
  const std::uint64_t staged_bytes =
      detail::pack_b_block_bytes() - staged_bytes0;
  const double requests_per_s = static_cast<double>(requests) / t_stream;

  // Residency: the same FFN block served in default vs packed-only
  // mode. Outputs must be bit-identical; the packed-only footprint is
  // the pitch — ~1x packed bytes instead of compressed + packed.
  const index_t r_hidden = std::min<index_t>(k, 1024);
  const index_t r_ffn = std::min<index_t>(n, 1024);
  const index_t r_tokens = 16;
  Rng rng_res(4242);
  const MatrixF res_a = random_int_matrix(r_tokens, r_hidden, rng_res);
  MatrixF out_default(r_tokens, r_hidden), out_packed(r_tokens, r_hidden);
  const ResidencyResult res_default = measure_residency(
      mem::ResidencyMode::kDefault, r_hidden, r_ffn, r_tokens, cfg,
      static_cast<unsigned>(cli.get_int("threads")), res_a.view(),
      out_default.view());
  const ResidencyResult res_packed = measure_residency(
      mem::ResidencyMode::kPackedOnly, r_hidden, r_ffn, r_tokens, cfg,
      static_cast<unsigned>(cli.get_int("threads")), res_a.view(),
      out_packed.view());
  const bool res_identical =
      max_abs_diff(out_default.cview(), out_packed.cview()) == 0.0;
  const double res_ratio =
      res_default.resident_bytes > 0
          ? static_cast<double>(res_packed.resident_bytes) /
                static_cast<double>(res_default.resident_bytes)
          : 0.0;
  // Steady-state resident weight bytes vs the packed footprint: the
  // acceptance bar for packed-only mode is ~1x (the leftover is the
  // uint8 index matrices kept for plan validation).
  const double res_weight_over_packed =
      res_packed.packed_bytes > 0
          ? static_cast<double>(res_packed.weight_bytes +
                                res_packed.packed_bytes) /
                static_cast<double>(res_packed.packed_bytes)
          : 0.0;

  ResultTable table({"variant", "ms", "GFLOP/s", "packing ratio"});
  for (const VariantResult& r : results) {
    table.add_row({r.name, ResultTable::fmt(r.seconds * 1e3, 2),
                   ResultTable::fmt(r.gflops, 2),
                   ResultTable::fmt(r.packing_ratio, 2)});
  }
  print_table(table);
  std::cout << "serving: " << ResultTable::fmt(requests_per_s, 0)
            << " decode requests/s (m=1), steady-state staged weight "
            << "bytes: " << staged_bytes << " in " << staged_calls
            << " pack_b_block call(s)\n";
  std::cout << "residency (" << r_hidden << "->" << r_ffn << " FFN block): "
            << "default " << res_default.resident_bytes / 1024 << " KiB, "
            << "packed-only " << res_packed.resident_bytes / 1024
            << " KiB (" << ResultTable::fmt(res_ratio, 3)
            << "x), weights+packed/packed = "
            << ResultTable::fmt(res_weight_over_packed, 3)
            << "x, outputs " << (res_identical ? "bit-identical" : "DIVERGED")
            << ", numa node " << res_packed.numa_node << " of "
            << numa::num_nodes() << "\n";

  const std::string out = cli.get_string("out");
  std::ofstream os(out);
  if (!os) {
    std::cerr << "cannot open " << out << " for writing\n";
    return 1;
  }
  os << "{\n"
     << "  \"bench\": \"bench_resident\",\n"
     << "  \"schema_version\": 5,\n"
     << "  \"cpu\": \"" << cpu_model() << "\",\n"
     << "  \"shape\": {\"m\": " << m << ", \"n\": " << n << ", \"k\": " << k
     << ", \"sparsity\": " << cfg.sparsity()
     << ", \"L\": " << cfg.vector_length << "},\n"
     << "  \"threads\": " << cli.get_int("threads") << ",\n"
     << "  \"variants\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const VariantResult& r = results[i];
    os << "    {\"variant\": \"" << r.name << "\", \"gflops\": "
       << json_escape_free(r.gflops) << ", \"ms\": "
       << json_escape_free(r.seconds * 1e3) << ", \"packing_ratio\": "
       << json_escape_free(r.packing_ratio) << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  const auto emit_residency = [&os](const char* name,
                                    const ResidencyResult& r) {
    os << "    \"" << name << "\": {\"weight_bytes\": " << r.weight_bytes
       << ", \"packed_bytes\": " << r.packed_bytes
       << ", \"scratch_bytes\": " << r.scratch_bytes
       << ", \"resident_bytes\": " << r.resident_bytes
       << ", \"numa_node\": " << r.numa_node
       << ", \"store\": {\"hits\": " << r.store.hits
       << ", \"misses\": " << r.store.misses
       << ", \"evictions\": " << r.store.evictions
       << ", \"repacks\": " << r.store.repacks << "}}";
  };
  os << "  ],\n"
     << "  \"serving\": {\"rows_per_request\": 1, \"requests\": " << requests
     << ", \"requests_per_s\": " << json_escape_free(requests_per_s)
     << ", \"per_request_us\": "
     << json_escape_free(t_stream * 1e6 / static_cast<double>(requests))
     << ", \"steady_state_pack_b_calls\": " << staged_calls
     << ", \"steady_state_staged_bytes\": " << staged_bytes << "},\n"
     << "  \"resident\": {\n"
     << "    \"hidden\": " << r_hidden << ", \"ffn\": " << r_ffn
     << ", \"tokens\": " << r_tokens << ",\n";
  emit_residency("default", res_default);
  os << ",\n";
  emit_residency("packed_only", res_packed);
  os << ",\n"
     << "    \"packed_only_over_default\": " << json_escape_free(res_ratio)
     << ",\n"
     << "    \"weights_plus_packed_over_packed\": "
     << json_escape_free(res_weight_over_packed) << ",\n"
     << "    \"outputs_bit_identical\": "
     << (res_identical ? "true" : "false") << ",\n"
     << "    \"numa_nodes\": " << numa::num_nodes() << "\n"
     << "  }\n"
     << "}\n";
  os.close();
  std::cout << "wrote " << out << "\n";

  if (staged_calls != 0) {
    std::cerr << "FAIL: steady-state serving staged weights ("
              << staged_calls << " pack_b_block calls)\n";
    return 1;
  }
  if (!res_identical) {
    std::cerr << "FAIL: packed-only outputs diverged from default mode\n";
    return 1;
  }
  // ~1x bar for packed-only residency: weights + packed over packed
  // leaves only the uint8 index matrices on top of the packed form.
  if (res_weight_over_packed > 1.25) {
    std::cerr << "FAIL: packed-only resident weight bytes are "
              << res_weight_over_packed
              << "x the packed footprint (expected ~1x)\n";
    return 1;
  }
  return 0;
}
