// Model-layer perf smoke: the fused ModelPlan FFN vs the three-call
// unfused pipeline (what examples/llama_ffn.cpp hand-rolled before the
// model layer existed), plus the whole-FFN serving throughput on an m=1
// decode stream.
//
// Emits a "model" section merged into BENCH_spmm.json (--merge, the CI
// mode) or a standalone JSON (--out), so the perf trajectory tracks the
// model layer next to the kernel variants. Defaults are the scaled
// llama_ffn shapes (CI-friendly); pass --full for the Llama-7B
// dimensions the acceptance run uses.
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench/artifact.hpp"
#include "bench/bench_common.hpp"
#include "model/ffn.hpp"

using namespace nmspmm;
using namespace nmspmm::bench;

namespace {

std::string fmt4(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", std::isfinite(v) && v >= 0 ? v : 0.0);
  return buf;
}

void silu_mul(ViewF gate, ConstViewF up) {
  for (index_t i = 0; i < gate.rows(); ++i) {
    float* g = gate.row(i);
    const float* u = up.row(i);
    for (index_t j = 0; j < gate.cols(); ++j) {
      g[j] = apply_activation(Activation::kSilu, g[j]) * u[j];
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_model",
                "fused ModelPlan FFN vs unfused 3-call pipeline, JSON output");
  cli.add_int("hidden", 1024, "model hidden size");
  cli.add_int("ffn", 2752, "FFN intermediate size");
  cli.add_int("tokens", 256, "prefill batch (token rows)");
  cli.add_int("requests", 32, "decode requests per serving iteration");
  cli.add_int("pairs", 7, "interleaved fused/unfused timing pairs");
  cli.add_int("threads", 1, "pool size (1 = single-core, the CI default)");
  cli.add_flag("full", false,
               "use the Llama-7B shapes (hidden 4096, ffn 11008)");
  cli.add_string("out", "", "write a standalone JSON artifact to this path");
  cli.add_string("merge", "",
                 "merge the model section into this bench_resident JSON");
  if (!cli.parse(argc, argv)) return 1;
  const bool full = cli.get_flag("full");
  const index_t hidden = full ? 4096 : cli.get_int("hidden");
  const index_t ffn = full ? 11008 : cli.get_int("ffn");
  const index_t tokens = cli.get_int("tokens");
  const index_t requests = cli.get_int("requests");
  const NMConfig cfg{8, 32, 16};  // 75%: the pruned-LLM operating point

  Rng rng(7);
  model::FfnBlock block;
  block.gate = std::make_shared<const CompressedNM>(
      random_compressed(hidden, ffn, cfg, rng));
  block.up = std::make_shared<const CompressedNM>(
      random_compressed(hidden, ffn, cfg, rng));
  block.down = std::make_shared<const CompressedNM>(
      random_compressed(ffn, hidden, cfg, rng));
  const MatrixF A = random_matrix(tokens, hidden, rng, -0.5f, 0.5f);

  EngineOptions engine_opt;
  engine_opt.num_threads = static_cast<unsigned>(cli.get_int("threads"));
  Engine engine(engine_opt);
  auto plan_or = engine.plan_model(tokens, {block});
  NMSPMM_CHECK_OK(plan_or.status());
  model::ModelPlan& plan = **plan_or;

  std::cout << "FFN block: " << tokens << " tokens, hidden " << hidden
            << ", ffn " << ffn << ", " << cfg.to_string() << ", threads "
            << cli.get_int("threads") << "\n";

  // Fused: one ModelPlan::run — silu(gate) (.) up inside the
  // up-projection's epilogue, plan-owned scratch. Unfused: three engine
  // calls + a separate silu_mul pass over the tokens x ffn
  // intermediates (the pre-model-layer workflow; buffers preallocated,
  // so the measured gap is purely the fusion). The two pipelines are
  // timed interleaved — the ~few-percent fusion win would otherwise
  // drown in machine-level drift between two sequential measurements.
  MatrixF out(tokens, hidden);
  MatrixF gate(tokens, ffn), up(tokens, ffn), out_u(tokens, hidden);
  auto run_fused = [&] { NMSPMM_CHECK_OK(plan.run(A.view(), out.view())); };
  auto run_unfused = [&] {
    NMSPMM_CHECK_OK(engine.spmm(A.view(), block.gate, gate.view()));
    NMSPMM_CHECK_OK(engine.spmm(A.view(), block.up, up.view()));
    silu_mul(gate.view(), up.view());
    NMSPMM_CHECK_OK(engine.spmm(gate.view(), block.down, out_u.view()));
  };
  run_fused();
  run_unfused();  // warm both (plans, scratch, page faults)
  const int pairs = cli.get_int("pairs");
  std::vector<double> fused_samples, unfused_samples;
  using clock = std::chrono::steady_clock;
  for (int it = 0; it < pairs; ++it) {
    auto t0 = clock::now();
    run_fused();
    auto t1 = clock::now();
    run_unfused();
    auto t2 = clock::now();
    fused_samples.push_back(std::chrono::duration<double>(t1 - t0).count());
    unfused_samples.push_back(std::chrono::duration<double>(t2 - t1).count());
  }
  // Best-of-pairs: on a shared/noisy host the minimum of each side is
  // the least-contaminated sample (preemption only ever adds time), so
  // the structural fused-vs-unfused gap is read from the two minima.
  const double fused_s = summarize(fused_samples).min;
  const double unfused_s = summarize(unfused_samples).min;

  NMSPMM_CHECK_MSG(max_abs_diff(out_u.cview(), out.cview()) == 0.0,
                   "fused ModelPlan diverged from the unfused pipeline");
  // The plan's own wall-clock attribution: so far every run() was a
  // fused prefill run, so the per-stage means are its layer breakdown.
  const model::StageProfile::Snapshot prefill_stages = plan.stats().stages;

  // Whole-FFN decode serving: single-row requests through the same plan
  // (the Server's submit_ffn bypass path executes exactly this).
  MatrixF a1 = random_matrix(1, hidden, rng);
  MatrixF c1(1, hidden);
  NMSPMM_CHECK_OK(plan.run(a1.view(), c1.view()));  // warm
  const double stream_s = time_callable([&] {
    for (index_t r = 0; r < requests; ++r) {
      NMSPMM_CHECK_OK(plan.run(a1.view(), c1.view()));
    }
  }, 1, 3, 0.2).median;
  const double ffn_per_s = static_cast<double>(requests) / stream_s;

  const double speedup = unfused_s / fused_s;
  const model::ModelPlan::Stats stats = plan.stats();
  ResultTable table({"pipeline", "ms", "speedup"});
  table.add_row({"fused ModelPlan", ResultTable::fmt(fused_s * 1e3, 2),
                 ResultTable::fmt(speedup, 3)});
  table.add_row({"unfused 3-call", ResultTable::fmt(unfused_s * 1e3, 2),
                 "1.000"});
  print_table(table);
  std::cout << "decode serving: " << ResultTable::fmt(ffn_per_s, 1)
            << " FFN requests/s (m=1); resident "
            << ResultTable::fmt(
                   static_cast<double>(stats.resident_bytes()) / 1e6, 1)
            << " MB (weights "
            << ResultTable::fmt(static_cast<double>(stats.weight_bytes) / 1e6,
                                1)
            << " + packed "
            << ResultTable::fmt(static_cast<double>(stats.packed_bytes) / 1e6,
                                1)
            << " + scratch "
            << ResultTable::fmt(
                   static_cast<double>(stats.scratch_bytes) / 1e6, 1)
            << ")\n";
  const auto stage_ms = [&](model::Stage stage) {
    const auto& t = prefill_stages[stage];
    return t.calls > 0 ? 1e-6 * static_cast<double>(t.ns) / t.calls : 0.0;
  };
  std::cout << "fused stages (ms per run): gate "
            << ResultTable::fmt(stage_ms(model::Stage::kGate), 2) << ", up "
            << ResultTable::fmt(stage_ms(model::Stage::kUp), 2) << ", down "
            << ResultTable::fmt(stage_ms(model::Stage::kDown), 2) << "\n";

  std::ostringstream model_json;
  model_json << "{\"hidden\": " << hidden << ", \"ffn\": " << ffn
             << ", \"tokens\": " << tokens
             << ", \"threads\": " << cli.get_int("threads")
             << ", \"fused_ms\": " << fmt4(fused_s * 1e3)
             << ", \"unfused_ms\": " << fmt4(unfused_s * 1e3)
             << ", \"fused_speedup\": " << fmt4(speedup)
             << ", \"decode_ffn_per_s\": "
             << ResultTable::fmt(ffn_per_s, 2)
             << ", \"weight_bytes\": " << stats.weight_bytes
             << ", \"packed_bytes\": " << stats.packed_bytes
             << ", \"scratch_bytes\": " << stats.scratch_bytes
             << ", \"stage_ms\": {\"gate\": "
             << fmt4(stage_ms(model::Stage::kGate))
             << ", \"up\": " << fmt4(stage_ms(model::Stage::kUp))
             << ", \"down\": " << fmt4(stage_ms(model::Stage::kDown))
             << "}}";

  const std::string merge = cli.get_string("merge");
  const std::string out_path = cli.get_string("out");
  if (!merge.empty()) {
    if (!merge_section(merge, "model", model_json.str())) {
      std::cerr << "cannot merge model section into " << merge << "\n";
      return 1;
    }
    std::cout << "merged model section into " << merge << "\n";
  }
  if (!out_path.empty()) {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "cannot open " << out_path << " for writing\n";
      return 1;
    }
    os << "{\n  \"bench\": \"bench_model\",\n  \"schema_version\": 1,\n"
       << "  \"model\": " << model_json.str() << "\n}\n";
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
