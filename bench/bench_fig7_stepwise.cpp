// Figure 7: step-wise optimization evaluation (V1 -> V2 -> V3 vs the
// dense baseline) at m = n = k = 4096 for sparsity levels 0%, 50%,
// 62.5%, 75%, 87.5% on the A100, RTX 3090 and RTX 4090.
//
// Two reproductions are printed:
//   1. simulated-GPU efficiencies from the cost model (all three GPUs at
//      the paper's exact size) — the direct analog of the figure;
//   2. measured CPU wall-clock for the V1/V2/V3 CPU kernels and the
//      dense baseline (scaled size by default; --full for 4096).
#include "baselines/dense_gemm.hpp"
#include "bench/bench_common.hpp"

using namespace nmspmm;
using namespace nmspmm::bench;

namespace {

void run_simulated(index_t size) {
  for (const auto& gpu : gpusim::paper_gpus()) {
    ResultTable table({"Sparsity", "V1 eff%", "V2 eff%", "V3 eff%",
                       "dense eff%", "V3 speedup vs dense"});
    const double dense_s = gpusim::predict_dense(gpu, size, size, size).seconds;
    const double dense_eff =
        gpusim::predict_dense(gpu, size, size, size).efficiency;
    for (const NMConfig& cfg : paper_sparsities(true)) {
      const auto v1 = predict_nmspmm(gpu, size, size, size, cfg,
                                     KernelVariant::kV1);
      const auto v2 = predict_nmspmm(gpu, size, size, size, cfg,
                                     KernelVariant::kV2);
      const auto v3 = predict_nmspmm(gpu, size, size, size, cfg,
                                     KernelVariant::kV3);
      table.add_row({sparsity_label(cfg),
                     ResultTable::fmt(100.0 * v1.efficiency, 1),
                     ResultTable::fmt(100.0 * v2.efficiency, 1),
                     ResultTable::fmt(100.0 * v3.efficiency, 1),
                     ResultTable::fmt(100.0 * dense_eff, 1),
                     ResultTable::fmt(dense_s / v3.seconds, 2)});
    }
    std::cout << "--- simulated " << gpu.name << " (m=n=k=" << size
              << ") ---\n";
    print_table(table);
  }
}

void run_measured(index_t size) {
  Rng rng(7);
  MatrixF A = random_matrix(size, size, rng);
  MatrixF Bd = random_matrix(size, size, rng);
  MatrixF C(size, size);
  const double dense_s = time_callable(
      [&] { gemm_blocked(A.view(), Bd.view(), C.view()); }, 1, 3, 0.2).median;
  const double dense_flops = 2.0 * double(size) * size * size;

  ResultTable table({"Sparsity", "V1 ms", "V2 ms", "V3 ms", "dense ms",
                     "V3 speedup", "V3 GFLOP/s"});
  for (const NMConfig& cfg : paper_sparsities(true)) {
    auto weights = std::make_shared<const CompressedNM>(
        random_compressed(size, size, cfg, rng));
    auto run_variant = [&](KernelVariant v) {
      SpmmOptions opt;
      opt.variant = v;
      const auto plan = SpmmPlan::create(size, weights, opt);
      return measure_plan(plan, A.view(), C.view());
    };
    const double v1 = run_variant(KernelVariant::kV1);
    const double v2 = run_variant(KernelVariant::kV2);
    const double v3 = run_variant(KernelVariant::kV3);
    const double flops = spmm_flops(size, size, weights->rows());
    table.add_row({sparsity_label(cfg), ResultTable::fmt(v1 * 1e3, 2),
                   ResultTable::fmt(v2 * 1e3, 2),
                   ResultTable::fmt(v3 * 1e3, 2),
                   ResultTable::fmt(dense_s * 1e3, 2),
                   ResultTable::fmt(dense_s / v3, 2),
                   ResultTable::fmt(flops / v3 / 1e9, 1)});
  }
  std::cout << "--- measured CPU kernels (m=n=k=" << size << ", dense "
            << ResultTable::fmt(dense_flops / dense_s / 1e9, 1)
            << " GFLOP/s) ---\n";
  std::cout << "Note: on CPU the cache hierarchy implicitly provides what\n"
               "packing provides explicitly on GPU, so V2/V3-packed trail\n"
               "the non-packed path here; the simulated tables above carry\n"
               "the paper's GPU-side packing benefit (bench_ablation,\n"
               "ablation 1, measures the CPU gap per sparsity).\n";
  print_table(table);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_fig7_stepwise", "Figure 7 step-wise optimization");
  cli.add_flag("full", false, "use the paper's 4096^3 size for CPU runs");
  cli.add_int("size", 512, "CPU problem size (m=n=k)");
  cli.add_flag("no-measure", false, "skip measured CPU section");
  if (!cli.parse(argc, argv)) return 1;

  std::cout << "=== Figure 7: step-wise optimization (V1/V2/V3) ===\n\n";
  run_simulated(4096);
  if (!cli.get_flag("no-measure")) {
    run_measured(cli.get_flag("full") ? 4096
                                      : static_cast<index_t>(cli.get_int("size")));
  }
  return 0;
}
