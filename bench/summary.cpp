// Recap binary: prints the experiment index so a `for b in bench/*`
// sweep ends with a map from binaries to the paper's tables and figures.
#include <cstdio>

int main() {
  std::puts(
      "=== NM-SpMM benchmark suite recap ===\n"
      "bench_table1_params   Table I   preset audit + Eq.6 ranking\n"
      "bench_table3_specs    Table III hardware registry + roofline\n"
      "bench_fig7_stepwise   Fig. 7    V1/V2/V3 vs dense, 3 GPUs + CPU\n"
      "bench_fig8_blocking   Fig. 8    size-class presets on points A-F\n"
      "bench_fig9_speedup    Fig. 9    100-point Llama sweep vs baselines\n"
      "bench_fig10_roofline  Fig. 10   roofline on the A100\n"
      "bench_ablation        §IV-B     packing / hoisting / L / patterns\n"
      "bench_micro_kernels   —         google-benchmark building blocks\n"
      "\n"
      "Module map: README.md, \"Layout\". CPU sections accept --full\n"
      "for the paper's exact sizes.");
  return 0;
}
