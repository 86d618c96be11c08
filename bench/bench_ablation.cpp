// Ablations of the paper's design choices, measured with the real CPU
// kernels:
//   1. packing vs non-packing across sparsity (the §III-C1 choice);
//   2. index hoisting + prefetch (V3) vs inline index reads (V1);
//   3. vector length L sweep (accuracy/performance trade-off, §III-A);
//   4. identical vs random window patterns (packing best/worst case).
#include "bench/bench_common.hpp"

using namespace nmspmm;
using namespace nmspmm::bench;

namespace {

double run(index_t m, std::shared_ptr<const CompressedNM> w,
           ConstViewF A, ViewF C, SpmmOptions opt) {
  const auto plan = SpmmPlan::create(m, std::move(w), opt);
  return measure_plan(plan, A, C, 0.1);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_ablation", "design-choice ablations (CPU measured)");
  cli.add_int("size", 768, "problem size (m=n=k)");
  if (!cli.parse(argc, argv)) return 1;
  const index_t s = cli.get_int("size");
  Rng rng(10);
  MatrixF A = random_matrix(s, s, rng);
  MatrixF C(s, s);

  std::cout << "=== Ablation 1: packing vs non-packing (V3, m=n=k=" << s
            << ") ===\n";
  ResultTable packing({"Sparsity", "non-packed ms", "packed ms",
                       "packed/non-packed", "col_info ratio"});
  for (const NMConfig& cfg : paper_sparsities(false)) {
    auto w = std::make_shared<const CompressedNM>(
        random_compressed(s, s, cfg, rng));
    SpmmOptions off;
    off.packing = PackingMode::kNever;
    SpmmOptions on;
    on.packing = PackingMode::kAlways;
    const double t_off = run(s, w, A.view(), C.view(), off);
    const double t_on = run(s, w, A.view(), C.view(), on);
    const auto plan_on = SpmmPlan::create(s, w, on);
    packing.add_row({sparsity_label(cfg), ResultTable::fmt(t_off * 1e3, 2),
                     ResultTable::fmt(t_on * 1e3, 2),
                     ResultTable::fmt(t_on / t_off, 2),
                     ResultTable::fmt(plan_on.packing_ratio(), 2)});
  }
  print_table(packing);
  std::cout << "(On GPU packing wins in the memory-bound regime; on CPU the\n"
               "cache hierarchy already skips unused lines, so explicit\n"
               "packing pays its gather cost without a traffic saving —\n"
               "a substrate difference.)\n\n";

  std::cout << "=== Ablation 2: index hoisting + prefetch (V1 vs V3 "
               "non-packed) ===\n";
  ResultTable hoist({"Sparsity", "V1 ms", "V3 ms", "V3/V1"});
  for (const NMConfig& cfg : paper_sparsities(false)) {
    auto w = std::make_shared<const CompressedNM>(
        random_compressed(s, s, cfg, rng));
    SpmmOptions v1;
    v1.variant = KernelVariant::kV1;
    SpmmOptions v3;
    v3.variant = KernelVariant::kV3;
    v3.packing = PackingMode::kNever;
    const double t1 = run(s, w, A.view(), C.view(), v1);
    const double t3 = run(s, w, A.view(), C.view(), v3);
    hoist.add_row({sparsity_label(cfg), ResultTable::fmt(t1 * 1e3, 2),
                   ResultTable::fmt(t3 * 1e3, 2),
                   ResultTable::fmt(t3 / t1, 2)});
  }
  print_table(hoist);

  std::cout << "=== Ablation 3: vector length L sweep (50% sparsity) ===\n";
  ResultTable lsweep({"L", "time ms", "GFLOP/s"});
  for (const int L : {4, 8, 16, 32, 64}) {
    const NMConfig cfg{16, 32, L};
    auto w = std::make_shared<const CompressedNM>(
        random_compressed(s, s, cfg, rng));
    const double t = run(s, w, A.view(), C.view(), {});
    lsweep.add_row({std::to_string(L), ResultTable::fmt(t * 1e3, 2),
                    ResultTable::fmt(spmm_flops(s, s, w->rows()) / t / 1e9,
                                     1)});
  }
  print_table(lsweep);
  std::cout << "(Larger L amortizes index resolution across wider vector\n"
               "segments — the data-reuse argument of Section III-A.)\n\n";

  std::cout << "=== Ablation 4: window-pattern structure at 87.5% ===\n";
  ResultTable pattern({"pattern", "packing ratio", "packed ms",
                       "non-packed ms"});
  {
    const NMConfig cfg{4, 32, 16};
    MatrixF dense = random_matrix(s, s, rng);
    for (const bool identical : {false, true}) {
      const NMMask mask = identical
                              ? identical_pattern_mask(s, s, cfg, rng)
                              : random_mask(s, s, cfg, rng);
      auto w = std::make_shared<const CompressedNM>(
          compress(dense.view(), mask));
      SpmmOptions on;
      on.packing = PackingMode::kAlways;
      SpmmOptions off;
      off.packing = PackingMode::kNever;
      const auto plan_on = SpmmPlan::create(s, w, on);
      pattern.add_row({identical ? "identical" : "random",
                       ResultTable::fmt(plan_on.packing_ratio(), 3),
                       ResultTable::fmt(
                           run(s, w, A.view(), C.view(), on) * 1e3, 2),
                       ResultTable::fmt(
                           run(s, w, A.view(), C.view(), off) * 1e3, 2)});
    }
  }
  print_table(pattern);
  std::cout << "(Identical patterns reach the N/M packing lower bound the\n"
               "paper describes; random patterns approach ratio ~1 as the\n"
               "group count grows.)\n";
  return 0;
}
