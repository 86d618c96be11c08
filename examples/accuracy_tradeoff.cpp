// The accuracy / performance trade-off of Section III-A: sweep sparsity
// levels and pruning-unit lengths L, reporting the Eq. 2 approximation
// error of magnitude pruning (vs a random-mask control) next to the
// measured kernel throughput. Smaller L tracks the dense product more
// closely; larger L runs faster — exactly the tension the paper's
// vector-wise format exposes as a tunable.
#include <cstdio>
#include <iostream>
#include <memory>

#include "core/nmspmm.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads/generators.hpp"

int main() {
  using namespace nmspmm;
  const index_t m = 128, k = 768, n = 768;
  Rng rng(11);
  MatrixF A = random_matrix(m, k, rng);
  MatrixF B = random_matrix(k, n, rng);
  MatrixF c_dense(m, n);
  gemm_reference(A.view(), B.view(), c_dense.view());
  Engine engine;

  ResultTable table({"sparsity", "L", "err magnitude", "err random",
                     "GFLOP/s"});
  for (const int n_keep : {16, 8, 4}) {      // 50%, 75%, 87.5% of M=32
    for (const int L : {4, 16, 64}) {
      const NMConfig cfg{n_keep, 32, L};
      const NMMask mag = magnitude_mask(B.view(), cfg);
      const NMMask rnd = random_mask(k, n, cfg, rng);

      auto error_of = [&](const NMMask& mask) {
        const auto compressed = std::make_shared<const CompressedNM>(
            compress(apply_mask(B.view(), mask).view(), mask));
        MatrixF c(m, n);
        NMSPMM_CHECK_OK(engine.spmm(A.view(), compressed, c.view()));
        return approximation_error(c_dense.view(), c.view());
      };
      const double err_mag = error_of(mag);
      const double err_rnd = error_of(rnd);

      const auto weights = std::make_shared<const CompressedNM>(
          compress(B.view(), mag));
      MatrixF c(m, n);
      const double sec = time_callable(
          [&] { NMSPMM_CHECK_OK(engine.spmm(A.view(), weights, c.view())); },
          1, 3, 0.05).median;
      table.add_row({std::to_string(100 - 100 * n_keep / 32) + "%",
                     std::to_string(L), ResultTable::fmt(err_mag, 4),
                     ResultTable::fmt(err_rnd, 4),
                     ResultTable::fmt(
                         spmm_flops(m, n, weights->rows()) / sec / 1e9,
                         1)});
    }
  }
  std::printf("Accuracy vs performance across sparsity and vector length\n"
              "(magnitude pruning should beat the random-mask control at\n"
              "every setting; error grows with sparsity and with L):\n\n");
  table.print(std::cout);
  return 0;
}
