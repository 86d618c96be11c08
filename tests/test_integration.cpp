// Cross-module integration tests: every implementation of the N:M
// product (CPU V1/V2/V3, both simulated device kernels, both baselines)
// agrees on the same operand; plans are reusable across batches; a full
// pruned FFN pipeline tracks its dense reference; and magnitude pruning
// interacts correctly with compression and execution end to end.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/csr.hpp"
#include "baselines/dense_gemm.hpp"
#include "baselines/nmsparse_like.hpp"
#include "baselines/sputnik_like.hpp"
#include "core/nmspmm.hpp"
#include "gpusim/sim_kernels.hpp"
#include "tests/testing.hpp"
#include "workloads/generators.hpp"

namespace nmspmm {
namespace {

TEST(Integration, SevenImplementationsAgree) {
  Rng rng(901);
  const NMConfig cfg{2, 8, 16};
  const index_t m = 64, k = 128, n = 64;
  const MatrixF A = random_int_matrix(m, k, rng);
  const CompressedNM B = random_compressed_int(k, n, cfg, rng);

  MatrixF expect(m, n);
  spmm_reference(A.view(), B, expect.view());

  BlockingParams p = table1_preset(SizeClass::kSmall);
  p.ks = 64;
  const ColInfo info = build_col_info(B, p.ks, p.ns);
  const PackedWeights direct = PackedWeights::build(
      B, p.ks, p.ns, PackedWeights::IndexKind::kDirect);
  const PackedWeights remapped = PackedWeights::build(
      B, p.ks, p.ns, PackedWeights::IndexKind::kRemapped, &info);

  MatrixF c(m, n);
  spmm_v1(A.view(), B, c.view(), p, direct);
  EXPECT_EQ(max_abs_diff(expect.cview(), c.cview()), 0.0) << "V1";
  spmm_v2(A.view(), B, c.view(), p, remapped);
  EXPECT_EQ(max_abs_diff(expect.cview(), c.cview()), 0.0) << "V2";
  spmm_v3(A.view(), B, c.view(), p, true, remapped);
  EXPECT_EQ(max_abs_diff(expect.cview(), c.cview()), 0.0) << "V3p";
  spmm_v3(A.view(), B, c.view(), p, false, direct);
  EXPECT_EQ(max_abs_diff(expect.cview(), c.cview()), 0.0) << "V3np";

  nmsparse_like_spmm(A.view(), B, c.view());
  EXPECT_EQ(max_abs_diff(expect.cview(), c.cview()), 0.0) << "nmsparse";
  const SputnikPlan splan = sputnik_plan(csr_from_compressed(B));
  sputnik_like_spmm(A.view(), splan, c.view());
  EXPECT_EQ(max_abs_diff(expect.cview(), c.cview()), 0.0) << "sputnik";

  gpusim::Simulator sim(gpusim::a100_80g());
  sim_nm_spmm(sim, A.view(), B, c.view(), p);
  EXPECT_EQ(max_abs_diff(expect.cview(), c.cview()), 0.0) << "sim";
  sim_nm_spmm_packed(sim, A.view(), B, c.view(), p, info);
  EXPECT_EQ(max_abs_diff(expect.cview(), c.cview()), 0.0) << "sim packed";
}

TEST(Integration, PlanReusableAcrossBatches) {
  Rng rng(902);
  const NMConfig cfg{4, 8, 8};
  const index_t k = 96, n = 64;
  const CompressedNM B = random_compressed_int(k, n, cfg, rng);
  auto plan = SpmmPlan::create(128, B);
  for (const index_t m : {1, 7, 64, 128}) {
    const MatrixF A = random_int_matrix(m, k, rng);
    MatrixF expect(m, n), got(m, n);
    spmm_reference(A.view(), B, expect.view());
    NMSPMM_ASSERT_OK(plan.execute(A.view(), got.view()));
    EXPECT_EQ(max_abs_diff(expect.cview(), got.cview()), 0.0) << "m=" << m;
  }
}

TEST(Integration, PrunedFfnTracksDenseReference) {
  // gate/up/down SwiGLU pipeline with pruned weights: the sparse result
  // must equal running the *pruned dense* weights through dense GEMM
  // (exactness), and approximate the unpruned pipeline (bounded error).
  Rng rng(903);
  const index_t tokens = 24, hidden = 64, ffn = 96;
  const NMConfig cfg{4, 8, 8};
  MatrixF A = random_matrix(tokens, hidden, rng, -0.5f, 0.5f);
  MatrixF Wg = random_matrix(hidden, ffn, rng, -0.2f, 0.2f);
  MatrixF Wd = random_matrix(ffn, hidden, rng, -0.2f, 0.2f);

  const NMMask mask_g = magnitude_mask(Wg.view(), cfg);
  const NMMask mask_d = magnitude_mask(Wd.view(), cfg);
  const CompressedNM cg = compress(Wg.view(), mask_g);
  const CompressedNM cd = compress(Wd.view(), mask_d);

  // Sparse path.
  MatrixF gate(tokens, ffn), out(tokens, hidden);
  NMSPMM_ASSERT_OK(
      SpmmPlan::create(tokens, cg).execute(A.view(), gate.view()));
  NMSPMM_ASSERT_OK(
      SpmmPlan::create(tokens, cd).execute(gate.view(), out.view()));

  // Pruned-dense path (must agree to float rounding).
  const MatrixF wg_pruned = apply_mask(Wg.view(), mask_g);
  const MatrixF wd_pruned = apply_mask(Wd.view(), mask_d);
  MatrixF gate_d(tokens, ffn), out_d(tokens, hidden);
  gemm_reference(A.view(), wg_pruned.view(), gate_d.view());
  gemm_reference(gate_d.view(), wd_pruned.view(), out_d.view());
  EXPECT_LT(max_abs_diff(out.cview(), out_d.cview()), 1e-3);

  // Unpruned pipeline: sparse output stays within a sane band.
  MatrixF gate_f(tokens, ffn), out_f(tokens, hidden);
  gemm_reference(A.view(), Wg.view(), gate_f.view());
  gemm_reference(gate_f.view(), Wd.view(), out_f.view());
  const double err = approximation_error(out_f.view(), out.view());
  EXPECT_GT(err, 0.0);   // pruning is lossy
  EXPECT_LT(err, 10.0);  // ...but not catastrophic at 50%
}

TEST(Integration, CompressedFootprintScalesWithDensity) {
  Rng rng(904);
  const index_t k = 256, n = 256;
  const std::size_t dense_bytes = k * n * sizeof(float);
  double prev = 1.0;
  for (const NMConfig cfg : {kSparsity50, kSparsity625, kSparsity75,
                             kSparsity875}) {
    const CompressedNM c = random_compressed(k, n, cfg, rng);
    const double ratio =
        static_cast<double>(c.footprint_bytes()) / dense_bytes;
    // Values shrink proportionally to density; index overhead is small.
    EXPECT_NEAR(ratio, cfg.density(), 0.03) << cfg.to_string();
    EXPECT_LT(ratio, prev);
    prev = ratio;
  }
}

TEST(Integration, LargeValuesDoNotOverflowAccumulation) {
  // Stress the accumulator with values at the top of the exact-integer
  // float range direction: results must still match the f64-checked
  // reference within relative tolerance.
  Rng rng(905);
  const NMConfig cfg{2, 4, 16};
  const index_t m = 32, k = 256, n = 64;
  MatrixF A = random_matrix(m, k, rng, -1000.0f, 1000.0f);
  const CompressedNM B = random_compressed(k, n, cfg, rng);
  MatrixF expect(m, n), got(m, n);
  spmm_reference(A.view(), B, expect.view());
  NMSPMM_ASSERT_OK(SpmmPlan::create(m, B).execute(A.view(), got.view()));
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      const float denom = std::max(1.0f, std::abs(expect(i, j)));
      EXPECT_LT(std::abs(expect(i, j) - got(i, j)) / denom, 1e-4f);
    }
  }
}

TEST(Integration, ZeroSparsityControlEqualsDenseGemm) {
  // The N = M = 32 control case of Fig. 7/8: the sparse pipeline on an
  // uncompressed operand must reproduce dense GEMM output exactly.
  Rng rng(906);
  const index_t m = 48, k = 64, n = 48;
  const MatrixF A = random_int_matrix(m, k, rng);
  MatrixF Bd = random_int_matrix(k, n, rng);
  const NMMask mask = magnitude_mask(Bd.view(), kSparsity0);
  const CompressedNM B = compress(Bd.view(), mask);
  MatrixF expect(m, n), got(m, n);
  gemm_reference(A.view(), Bd.view(), expect.view());
  NMSPMM_ASSERT_OK(SpmmPlan::create(m, B).execute(A.view(), got.view()));
  EXPECT_EQ(max_abs_diff(expect.cview(), got.cview()), 0.0);
}

TEST(Integration, SimulatedAndCpuKernelsShareColInfo) {
  // The same offline pre-processing feeds both substrates.
  Rng rng(907);
  const NMConfig cfg{1, 8, 16};
  const index_t m = 32, k = 128, n = 32;
  const MatrixF A = random_int_matrix(m, k, rng);
  const CompressedNM B = random_compressed_int(k, n, cfg, rng);
  BlockingParams p = table1_preset(SizeClass::kSmall);
  p.ks = 64;
  const ColInfo info = build_col_info(B, p.ks, p.ns);
  MatrixF cpu(m, n), sim_c(m, n);
  spmm_v2(A.view(), B, cpu.view(), p,
          PackedWeights::build(B, p.ks, p.ns,
                               PackedWeights::IndexKind::kRemapped, &info));
  gpusim::Simulator sim(gpusim::a100_80g());
  sim_nm_spmm_packed(sim, A.view(), B, sim_c.view(), p, info);
  EXPECT_EQ(max_abs_diff(cpu.cview(), sim_c.cview()), 0.0);
}

}  // namespace
}  // namespace nmspmm
