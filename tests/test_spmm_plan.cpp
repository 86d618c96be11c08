// Public SpmmPlan API: auto-dispatch (variant, packing threshold, Table I
// preset selection), correctness through the plan, and precondition
// failures (reported as Status, not thrown).
#include <gtest/gtest.h>

#include "core/nmspmm.hpp"
#include "tests/testing.hpp"
#include "workloads/generators.hpp"

namespace nmspmm {
namespace {

MatrixF reference_for(ConstViewF A, const CompressedNM& B) {
  MatrixF C(A.rows(), B.cols);
  spmm_reference(A, B, C.view());
  return C;
}

TEST(SpmmPlan, DefaultPlanMatchesReference) {
  Rng rng(41);
  const index_t m = 96, k = 128, n = 96;
  const MatrixF A = random_int_matrix(m, k, rng);
  const CompressedNM B = random_compressed_int(k, n, NMConfig{2, 8, 16}, rng);
  const MatrixF expect = reference_for(A.view(), B);
  auto plan = SpmmPlan::create(m, B);
  MatrixF C(m, n);
  NMSPMM_ASSERT_OK(plan.execute(A.view(), C.view()));
  EXPECT_EQ(max_abs_diff(expect.cview(), C.cview()), 0.0);
}

TEST(SpmmPlan, PaperRulePacksAbove70Percent) {
  Rng rng(42);
  auto moderate = std::make_shared<const CompressedNM>(
      random_compressed_int(64, 64, kSparsity50, rng));
  auto high = std::make_shared<const CompressedNM>(
      random_compressed_int(64, 64, kSparsity875, rng));
  SpmmOptions paper;
  paper.packing = PackingMode::kPaperRule;
  EXPECT_FALSE(SpmmPlan::create(64, moderate, paper).uses_packing());
  EXPECT_TRUE(SpmmPlan::create(64, high, paper).uses_packing());
}

TEST(SpmmPlan, AutoPackingIsPlatformCalibrated) {
  // On the CPU substrate the non-packed path wins at every sparsity, so
  // kAuto never packs (see PackingMode documentation).
  Rng rng(42);
  auto high = std::make_shared<const CompressedNM>(
      random_compressed_int(64, 64, kSparsity875, rng));
  EXPECT_FALSE(SpmmPlan::create(64, high).uses_packing());
}

TEST(SpmmPlan, PackingOverridesRespected) {
  Rng rng(43);
  const CompressedNM B = random_compressed_int(64, 64, kSparsity50, rng);
  SpmmOptions always;
  always.packing = PackingMode::kAlways;
  EXPECT_TRUE(SpmmPlan::create(64, B, {}).uses_packing() == false);
  auto shared = std::make_shared<const CompressedNM>(B);
  EXPECT_TRUE(SpmmPlan::create(64, shared, always).uses_packing());
  SpmmOptions never;
  never.packing = PackingMode::kNever;
  EXPECT_FALSE(SpmmPlan::create(64, shared, never).uses_packing());
}

TEST(SpmmPlan, EveryVariantMatchesReference) {
  Rng rng(44);
  const index_t m = 80, k = 96, n = 80;
  const MatrixF A = random_int_matrix(m, k, rng);
  for (const NMConfig cfg : {kSparsity50, kSparsity875}) {
    const CompressedNM B = random_compressed_int(k, n, cfg, rng);
    const MatrixF expect = reference_for(A.view(), B);
    auto shared = std::make_shared<const CompressedNM>(B);
    for (const KernelVariant v :
         {KernelVariant::kV1, KernelVariant::kV2, KernelVariant::kV3}) {
      SpmmOptions opt;
      opt.variant = v;
      MatrixF C(m, n);
      NMSPMM_ASSERT_OK(
          SpmmPlan::create(m, shared, opt).execute(A.view(), C.view()));
      EXPECT_EQ(max_abs_diff(expect.cview(), C.cview()), 0.0)
          << to_string(v) << " at " << cfg.to_string();
    }
  }
}

TEST(SpmmPlan, SmallerBatchThanPlanned) {
  Rng rng(45);
  const index_t k = 64, n = 64;
  const CompressedNM B = random_compressed_int(k, n, NMConfig{2, 4, 16}, rng);
  auto plan = SpmmPlan::create(256, B);
  const MatrixF A = random_int_matrix(33, k, rng);
  const MatrixF expect = reference_for(A.view(), B);
  MatrixF C(33, n);
  NMSPMM_ASSERT_OK(plan.execute(A.view(), C.view()));
  EXPECT_EQ(max_abs_diff(expect.cview(), C.cview()), 0.0);
}

TEST(SpmmPlan, LargerBatchThanPlannedIsFailedPrecondition) {
  // The seed silently accepted oversized batches (undefined behavior for
  // blocking parameters chosen for a smaller m); now it is a clear error.
  Rng rng(45);
  const index_t k = 64, n = 64;
  const CompressedNM B = random_compressed_int(k, n, NMConfig{2, 4, 16}, rng);
  auto plan = SpmmPlan::create(32, B);
  EXPECT_EQ(plan.planned_m(), 32);
  const MatrixF A = random_int_matrix(64, k, rng);
  MatrixF C(64, n);
  const Status s = plan.execute(A.view(), C.view());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("planned m"), std::string::npos);
}

TEST(SpmmPlan, PresetTracksProblemSize) {
  Rng rng(47);
  const CompressedNM small = random_compressed_int(512, 512, kSparsity50, rng);
  EXPECT_EQ(SpmmPlan::create(512, small).params().ms, 32);
  // A large problem picks the large preset (64 x 128 blocks).
  const CompressedNM big = random_compressed_int(4096, 4096, kSparsity50, rng);
  const auto plan = SpmmPlan::create(4096, big);
  EXPECT_EQ(plan.params().ms, 64);
  EXPECT_EQ(plan.params().ns, 128);
}

TEST(SpmmPlan, PackingRatioReportedOnlyWhenPacking) {
  Rng rng(48);
  const CompressedNM high = random_compressed_int(128, 128, kSparsity875, rng);
  SpmmOptions paper;
  paper.packing = PackingMode::kPaperRule;
  const auto packed = SpmmPlan::create(
      128, std::make_shared<const CompressedNM>(high), paper);
  EXPECT_TRUE(packed.uses_packing());
  EXPECT_GT(packed.packing_ratio(), 0.0);
  EXPECT_LE(packed.packing_ratio(), 1.0);
  const CompressedNM low = random_compressed_int(128, 128, kSparsity50, rng);
  EXPECT_DOUBLE_EQ(SpmmPlan::create(128, low).packing_ratio(), 1.0);
}

TEST(SpmmPlan, RejectsBadInputs) {
  Rng rng(49);
  const CompressedNM B = random_compressed_int(64, 64, kSparsity50, rng);
  EXPECT_THROW(SpmmPlan::create(0, B), CheckError);
  auto plan = SpmmPlan::create(32, B);
  const MatrixF wrong_depth = random_int_matrix(32, 48, rng);
  MatrixF C(32, 64);
  const Status depth = plan.execute(wrong_depth.view(), C.view());
  EXPECT_EQ(depth.code(), StatusCode::kInvalidArgument);
  const MatrixF A = random_int_matrix(32, 64, rng);
  MatrixF wrong_out(32, 48);
  const Status out = plan.execute(A.view(), wrong_out.view());
  EXPECT_EQ(out.code(), StatusCode::kInvalidArgument);
}

TEST(SpmmPlan, ExplicitParamsHonored) {
  Rng rng(50);
  const CompressedNM B = random_compressed_int(128, 128, kSparsity75, rng);
  SpmmOptions opt;
  BlockingParams p = table1_preset(SizeClass::kMedium);
  p.ks = 0;  // let the plan derive it
  opt.params = p;
  const auto plan = SpmmPlan::create(64, B, opt);
  EXPECT_EQ(plan.params().ms, 32);
  EXPECT_EQ(plan.params().ns, 64);
  EXPECT_GT(plan.params().ks, 0);
}

}  // namespace
}  // namespace nmspmm
