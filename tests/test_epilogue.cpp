// Epilogue fusion (core/epilogue.hpp): bias / SiLU / GELU / elementwise
// mul applied in the final k-chunk's micro-kernel stores must match the
// unfused reference path bit-for-bit — across ragged shapes, single and
// multiple k-chunks, 1 and 4 threads, every kernel variant, through
// both the plan and the kernel entry points.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/nmspmm.hpp"
#include "tests/testing.hpp"
#include "workloads/generators.hpp"

namespace nmspmm {
namespace {

/// Hand-rolled epilogue oracle, written independently of EpilogueApply:
/// v = acc + bias[j]; v = act(v) (or v *= act(other)); v *= other;
/// v += residual.
void hand_rolled(const EpilogueSpec& spec, const float* bias,
                 ConstViewF other, ConstViewF residual, ViewF C) {
  for (index_t i = 0; i < C.rows(); ++i) {
    for (index_t j = 0; j < C.cols(); ++j) {
      float v = C(i, j);
      if (spec.bias) v += bias[j];
      if (spec.act_on_other) {
        v *= apply_activation(spec.act, other(i, j));
      } else {
        v = apply_activation(spec.act, v);
        if (spec.mul) v *= other(i, j);
      }
      if (spec.add) v += residual(i, j);
      C(i, j) = v;
    }
  }
}

struct Problem {
  MatrixF a;
  std::shared_ptr<const CompressedNM> weights;
  std::vector<float> bias;
  MatrixF other;
  MatrixF residual;
};

Problem make_problem(index_t m, index_t k, index_t n, const NMConfig& cfg,
                     Rng& rng) {
  Problem p;
  p.a = random_int_matrix(m, k, rng);
  p.weights = std::make_shared<const CompressedNM>(
      random_compressed_int(k, n, cfg, rng));
  const MatrixF bias_row = random_int_matrix(1, n, rng);
  p.bias.assign(bias_row.row(0), bias_row.row(0) + n);
  p.other = random_int_matrix(m, n, rng);
  p.residual = random_int_matrix(m, n, rng);
  return p;
}

EpilogueArgs args_for(const Problem& p, const EpilogueSpec& spec) {
  EpilogueArgs args;
  if (spec.bias) args.bias = p.bias.data();
  if (spec.mul) args.other = p.other.cview();
  if (spec.add) args.residual = p.residual.cview();
  return args;
}

/// Unfused oracle: the exact same plan without an epilogue, followed by
/// the hand-rolled pass. Integer-valued operands make the accumulated
/// product identical on both paths, and both paths then run the same
/// scalar activation on the same value — so fused vs unfused must agree
/// bit-for-bit (well within the 1-ulp-scale budget).
/// The small preset with ks sized for a 32 KiB budget: several k-chunks
/// at k = 512.
BlockingParams small_ks_params(const NMConfig& cfg, index_t k) {
  BlockingParams params = table1_preset(SizeClass::kSmall);
  params.ks = derive_ks(cfg, params.ms, params.ns, 32 * 1024, k);
  return params;
}

MatrixF unfused_expect(const Problem& p, SpmmOptions opt,
                       const EpilogueSpec& spec) {
  opt.epilogue = EpilogueSpec{};
  const auto plan = SpmmPlan::create(p.a.rows(), p.weights, opt);
  MatrixF c(p.a.rows(), p.weights->cols);
  plan.execute(p.a.view(), c.view()).check_ok();
  hand_rolled(spec, p.bias.data(), p.other.cview(), p.residual.cview(),
              c.view());
  return c;
}

std::vector<EpilogueSpec> all_specs() {
  std::vector<EpilogueSpec> specs;
  {  // bias only
    EpilogueSpec s;
    s.bias = true;
    specs.push_back(s);
  }
  {  // silu only
    EpilogueSpec s;
    s.act = Activation::kSilu;
    specs.push_back(s);
  }
  {  // gelu only
    EpilogueSpec s;
    s.act = Activation::kGelu;
    specs.push_back(s);
  }
  {  // mul only
    EpilogueSpec s;
    s.mul = true;
    specs.push_back(s);
  }
  {  // bias + silu + mul
    EpilogueSpec s;
    s.bias = true;
    s.act = Activation::kSilu;
    s.mul = true;
    specs.push_back(s);
  }
  {  // SwiGLU shape: (acc + bias) * silu(other)
    EpilogueSpec s;
    s.bias = true;
    s.act = Activation::kSilu;
    s.mul = true;
    s.act_on_other = true;
    specs.push_back(s);
  }
  {  // residual only: C = AB + D (the skip connection alone)
    EpilogueSpec s;
    s.add = true;
    specs.push_back(s);
  }
  {  // projection + residual: C = (AB + bias) + D
    EpilogueSpec s;
    s.bias = true;
    s.add = true;
    specs.push_back(s);
  }
  {  // full gated shape with skip: (acc + bias) * silu(other) + D
    EpilogueSpec s;
    s.bias = true;
    s.act = Activation::kSilu;
    s.mul = true;
    s.act_on_other = true;
    s.add = true;
    specs.push_back(s);
  }
  {  // activation then residual: gelu(acc) + D
    EpilogueSpec s;
    s.act = Activation::kGelu;
    s.add = true;
    specs.push_back(s);
  }
  return specs;
}

TEST(Epilogue, ApplyEpilogueMatchesHandRolled) {
  Rng rng(41);
  const MatrixF acc = random_matrix(9, 35, rng);
  const MatrixF other = random_matrix(9, 35, rng);
  const MatrixF residual = random_matrix(9, 35, rng);
  const MatrixF bias_row = random_matrix(1, 35, rng);
  const std::vector<float> bias(bias_row.row(0), bias_row.row(0) + 35);
  for (const EpilogueSpec& spec : all_specs()) {
    MatrixF got = acc;
    MatrixF want = acc;
    EpilogueArgs args;
    if (spec.bias) args.bias = bias.data();
    if (spec.mul) args.other = other.cview();
    if (spec.add) args.residual = residual.cview();
    apply_epilogue(spec, args, got.view());
    hand_rolled(spec, bias.data(), other.cview(), residual.cview(),
                want.view());
    EXPECT_EQ(max_abs_diff(want.cview(), got.cview()), 0.0)
        << "spec act=" << to_string(spec.act) << " bias=" << spec.bias
        << " mul=" << spec.mul << " act_on_other=" << spec.act_on_other
        << " add=" << spec.add;
  }
}

TEST(Epilogue, ActivationsOnEveryDescriptionMatchScalarBitForBit) {
  // fast_exp / silu / gelu on each vector description against the
  // scalar functions, bit for bit: both clamp ends of fast_exp (|x| past
  // 126 / log2(e) ~ 87.3), signed zeros, denormals, the float range's
  // ends, and a dense sweep through the polynomial's working range.
  std::vector<float> xs = {200.0f,   -200.0f,  0.0f,     -0.0f,
                           1e-40f,   -1e-40f,  1.4e-45f, -1.4e-45f,
                           87.3f,    -87.3f,   88.8f,    -88.8f,
                           3.4e38f,  -3.4e38f, 1e-30f,   -1e-30f};
  for (int i = -3000; i < 3000; ++i) xs.push_back(0.0317f * i);
  const auto bits = [](float x) { return std::bit_cast<std::uint32_t>(x); };
  for_each_vec([&]<class Vec>() {
    float out[3][Vec::kWidth];
    for (std::size_t i = 0; i < xs.size(); i += Vec::kWidth) {
      const typename Vec::V x = Vec::load(xs.data() + i);
      Vec::store(out[0], detail::exp_of<Vec>(x));
      Vec::store(out[1], detail::silu_lanes<Vec>(x));
      Vec::store(out[2], detail::gelu_lanes<Vec>(x));
      for (int l = 0; l < Vec::kWidth; ++l) {
        const float xl = xs[i + static_cast<std::size_t>(l)];
        ASSERT_EQ(bits(fast_exp(xl)), bits(out[0][l]))
            << "fast_exp(" << xl << ") width " << Vec::kWidth;
        ASSERT_EQ(bits(silu(xl)), bits(out[1][l]))
            << "silu(" << xl << ") width " << Vec::kWidth;
        ASSERT_EQ(bits(gelu(xl)), bits(out[2][l]))
            << "gelu(" << xl << ") width " << Vec::kWidth;
      }
    }
  });
}

TEST(Epilogue, FusedMatchesUnfusedAcrossVariantsThreadsAndShapes) {
  Rng rng(42);
  const NMConfig cfg{2, 4, 16};
  // Ragged m (tail micro-kernels), ragged n (partial n-blocks and
  // pruning-group tails), k spanning one and several k-chunks.
  const struct {
    index_t m, k, n;
  } shapes[] = {{5, 64, 48}, {33, 256, 117}, {8, 512, 96}};
  for (const auto& shape : shapes) {
    Problem p = make_problem(shape.m, shape.k, shape.n, cfg, rng);
    for (const KernelVariant variant :
         {KernelVariant::kV1, KernelVariant::kV2, KernelVariant::kV3}) {
      for (const unsigned threads : {1u, 4u}) {
        SpmmOptions opt;
        opt.variant = variant;
        opt.num_threads = threads;
        opt.params = small_ks_params(cfg, shape.k);
        for (const EpilogueSpec& spec : all_specs()) {
          opt.epilogue = spec;
          const MatrixF want = unfused_expect(p, opt, spec);
          const auto plan = SpmmPlan::create(shape.m, p.weights, opt);
          MatrixF got(shape.m, shape.n);
          NMSPMM_ASSERT_OK(
              plan.execute(p.a.view(), got.view(), args_for(p, spec)));
          EXPECT_EQ(max_abs_diff(want.cview(), got.cview()), 0.0)
              << to_string(variant) << " threads=" << threads << " m="
              << shape.m << " n=" << shape.n << " act="
              << to_string(spec.act) << " bias=" << spec.bias << " mul="
              << spec.mul << " act_on_other=" << spec.act_on_other;
        }
      }
    }
  }
}

TEST(Epilogue, FusedMatchesUnfusedOnBothV3PackingPaths) {
  Rng rng(43);
  const NMConfig cfg{1, 8, 8};  // 87.5%: the packed path's home regime
  Problem p = make_problem(21, 192, 72, cfg, rng);
  EpilogueSpec spec;
  spec.act = Activation::kSilu;
  spec.mul = true;
  for (const PackingMode packing : {PackingMode::kAlways, PackingMode::kNever}) {
    SpmmOptions opt;
    opt.packing = packing;
    opt.params = small_ks_params(cfg, 192);
    opt.epilogue = spec;
    const MatrixF want = unfused_expect(p, opt, spec);
    const auto plan = SpmmPlan::create(21, p.weights, opt);
    MatrixF got(21, 72);
    NMSPMM_ASSERT_OK(plan.execute(p.a.view(), got.view(), args_for(p, spec)));
    EXPECT_EQ(max_abs_diff(want.cview(), got.cview()), 0.0)
        << "packing=" << static_cast<int>(packing);
  }
}

TEST(Epilogue, KernelEntryPointsApplyTheEpilogue) {
  Rng rng(44);
  const NMConfig cfg{2, 4, 8};
  Problem p = make_problem(19, 128, 88, cfg, rng);
  const BlockingParams params = small_ks_params(cfg, 128);
  EpilogueSpec spec;
  spec.bias = true;
  spec.act = Activation::kGelu;
  spec.mul = true;
  spec.add = true;
  const EpilogueArgs args = args_for(p, spec);

  // Unfused oracle straight from the reference kernel + hand-rolled pass.
  MatrixF want(19, 88);
  spmm_reference(p.a.view(), *p.weights, want.view());
  hand_rolled(spec, p.bias.data(), p.other.cview(), p.residual.cview(),
              want.view());

  const ColInfo info = build_col_info(*p.weights, params.ks, params.ns);
  const PackedWeights direct = PackedWeights::build(
      *p.weights, params.ks, params.ns, PackedWeights::IndexKind::kDirect);
  const PackedWeights remapped =
      PackedWeights::build(*p.weights, params.ks, params.ns,
                           PackedWeights::IndexKind::kRemapped, &info);

  MatrixF c1(19, 88);
  spmm_v1(p.a.view(), *p.weights, c1.view(), params, direct,
          /*pool=*/nullptr, spec, args);
  EXPECT_EQ(max_abs_diff(want.cview(), c1.cview()), 0.0) << "V1";

  MatrixF c2(19, 88);
  spmm_v2(p.a.view(), *p.weights, c2.view(), params, remapped,
          /*pool=*/nullptr, spec, args);
  EXPECT_EQ(max_abs_diff(want.cview(), c2.cview()), 0.0) << "V2";

  MatrixF c3p(19, 88);
  spmm_v3(p.a.view(), *p.weights, c3p.view(), params, /*use_packing=*/true,
          remapped, /*pool=*/nullptr, spec, args);
  EXPECT_EQ(max_abs_diff(want.cview(), c3p.cview()), 0.0) << "V3 packed";

  MatrixF c3n(19, 88);
  spmm_v3(p.a.view(), *p.weights, c3n.view(), params, /*use_packing=*/false,
          direct, /*pool=*/nullptr, spec, args);
  EXPECT_EQ(max_abs_diff(want.cview(), c3n.cview()), 0.0)
      << "V3 non-packed";
}

TEST(Epilogue, ReferenceOracleMatchesFusedPlan) {
  Rng rng(45);
  const NMConfig cfg{2, 4, 16};
  Problem p = make_problem(12, 96, 64, cfg, rng);
  EpilogueSpec spec;
  spec.act = Activation::kSilu;
  spec.mul = true;
  spec.act_on_other = true;

  // The unfused oracle: the Eq. 1 reference kernel, then the epilogue as
  // a separate pass.
  MatrixF want(12, 64);
  spmm_reference(p.a.view(), *p.weights, want.view());
  apply_epilogue(spec, args_for(p, spec), want.view());

  SpmmOptions opt;
  opt.epilogue = spec;
  const auto plan = SpmmPlan::create(12, p.weights, opt);
  MatrixF got(12, 64);
  NMSPMM_ASSERT_OK(plan.execute(p.a.view(), got.view(), args_for(p, spec)));
  EXPECT_EQ(max_abs_diff(want.cview(), got.cview()), 0.0);
}

TEST(Epilogue, FloatOperandsStayWithinUlpScaleOfReference) {
  // Non-integer operands: the blocked kernels accumulate in a different
  // order than the reference, so allow an accumulation-scale tolerance;
  // the epilogue itself must not widen it (same scalar ops both sides).
  Rng rng(46);
  const NMConfig cfg{2, 4, 16};
  const index_t m = 17, k = 256, n = 80;
  const MatrixF A = random_matrix(m, k, rng, -0.5f, 0.5f);
  const auto B = std::make_shared<const CompressedNM>(
      random_compressed(k, n, cfg, rng));
  const MatrixF other = random_matrix(m, n, rng);
  EpilogueSpec spec;
  spec.act = Activation::kSilu;
  spec.mul = true;

  MatrixF want(m, n);
  spmm_reference(A.view(), *B, want.view());
  hand_rolled(spec, nullptr, other.cview(), ConstViewF{}, want.view());

  SpmmOptions opt;
  opt.epilogue = spec;
  const auto plan = SpmmPlan::create(m, B, opt);
  MatrixF got(m, n);
  EpilogueArgs args;
  args.other = other.cview();
  NMSPMM_ASSERT_OK(plan.execute(A.view(), got.view(), args));
  EXPECT_LT(max_abs_diff(want.cview(), got.cview()), 1e-4);
}

TEST(Epilogue, ValidatesOperandsAndRejectsBadCombinations) {
  Rng rng(47);
  const NMConfig cfg{2, 4, 16};
  Problem p = make_problem(8, 64, 48, cfg, rng);
  EpilogueSpec spec;
  spec.bias = true;
  spec.mul = true;
  SpmmOptions opt;
  opt.epilogue = spec;
  const auto plan = SpmmPlan::create(8, p.weights, opt);
  MatrixF c(8, 48);

  // Missing bias pointer.
  EpilogueArgs no_bias;
  no_bias.other = p.other.cview();
  EXPECT_EQ(plan.execute(p.a.view(), c.view(), no_bias).code(),
            StatusCode::kInvalidArgument);
  // Missing / mis-shaped second operand.
  EpilogueArgs no_other;
  no_other.bias = p.bias.data();
  EXPECT_EQ(plan.execute(p.a.view(), c.view(), no_other).code(),
            StatusCode::kInvalidArgument);
  const MatrixF wrong(8, 32);
  EpilogueArgs bad_shape;
  bad_shape.bias = p.bias.data();
  bad_shape.other = wrong.cview();
  EXPECT_EQ(plan.execute(p.a.view(), c.view(), bad_shape).code(),
            StatusCode::kInvalidArgument);
  // Residual spec without (or with a mis-shaped) residual operand.
  EpilogueSpec add_spec;
  add_spec.add = true;
  SpmmOptions add_opt;
  add_opt.epilogue = add_spec;
  const auto add_plan = SpmmPlan::create(8, p.weights, add_opt);
  EXPECT_EQ(add_plan.execute(p.a.view(), c.view()).code(),
            StatusCode::kInvalidArgument);
  EpilogueArgs bad_residual;
  bad_residual.residual = wrong.cview();
  EXPECT_EQ(add_plan.execute(p.a.view(), c.view(), bad_residual).code(),
            StatusCode::kInvalidArgument);
  EpilogueArgs good_residual;
  good_residual.residual = p.residual.cview();
  NMSPMM_EXPECT_OK(add_plan.execute(p.a.view(), c.view(), good_residual));
  // The two-argument execute cannot satisfy an active spec.
  EXPECT_EQ(plan.execute(p.a.view(), c.view()).code(),
            StatusCode::kInvalidArgument);

  // act_on_other without mul has no operand to activate.
  SpmmOptions dangling;
  dangling.epilogue.act_on_other = true;
  dangling.epilogue.mul = false;
  dangling.epilogue.act = Activation::kSilu;
  EXPECT_THROW(SpmmPlan::create(8, p.weights, dangling), CheckError);

  // Engine surfaces the same misuse as Status instead of throwing.
  Engine engine;
  auto bad_plan = engine.plan_for(8, p.weights, dangling);
  EXPECT_EQ(bad_plan.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace nmspmm
