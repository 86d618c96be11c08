// Correctness of the V1/V2/V3 optimized kernels against the Eq. 1
// reference, across sparsity levels, vector lengths, padding edges, and
// both packing paths — and of V3's row walk against V1, which computes
// the same FMA chain through the per-group micro kernels.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <thread>
#include <tuple>
#include <utility>

#include "core/nmspmm.hpp"
#include "tests/testing.hpp"
#include "workloads/generators.hpp"

namespace nmspmm {
namespace {

MatrixF run_reference(ConstViewF A, const CompressedNM& B) {
  MatrixF C(A.rows(), B.cols);
  spmm_reference(A, B, C.view());
  return C;
}

BlockingParams small_params(const NMConfig& cfg, index_t k) {
  BlockingParams p = table1_preset(SizeClass::kSmall);
  p.ks = derive_ks(cfg, p.ms, p.ns, 32 * 1024, k);
  return p;
}

constexpr auto kDirect = PackedWeights::IndexKind::kDirect;
constexpr auto kRemapped = PackedWeights::IndexKind::kRemapped;

/// The resident form the kernels execute against, built for @p p.
PackedWeights pack(const CompressedNM& B, const BlockingParams& p,
                   PackedWeights::IndexKind kind,
                   const ColInfo* info = nullptr) {
  return PackedWeights::build(B, p.ks, p.ns, kind, info);
}

TEST(SpmmKernels, V1MatchesReferenceBasic) {
  Rng rng(1);
  const NMConfig cfg{2, 4, 8};
  const index_t m = 64, k = 64, n = 64;
  const MatrixF A = random_int_matrix(m, k, rng);
  const CompressedNM B = random_compressed_int(k, n, cfg, rng);
  const MatrixF expect = run_reference(A.view(), B);
  const BlockingParams p = small_params(cfg, k);
  MatrixF C(m, n);
  spmm_v1(A.view(), B, C.view(), p, pack(B, p, kDirect));
  EXPECT_EQ(max_abs_diff(expect.cview(), C.cview()), 0.0);
}

TEST(SpmmKernels, V2MatchesReferenceBasic) {
  Rng rng(2);
  const NMConfig cfg{1, 8, 8};
  const index_t m = 64, k = 128, n = 96;
  const MatrixF A = random_int_matrix(m, k, rng);
  const CompressedNM B = random_compressed_int(k, n, cfg, rng);
  const MatrixF expect = run_reference(A.view(), B);
  const BlockingParams p = small_params(cfg, k);
  const ColInfo info = build_col_info(B, p.ks, p.ns);
  MatrixF C(m, n);
  spmm_v2(A.view(), B, C.view(), p, pack(B, p, kRemapped, &info));
  EXPECT_EQ(max_abs_diff(expect.cview(), C.cview()), 0.0);
}

TEST(SpmmKernels, V3PackedMatchesReferenceBasic) {
  Rng rng(3);
  const NMConfig cfg{1, 8, 8};
  const index_t m = 48, k = 128, n = 96;
  const MatrixF A = random_int_matrix(m, k, rng);
  const CompressedNM B = random_compressed_int(k, n, cfg, rng);
  const MatrixF expect = run_reference(A.view(), B);
  const BlockingParams p = small_params(cfg, k);
  const ColInfo info = build_col_info(B, p.ks, p.ns);
  MatrixF C(m, n);
  spmm_v3(A.view(), B, C.view(), p, /*use_packing=*/true,
          pack(B, p, kRemapped, &info));
  EXPECT_EQ(max_abs_diff(expect.cview(), C.cview()), 0.0);
}

TEST(SpmmKernels, V3NonPackedMatchesReferenceBasic) {
  Rng rng(4);
  const NMConfig cfg{2, 4, 8};
  const index_t m = 48, k = 128, n = 96;
  const MatrixF A = random_int_matrix(m, k, rng);
  const CompressedNM B = random_compressed_int(k, n, cfg, rng);
  const MatrixF expect = run_reference(A.view(), B);
  const BlockingParams p = small_params(cfg, k);
  MatrixF C(m, n);
  spmm_v3(A.view(), B, C.view(), p, /*use_packing=*/false, pack(B, p, kDirect));
  EXPECT_EQ(max_abs_diff(expect.cview(), C.cview()), 0.0);
}

TEST(SpmmKernels, V2RequiresMatchingColInfo) {
  Rng rng(5);
  const NMConfig cfg{2, 4, 8};
  const CompressedNM B = random_compressed_int(64, 64, cfg, rng);
  BlockingParams p = small_params(cfg, 64);
  const ColInfo info = build_col_info(B, p.ks, p.ns);
  BlockingParams wrong = p;
  wrong.ns = 64;
  if (wrong.ns == p.ns) wrong.ns = 32;
  const MatrixF A = random_int_matrix(32, 64, rng);
  MatrixF C(32, 64);
  // col_info for one blocking cannot pack for another, and a form packed
  // for one blocking cannot run under another.
  EXPECT_THROW(pack(B, wrong, kRemapped, &info), CheckError);
  const PackedWeights packed = pack(B, p, kRemapped, &info);
  EXPECT_THROW(spmm_v2(A.view(), B, C.view(), wrong, packed), CheckError);
}

TEST(SpmmKernels, MismatchedShapesThrow) {
  Rng rng(7);
  const NMConfig cfg{2, 4, 8};
  const CompressedNM B = random_compressed_int(64, 64, cfg, rng);
  const MatrixF A = random_int_matrix(32, 48, rng);  // wrong depth
  MatrixF C(32, 64);
  const BlockingParams p = small_params(cfg, 64);
  const PackedWeights packed = pack(B, p, kDirect);
  EXPECT_THROW(spmm_v1(A.view(), B, C.view(), p, packed), CheckError);
}

TEST(SpmmKernels, OverwritesStaleOutput) {
  Rng rng(8);
  const NMConfig cfg{2, 4, 8};
  const index_t m = 40, k = 64, n = 48;
  const MatrixF A = random_int_matrix(m, k, rng);
  const CompressedNM B = random_compressed_int(k, n, cfg, rng);
  const MatrixF expect = run_reference(A.view(), B);
  MatrixF C(m, n);
  C.fill(123.0f);  // stale garbage must not leak into the result
  const BlockingParams p = small_params(cfg, k);
  spmm_v1(A.view(), B, C.view(), p, pack(B, p, kDirect));
  EXPECT_EQ(max_abs_diff(expect.cview(), C.cview()), 0.0);
}

// ---------------------------------------------------------------------------
// Property sweep: every kernel variant must agree exactly with the
// reference for all combinations of sparsity config, vector length and
// awkward (non-multiple) shapes.

struct SweepCase {
  NMConfig cfg;
  index_t m, k, n;
};

class KernelSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(KernelSweep, AllVariantsMatchReference) {
  const SweepCase& c = GetParam();
  Rng rng(0xC0FFEE ^ static_cast<std::uint64_t>(c.m * 131 + c.k * 17 + c.n));
  const MatrixF A = random_int_matrix(c.m, c.k, rng);
  const CompressedNM B = random_compressed_int(c.k, c.n, c.cfg, rng);
  const MatrixF expect = run_reference(A.view(), B);

  const BlockingParams p = small_params(c.cfg, c.k);
  const ColInfo info = build_col_info(B, p.ks, p.ns);
  const PackedWeights direct = pack(B, p, kDirect);
  const PackedWeights remapped = pack(B, p, kRemapped, &info);

  MatrixF C(c.m, c.n);
  spmm_v1(A.view(), B, C.view(), p, direct);
  EXPECT_EQ(max_abs_diff(expect.cview(), C.cview()), 0.0) << "V1";

  spmm_v2(A.view(), B, C.view(), p, remapped);
  EXPECT_EQ(max_abs_diff(expect.cview(), C.cview()), 0.0) << "V2";

  spmm_v3(A.view(), B, C.view(), p, true, remapped);
  EXPECT_EQ(max_abs_diff(expect.cview(), C.cview()), 0.0) << "V3 packed";

  spmm_v3(A.view(), B, C.view(), p, false, direct);
  EXPECT_EQ(max_abs_diff(expect.cview(), C.cview()), 0.0) << "V3 non-packed";
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  const NMConfig configs[] = {
      {2, 4, 4},  {1, 4, 8},   {2, 4, 16},  {4, 8, 8},  {2, 8, 16},
      {1, 8, 4},  {16, 32, 16}, {8, 32, 16}, {4, 32, 16}, {12, 32, 16},
      {32, 32, 16},             // 0% sparsity control
      {3, 7, 5},                // deliberately awkward N:M and L
      {1, 16, 32},
  };
  const std::tuple<index_t, index_t, index_t> shapes[] = {
      {33, 64, 64},    // ragged m
      {64, 100, 64},   // k not a multiple of M for several configs
      {64, 64, 70},    // ragged n (partial group at the edge)
      {17, 52, 39},    // everything ragged
      {128, 256, 160}, // spans multiple chunks and blocks
      {1, 64, 16},     // single activation row
  };
  for (const auto& cfg : configs)
    for (const auto& [m, k, n] : shapes) cases.push_back({cfg, m, k, n});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Shapes, KernelSweep,
                         ::testing::ValuesIn(sweep_cases()),
                         [](const auto& info) {
                           const SweepCase& c = info.param;
                           return std::to_string(c.cfg.n) + "_" +
                                  std::to_string(c.cfg.m) + "_L" +
                                  std::to_string(c.cfg.vector_length) + "_m" +
                                  std::to_string(c.m) + "_k" +
                                  std::to_string(c.k) + "_n" +
                                  std::to_string(c.n);
                         });

bool same_bits(ConstViewF a, ConstViewF b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (index_t i = 0; i < a.rows(); ++i) {
    if (std::memcmp(a.row(i), b.row(i),
                    static_cast<std::size_t>(a.cols()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// Kernel-level pool plumbing: explicit pools of 2-4 workers give the
// serial bits on both sides of spmm_blocked's work split — n-blocks enough
// to cover the workers (whole n-blocks per worker), and one or two
// n-blocks whose m-blocks are split across the workers too. Ragged m and
// n tails, a ragged last k-chunk, an active epilogue, and float operands,
// so a changed accumulation order would show in the bits.
TEST(SpmmKernels, ExplicitPoolBitExactOnBothPartitionAxes) {
  Rng rng(10);
  const NMConfig cfg = kSparsity75;  // L = 16: V3's non-packed path walks
  const index_t k = 200;             // ks = 64: chunks of 64, 64, 64, 32
  struct Shape {
    index_t m, n;
  };
  // ms = ns = 32: nine n-blocks over two m-blocks, then one and two
  // n-blocks over eight m-blocks.
  const Shape shapes[] = {{45, 269}, {250, 27}, {250, 45}};
  EpilogueSpec spec;
  spec.bias = true;
  spec.act = Activation::kSilu;
  spec.mul = true;
  spec.add = true;
  ThreadPool pool2(2), pool3(3), pool4(4);

  for (const Shape s : shapes) {
    const MatrixF A = random_matrix(s.m, k, rng);
    const CompressedNM B = random_compressed(k, s.n, cfg, rng);
    BlockingParams p = table1_preset(SizeClass::kSmall);
    p.ks = 64;
    ASSERT_EQ(p.ms, 32);
    ASSERT_EQ(p.ns, 32);
    const ColInfo info = build_col_info(B, p.ks, p.ns);
    const PackedWeights direct = pack(B, p, kDirect);
    const PackedWeights remapped = pack(B, p, kRemapped, &info);
    const MatrixF bias = random_matrix(1, s.n, rng);
    const MatrixF other = random_matrix(s.m, s.n, rng);
    const MatrixF resid = random_matrix(s.m, s.n, rng);
    EpilogueArgs args;
    args.bias = bias.data();
    args.other = other.cview();
    args.residual = resid.cview();

    using Kernel = std::function<void(ViewF, ThreadPool*)>;
    const std::pair<const char*, Kernel> kernels[] = {
        {"V1",
         [&](ViewF C, ThreadPool* pool) {
           spmm_v1(A.cview(), B, C, p, direct, pool, spec, args);
         }},
        {"V2",
         [&](ViewF C, ThreadPool* pool) {
           spmm_v2(A.cview(), B, C, p, remapped, pool, spec, args);
         }},
        {"V3 walk",
         [&](ViewF C, ThreadPool* pool) {
           spmm_v3(A.cview(), B, C, p, false, direct, pool, spec, args);
         }},
        {"V3 packed",
         [&](ViewF C, ThreadPool* pool) {
           spmm_v3(A.cview(), B, C, p, true, remapped, pool, spec, args);
         }},
    };
    for (const auto& [name, kernel] : kernels) {
      MatrixF serial(s.m, s.n);
      kernel(serial.view(), nullptr);
      for (ThreadPool* pool : {&pool2, &pool3, &pool4}) {
        MatrixF C(s.m, s.n);
        C.fill(-7.0f);  // poison: the first chunk must store, not add
        kernel(C.view(), pool);
        EXPECT_TRUE(same_bits(C.cview(), serial.cview()))
            << name << " m=" << s.m << " n=" << s.n
            << " threads=" << pool->size();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Row walk: V3's non-packed path walks each 32-column tile strip once
// per 8-row strip of the m-block, in every build. Float-valued
// operands, so a changed accumulation order would show in the bits.

TEST(RowWalk, SelectionPredicatePinsTheDecodeShapes) {
  const NMConfig l16 = kSparsity75;
  EXPECT_TRUE(takes_row_walk(KernelVariant::kV3, false, l16));
  // V1, V2 and V3-packed keep their kernels (the ablation ladder).
  EXPECT_FALSE(takes_row_walk(KernelVariant::kV1, false, l16));
  EXPECT_FALSE(takes_row_walk(KernelVariant::kV2, true, l16));
  EXPECT_FALSE(takes_row_walk(KernelVariant::kV3, true, l16));
  // Only L = 16 pruning units.
  EXPECT_FALSE(takes_row_walk(KernelVariant::kV3, false, NMConfig{2, 4, 8}));
  EXPECT_FALSE(takes_row_walk(KernelVariant::kV3, false, NMConfig{1, 16, 32}));

  // The serving default (V3 under PackingMode::kAuto) walks at every
  // batch size: decode batches and prompts alike.
  Rng rng(70);
  const auto B = std::make_shared<const CompressedNM>(
      random_compressed(512, 256, l16, rng));
  Engine engine;
  for (const index_t m : {1, 4, 8, 9, 64, 256}) {
    auto plan = engine.plan_for(m, B);
    NMSPMM_ASSERT_OK(plan.status());
    EXPECT_TRUE(takes_row_walk((*plan)->variant(), (*plan)->uses_packing(),
                               B->config))
        << "batch of " << m;
  }
}

struct WalkShape {
  index_t k, n, ns;
};

// V3's non-packed path equals V1 bit for bit at every batch size: both
// run the same p-ascending FMA chain per element, V1 through the
// per-group micro kernels and V3 through the row walk. The fused
// epilogue equals the unfused oracle, and the product stays within
// tolerance of spmm_reference.
TEST(RowWalk, MatchesV1BitForBit) {
  Rng rng(71);
  const NMConfig cfg = kSparsity75;  // L = 16, M = 32
  const WalkShape shapes[] = {
      {160, 256, 32},  // n % 32 == 0, ragged last chunk (64, 64, 32)
      {200, 208, 32},  // n % 32 == 16, k % M != 0 (A staging branch)
      {200, 203, 32},  // n % 32 == 11
      {256, 203, 64},  // ns = 64: two strips per n-block, ragged last one
      {256, 120, 64},  // a 24-column last strip (second group masked)
  };
  // ms = 32: m = 40 and 100 end in a ragged m-block, m = 9 and 17 in a
  // one-row 8-row strip. With 4 workers, n = 120 at ns = 64 (two
  // n-blocks) splits m-blocks too; the rest split n-blocks only.
  const index_t batch_rows[] = {1, 7, 8, 9, 17, 40, 64, 100};
  EpilogueSpec bias;
  bias.bias = true;
  EpilogueSpec swiglu;
  swiglu.act = Activation::kSilu;
  swiglu.mul = true;
  swiglu.act_on_other = true;
  EpilogueSpec residual;
  residual.add = true;
  const EpilogueSpec specs[] = {EpilogueSpec{}, bias, swiglu, residual};
  ThreadPool pool4(4);

  for (const WalkShape& s : shapes) {
    const CompressedNM B = random_compressed(s.k, s.n, cfg, rng);
    BlockingParams p = table1_preset(SizeClass::kSmall);
    p.ks = 64;
    p.ns = s.ns;
    ASSERT_EQ(p.ms, 32);
    const PackedWeights packed = pack(B, p, kDirect);
    const MatrixF bias_row = random_matrix(1, s.n, rng);
    for (const index_t m : batch_rows) {
      const MatrixF A = random_matrix(m, s.k, rng);
      const MatrixF other = random_matrix(m, s.n, rng);
      const MatrixF resid = random_matrix(m, s.n, rng);
      EpilogueArgs args;
      args.bias = bias_row.data();
      args.other = other.cview();
      args.residual = resid.cview();
      for (const EpilogueSpec& spec : specs) {
        for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool4}) {
          const std::string where =
              "k=" + std::to_string(s.k) + " n=" + std::to_string(s.n) +
              " ns=" + std::to_string(s.ns) + " m=" + std::to_string(m) +
              " threads=" + std::to_string(pool != nullptr ? 4 : 1) +
              " epilogue=" + std::to_string(spec.bias) +
              std::to_string(spec.mul) + std::to_string(spec.add);
          MatrixF v1(m, s.n);
          spmm_v1(A.cview(), B, v1.view(), p, packed, pool, spec, args);
          MatrixF C(m, s.n);
          C.fill(-7.0f);  // poison: the first chunk must store, not add
          spmm_v3(A.cview(), B, C.view(), p, false, packed, pool, spec,
                  args);
          EXPECT_TRUE(same_bits(C.cview(), v1.cview())) << where;

          MatrixF unfused(m, s.n);
          spmm_v3(A.cview(), B, unfused.view(), p, false, packed, pool);
          apply_epilogue(spec, args, unfused.view());
          EXPECT_TRUE(same_bits(C.cview(), unfused.cview())) << where;

          MatrixF expect(m, s.n);
          spmm_reference(A.cview(), B, expect.view());
          apply_epilogue(spec, args, expect.view());
          EXPECT_LT(max_abs_diff(expect.cview(), C.cview()), 1e-4) << where;
        }
      }
    }
  }
}

// The walk stages A once per call into k-major 8-row strips. A column
// sub-view of a wider matrix (A.ld() > A.cols()) must stage the view's
// columns only, with k % M != 0 padding the last window and m % 8 != 0
// leaving a ragged last strip.
TEST(RowWalk, StagesColumnSubViewOfA) {
  Rng rng(73);
  const NMConfig cfg = kSparsity75;  // M = 32
  const index_t k = 200, n = 203;
  const CompressedNM B = random_compressed(k, n, cfg, rng);
  BlockingParams p = table1_preset(SizeClass::kSmall);
  p.ks = 64;
  const PackedWeights packed = pack(B, p, kDirect);
  ThreadPool pool4(4);
  for (const index_t m : {3, 13, 100}) {
    const MatrixF wide = random_matrix(m, k + 37, rng);
    const ConstViewF A = wide.cview().block(0, 5, m, k);
    ASSERT_GT(A.ld(), A.cols());
    MatrixF dense_a(m, k);
    for (index_t i = 0; i < m; ++i) {
      std::memcpy(dense_a.row(i), A.row(i),
                  static_cast<std::size_t>(k) * sizeof(float));
    }
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool4}) {
      const std::string where =
          "m=" + std::to_string(m) +
          " threads=" + std::to_string(pool != nullptr ? 4 : 1);
      MatrixF v1(m, n);
      spmm_v1(dense_a.cview(), B, v1.view(), p, packed, pool);
      MatrixF C(m, n);
      C.fill(-7.0f);
      spmm_v3(A, B, C.view(), p, false, packed, pool);
      EXPECT_TRUE(same_bits(C.cview(), v1.cview())) << where;
    }
  }
}

// Two callers share one 4-worker plan: each stages its own A in its own
// thread's buffer, and the pool's workers must read the staging of the
// call they work for. Both sides of the work split: ns = 32 gives seven
// n-blocks, whole n-blocks per worker; ns = 128 gives two, and m = 100's
// four m-blocks are split too.
TEST(RowWalk, ConcurrentCallersOnOnePooledPlan) {
  Rng rng(74);
  const index_t k = 200, n = 203;
  const auto B = std::make_shared<const CompressedNM>(
      random_compressed(k, n, kSparsity75, rng));
  for (const index_t ns : {32, 128}) {
    BlockingParams p = table1_preset(SizeClass::kSmall);
    p.ks = 64;
    p.ns = ns;
    SpmmOptions opt;
    opt.params = p;
    SpmmOptions serial_opt = opt;
    serial_opt.num_threads = 1;
    opt.num_threads = 4;
    for (const index_t m : {9, 100}) {
      const SpmmPlan plan = SpmmPlan::create(m, B, opt);
      const SpmmPlan serial = SpmmPlan::create(m, B, serial_opt);
      ASSERT_EQ(plan.variant(), KernelVariant::kV3);
      ASSERT_FALSE(plan.uses_packing());
      const MatrixF a0 = random_matrix(m, k, rng);
      const MatrixF a1 = random_matrix(m, k, rng);
      MatrixF want0(m, n), want1(m, n);
      NMSPMM_ASSERT_OK(serial.execute(a0.cview(), want0.view()));
      NMSPMM_ASSERT_OK(serial.execute(a1.cview(), want1.view()));

      constexpr int kRounds = 20;
      auto caller = [&](const MatrixF& a, const MatrixF& want, int* bad) {
        MatrixF C(m, n);
        for (int r = 0; r < kRounds; ++r) {
          C.fill(-7.0f);
          if (!plan.execute(a.cview(), C.view()).ok() ||
              !same_bits(C.cview(), want.cview())) {
            ++*bad;
          }
        }
      };
      int bad0 = 0, bad1 = 0;
      std::thread t0(caller, std::cref(a0), std::cref(want0), &bad0);
      std::thread t1(caller, std::cref(a1), std::cref(want1), &bad1);
      t0.join();
      t1.join();
      EXPECT_EQ(bad0, 0) << "ns=" << ns << " m=" << m;
      EXPECT_EQ(bad1, 0) << "ns=" << ns << " m=" << m;
    }
  }
}

// The RMSNorm prologue stages normalized rows before the walk reads
// them: through an SpmmPlan the small batch still matches the 64-row
// batch and the unfused normalize-then-multiply pipeline exactly.
TEST(RowWalk, RmsNormPrologueThroughSpmmPlan) {
  Rng rng(72);
  const index_t k = 200, n = 203;
  const auto B = std::make_shared<const CompressedNM>(
      random_compressed(k, n, kSparsity75, rng));
  const MatrixF A64 = random_matrix(64, k, rng);
  const MatrixF gain = random_matrix(1, k, rng, 0.5f, 1.5f);
  BlockingParams p = table1_preset(SizeClass::kSmall);
  p.ks = 64;
  for (const unsigned threads : {1u, 4u}) {
    SpmmOptions opt;
    opt.params = p;
    opt.num_threads = threads;
    SpmmOptions normed_opt = opt;
    normed_opt.prologue.rmsnorm = true;
    const SpmmPlan plan = SpmmPlan::create(64, B, opt);
    const SpmmPlan normed_plan = SpmmPlan::create(64, B, normed_opt);
    ASSERT_EQ(normed_plan.variant(), KernelVariant::kV3);
    ASSERT_FALSE(normed_plan.uses_packing());
    EpilogueArgs args;
    args.rms_gain = gain.data();

    MatrixF C64(64, n);
    NMSPMM_ASSERT_OK(normed_plan.execute(A64.cview(), C64.view(), args));
    for (const index_t m : {1, 3, 7, 8}) {
      const index_t r0 = 40;
      const ConstViewF A = A64.cview().block(r0, 0, m, k);
      MatrixF C(m, n);
      NMSPMM_ASSERT_OK(normed_plan.execute(A, C.view(), args));
      EXPECT_TRUE(same_bits(C.cview(), C64.cview().block(r0, 0, m, n)))
          << "m=" << m << " threads=" << threads;

      MatrixF normed(m, k);
      rmsnorm_rows(A, gain.data(), normed_opt.prologue.eps, normed.view());
      MatrixF unfused(m, n);
      NMSPMM_ASSERT_OK(plan.execute(normed.cview(), unfused.view()));
      EXPECT_TRUE(same_bits(C.cview(), unfused.cview()))
          << "m=" << m << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace nmspmm
