// Plan-time weight pre-packing (core/packed_weights.hpp):
//   - bit-exactness of the resident path against spmm_reference for all
//     variants, with forms packed up front and packed at the call,
//     across thread counts and ragged shapes;
//   - interning: plans for different batch-size buckets of one weight
//     matrix share a single PackedWeights;
//   - the steady-state serving hot path stages zero weight bytes
//     (pack_b_block call/byte counters stay flat across warm
//     engine.spmm calls) and performs no large per-call allocations
//     beyond per-worker A scratch;
//   - construction rejects ks beyond kMaxKs, the uint16 stream wrap
//     guard shared with validate_params;
//   - tiles are stored back to back: a short last k-chunk holds only its
//     wb rows of values and of index streams, no ws_full padding;
//   - values of 2 MiB and more are 2 MiB-aligned and, where transparent
//     huge pages are enabled, mapped on huge pages.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>

#include "core/nmspmm.hpp"
#include "core/pack.hpp"
#include "tests/testing.hpp"
#include "workloads/generators.hpp"

namespace {

// Large-allocation counter (same pattern as test_scratch_reuse): the
// steady-state assertion tolerates per-worker A scratch but fails if the
// resident path regresses to per-call weight staging (the Bs panel for
// the shapes below is > 100 KiB and would trip this immediately).
constexpr std::size_t kLargeAllocBytes = 4096;
std::atomic<std::uint64_t> g_large_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  if (size >= kLargeAllocBytes) {
    g_large_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

/// Every variant, against a form packed once up front and against one
/// packed at the call (from the caller's col_info where the kind needs
/// it), vs reference, on one (m, n, k, cfg, pool) instance.
void expect_all_variants_bit_exact(index_t m, index_t n, index_t k,
                                   const NMConfig& cfg, unsigned seed,
                                   ThreadPool* pool) {
  Rng rng(seed);
  const MatrixF A = random_int_matrix(m, k, rng);
  const CompressedNM B = random_compressed_int(k, n, cfg, rng);
  const MatrixF expect = run_reference(A.view(), B);
  const BlockingParams p = small_params(cfg, k);
  const ColInfo info = build_col_info(B, p.ks, p.ns);
  const auto packed_here = [&](PackedWeights::IndexKind kind) {
    return PackedWeights::build(
        B, p.ks, p.ns, kind,
        kind == PackedWeights::IndexKind::kRemapped ? &info : nullptr);
  };
  const PackedWeights direct = PackedWeights::build(
      B, p.ks, p.ns, PackedWeights::IndexKind::kDirect);
  const PackedWeights remapped = PackedWeights::build(
      B, p.ks, p.ns, PackedWeights::IndexKind::kRemapped);

  MatrixF C(m, n);
  auto check = [&](const char* what) {
    EXPECT_EQ(max_abs_diff(expect.cview(), C.cview()), 0.0)
        << what << " diverged at m=" << m << " n=" << n << " k=" << k
        << " threads=" << (pool != nullptr ? pool->size() : 1);
  };

  C.fill(-1.0f);  // poison: catches paths that forget the beta=0 store
  spmm_v1(A.view(), B, C.view(), p, direct, pool);
  check("V1 pre-packed");
  C.fill(-1.0f);
  spmm_v1(A.view(), B, C.view(), p,
          packed_here(PackedWeights::IndexKind::kDirect), pool);
  check("V1 packed at the call");
  C.fill(-1.0f);
  spmm_v2(A.view(), B, C.view(), p, remapped, pool);
  check("V2 pre-packed");
  C.fill(-1.0f);
  spmm_v2(A.view(), B, C.view(), p,
          packed_here(PackedWeights::IndexKind::kRemapped), pool);
  check("V2 packed at the call");
  C.fill(-1.0f);
  spmm_v3(A.view(), B, C.view(), p, /*use_packing=*/true, remapped, pool);
  check("V3 packed pre-packed");
  C.fill(-1.0f);
  spmm_v3(A.view(), B, C.view(), p, true,
          packed_here(PackedWeights::IndexKind::kRemapped), pool);
  check("V3 packed, packed at the call");
  C.fill(-1.0f);
  spmm_v3(A.view(), B, C.view(), p, /*use_packing=*/false, direct, pool);
  check("V3 non-packed pre-packed");
  C.fill(-1.0f);
  spmm_v3(A.view(), B, C.view(), p, false,
          packed_here(PackedWeights::IndexKind::kDirect), pool);
  check("V3 non-packed, packed at the call");
}

TEST(PackedWeights, AllVariantsBitExactSerial) {
  // Ragged shapes: m, n, k all off the block-size grid, k not a multiple
  // of M (window padding), n not a multiple of L (partial tail group).
  const NMConfig cfg{2, 4, 8};
  expect_all_variants_bit_exact(37, 150, 118, cfg, 11, nullptr);
  const NMConfig wide{4, 32, 16};
  expect_all_variants_bit_exact(9, 203, 97, wide, 12, nullptr);
}

TEST(PackedWeights, AllVariantsBitExactFourThreads) {
  ThreadPool pool(4);
  const NMConfig cfg{2, 4, 8};
  expect_all_variants_bit_exact(37, 150, 118, cfg, 11, &pool);
  // A single m-block, a wide L = 16 output.
  const NMConfig wide{4, 32, 16};
  expect_all_variants_bit_exact(9, 203, 97, wide, 12, &pool);
}

TEST(PackedWeights, TileValuesMatchPerCallStaging) {
  Rng rng(21);
  const NMConfig cfg = kSparsity75;
  // k = 224 leaves a short last chunk (32 of ks = 64).
  for (const index_t k : {256, 224}) {
    const index_t n = 200;
    const CompressedNM B = random_compressed_int(k, n, cfg, rng);
    const index_t ks = 64, ns = 64;
    const PackedWeights pw = PackedWeights::build(
        B, ks, ns, PackedWeights::IndexKind::kDirect);
    const index_t ldb = pw.ldb();
    const index_t ws = pw.ws_full();
    std::vector<float> staged(static_cast<std::size_t>(ws * ldb));
    for (index_t nb = 0; nb < pw.num_nblocks(); ++nb) {
      const index_t j0 = nb * ns;
      const index_t jb = std::min(ns, n - j0);
      for (index_t chunk = 0; chunk < pw.num_chunks(); ++chunk) {
        const index_t u0 = chunk * ws;
        const index_t wb = std::min(ws, B.rows() - u0);
        detail::pack_b_block(B.values.view(), u0, wb, j0, jb, staged.data(),
                             ldb);
        const float* tile = pw.tile_values(chunk, nb);
        for (index_t i = 0; i < wb * ldb; ++i) {
          ASSERT_EQ(staged[static_cast<std::size_t>(i)], tile[i])
              << "k=" << k << " tile (" << chunk << ", " << nb << ") offset "
              << i;
        }
      }
    }
  }
}

TEST(PackedWeights, TilesPackBackToBack) {
  Rng rng(22);
  const NMConfig cfg = kSparsity75;  // M = 32, L = 16
  // The decode layer's 2048-deep projections at ks = 608: chunks of
  // 152, 152, 152 and 56 compressed rows.
  const index_t k = 2048, n = 80, ks = 608, ns = 32;
  const CompressedNM B = random_compressed(k, n, cfg, rng);
  const PackedWeights pw = PackedWeights::build(
      B, ks, ns, PackedWeights::IndexKind::kDirect);
  ASSERT_EQ(pw.num_chunks(), 4);
  const index_t ldb = pw.ldb();
  const float* expect_tile = pw.tile_values(0, 0);
  for (index_t nb = 0; nb < pw.num_nblocks(); ++nb) {
    for (index_t chunk = 0; chunk < pw.num_chunks(); ++chunk) {
      const index_t wb =
          std::min(pw.ws_full(), B.rows() - chunk * pw.ws_full());
      EXPECT_EQ(pw.tile_values(chunk, nb), expect_tile)
          << "tile (" << chunk << ", " << nb << ") is not right after its "
             "predecessor";
      expect_tile += wb * ldb;
      // Each group's stream is wb long and the next group's follows it.
      const index_t g0 = nb * ns / cfg.vector_length;
      const index_t g1 =
          ceil_div(std::min(n, (nb + 1) * ns), cfg.vector_length);
      for (index_t g = g0 + 1; g < g1; ++g) {
        EXPECT_EQ(pw.tile_index_stream(chunk, nb, g),
                  pw.tile_index_stream(chunk, nb, g - 1) + wb);
      }
    }
  }
  EXPECT_EQ(pw.values_end(), expect_tile);
  // Values: every compressed row once per n-block at ldb width; index
  // streams: every compressed row once per column group.
  const std::size_t value_bytes = static_cast<std::size_t>(
      B.rows() * ldb * pw.num_nblocks()) * sizeof(float);
  const std::size_t index_bytes = static_cast<std::size_t>(
      B.rows() * ceil_div(n, cfg.vector_length)) * sizeof(std::uint16_t);
  EXPECT_EQ(pw.footprint_bytes(), value_bytes + index_bytes);
}

/// AnonHugePages (kB) of the /proc/self/smaps mapping that holds @p p;
/// -1 when smaps is unreadable or no mapping holds it.
long anon_huge_kb(const void* p) {
  std::ifstream smaps("/proc/self/smaps");
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  bool inside = false;
  std::string line;
  while (std::getline(smaps, line)) {
    unsigned long lo = 0, hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx", &lo, &hi) == 2) {
      inside = lo <= addr && addr < hi;
      continue;
    }
    long kb = 0;
    if (inside && std::sscanf(line.c_str(), "AnonHugePages: %ld", &kb) == 1) {
      return kb;
    }
  }
  return -1;
}

TEST(PackedWeights, LargeValuesSitOnHugePages) {
  // 512 compressed rows x 2048 columns: 4 MiB of values.
  Rng rng(23);
  const CompressedNM B = random_compressed(2048, 2048, kSparsity75, rng);
  const PackedWeights pw = PackedWeights::build(
      B, 64, 256, PackedWeights::IndexKind::kDirect);
  const float* values = pw.tile_values(0, 0);
  ASSERT_GE(static_cast<std::size_t>(pw.values_end() - values) *
                sizeof(float),
            kHugePageBytes);
  EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(values) % kHugePageBytes);

  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  std::getline(thp, mode);
  if (mode.empty() || mode.find("[never]") != std::string::npos) {
    GTEST_SKIP() << "transparent huge pages unavailable here (mode '" << mode
                 << "'): alignment checked, huge page mapping not";
  }
  EXPECT_GT(anon_huge_kb(values), 0)
      << "THP mode '" << mode << "' but no huge page backs the values";
}

TEST(PackedWeights, BatchBucketsShareOnePackedForm) {
  Rng rng(31);
  const index_t k = 256, n = 256;
  const auto B = std::make_shared<const CompressedNM>(
      random_compressed_int(k, n, kSparsity75, rng));

  Engine engine;
  // Pin the blocking so both buckets derive identical (ks, ns) even if
  // their size classes would differ.
  SpmmOptions opt;
  BlockingParams params = table1_preset(SizeClass::kSmall);
  params.ks = 64;
  opt.params = params;

  auto small_plan = engine.plan_for(4, B, opt);
  NMSPMM_ASSERT_OK(small_plan.status());
  auto large_plan = engine.plan_for(500, B, opt);
  NMSPMM_ASSERT_OK(large_plan.status());
  ASSERT_NE((*small_plan)->planned_m(), (*large_plan)->planned_m())
      << "buckets collapsed; the sharing assertion would be vacuous";
  EXPECT_EQ((*small_plan)->packed_weights().get(),
            (*large_plan)->packed_weights().get())
      << "batch-size buckets built separate PackedWeights for one "
         "weight matrix";
}

TEST(PackedWeights, SteadyStateStagesZeroWeightBytes) {
  Rng rng(41);
  const index_t m = 1, k = 512, n = 512;
  const auto B = std::make_shared<const CompressedNM>(
      random_compressed_int(k, n, kSparsity875, rng));
  const MatrixF A = random_int_matrix(m, k, rng);
  MatrixF C(m, n);

  for (const KernelVariant variant :
       {KernelVariant::kV1, KernelVariant::kV2, KernelVariant::kV3}) {
    Engine engine;
    SpmmOptions opt;
    opt.variant = variant;
    NMSPMM_ASSERT_OK(engine.spmm(A.view(), B, C.view(), opt));  // plan+warm

    const std::uint64_t calls_before = detail::pack_b_block_calls();
    const std::uint64_t bytes_before = detail::pack_b_block_bytes();
    const std::uint64_t allocs_before = g_large_allocs.load();
    for (int i = 0; i < 8; ++i) {
      NMSPMM_ASSERT_OK(engine.spmm(A.view(), B, C.view(), opt));
    }
    EXPECT_EQ(detail::pack_b_block_calls() - calls_before, 0u)
        << to_string(variant) << " re-staged weights in steady state";
    EXPECT_EQ(detail::pack_b_block_bytes() - bytes_before, 0u)
        << to_string(variant) << " copied weight bytes in steady state";
    // A staging is thread-local reusable scratch, so warm calls make no
    // large allocations at all (vs. the one-Bs-panel-per-tile regime
    // this guards against: 8 k-chunks x 8 n-blocks = 64 per call here).
    EXPECT_LT(g_large_allocs.load() - allocs_before, 8u)
        << to_string(variant) << " allocates on the warm serving path";

    MatrixF expect(m, n);
    spmm_reference(A.view(), *B, expect.view());
    EXPECT_EQ(max_abs_diff(expect.cview(), C.cview()), 0.0);
  }
}

TEST(PackedWeights, RejectsKsBeyondUint16Guard) {
  Rng rng(51);
  const NMConfig cfg{4, 32, 16};
  const CompressedNM B = random_compressed_int(256, 64, cfg, rng);
  // One window beyond the kMaxKs ceiling, still a multiple of M: the
  // flattened uint16 streams would wrap exactly like the staging buffers
  // validate_params guards.
  EXPECT_THROW(PackedWeights::build(B, kMaxKs + cfg.m, 64,
                                    PackedWeights::IndexKind::kDirect),
               CheckError);
  EXPECT_THROW(PackedWeights::build(B, kMaxKs + cfg.m, 64,
                                    PackedWeights::IndexKind::kRemapped),
               CheckError);
  // And the boundary itself stays constructible on a deep-enough matrix
  // in principle; here just confirm a legal ks still builds.
  EXPECT_NO_THROW(PackedWeights::build(B, 64, 64,
                                       PackedWeights::IndexKind::kDirect));
}

TEST(PackedWeights, KernelsRejectMismatchedPreprocessing) {
  Rng rng(61);
  const NMConfig cfg{1, 8, 8};
  const index_t m = 32, k = 128, n = 64;
  const MatrixF A = random_int_matrix(m, k, rng);
  const CompressedNM B = random_compressed_int(k, n, cfg, rng);
  const BlockingParams p = small_params(cfg, k);
  MatrixF C(m, n);
  // Pre-packed form built under a different blocking must be refused.
  BlockingParams other = p;
  other.ks = p.ks * 2 <= kMaxKs ? p.ks * 2 : p.ks / 2;
  const PackedWeights mismatched = PackedWeights::build(
      B, other.ks, other.ns, PackedWeights::IndexKind::kDirect);
  EXPECT_THROW(spmm_v1(A.view(), B, C.view(), p, mismatched), CheckError);
  // Kind mismatches are refused before touching the data.
  const PackedWeights direct = PackedWeights::build(
      B, p.ks, p.ns, PackedWeights::IndexKind::kDirect);
  EXPECT_THROW(spmm_v2(A.view(), B, C.view(), p, direct), CheckError);
  EXPECT_THROW(spmm_v3(A.view(), B, C.view(), p, /*use_packing=*/true,
                       direct),
               CheckError);
}

}  // namespace
}  // namespace nmspmm
