// Regression test for per-task scratch churn in the pooled kernel path:
// a_scratch / idxbuf used to be heap-allocated inside every parallel_for
// task for every (n-block, k-chunk) tile. The test counts large heap
// allocations during a warm plan execution — with per-worker scratch the
// count stays O(workers), not O(tiles * workers).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/nmspmm.hpp"
#include "tests/testing.hpp"
#include "workloads/generators.hpp"

namespace {

// Allocations at least this large are counted: the kernel's per-m-block A
// staging buffer (ms * lda floats = 8 KiB in this test) is well above it,
// while incidental small allocations (std::function, queue nodes) stay
// below — keeping the assertion insensitive to library internals.
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

TEST(ScratchReuse, PooledExecuteDoesNotAllocatePerTile) {
  Rng rng(700);
  const index_t m = 128, k = 512, n = 512;
  const auto B = std::make_shared<const CompressedNM>(
      random_compressed_int(k, n, kSparsity75, rng));

  // Small preset (ms = ns = 32) with ks = 64: 4 m-blocks, 16 n-blocks,
  // 8 k-chunks = 128 tiles, split over two pool threads.
  SpmmOptions opt;
  opt.num_threads = 2;
  BlockingParams params = table1_preset(SizeClass::kSmall);
  params.ks = 64;
  opt.params = params;
  const auto plan = SpmmPlan::create(m, B, opt);

  const MatrixF A = random_int_matrix(m, k, rng);
  MatrixF C(m, n);
  NMSPMM_ASSERT_OK(plan.execute(A.view(), C.view()));  // warm-up

  const std::uint64_t before = g_large_allocs.load();
  NMSPMM_ASSERT_OK(plan.execute(A.view(), C.view()));
  const std::uint64_t allocs = g_large_allocs.load() - before;

  // Pre-fix the pooled path allocated one >= 8 KiB A-staging buffer per
  // (tile, worker) = 128 * 2 = 256 large allocations per execute. With
  // per-worker scratch, one execute allocates at most one scratch set
  // per worker — single digits.
  EXPECT_LT(allocs, 32u) << "pooled path is heap-allocating per tile again";

  // And the result is still correct.
  MatrixF expect(m, n);
  spmm_reference(A.view(), *B, expect.view());
  EXPECT_EQ(max_abs_diff(expect.cview(), C.cview()), 0.0);
}

}  // namespace
}  // namespace nmspmm
