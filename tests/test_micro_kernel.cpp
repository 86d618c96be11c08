// Unit tests of the inner-kernel building blocks: the index provider,
// the APanel addressing modes, the SIMD micro kernels at every fast-path
// width, the row walk at every row count, and the packing (copy-in)
// routines.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <type_traits>
#include <vector>

#include "core/micro_kernel.hpp"
#include "core/pack.hpp"
#include "workloads/generators.hpp"

namespace nmspmm::detail {
namespace {

TEST(IdxFromBuffer, ReadsContiguous) {
  const std::uint16_t buf[] = {2, 4, 6};
  IdxFromBuffer idx{buf};
  EXPECT_EQ(idx(2), 6);
}

TEST(APanel, ShiftedRowsOffsetsBase) {
  float data[64];
  APanel a{data, 8, 1};
  const APanel shifted = a.shifted_rows(3);
  EXPECT_EQ(shifted.base, data + 24);
  EXPECT_EQ(shifted.stride_i, 8);
  EXPECT_EQ(shifted.stride_col, 1);
}

/// Reference accumulation the micro kernels must match exactly.
void reference_tile(index_t ws, const float* a_base, index_t si, index_t sc,
                    const float* b, index_t ldb,
                    const std::vector<index_t>& idx, int mt, int nt,
                    float* c, index_t ldc) {
  for (index_t p = 0; p < ws; ++p)
    for (int i = 0; i < mt; ++i)
      for (int j = 0; j < nt; ++j)
        c[i * ldc + j] += a_base[i * si + idx[static_cast<std::size_t>(p)] *
                                              sc] *
                          b[p * ldb + j];
}

class MicroKernelWidths : public ::testing::TestWithParam<int> {};

TEST_P(MicroKernelWidths, MatchesReferenceBothAddressingModes) {
  const int nt = GetParam();
  constexpr int kMt = kMicroM;
  const index_t ws = 23;
  Rng rng(100 + static_cast<std::uint64_t>(nt));

  // Row-major A panel (direct mode): 8 rows x 32 cols.
  const index_t a_cols = 32;
  std::vector<float> a(static_cast<std::size_t>(kMt * a_cols));
  for (auto& v : a) v = static_cast<float>(rng.next_int(-3, 3));
  std::vector<float> b(static_cast<std::size_t>(ws * nt));
  for (auto& v : b) v = static_cast<float>(rng.next_int(-3, 3));
  std::vector<index_t> idx(static_cast<std::size_t>(ws));
  std::vector<std::uint16_t> idx16(static_cast<std::size_t>(ws));
  for (index_t p = 0; p < ws; ++p) {
    idx[static_cast<std::size_t>(p)] = rng.next_int(0, a_cols - 1);
    idx16[static_cast<std::size_t>(p)] =
        static_cast<std::uint16_t>(idx[static_cast<std::size_t>(p)]);
  }

  std::vector<float> c_expect(static_cast<std::size_t>(kMt * nt), 1.0f);
  std::vector<float> c_got(static_cast<std::size_t>(kMt * nt), 1.0f);
  reference_tile(ws, a.data(), a_cols, 1, b.data(), nt, idx, kMt, nt,
                 c_expect.data(), nt);

  IdxFromBuffer provider{idx16.data()};
  APanel panel{a.data(), a_cols, 1};
  switch (nt) {
    case 16:
      micro_kernel<kMt, 16, false>(ws, panel, b.data(), nt, provider,
                                   c_got.data(), nt);
      break;
    case 8:
      micro_kernel<kMt, 8, false>(ws, panel, b.data(), nt, provider,
                                  c_got.data(), nt);
      break;
    case 4:
      micro_kernel<kMt, 4, false>(ws, panel, b.data(), nt, provider,
                                  c_got.data(), nt);
      break;
    default:
      FAIL() << "unexpected width";
  }
  for (std::size_t i = 0; i < c_expect.size(); ++i)
    EXPECT_EQ(c_expect[i], c_got[i]) << "direct mode, element " << i;

  // Column-major packed mode (stride_i = 1, stride_col = panel height).
  std::vector<float> a_cm(static_cast<std::size_t>(kMt * a_cols));
  for (int i = 0; i < kMt; ++i)
    for (index_t cc = 0; cc < a_cols; ++cc)
      a_cm[static_cast<std::size_t>(cc * kMt + i)] =
          a[static_cast<std::size_t>(i * a_cols + cc)];
  std::fill(c_got.begin(), c_got.end(), 1.0f);
  APanel panel_cm{a_cm.data(), 1, kMt};
  switch (nt) {
    case 16:
      micro_kernel<kMt, 16, true>(ws, panel_cm, b.data(), nt, provider,
                                  c_got.data(), nt);
      break;
    case 8:
      micro_kernel<kMt, 8, true>(ws, panel_cm, b.data(), nt, provider,
                                 c_got.data(), nt);
      break;
    case 4:
      micro_kernel<kMt, 4, true>(ws, panel_cm, b.data(), nt, provider,
                                 c_got.data(), nt);
      break;
    default:
      FAIL();
  }
  for (std::size_t i = 0; i < c_expect.size(); ++i)
    EXPECT_EQ(c_expect[i], c_got[i]) << "packed mode, element " << i;
}

INSTANTIATE_TEST_SUITE_P(Widths, MicroKernelWidths,
                         ::testing::Values(16, 8, 4),
                         [](const auto& param_info) {
                           return "NT" + std::to_string(param_info.param);
                         });

TEST(MicroKernelTail, RuntimeBoundsMatchReference) {
  Rng rng(200);
  const index_t ws = 11;
  const index_t a_cols = 16;
  std::vector<float> a(static_cast<std::size_t>(8 * a_cols));
  for (auto& v : a) v = static_cast<float>(rng.next_int(-2, 2));
  for (int mt = 1; mt <= 8; ++mt) {
    for (int nt = 1; nt <= 16; nt += 3) {
      std::vector<float> b(static_cast<std::size_t>(ws * nt));
      for (auto& v : b) v = static_cast<float>(rng.next_int(-2, 2));
      std::vector<index_t> idx(static_cast<std::size_t>(ws));
      std::vector<std::uint16_t> idx16(static_cast<std::size_t>(ws));
      for (index_t p = 0; p < ws; ++p) {
        idx[static_cast<std::size_t>(p)] = rng.next_int(0, a_cols - 1);
        idx16[static_cast<std::size_t>(p)] =
            static_cast<std::uint16_t>(idx[static_cast<std::size_t>(p)]);
      }
      std::vector<float> expect(static_cast<std::size_t>(mt * nt), 0.0f);
      std::vector<float> got(static_cast<std::size_t>(mt * nt), 0.0f);
      reference_tile(ws, a.data(), a_cols, 1, b.data(), nt, idx, mt, nt,
                     expect.data(), nt);
      micro_kernel_tail(ws, APanel{a.data(), a_cols, 1}, b.data(), nt,
                        IdxFromBuffer{idx16.data()}, mt, nt, got.data(), nt);
      for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(expect[i], got[i]) << mt << "x" << nt;
    }
  }
}

// The row walk at every row count (one row_walk_strip instantiation
// each) and strip width — both column groups (32), one (16), a ragged
// one (11) — storing (first k-chunk) and accumulating, over a short and
// a ragged chunk depth. The stored stream ends with the strip, so every
// B prefetch is clamped below its end. Columns at or past nt stay as
// they were.
TEST(RowWalk, EveryRowCountAndWidthMatchesReference) {
  Rng rng(400);
  const index_t k0 = 8, k = 40;  // the chunk starts at A column k0
  const index_t ldb = 32, ldc = 37;
  for (const index_t wb : {3, 21}) {
    for (int mt = 1; mt <= kMicroM; ++mt) {
      const MatrixF A = random_int_matrix(mt, k, rng);
      std::vector<float> strip(
          static_cast<std::size_t>(a_strips_floats(mt, k)));
      stage_a_strips(A.cview(), k, 0, 1, strip.data());
      for (const int nt : {32, 16, 11}) {
        std::vector<float> b(static_cast<std::size_t>(wb * ldb));
        for (auto& v : b) v = static_cast<float>(rng.next_int(-3, 3));
        std::vector<index_t> idx[2];
        std::vector<std::uint16_t> idx16[2];
        for (int g = 0; g < 2; ++g) {
          for (index_t p = 0; p < wb; ++p) {
            idx[g].push_back(rng.next_int(0, k - k0 - 1));
            idx16[g].push_back(static_cast<std::uint16_t>(idx[g].back()));
          }
        }
        for (const bool accumulate : {false, true}) {
          std::vector<float> expect(static_cast<std::size_t>(mt * ldc), 1.0f);
          if (!accumulate) {
            for (int i = 0; i < mt; ++i)
              std::fill_n(expect.begin() + i * ldc, nt, 0.0f);
          }
          std::vector<float> got(static_cast<std::size_t>(mt * ldc), 1.0f);
          for (int g = 0; g * 16 < nt; ++g) {
            reference_tile(wb, A.data() + k0, A.ld(), 1, b.data() + g * 16,
                           ldb, idx[g], mt, std::min(16, nt - g * 16),
                           expect.data() + g * 16, ldc);
          }
          const std::uint16_t* s1 = nt > 16 ? idx16[1].data() : idx16[0].data();
          const auto walk = [&](auto accumulate_c) {
            row_walk<decltype(accumulate_c)::value, EpilogueNone>(
                mt, wb, strip.data(), k0, b.data(), ldb, idx16[0].data(), s1,
                nt, b.data() + b.size(), got.data(), ldc, EpilogueNone{});
          };
          if (accumulate) {
            walk(std::true_type{});
          } else {
            walk(std::false_type{});
          }
          for (std::size_t e = 0; e < expect.size(); ++e) {
            EXPECT_EQ(expect[e], got[e])
                << "mt=" << mt << " nt=" << nt << " wb=" << wb
                << " accumulate=" << accumulate << " element " << e;
          }
        }
      }
    }
  }
}

TEST(PackAFull, CopiesAndZeroPads) {
  Rng rng(300);
  const MatrixF A = random_int_matrix(8, 20, rng);
  std::vector<float> out(static_cast<std::size_t>(4 * 16), -1.0f);
  // Chunk [12, 12+16) overlaps the padded tail (A has 20 cols).
  detail::pack_a_full(A.view(), 2, 4, 12, 16, out.data(), 16);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t c = 0; c < 16; ++c) {
      const float expect = (12 + c < 20) ? A(2 + i, 12 + c) : 0.0f;
      EXPECT_EQ(out[static_cast<std::size_t>(i * 16 + c)], expect);
    }
  }
}

TEST(PackACols, GathersListedColumns) {
  Rng rng(301);
  const MatrixF A = random_int_matrix(6, 32, rng);
  const std::vector<std::int32_t> cols = {1, 5, 8, 30};
  std::vector<float> out(static_cast<std::size_t>(6 * 4), -1.0f);
  detail::pack_a_cols(A.view(), 0, 6, 0, cols, out.data(), 4);
  for (index_t i = 0; i < 6; ++i)
    for (std::size_t cc = 0; cc < cols.size(); ++cc)
      EXPECT_EQ(out[static_cast<std::size_t>(i) * 4 + cc],
                A(i, cols[cc]));
}

TEST(PackACols, PaddedColumnsReadZero) {
  Rng rng(302);
  const MatrixF A = random_int_matrix(4, 10, rng);
  // Chunk base 8, columns {0, 1, 4}: local 4 => global 12 >= 10: padded.
  const std::vector<std::int32_t> cols = {0, 1, 4};
  std::vector<float> out(static_cast<std::size_t>(4 * 3), -1.0f);
  detail::pack_a_cols(A.view(), 0, 4, 8, cols, out.data(), 3);
  for (index_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i * 3 + 0)], A(i, 8));
    EXPECT_EQ(out[static_cast<std::size_t>(i * 3 + 1)], A(i, 9));
    EXPECT_EQ(out[static_cast<std::size_t>(i * 3 + 2)], 0.0f);
  }
}

TEST(PackBBlock, CopiesAndZeroFillsLd) {
  Rng rng(303);
  const MatrixF B = random_int_matrix(8, 10, rng);
  std::vector<float> out(static_cast<std::size_t>(3 * 16), -1.0f);
  detail::pack_b_block(B.view(), 2, 3, 4, 6, out.data(), 16);
  for (index_t u = 0; u < 3; ++u) {
    for (index_t j = 0; j < 6; ++j)
      EXPECT_EQ(out[static_cast<std::size_t>(u * 16 + j)], B(2 + u, 4 + j));
    for (index_t j = 6; j < 16; ++j)
      EXPECT_EQ(out[static_cast<std::size_t>(u * 16 + j)], 0.0f);
  }
}

}  // namespace
}  // namespace nmspmm::detail
