// Shared gtest helpers for the Status-returning API surface.
#pragma once

#include <gtest/gtest.h>

#include "core/vec.hpp"
#include "util/check.hpp"

#define NMSPMM_ASSERT_OK(expr)                         \
  do {                                                 \
    const ::nmspmm::Status nmspmm_s_ = (expr);         \
    ASSERT_TRUE(nmspmm_s_.ok()) << nmspmm_s_.to_string(); \
  } while (0)

#define NMSPMM_EXPECT_OK(expr)                         \
  do {                                                 \
    const ::nmspmm::Status nmspmm_s_ = (expr);         \
    EXPECT_TRUE(nmspmm_s_.ok()) << nmspmm_s_.to_string(); \
  } while (0)

namespace nmspmm {

/// Call f.template operator()<Vec>() for every vector description this
/// build compiles (core/vec.hpp), VecScalar first: the sweeps' tests
/// compare each instantiation with the scalar one.
template <class F>
void for_each_vec(F&& f) {
#define NMSPMM_CALL_VEC(V) f.template operator()<simd::V>();
  NMSPMM_FOR_EACH_VEC(NMSPMM_CALL_VEC)
#undef NMSPMM_CALL_VEC
}

}  // namespace nmspmm
