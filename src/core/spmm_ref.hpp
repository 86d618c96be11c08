// Reference N:M SpMM (Eq. 1), used as the correctness oracle for every
// optimized kernel and the GPU-simulated kernels.
#pragma once

#include "core/nm_format.hpp"

namespace nmspmm {

/// C = A (*) (B', D) — Eq. 1. A is m x k, compressed B is w x n,
/// C is m x n (overwritten). Eq. 1's M/N rescale (dropout-style
/// magnitude compensation) is not applied: inference on magnitude-pruned
/// weights runs without it.
void spmm_reference(ConstViewF A, const CompressedNM& B, ViewF C);

/// Dense reference GEMM C = A * B (naive triple loop, f64 accumulation),
/// the oracle for the dense baselines.
void gemm_reference(ConstViewF A, ConstViewF B, ViewF C);

}  // namespace nmspmm
