// Analytical kernel-time model implementing the paper's pipeline analysis
// (Figures 5 and 6) on top of the Table III specs.
//
// A thread block computes an ms x ns tile of C by looping over w in
// ws-deep chunks (Listing 1). Per chunk the model derives
//   comp  — FMA cycles, scaled by the inner-kernel efficiency implied by
//           CMAR (Eq. 6) and the variant's index-handling overhead, and
//   g2s   — global->shared transfer cycles for As/Bs/Ds (+ col_info when
//           packing), at the per-SM share of DRAM bandwidth.
// The variants combine them exactly as the paper's pipelines do:
//   V1/V2 — sequential (load, sync, compute; Listing 1/3),
//   V3    — overlapped: max(comp, g2s) with a one-chunk prologue
//           (double buffering; Listing 4, Figures 5/6).
// Kernel time = waves x block time, floored by the whole-kernel DRAM
// roofline. The same machinery with N = M and no index matrix models the
// dense cuBLAS baseline; derated single-level variants model nmSPARSE
// and Sputnik (constants documented at the definitions).
#pragma once

#include "core/kernel_params.hpp"
#include "core/spmm_kernels.hpp"
#include "gpusim/gpu_spec.hpp"
#include "gpusim/occupancy.hpp"

namespace nmspmm::gpusim {

struct CostInputs {
  GpuSpec gpu;
  index_t m = 0;
  index_t n = 0;
  index_t k = 0;
  NMConfig cfg;
  BlockingParams params;       ///< ks of 0 is derived via Eq. 4
  KernelVariant variant = KernelVariant::kV3;
  bool packed = false;         ///< high-sparsity packing path
  /// |col_info| / ks: 1.0 = no footprint reduction; N/M = identical
  /// patterns. Estimated from the mask statistics when not measured.
  double packing_ratio = 1.0;
};

struct CostBreakdown {
  double seconds = 0.0;
  double flops = 0.0;
  double tflops = 0.0;
  double efficiency = 0.0;        ///< fraction of spec-sheet peak
  double ai = 0.0;                ///< block-level arithmetic intensity
  bool memory_bound = false;      ///< g2s dominates comp in steady state
  double comp_cycles_per_chunk = 0.0;
  double g2s_cycles_per_chunk = 0.0;
  double bytes_total = 0.0;       ///< DRAM traffic of the whole kernel
  Occupancy occupancy;
  index_t grid_blocks = 0;  ///< thread blocks in the launch grid
  index_t waves = 0;
};

/// NM-SpMM (and, with cfg.n == cfg.m, a pipelined dense GEMM).
CostBreakdown predict(const CostInputs& in);

/// cuBLAS-like dense baseline: N = M, V3 pipeline, no index matrix.
CostBreakdown predict_dense(const GpuSpec& gpu, index_t m, index_t n,
                            index_t k);

/// nmSPARSE-like baseline: block-level gather without hierarchical
/// k-chunking (each pruning window is its own chunk), no packing, no
/// pipeline overlap.
CostBreakdown predict_nmsparse(const GpuSpec& gpu, index_t m, index_t n,
                               index_t k, const NMConfig& cfg);

/// Sputnik-like unstructured baseline: 1-D tiling, irregular gathers.
CostBreakdown predict_sputnik(const GpuSpec& gpu, index_t m, index_t n,
                              index_t k, const NMConfig& cfg);

/// Expected |col_info|/ks for a uniformly random mask: the chance a
/// window row is needed by at least one of the q_s groups in the block is
/// 1 - (1 - N/M)^qs (per-group draws are nearly independent).
double expected_packing_ratio(const NMConfig& cfg, index_t ns);

}  // namespace nmspmm::gpusim
