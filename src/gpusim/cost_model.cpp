#include "gpusim/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace nmspmm::gpusim {

namespace {

/// Inner-kernel issue efficiency from the compute-to-memory-access ratio
/// (Eq. 6): per reduction step a thread issues mt*nt FMAs plus
/// (mt+nt)/alpha shared-memory loads (alpha = 4 for LDS.128) plus the
/// variant's index-handling instructions. Shared-memory and FMA issue
/// compete for the same issue slots, so sustained throughput is
/// FMA / (FMA + LDS + idx).
double inner_efficiency(const BlockingParams& p, KernelVariant variant,
                        bool dense) {
  const double fma = static_cast<double>(p.mt) * static_cast<double>(p.nt);
  const double lds = (static_cast<double>(p.mt) + static_cast<double>(p.nt)) /
                     4.0;
  double idx = 0.0;
  if (!dense) {
    switch (variant) {
      case KernelVariant::kV1: idx = 1.0; break;  // D read + address math
      case KernelVariant::kV2: idx = 0.5; break;  // reordered D read
      case KernelVariant::kV3: idx = 0.125; break; // hoisted to registers
    }
  }
  return fma / (fma + lds + idx);
}

CostBreakdown predict_impl(const CostInputs& in, double bw_derate,
                           double extra_issue_overhead) {
  const GpuSpec& gpu = in.gpu;
  const NMConfig& cfg = in.cfg;
  cfg.validate();
  NMSPMM_CHECK_MSG(in.m > 0 && in.n > 0 && in.k > 0, "empty problem");

  BlockingParams p = in.params;
  if (p.ks == 0)
    p.ks = derive_ks(cfg, p.ms, p.ns,
                     static_cast<std::size_t>(gpu.max_smem_bytes_per_sm),
                     in.k);

  const index_t pk = cfg.padded_k(in.k);
  const index_t ws = p.ws(cfg);
  const index_t qs = p.qs(cfg);
  const index_t chunks = ceil_div(pk, p.ks);
  const bool dense = cfg.n == cfg.m;

  CostBreakdown out;
  out.grid_blocks = ceil_div(in.m, p.ms) * ceil_div(in.n, p.ns);

  // --- Occupancy: threads = (ms/mt)*(ns/nt); registers from the Ct/At/Bt
  // footprint plus a fixed bookkeeping allowance; double-buffered smem.
  BlockResources res;
  res.threads_per_block =
      static_cast<int>((p.ms / p.mt) * (p.ns / p.nt));
  res.registers_per_thread = static_cast<int>(
      std::min<index_t>(registers_per_thread(p) + 32,
                        gpu.max_registers_per_thread));
  // Eq. 4 reserves half of shared memory for the second buffer, so the
  // double-buffered footprint lands at (just about) the SM capacity; the
  // small Ds term it neglects must not push occupancy to zero.
  res.smem_bytes_per_block = std::min<std::size_t>(
      block_smem_bytes(p, cfg,
                       /*double_buffered=*/in.variant == KernelVariant::kV3),
      static_cast<std::size_t>(gpu.max_smem_bytes_per_sm));
  out.occupancy = compute_occupancy(gpu, res);
  const int concurrent =
      std::max(1, out.occupancy.blocks_per_sm) * gpu.num_sms;
  out.waves = ceil_div(out.grid_blocks, concurrent);

  // --- Per-chunk compute cycles.
  const double flops_chunk = 2.0 * static_cast<double>(p.ms) *
                             static_cast<double>(p.ns) *
                             static_cast<double>(ws);
  const double eff =
      inner_efficiency(p, in.variant, dense) * (1.0 - extra_issue_overhead);
  // Register tiling and software pipelining hide ALU latency even at low
  // warp occupancy (the paper's design point), but an SM still needs one
  // resident warp per warp scheduler (4 on these parts) to issue to all
  // of its FP32 pipes.
  const double scheduler_fill =
      std::min(1.0, static_cast<double>(out.occupancy.warps_per_sm) / 4.0);
  out.comp_cycles_per_chunk =
      flops_chunk / (gpu.fp32_flops_per_clock_per_sm * eff *
                     std::max(scheduler_fill, 0.25));

  // --- Per-chunk global->shared bytes (Eq. 3's denominator pieces).
  const double a_ratio = in.packed ? in.packing_ratio : 1.0;
  double bytes_chunk =
      static_cast<double>(p.ms) * static_cast<double>(p.ks) * 4.0 * a_ratio +
      static_cast<double>(ws) * static_cast<double>(p.ns) * 4.0;
  if (!dense) bytes_chunk += static_cast<double>(ws) * static_cast<double>(qs);
  if (in.packed)
    bytes_chunk += static_cast<double>(p.ks) * 4.0 * a_ratio;  // col_info
  // The per-block bandwidth share: bandwidth splits across the SMs that
  // have work and, within an SM, across the blocks actually resident
  // (the grid may be too small to fill the occupancy capacity). When the
  // kernel's whole working set is L2-resident, blocks stream at L2
  // bandwidth instead of DRAM bandwidth — the effect that makes small
  // tiles (more parallelism, more re-reads) the right choice for small
  // matrices (Figure 8).
  const double unique_bytes =
      (static_cast<double>(in.m) * static_cast<double>(pk) +
       static_cast<double>(pk) * static_cast<double>(cfg.n) / cfg.m *
           static_cast<double>(in.n) +
       static_cast<double>(in.m) * static_cast<double>(in.n)) *
      4.0;
  const bool l2_resident = unique_bytes <= gpu.l2_cache_bytes &&
                           gpu.l2_bandwidth_gbps > 0.0;
  const double stream_bw_gbps =
      l2_resident ? gpu.l2_bandwidth_gbps : gpu.dram_bandwidth_gbps;
  const double active_sms =
      std::min<double>(gpu.num_sms,
                       std::max<index_t>(out.grid_blocks, 1));
  const index_t resident_blocks = std::max<index_t>(
      1, std::min<index_t>(out.occupancy.blocks_per_sm,
                           ceil_div(out.grid_blocks, gpu.num_sms)));
  const double bytes_per_clock_sm =
      stream_bw_gbps * 1e9 * bw_derate /
      (gpu.boost_clock_mhz * 1e6) / active_sms /
      static_cast<double>(resident_blocks);
  out.g2s_cycles_per_chunk = bytes_chunk / bytes_per_clock_sm;

  // --- Pipeline combination per chunk (Figures 5 and 6).
  double block_cycles;
  const double store_c_cycles =
      static_cast<double>(p.ms) * static_cast<double>(p.ns) * 4.0 /
      bytes_per_clock_sm;
  switch (in.variant) {
    case KernelVariant::kV1:
    case KernelVariant::kV2:
      // Load, __syncthreads, compute — no overlap (Listings 1/3).
      block_cycles = static_cast<double>(chunks) *
                     (out.comp_cycles_per_chunk + out.g2s_cycles_per_chunk);
      break;
    case KernelVariant::kV3:
      // Double buffering: steady-state max(comp, g2s), one g2s prologue.
      block_cycles =
          static_cast<double>(chunks) *
              std::max(out.comp_cycles_per_chunk, out.g2s_cycles_per_chunk) +
          out.g2s_cycles_per_chunk;
      break;
    default:
      block_cycles = 0.0;
  }
  block_cycles += store_c_cycles;
  out.memory_bound = out.g2s_cycles_per_chunk > out.comp_cycles_per_chunk;

  // --- Whole-kernel time: waves of blocks, floored by the DRAM roofline
  // over the total unique traffic (A and B are re-read per block row /
  // column of the grid, C written once).
  const double kernel_cycles =
      static_cast<double>(out.waves) * block_cycles;
  double seconds = kernel_cycles / (gpu.boost_clock_mhz * 1e6);

  const index_t grid_n = ceil_div(in.n, p.ns);
  const index_t grid_m = ceil_div(in.m, p.ms);
  out.bytes_total =
      static_cast<double>(grid_n) * static_cast<double>(in.m) *
          static_cast<double>(pk) * 4.0 * a_ratio +  // A per block column
      static_cast<double>(grid_m) * static_cast<double>(pk) *
          static_cast<double>(cfg.n) / cfg.m * static_cast<double>(in.n) *
          4.0 +                                       // B' per block row
      static_cast<double>(in.m) * static_cast<double>(in.n) * 4.0;  // C
  // Cold misses always pay DRAM; re-reads pay DRAM only when the working
  // set exceeds the L2.
  const double dram_floor_bytes = l2_resident ? unique_bytes : out.bytes_total;
  const double dram_floor_seconds =
      dram_floor_bytes / (gpu.dram_bandwidth_gbps * 1e9 * bw_derate);
  seconds = std::max(seconds, dram_floor_seconds);

  out.flops = spmm_flops(in.m, in.n, cfg.compressed_rows(in.k));
  // Physical floor: the chip cannot exceed peak FP32 throughput.
  seconds = std::max(seconds, out.flops / (gpu.peak_fp32_tflops * 1e12));
  out.seconds = seconds;
  out.tflops = out.flops / seconds / 1e12;
  out.efficiency = out.tflops / gpu.peak_fp32_tflops;

  // Block-level arithmetic intensity (Eq. 3), with the packed footprint
  // when packing is on.
  const double ai_num = 2.0 * static_cast<double>(p.ms) *
                        static_cast<double>(p.ns) * static_cast<double>(ws);
  const double ai_den =
      static_cast<double>(p.ms) * static_cast<double>(p.ks) * a_ratio +
      static_cast<double>(ws) * static_cast<double>(p.ns) +
      2.0 * static_cast<double>(p.ms) * static_cast<double>(p.ns);
  out.ai = ai_num / ai_den;  // FLOP per element, matching Eq. 3 literally
  return out;
}

}  // namespace

CostBreakdown predict(const CostInputs& in) {
  return predict_impl(in, /*bw_derate=*/0.85, /*extra_issue_overhead=*/0.0);
}

CostBreakdown predict_dense(const GpuSpec& gpu, index_t m, index_t n,
                            index_t k) {
  CostInputs in;
  in.gpu = gpu;
  in.m = m;
  in.n = n;
  in.k = k;
  in.cfg = NMConfig{32, 32, 16};
  in.params = table1_preset(classify_size(m, n, k));
  in.variant = KernelVariant::kV3;
  in.packed = false;
  return predict_impl(in, 0.85, 0.0);
}

CostBreakdown predict_nmsparse(const GpuSpec& gpu, index_t m, index_t n,
                               index_t k, const NMConfig& cfg) {
  CostInputs in;
  in.gpu = gpu;
  in.m = m;
  in.n = n;
  in.k = k;
  in.cfg = cfg;
  // nmSPARSE's block-level kernels use moderate output tiles but stage
  // only one pruning window at a time (no deep k-chunking) with a small
  // register tile: more A re-read traffic and a lower CMAR than the
  // hierarchical blocking — the locality gap the paper's related-work
  // analysis identifies.
  in.params = BlockingParams{64, 64, cfg.m, 4, 4, 16, 32};
  in.variant = KernelVariant::kV1;
  in.packed = false;
  // Its inner kernel resolves indices per element: extra issue overhead.
  return predict_impl(in, 0.85, /*extra_issue_overhead=*/0.15);
}

CostBreakdown predict_sputnik(const GpuSpec& gpu, index_t m, index_t n,
                              index_t k, const NMConfig& cfg) {
  CostInputs in;
  in.gpu = gpu;
  in.m = m;
  in.n = n;
  in.k = k;
  in.cfg = cfg;
  // 1-D tiling: small row tile, no n-blocking in shared memory; model as
  // a narrow block with one window per chunk.
  in.params = BlockingParams{32, 32, cfg.m, 4, 4, 16, 32};
  in.variant = KernelVariant::kV1;
  in.packed = false;
  // Unstructured CSR: scattered 4-byte gathers waste most of each 32-byte
  // DRAM sector and add heavy per-element index work.
  return predict_impl(in, /*bw_derate=*/0.45, /*extra_issue_overhead=*/0.35);
}

double expected_packing_ratio(const NMConfig& cfg, index_t ns) {
  const double density = cfg.density();
  const double qs = static_cast<double>(ceil_div(ns, cfg.vector_length));
  return 1.0 - std::pow(1.0 - density, qs);
}

}  // namespace nmspmm::gpusim
