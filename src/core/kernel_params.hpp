// Hierarchical blocking parameters (Section III-B, Table I, Eq. 4/5).
//
// One parameter set drives three things: the GPU-simulated kernels (block
// = shared-memory tile, thread tile = register tile), the analytical
// models (arithmetic intensity, CMAR, occupancy), and the CPU kernels
// (cache blocking). ks is derived, not chosen: it is the largest k-chunk
// whose As/Bs/Ds working set fits half the shared memory (Eq. 4).
#pragma once

#include <string>

#include "core/nm_config.hpp"
#include "util/matrix.hpp"

namespace nmspmm {

struct BlockingParams {
  index_t ms = 64;   ///< block rows of A/C
  index_t ns = 128;  ///< block cols of B/C
  index_t ks = 0;    ///< block depth in original-k units (0 = derive)
  index_t mt = 8;    ///< thread-tile rows (register tile)
  index_t nt = 8;    ///< thread-tile cols
  index_t mr = 64;   ///< warp-footprint rows (mr x nr threads cover a warp grid)
  index_t nr = 32;   ///< warp-footprint cols

  [[nodiscard]] index_t ws(const NMConfig& cfg) const {
    return ks * cfg.n / cfg.m;
  }
  [[nodiscard]] index_t qs(const NMConfig& cfg) const {
    return ceil_div(ns, cfg.vector_length);
  }
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const BlockingParams&, const BlockingParams&) = default;
};

/// Matrix size classes of Table I / Table II.
enum class SizeClass { kSmall, kMedium, kLarge };

const char* to_string(SizeClass c);

/// Table I recommended configurations (ks left 0: derived per sparsity).
BlockingParams table1_preset(SizeClass size_class);

/// Pick a size class for an (m, n, k) problem, mirroring the paper's
/// Para_Init_Table: Table II labels A-B small, C-D medium, E-F large.
SizeClass classify_size(index_t m, index_t n, index_t k);

/// Hard ceiling on ks: the kernels stage within-chunk column offsets in
/// std::uint16_t buffers (PolicyV3's idxbuf, col_info's remapped matrix),
/// so offsets must stay in [0, 65536). A larger ks would silently wrap
/// the staged indices; validate_params rejects it and derive_ks never
/// produces it.
inline constexpr index_t kMaxKs = 65536;

/// Largest ks satisfying the shared-memory constraint of Eq. 4/5:
///   8*ks*(ms + N*ns/M) <= smem_bytes,
/// rounded down to a multiple of M (so every chunk holds whole pruning
/// windows) and clamped to [M, min(k, kMaxKs)]. Listing 1 line 4.
index_t derive_ks(const NMConfig& cfg, index_t ms, index_t ns,
                  std::size_t smem_bytes, index_t k);

/// Shared-memory bytes a block actually uses (As + Bs + Ds double-counted
/// for the double-buffered pipeline when @p double_buffered).
std::size_t block_smem_bytes(const BlockingParams& p, const NMConfig& cfg,
                             bool double_buffered);

/// Registers per thread the inner kernel needs: the Ct accumulator plus
/// the At/Bt fragments (mt + nt + mt*nt <= 255 constraint from §III-B2).
index_t registers_per_thread(const BlockingParams& p);

/// Validate a full parameter set against a shared-memory budget; throws
/// CheckError with a specific message on the first violated constraint.
void validate_params(const BlockingParams& p, const NMConfig& cfg,
                     std::size_t smem_bytes, index_t k);

/// The block working-set budget CPU plans size ks by (Eq. 5) and are
/// validated against: the A100's 192 KiB per-SM shared memory, which also
/// matches CPU L2 blocking.
inline constexpr std::size_t kPlanSmemBytes = 192 * 1024;

/// Convenience: preset for the size class, with ks derived for cfg.
BlockingParams make_params(index_t m, index_t n, index_t k,
                           const NMConfig& cfg,
                           std::size_t smem_bytes = kPlanSmemBytes);

}  // namespace nmspmm
