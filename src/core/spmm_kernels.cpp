#include "core/spmm_kernels.hpp"

#include <sys/mman.h>

#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <vector>

#include "core/micro_kernel.hpp"
#include "core/pack.hpp"
#include "util/thread_pool.hpp"

namespace nmspmm {

const char* to_string(KernelVariant v) {
  switch (v) {
    case KernelVariant::kV1: return "V1";
    case KernelVariant::kV2: return "V2";
    case KernelVariant::kV3: return "V3";
  }
  return "?";
}

PackedWeights::IndexKind packed_kind_for(KernelVariant variant,
                                         bool use_packing) {
  if (variant == KernelVariant::kV2) return PackedWeights::IndexKind::kRemapped;
  if (variant == KernelVariant::kV3 && use_packing) {
    return PackedWeights::IndexKind::kRemapped;
  }
  return PackedWeights::IndexKind::kDirect;
}

namespace {

/// The compile-time half of takes_row_walk: V3's non-packed path. The
/// blocked driver branches on it with `if constexpr`, so the walk is
/// instantiated only for that policy.
constexpr bool row_walk_kernel(KernelVariant variant, bool use_packing) {
  return variant == KernelVariant::kV3 && !use_packing;
}

/// The runtime half of takes_row_walk: L = 16 pruning units, so a
/// 32-column strip is exactly two column groups.
bool row_walk_block(const NMConfig& cfg) { return cfg.vector_length == 16; }

}  // namespace

bool takes_row_walk(KernelVariant variant, bool use_packing,
                    const NMConfig& cfg) {
  return row_walk_kernel(variant, use_packing) && row_walk_block(cfg);
}

namespace {

using detail::APanel;
using detail::kMicroM;

/// Context of one (k-chunk, n-block) tile handed to the policies.
struct TileCtx {
  index_t chunk = 0;    ///< k-chunk index
  index_t nblock = 0;   ///< n-block index
  index_t wb = 0;       ///< compressed rows in this chunk
  index_t k0 = 0;       ///< first original-k column of the chunk
  index_t kb = 0;       ///< original-k extent (<= ks)
};

/// Grow-only float buffer mapped straight from the OS, the one holder of
/// the kernels' reusable scratch. Through malloc, each growth would free
/// a chunk above glibc's mmap threshold, which raises that threshold and
/// moves later allocations onto the heap: serve_mixed then read ~11 MB
/// more peak RSS than the buffer itself.
class MappedFloats {
 public:
  MappedFloats() = default;
  MappedFloats(const MappedFloats&) = delete;
  MappedFloats& operator=(const MappedFloats&) = delete;
  ~MappedFloats() { release(); }

  /// At least @p floats floats; the contents are not kept on growth.
  float* reserve(std::size_t floats) {
    const std::size_t bytes = floats * sizeof(float);
    if (bytes > bytes_) {
      release();
      void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      data_ = static_cast<float*>(p);
      bytes_ = bytes;
    }
    return data_;
  }

 private:
  void release() {
    if (data_ != nullptr) munmap(data_, bytes_);
    data_ = nullptr;
    bytes_ = 0;
  }

  float* data_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Per-thread A-panel scratch of the per-group path: pool workers are
/// long-lived, so steady-state serving calls never map memory for it.
float* worker_a_scratch(std::size_t floats) {
  thread_local MappedFloats scratch;
  return scratch.reserve(floats);
}

/// The row walk's staging buffers, shared by every caller: a call takes
/// one for its duration and gives it back, so the set holds as many
/// buffers as calls ever staged at once, not one per thread that ever
/// staged (a serving dispatcher and a checking caller share one).
struct StagingBuffers {
  std::mutex mu;
  std::vector<std::unique_ptr<MappedFloats>> free;

  static StagingBuffers& get() {
    static auto* const buffers = new StagingBuffers;  // outlives callers
    return *buffers;
  }
};

/// Gives a taken buffer back to the set when the call ends.
struct GiveBack {
  void operator()(MappedFloats* buffer) const {
    StagingBuffers& set = StagingBuffers::get();
    const std::lock_guard<std::mutex> lock(set.mu);
    set.free.emplace_back(buffer);
  }
};
using StagingLease = std::unique_ptr<MappedFloats, GiveBack>;

StagingLease take_staging() {
  StagingBuffers& set = StagingBuffers::get();
  const std::lock_guard<std::mutex> lock(set.mu);
  if (set.free.empty()) return StagingLease(new MappedFloats);
  StagingLease lease(set.free.back().release());
  set.free.pop_back();
  return lease;
}

/// Stage all of A for the row walk (detail::stage_a_strips: k-major
/// 8-row strips, zero-padded to @p pk) into @p buffer, splitting the
/// strips across @p pool. The buffer grows to at most m x pk floats
/// (rounded up to the last strip's width).
const float* stage_a_for_walk(ConstViewF A, index_t pk, ThreadPool* pool,
                              MappedFloats& buffer) {
  float* const out = buffer.reserve(
      static_cast<std::size_t>(detail::a_strips_floats(A.rows(), pk)));
  parallel_for(pool, 0, ceil_div(A.rows(), detail::kAStripRows),
               [&](index_t s_lo, index_t s_hi) {
                 detail::stage_a_strips(A, pk, s_lo, s_hi, out);
               });
  return out;
}

/// A addressing over plan-time resident weights. Without @p Packing (V1,
/// and V3's moderate-sparsity path) the kernel reads the whole ks-wide
/// working set of A in place — the non-packing strategy of Section
/// III-C1, the CPU cache hierarchy standing in for the staged
/// shared-memory copy — unless the chunk reaches past the real depth of
/// A (window padding), where a zero-filled staging copy is used so
/// out-of-range columns read as zero. With @p Packing (V2, and V3's
/// high-sparsity path) A is gathered through the tile's col_info
/// columns. @p Prefetch is V3's. Either way the index streams were
/// flattened at pack time: (p/N)*M + D, or packed panel positions from
/// the reordered index matrix.
template <bool Packing, bool Prefetch>
struct PolicyResident {
  const PackedWeights& packed;

  static constexpr bool kPrefetch = Prefetch;
  static constexpr KernelVariant kVariant =
      Prefetch ? KernelVariant::kV3
               : (Packing ? KernelVariant::kV2 : KernelVariant::kV1);
  static constexpr bool kPacking = Packing;

  APanel prepare_a(const TileCtx& t, ConstViewF A, index_t i0, index_t mb,
                   float* scratch, index_t lda) const {
    if constexpr (Packing) {
      detail::pack_a_cols(A, i0, mb, t.k0,
                          packed.tile_cols(t.chunk, t.nblock), scratch, lda);
    } else if (t.k0 + t.kb <= A.cols()) {
      return APanel{A.data() + i0 * A.ld() + t.k0, A.ld(), 1};
    } else {
      detail::pack_a_full(A, i0, mb, t.k0, t.kb, scratch, lda);
    }
    return APanel{scratch, lda, 1};
  }

  detail::IdxFromBuffer idx_fn(const TileCtx& t, index_t g) const {
    return detail::IdxFromBuffer{
        packed.tile_index_stream(t.chunk, t.nblock, g)};
  }
};

/// Run the strip decomposition of one (group-segment x m-tile): full
/// kMicroM x kMicroN tiles on the fast path, runtime-bounded tails at the
/// ragged edges. @p Accumulate false (first k-chunk) stores instead of
/// adds — the fused C zero-fill. @p Epi (active on the final k-chunk
/// only) finalizes each stored row in place; @p epi must be aligned to
/// c_block's origin element.
template <bool Prefetch, bool Accumulate, class Epi, class IdxFn>
void run_segment(index_t wb, APanel a, const float* bpack, index_t ldb,
                 index_t b_off, const IdxFn& idx, index_t mb,
                 float* c_block, index_t ldc, index_t seg_off,
                 index_t seg_w, const Epi& epi) {
  for (index_t i0 = 0; i0 < mb; i0 += kMicroM) {
    const int mt = static_cast<int>(std::min<index_t>(kMicroM, mb - i0));
    const APanel a_tile = a.shifted_rows(i0);
    index_t j = 0;
    while (j < seg_w) {
      const index_t rem = seg_w - j;
      // Widest vector strip that fits: 16, then 8, then 4 (the fast
      // paths for L = 16/8/4 pruning units), else the scalar tail.
      const index_t jw = rem >= 16 ? 16 : (rem >= 8 ? 8 : (rem >= 4 ? 4 : rem));
      float* c = c_block + i0 * ldc + seg_off + j;
      const float* b = bpack + b_off + j;
      const Epi epi_tile = epi.shifted(i0, seg_off + j);
      if (mt == kMicroM && jw == 16) {
        detail::micro_kernel<kMicroM, 16, Prefetch, Accumulate, Epi>(
            wb, a_tile, b, ldb, idx, c, ldc, epi_tile);
      } else if (mt == kMicroM && jw == 8) {
        detail::micro_kernel<kMicroM, 8, Prefetch, Accumulate, Epi>(
            wb, a_tile, b, ldb, idx, c, ldc, epi_tile);
      } else if (mt == kMicroM && jw == 4) {
        detail::micro_kernel<kMicroM, 4, Prefetch, Accumulate, Epi>(
            wb, a_tile, b, ldb, idx, c, ldc, epi_tile);
      } else {
        detail::micro_kernel_tail<Accumulate, Epi>(
            wb, a_tile, b, ldb, idx, mt, static_cast<int>(jw), c, ldc,
            epi_tile);
      }
      j += jw;
    }
  }
}

/// Blocked driver (Listing 1 structure) over plan-time resident weights:
/// loop n-blocks, k-chunks, m-blocks; the Bs tile is already resident in
/// the PackedWeights (tile-major, execution order — a pure linear read),
/// A is prepared per m-block (or, for the row walk, staged once per
/// call), and index streams are consumed directly from the packed form.
/// The k-chunk 0 pass stores (beta = 0) instead of accumulating, fusing
/// the former C zero-fill pass into the first micro-kernel stores.
///
/// Parallelism: a null @p pool runs the nest serially. With a pool, the
/// driver picks the partitioning axis — m-blocks when there are enough
/// of them to occupy every worker (large batches), otherwise whole
/// n-blocks per worker (small batches, wide outputs: the serving shape).
/// Either way each worker writes a disjoint region of C and computes
/// every element with the same accumulation order as the serial nest, so
/// output is bit-exact regardless of thread count.
template <class Policy>
void spmm_blocked(ConstViewF A, const CompressedNM& B, ViewF C,
                  const BlockingParams& prm, const PackedWeights& packed,
                  const Policy& policy, ThreadPool* pool,
                  const EpilogueSpec& espec, const EpilogueArgs& eargs) {
  const NMConfig& cfg = B.config;
  NMSPMM_CHECK(A.cols() == B.orig_rows);
  NMSPMM_CHECK(C.rows() == A.rows() && C.cols() == B.cols);
  validate_params(prm, cfg, static_cast<std::size_t>(-1), A.cols());
  NMSPMM_CHECK_OK(validate_epilogue(espec, eargs, C.rows(), C.cols()));
  NMSPMM_CHECK_MSG(packed.matches(B, prm),
                   "PackedWeights was built for ks=" << packed.ks()
                       << " ns=" << packed.ns()
                       << " (or different weights) but kernel uses "
                       << prm.to_string());

  const index_t m = A.rows();
  const index_t n = B.cols;
  const index_t pk = cfg.padded_k(A.cols());
  const index_t ws_full = prm.ws(cfg);
  const index_t num_chunks = ceil_div(pk, prm.ks);
  const index_t num_nblocks = ceil_div(n, prm.ns);
  const index_t num_mblocks = ceil_div(m, prm.ms);
  const index_t L = cfg.vector_length;

  // Staged A panels are row-major: row stride covers a full chunk depth.
  const index_t lda = static_cast<index_t>(round_up(
      static_cast<std::size_t>(prm.ks), 16));
  const index_t ldb = packed.ldb();

  auto make_tile = [&](index_t nb, index_t chunk) {
    TileCtx t;
    t.chunk = chunk;
    t.nblock = nb;
    t.k0 = chunk * prm.ks;
    t.kb = std::min(prm.ks, pk - t.k0);
    t.wb = std::min(ws_full, B.rows() - chunk * ws_full);
    return t;
  };

  // Epilogue rooted at C(0, 0); re-shifted per m-block below. Only the
  // final k-chunk finalizes — every C element is fully accumulated
  // exactly then, and each tile is finalized by the worker that stored
  // it, so results stay bit-exact across thread counts.
  const bool epi_active = espec.active();
  const detail::EpilogueApply epi_root =
      detail::EpilogueApply::root(espec, eargs);

  // The row walk (takes_row_walk) reads A from 8-row strips staged once
  // for the whole call into a buffer this call holds until it returns.
  // Pool workers reach it through this pointer.
  StagingLease staging;
  const float* a_strips = nullptr;
  if constexpr (row_walk_kernel(Policy::kVariant, Policy::kPacking)) {
    if (row_walk_block(cfg)) {
      staging = take_staging();
      a_strips = stage_a_for_walk(A, pk, pool, *staging);
    }
  }
  const std::size_t a_scratch_floats =
      static_cast<std::size_t>(prm.ms * lda);

  // One tile's worth of m-blocks [mb_lo, mb_hi): prepare A per m-block,
  // then walk the pruning-window column groups of the n-block against
  // the resident Bs tile and its flattened index streams — or, when
  // takes_row_walk selects it, walk each 32-column strip of the tile's
  // rows once per staged 8-row strip of A, both groups per step.
  auto run_tile = [&](const TileCtx& t, index_t j0, index_t jb,
                      index_t mb_lo, index_t mb_hi) {
    const float* btile = packed.tile_values(t.chunk, t.nblock);
    const bool accumulate = t.chunk > 0;
    const bool finalize = epi_active && t.chunk == num_chunks - 1;
    const index_t g0 = j0 / L;
    const index_t g1 = ceil_div(j0 + jb, L);
    if (finalize && mb_lo < mb_hi) {
      // Pull the first m-block's slice of the epilogue's second operand
      // into cache; its strided per-tile access defeats the hardware
      // prefetcher, so cold reads would stall the stores a line at a
      // time. Subsequent m-blocks are prefetched a full block ahead.
      const index_t i0 = mb_lo * prm.ms;
      epi_root.shifted(i0, j0).prefetch_block(std::min(prm.ms, m - i0), jb);
    }
    for (index_t mb_idx = mb_lo; mb_idx < mb_hi; ++mb_idx) {
      const index_t i0 = mb_idx * prm.ms;
      const index_t mb = std::min(prm.ms, m - i0);
      if (finalize && mb_idx + 1 < mb_hi) {
        const index_t i1 = (mb_idx + 1) * prm.ms;
        epi_root.shifted(i1, j0).prefetch_block(std::min(prm.ms, m - i1),
                                                jb);
      }
      float* const c_block = C.row(i0) + j0;
      // One m-block against the tile, with the store mode (beta = 0 on
      // the first k-chunk) and the epilogue (final k-chunk only) as
      // compile-time constants.
      auto run_block = [&](auto accumulate_c, auto epi) {
        constexpr bool kAccumulate = decltype(accumulate_c)::value;
        using Epi = decltype(epi);
        if constexpr (row_walk_kernel(Policy::kVariant, Policy::kPacking)) {
          if (row_walk_block(cfg)) {
            // Row walk: 32-column strips (two L = 16 groups), each one
            // forward pass over the stored tile rows per 8-row strip of
            // the m-block; the B strip stays L1-hot across row strips.
            for (index_t j = 0; j < jb; j += 2 * L) {
              const int nt = static_cast<int>(std::min(2 * L, jb - j));
              const index_t g = (j0 + j) / L;
              const std::uint16_t* s0 = policy.idx_fn(t, g).buf;
              const std::uint16_t* s1 =
                  nt > L ? policy.idx_fn(t, g + 1).buf : s0;
              for (index_t i = 0; i < mb; i += kMicroM) {
                detail::row_walk<kAccumulate, Epi>(
                    static_cast<int>(std::min<index_t>(kMicroM, mb - i)),
                    t.wb, a_strips + (i0 + i) * pk, t.k0, btile + j, ldb,
                    s0, s1, nt, packed.values_end(),
                    c_block + i * C.ld() + j, C.ld(), epi.shifted(i, j));
              }
            }
            return;
          }
        }
        const APanel a = policy.prepare_a(
            t, A, i0, mb, worker_a_scratch(a_scratch_floats), lda);
        for (index_t g = g0; g < g1; ++g) {
          const index_t seg_lo = std::max(g * L, j0);
          const index_t seg_hi = std::min((g + 1) * L, j0 + jb);
          run_segment<Policy::kPrefetch, kAccumulate>(
              t.wb, a, btile, ldb, seg_lo - j0, policy.idx_fn(t, g), mb,
              c_block, C.ld(), seg_lo - j0, seg_hi - seg_lo, epi);
        }
      };
      auto by_mode = [&](auto epi) {
        if (accumulate) {
          run_block(std::true_type{}, epi);
        } else {
          run_block(std::false_type{}, epi);
        }
      };
      if (finalize) {
        by_mode(epi_root.shifted(i0, j0));
      } else {
        by_mode(detail::EpilogueNone{});
      }
    }
  };

  const index_t workers = pool != nullptr ? pool->size() : 1;
  if (workers > 1 && num_mblocks < workers && num_nblocks > 1) {
    // nc partitioning: each worker owns whole n-blocks. With resident
    // weights there is no Bs staging at all — per-worker scratch is just
    // the (thread-local, reused across calls) A panel.
    parallel_for(pool, 0, num_nblocks, [&](index_t nb_lo, index_t nb_hi) {
      for (index_t nb = nb_lo; nb < nb_hi; ++nb) {
        const index_t j0 = nb * prm.ns;
        const index_t jb = std::min(prm.ns, n - j0);
        for (index_t chunk = 0; chunk < num_chunks; ++chunk) {
          run_tile(make_tile(nb, chunk), j0, jb, 0, num_mblocks);
        }
      }
    });
    return;
  }

  // mc partitioning (or serial): m-blocks of each tile split across
  // workers, each reading the same resident Bs tile. A staging is the
  // executing thread's reusable scratch, so the steady-state serving
  // path performs zero per-call heap allocation.
  for (index_t nb = 0; nb < num_nblocks; ++nb) {
    const index_t j0 = nb * prm.ns;
    const index_t jb = std::min(prm.ns, n - j0);
    for (index_t chunk = 0; chunk < num_chunks; ++chunk) {
      const TileCtx t = make_tile(nb, chunk);
      parallel_for(pool, 0, num_mblocks,
                   [&](index_t mb_lo, index_t mb_hi) {
        run_tile(t, j0, jb, mb_lo, mb_hi);
      });
    }
  }
}

/// Run the blocked driver under PolicyResident<Packing, Prefetch> once
/// @p packed is known to hold the index streams that policy reads.
template <bool Packing, bool Prefetch>
void run_resident(const char* who, ConstViewF A, const CompressedNM& B,
                  ViewF C, const BlockingParams& params,
                  const PackedWeights& packed, ThreadPool* pool,
                  const EpilogueSpec& epilogue,
                  const EpilogueArgs& epilogue_args) {
  using Policy = PolicyResident<Packing, Prefetch>;
  const auto kind = packed_kind_for(Policy::kVariant, Packing);
  NMSPMM_CHECK_MSG(packed.kind() == kind,
                   who << " needs " << to_string(kind)
                       << " index streams but PackedWeights holds "
                       << to_string(packed.kind()));
  spmm_blocked(A, B, C, params, packed, Policy{packed}, pool, epilogue,
               epilogue_args);
}

}  // namespace

void spmm_v1(ConstViewF A, const CompressedNM& B, ViewF C,
             const BlockingParams& params, const PackedWeights& packed,
             ThreadPool* pool, const EpilogueSpec& epilogue,
             const EpilogueArgs& epilogue_args) {
  run_resident<false, false>("V1", A, B, C, params, packed, pool, epilogue,
                             epilogue_args);
}

void spmm_v2(ConstViewF A, const CompressedNM& B, ViewF C,
             const BlockingParams& params, const PackedWeights& packed,
             ThreadPool* pool, const EpilogueSpec& epilogue,
             const EpilogueArgs& epilogue_args) {
  run_resident<true, false>("V2", A, B, C, params, packed, pool, epilogue,
                            epilogue_args);
}

void spmm_v3(ConstViewF A, const CompressedNM& B, ViewF C,
             const BlockingParams& params, bool use_packing,
             const PackedWeights& packed, ThreadPool* pool,
             const EpilogueSpec& epilogue,
             const EpilogueArgs& epilogue_args) {
  if (use_packing) {
    run_resident<true, true>("V3 (packed)", A, B, C, params, packed, pool,
                             epilogue, epilogue_args);
  } else {
    run_resident<false, true>("V3 (non-packed)", A, B, C, params, packed,
                              pool, epilogue, epilogue_args);
  }
}

}  // namespace nmspmm
