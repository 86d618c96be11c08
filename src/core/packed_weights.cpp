#include "core/packed_weights.hpp"

#include <algorithm>
#include <atomic>

#include "core/col_info.hpp"
#include "core/pack.hpp"
#include "util/numa_alloc.hpp"
#include "util/thread_pool.hpp"

namespace nmspmm {

namespace {

std::atomic<std::uint64_t> g_build_count{0};

}  // namespace

const char* to_string(PackedWeights::IndexKind kind) {
  switch (kind) {
    case PackedWeights::IndexKind::kDirect: return "direct";
    case PackedWeights::IndexKind::kRemapped: return "remapped";
  }
  return "?";
}

std::uint64_t PackedWeights::build_count() {
  return g_build_count.load(std::memory_order_relaxed);
}

PackedWeights PackedWeights::build(const CompressedNM& B, index_t ks,
                                   index_t ns, IndexKind kind,
                                   const ColInfo* col_info,
                                   ThreadPool* first_touch_pool) {
  const NMConfig& cfg = B.config;
  cfg.validate();
  NMSPMM_CHECK_MSG(B.has_values(),
                   "cannot pack a values-stripped CompressedNM: under "
                   "packed-only residency the packed form is the only "
                   "resident copy of the values and cannot be rebuilt");
  NMSPMM_CHECK_MSG(ks > 0 && ks % cfg.m == 0,
                   "ks must be a positive multiple of M, got " << ks);
  NMSPMM_CHECK_MSG(ns > 0, "ns must be positive");
  // Same guard as validate_params (kernel_params.hpp): the flattened
  // streams hold within-chunk column offsets in uint16, so a chunk
  // deeper than kMaxKs would silently wrap them.
  NMSPMM_CHECK_MSG(ks <= kMaxKs,
                   "ks=" << ks << " exceeds " << kMaxKs
                         << ": flattened index streams are uint16 and "
                            "would silently wrap");

  PackedWeights pw;
  pw.kind_ = kind;
  pw.config_ = cfg;
  pw.orig_rows_ = B.orig_rows;
  pw.cols_ = B.cols;
  pw.compressed_rows_ = B.rows();
  pw.vector_length_ = cfg.vector_length;
  pw.ks_ = ks;
  pw.ns_ = ns;
  pw.ldb_ = static_cast<index_t>(
      round_up(static_cast<std::size_t>(ns), Matrix<float>::kLdPadElements));
  pw.ws_full_ = ks * cfg.n / cfg.m;
  const index_t pk = cfg.padded_k(B.orig_rows);
  pw.num_chunks_ = ceil_div(pk, ks);
  pw.num_nblocks_ = ceil_div(B.cols, ns);
  const index_t L = cfg.vector_length;
  const index_t num_tiles = pw.num_chunks_ * pw.num_nblocks_;

  // col_info pre-processing for the remapped kind: reuse the caller's
  // (it must match the blocking) or run it here — either way execution
  // only ever touches the flattened copies below.
  ColInfo built_info;
  const ColInfo* info = nullptr;
  if (kind == IndexKind::kRemapped) {
    if (col_info != nullptr) {
      NMSPMM_CHECK_MSG(col_info->ks() == ks && col_info->ns() == ns,
                       "col_info was built for ks=" << col_info->ks()
                           << " ns=" << col_info->ns()
                           << " but packing uses ks=" << ks << " ns=" << ns);
      info = col_info;
    } else {
      built_info = build_col_info(B, ks, ns);
      info = &built_info;
    }
    pw.packing_ratio_ = info->mean_packing_ratio();
  }

  // ---- values: one contiguous wb x ldb panel per tile, in execution
  // order and back to back (tile_value_offset gives each tile's base). The
  // buffer is zero-filled (padding columns must read as zero) by the
  // workers that will execute each n-block partition, so Linux
  // first-touch places every partition's tiles on its executing
  // worker's NUMA node; pack_b_block then produces the exact bytes the
  // per-call staging used to, so the resident path is bit-identical to
  // the staged one.
  const auto nblock_floats =
      static_cast<std::size_t>(pw.compressed_rows_) *
      static_cast<std::size_t>(pw.ldb_);
  pw.value_count_ = static_cast<std::size_t>(pw.num_nblocks_) * nblock_floats;
  pw.values_ = AlignedBuffer(pw.value_count_ * sizeof(float));
  float* const values = pw.values_.as<float>();
  // Partition by n-block, mirroring spmm_blocked's nc partitioning:
  // tiles are nb-major, so each worker touches one contiguous range.
  parallel_for(first_touch_pool, 0, pw.num_nblocks_,
               [&](index_t nb_lo, index_t nb_hi) {
    numa::first_touch_zero(
        values + static_cast<std::size_t>(nb_lo) * nblock_floats,
        static_cast<std::size_t>(nb_hi - nb_lo) * nblock_floats *
            sizeof(float));
  });
  // Record the resolved placement: one node when the whole buffer
  // agrees, -1 when mixed (per-worker first touch across sockets) or
  // undeterminable.
  if (pw.value_count_ > 0) {
    const int first = numa::node_of(values);
    const int last = numa::node_of(values + pw.value_count_ - 1);
    pw.numa_node_ = first == last ? first : -1;
  }
  for (index_t nb = 0; nb < pw.num_nblocks_; ++nb) {
    const index_t j0 = nb * ns;
    const index_t jb = std::min(ns, B.cols - j0);
    for (index_t chunk = 0; chunk < pw.num_chunks_; ++chunk) {
      float* tile = values + pw.tile_value_offset(chunk, nb);
      detail::pack_b_block(B.values.view(), chunk * pw.ws_full_,
                           pw.tile_rows(chunk), j0, jb, tile, pw.ldb_);
    }
  }

  // ---- index streams: per (tile, group) a contiguous wb-long uint16
  // stream, group-major within the tile. Groups can straddle n-blocks
  // when ns % L != 0 and a short last chunk has fewer rows, so tile
  // stream sizes vary — index_offsets_ keeps the exact per-tile base.
  pw.index_offsets_.assign(static_cast<std::size_t>(num_tiles) + 1, 0);
  for (index_t nb = 0; nb < pw.num_nblocks_; ++nb) {
    const index_t j0 = nb * ns;
    const index_t j1 = std::min(j0 + ns, B.cols);
    const index_t groups = ceil_div(j1, L) - j0 / L;
    for (index_t chunk = 0; chunk < pw.num_chunks_; ++chunk) {
      pw.index_offsets_[static_cast<std::size_t>(
          pw.tile_ordinal(chunk, nb)) + 1] = groups * pw.tile_rows(chunk);
    }
  }
  for (std::size_t t = 1; t < pw.index_offsets_.size(); ++t) {
    pw.index_offsets_[t] += pw.index_offsets_[t - 1];
  }
  pw.indices_.assign(
      static_cast<std::size_t>(pw.index_offsets_.back()), 0);
  if (kind == IndexKind::kRemapped) {
    pw.cols_offsets_.assign(static_cast<std::size_t>(num_tiles) + 1, 0);
  }

  for (index_t nb = 0; nb < pw.num_nblocks_; ++nb) {
    const index_t j0 = nb * ns;
    const index_t j1 = std::min(j0 + ns, B.cols);
    const index_t g0 = j0 / L;
    const index_t g1 = ceil_div(j1, L);
    for (index_t chunk = 0; chunk < pw.num_chunks_; ++chunk) {
      const index_t u0 = chunk * pw.ws_full_;
      const index_t wb = pw.tile_rows(chunk);
      const auto ord = static_cast<std::size_t>(pw.tile_ordinal(chunk, nb));
      std::uint16_t* streams =
          pw.indices_.data() + static_cast<std::size_t>(pw.index_offsets_[ord]);
      if (kind == IndexKind::kDirect) {
        // V1 / V3-non-packed resolution, hoisted out of the inner loop:
        // within-chunk offset (p/N)*M + D[u0+p][g] (< ks, so it fits).
        for (index_t g = g0; g < g1; ++g) {
          std::uint16_t* stream = streams + (g - g0) * wb;
          for (index_t p = 0; p < wb; ++p) {
            const index_t local =
                (p / cfg.n) * cfg.m + B.indices(u0 + p, g);
            NMSPMM_DCHECK(local >= 0 && local < ks);
            stream[p] = static_cast<std::uint16_t>(local);
          }
        }
      } else {
        // V2 / V3-packed resolution: the reordered index matrix already
        // names packed-panel positions; flatten its strided columns.
        const PackPlan& plan = info->plan(chunk, nb);
        for (index_t g = g0; g < g1; ++g) {
          std::uint16_t* stream = streams + (g - g0) * wb;
          for (index_t p = 0; p < wb; ++p) stream[p] = plan.remapped(p, g - g0);
        }
        pw.cols_pool_.insert(pw.cols_pool_.end(), plan.cols.begin(),
                             plan.cols.end());
        pw.cols_offsets_[ord + 1] = plan.cols.size();
      }
    }
  }
  if (kind == IndexKind::kRemapped) {
    // cols were appended in (nb, chunk) order == ordinal order, so the
    // per-tile sizes prefix-sum directly into pool offsets.
    for (std::size_t t = 1; t < pw.cols_offsets_.size(); ++t) {
      pw.cols_offsets_[t] += pw.cols_offsets_[t - 1];
    }
  }
  g_build_count.fetch_add(1, std::memory_order_relaxed);
  return pw;
}

}  // namespace nmspmm
