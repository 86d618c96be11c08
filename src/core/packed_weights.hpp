// Plan-time weight pre-packing (the serving-regime answer to Listing 1's
// per-call Bs staging).
//
// The paper's kernels stage Bs into shared memory per (k-chunk, n-block)
// tile because GPU shared memory is transient. Our serving regime is the
// opposite: weights are long-lived and the activation stream is small
// (decode steps are m=1), so re-staging B' through pack_b_block on every
// call is pure bandwidth tax on the memory-bound operand. PackedWeights
// moves all of that to plan time:
//
//   - values: B' re-laid-out tile-major. Each (k-chunk, n-block) tile is
//     a contiguous wb x ldb row-major panel with the ldb padding baked
//     in, and tiles are ordered exactly as the blocked driver visits
//     them (n-block outer, chunk inner), back to back — a short last
//     k-chunk stores only its wb rows, not ws_full — so the hot loop
//     reads B as one linear stream and pack_b_block disappears from the
//     hot path.
//   - index streams: the per-variant index resolution — V1's on-the-fly
//     (p/N)*M + D, V2's remap gather, V3's per-group hoist — collapses
//     at pack time into one contiguous uint16 stream per (tile, column
//     group). The kernels consume every variant through IdxFromBuffer;
//     prepare_group work is gone from the inner loop.
//   - cols (kRemapped only): the col_info column lists the packed-A
//     staging needs, copied tile-contiguous so execution does not touch
//     the ColInfo object at all.
//
// Residency of the packed forms is owned by mem::WeightStore
// (src/mem/weight_store.hpp): one PackedWeights is built per
// (weights, ks, ns, kind) and every batch-size bucket of the plan cache
// shares it through a store lease, which also enforces the byte budget
// and the packed-only mode. The footprint is ~B' again (values + the
// ldb column padding) plus 2x the D index matrix — see footprint_bytes().
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/kernel_params.hpp"
#include "core/nm_format.hpp"
#include "util/aligned_buffer.hpp"

namespace nmspmm {

class ColInfo;
class ThreadPool;

class PackedWeights {
 public:
  /// Which index resolution the streams encode.
  ///  - kDirect: within-chunk column offsets (p/N)*M + D — the
  ///    non-packed A addressing used by V1 and V3's moderate-sparsity
  ///    path.
  ///  - kRemapped: positions into the col_info packed-A panel — the
  ///    packing-strategy addressing used by V2 and V3's high-sparsity
  ///    path (requires col_info pre-processing; built internally when
  ///    not supplied).
  enum class IndexKind { kDirect, kRemapped };

  /// NUMA placement request for the resident value tiles. The value
  /// pages are zero-filled (first-touched) by @p pool's workers, each
  /// touching the contiguous n-block partition it will stream at
  /// execute time, so on a multi-socket host the tiles live on the node
  /// of the worker that reads them. @p bind_node >= 0 additionally
  /// mbinds the whole buffer to one node (explicit placement for
  /// sharded serving). Both degrade to plain zero-fill on single-node
  /// or non-Linux hosts.
  struct Placement {
    ThreadPool* pool = nullptr;
    bool numa_first_touch = true;
    int bind_node = -1;
  };

  /// Pre-pack @p B for chunk depth @p ks and block width @p ns. For
  /// kRemapped a caller-provided @p col_info (built with the same ks/ns)
  /// is reused; pass nullptr to build it internally. Throws CheckError
  /// on invalid blocking — including ks > kMaxKs, which would wrap the
  /// uint16 streams (the same guard validate_params enforces) — and on
  /// values-stripped @p B (packed-only residency keeps no source to
  /// pack from).
  static PackedWeights build(const CompressedNM& B, index_t ks, index_t ns,
                             IndexKind kind,
                             const ColInfo* col_info = nullptr,
                             const Placement* placement = nullptr);

  /// Process-wide count of build() completions — the pack-counter used
  /// by tests asserting "re-plan re-packs exactly once" and by the
  /// WeightStore's repack accounting.
  static std::uint64_t build_count();

  PackedWeights(PackedWeights&&) noexcept = default;
  PackedWeights& operator=(PackedWeights&&) noexcept = default;

  [[nodiscard]] IndexKind kind() const { return kind_; }
  [[nodiscard]] index_t ks() const { return ks_; }
  [[nodiscard]] index_t ns() const { return ns_; }
  [[nodiscard]] index_t ldb() const { return ldb_; }
  [[nodiscard]] index_t ws_full() const { return ws_full_; }
  [[nodiscard]] index_t num_chunks() const { return num_chunks_; }
  [[nodiscard]] index_t num_nblocks() const { return num_nblocks_; }

  /// True when this packed form was built for @p B under blocking @p p —
  /// the kernels' precondition for taking the resident path.
  [[nodiscard]] bool matches(const CompressedNM& B,
                             const BlockingParams& p) const {
    return orig_rows_ == B.orig_rows && cols_ == B.cols &&
           compressed_rows_ == B.rows() && config_ == B.config &&
           ks_ == p.ks && ns_ == p.ns;
  }

  /// The resident wb x ldb() value panel of tile (chunk, nblock): row u
  /// holds B'[u0+u][j0..j0+jb) zero-padded to ldb, byte-identical to
  /// what pack_b_block used to stage per call.
  [[nodiscard]] const float* tile_values(index_t chunk,
                                         index_t nblock) const {
    return values_.as<float>() + tile_value_offset(chunk, nblock);
  }

  /// One past the last resident value: the bound a prefetch running
  /// ahead of the stored stream must stay below.
  [[nodiscard]] const float* values_end() const {
    return values_.as<float>() + value_count_;
  }

  /// The flattened index stream of global column group @p g within tile
  /// (chunk, nblock): entry p is the A column compressed row u0+p uses,
  /// already resolved for this->kind(). Contiguous per group; groups of
  /// one tile are adjacent.
  [[nodiscard]] const std::uint16_t* tile_index_stream(index_t chunk,
                                                       index_t nblock,
                                                       index_t g) const {
    const index_t g_local = g - (nblock * ns_) / vector_length_;
    NMSPMM_DCHECK(g_local >= 0);
    return indices_.data() +
           static_cast<std::size_t>(
               index_offsets_[static_cast<std::size_t>(
                   tile_ordinal(chunk, nblock))] +
               g_local * tile_rows(chunk));
  }

  /// kRemapped only: the sorted local columns tile (chunk, nblock)
  /// stages through pack_a_cols (what plan(t).cols used to provide).
  [[nodiscard]] std::span<const std::int32_t> tile_cols(
      index_t chunk, index_t nblock) const {
    const auto ord = static_cast<std::size_t>(tile_ordinal(chunk, nblock));
    return std::span<const std::int32_t>(
        cols_pool_.data() + cols_offsets_[ord],
        cols_offsets_[ord + 1] - cols_offsets_[ord]);
  }

  /// Mean |col_info| / ks over all tiles (1.0 for kDirect).
  [[nodiscard]] double mean_packing_ratio() const { return packing_ratio_; }

  /// The NUMA node backing the value tiles, when placement resolved to
  /// one node; -1 for unknown, mixed (per-worker first touch across
  /// nodes), or single-node hosts.
  [[nodiscard]] int numa_node() const { return numa_node_; }

  /// Resident bytes of the packed form — what one entry adds to the
  /// WeightStore's resident footprint on top of the CompressedNM itself.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return value_count_ * sizeof(float) +
           indices_.size() * sizeof(std::uint16_t) +
           cols_pool_.size() * sizeof(std::int32_t);
  }

 private:
  PackedWeights() = default;

  [[nodiscard]] index_t tile_ordinal(index_t chunk, index_t nblock) const {
    NMSPMM_DCHECK(chunk >= 0 && chunk < num_chunks_);
    NMSPMM_DCHECK(nblock >= 0 && nblock < num_nblocks_);
    // Execution order of the blocked driver: n-block outer, chunk inner.
    return nblock * num_chunks_ + chunk;
  }

  /// Base of tile (chunk, nblock) in values_. Tiles are back to back in
  /// n-block-major order, every n-block holds all w compressed rows, and
  /// only the last chunk is short, so the base has a closed form.
  [[nodiscard]] std::size_t tile_value_offset(index_t chunk,
                                              index_t nblock) const {
    NMSPMM_DCHECK(chunk >= 0 && chunk < num_chunks_);
    NMSPMM_DCHECK(nblock >= 0 && nblock < num_nblocks_);
    return static_cast<std::size_t>(nblock * compressed_rows_ +
                                    chunk * ws_full_) *
           static_cast<std::size_t>(ldb_);
  }

  /// Stored rows (wb) of every tile in k-chunk @p chunk: ws_full except
  /// in a short last chunk.
  [[nodiscard]] index_t tile_rows(index_t chunk) const {
    return std::min(ws_full_, compressed_rows_ - chunk * ws_full_);
  }

  IndexKind kind_ = IndexKind::kDirect;
  NMConfig config_;
  index_t orig_rows_ = 0;        ///< weights k (unpadded)
  index_t cols_ = 0;             ///< weights n
  index_t compressed_rows_ = 0;  ///< w
  index_t vector_length_ = 0;    ///< L
  index_t ks_ = 0;
  index_t ns_ = 0;
  index_t ldb_ = 0;
  index_t ws_full_ = 0;
  index_t num_chunks_ = 0;
  index_t num_nblocks_ = 0;
  double packing_ratio_ = 1.0;
  int numa_node_ = -1;

  AlignedBuffer values_;        ///< tile-major resident B'
  std::size_t value_count_ = 0; ///< floats in values_
  std::vector<std::uint16_t> indices_;  ///< flattened per-group streams
  std::vector<index_t> index_offsets_;  ///< per-tile base into indices_
  std::vector<std::int32_t> cols_pool_;     ///< kRemapped: packed columns
  std::vector<std::size_t> cols_offsets_;   ///< per-tile span into pool
};

const char* to_string(PackedWeights::IndexKind kind);

}  // namespace nmspmm
