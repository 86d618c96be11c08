// Paged per-sequence K/V residency for decode-time attention.
//
// Autoregressive decode appends one (K, V) pair per step and re-reads
// the whole history every step, so the cache — not the weights — is the
// growing resident footprint of a serving process. KvCache manages it
// the way mem::WeightStore manages packed tiles: fixed-size pages,
// plan-time capacity sizing (a hard page budget picked when the decoder
// plan is built), byte-accounted stats() that fold into the plan's
// resident-bytes reporting, NUMA first-touch placement of fresh pages
// by the appending thread (util/numa_alloc), and recycling — pages of a
// finished (freed) sequence go back to a free list instead of the
// allocator, so steady-state decode allocates nothing.
//
// Layout: one page holds page_tokens() consecutive tokens of one
// sequence, K then V, each token a contiguous [n_kv_heads * head_dim]
// row, so a block of tokens within a page is one contiguous run of K
// rows and one of V rows — what the attention core's token-major pass
// reads, every KV head taking its slice of each row. Pages are carved
// from slabs of up to 2 MiB (huge_page_buffer), so where transparent
// huge pages are enabled a slab is one 2 MiB page and one TLB entry.
// Capacity errors are typed for the serving layer:
// appending past the page budget is RESOURCE_EXHAUSTED (retryable —
// the PR 8 admission/retry machinery backs off and retries once
// sequences finish), unknown sequences are NOT_FOUND, and lifecycle
// misuse (double begin/free) is FAILED_PRECONDITION.
//
// Thread safety: one caller at a time. The owning DecoderPlan serializes
// every cache touch (append, attend, lifecycle) under its run mutex,
// mirroring ModelPlan::run; standalone users provide their own
// synchronization. stats() is the exception: its counters are relaxed
// atomics, so it may run concurrently with that one caller.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/aligned_buffer.hpp"
#include "util/check.hpp"
#include "util/matrix.hpp"

namespace nmspmm::attn {

struct KvCacheOptions {
  /// K/V geometry: one cached token is n_kv_heads * head_dim floats for
  /// K and the same for V.
  index_t n_kv_heads = 0;
  index_t head_dim = 0;
  /// Tokens per page. Larger pages amortize the page walk in the
  /// attention loop; smaller pages waste less on short sequences.
  index_t page_tokens = 64;
  /// Plan-time capacity: total tokens the cache may hold across all
  /// live sequences, rounded up to whole pages. Appends past the
  /// resulting page budget fail with RESOURCE_EXHAUSTED.
  index_t max_tokens = 0;

  [[nodiscard]] Status validate() const;
};

class KvCache {
 public:
  /// Throws CheckError on an invalid configuration (the decoder plan
  /// factory validates first and reports Status).
  explicit KvCache(KvCacheOptions options);

  /// Register a new live sequence with an empty context.
  /// FAILED_PRECONDITION when @p seq_id is already live.
  [[nodiscard]] Status begin_sequence(std::uint64_t seq_id);
  /// Finish a sequence: its pages go back to the free list (counted as
  /// recycled when next reused). FAILED_PRECONDITION when @p seq_id is
  /// not live — a double free, or a free of a never-begun id.
  [[nodiscard]] Status free_sequence(std::uint64_t seq_id);
  [[nodiscard]] bool has_sequence(std::uint64_t seq_id) const;
  [[nodiscard]] StatusOr<index_t> seq_len(std::uint64_t seq_id) const;

  /// Append one token's K and V (each n_kv_heads * head_dim floats) to
  /// the sequence's context. NOT_FOUND for an unknown sequence;
  /// RESOURCE_EXHAUSTED when the append needs a page and the budget is
  /// spent (retryable: freeing any sequence releases pages).
  [[nodiscard]] Status append(std::uint64_t seq_id, const float* k,
                              const float* v);

  /// Zero-copy view of one sequence's cached context, for the attention
  /// core's streaming loops. Valid until the next append/free for the
  /// sequence.
  struct SeqView {
    index_t len = 0;          ///< cached tokens
    index_t page_tokens = 0;  ///< tokens per page
    index_t row = 0;          ///< floats per token (n_kv_heads * head_dim)
    const float* const* pages = nullptr;  ///< page base pointers

    /// K row of token @p t: base + token offset (K occupies the first
    /// page_tokens rows of a page, V the next page_tokens).
    [[nodiscard]] const float* k(index_t t) const {
      return pages[t / page_tokens] + (t % page_tokens) * row;
    }
    [[nodiscard]] const float* v(index_t t) const {
      return pages[t / page_tokens] + (page_tokens + t % page_tokens) * row;
    }
  };
  [[nodiscard]] StatusOr<SeqView> view(std::uint64_t seq_id) const;

  /// Byte accounting and lifecycle counters, WeightStore-style: resident
  /// covers every slab mapped (pages live, pooled or not yet carved),
  /// appended is the cumulative K+V payload written, recycled counts
  /// free-list reuses that saved an allocation.
  struct Stats {
    std::size_t resident_bytes = 0;
    std::size_t appended_bytes = 0;
    std::uint64_t appended_tokens = 0;
    std::uint64_t pages_allocated = 0;
    std::uint64_t pages_recycled = 0;
    std::uint64_t live_sequences = 0;
    std::uint64_t freed_sequences = 0;
    index_t capacity_pages = 0;
    std::size_t page_bytes = 0;
    /// NUMA node of the most recently allocated page (-1 unknown).
    int numa_node = -1;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const KvCacheOptions& options() const { return options_; }
  [[nodiscard]] index_t page_tokens() const { return options_.page_tokens; }
  /// Floats per cached token (one of K or V).
  [[nodiscard]] index_t token_row() const {
    return options_.n_kv_heads * options_.head_dim;
  }

 private:
  struct Sequence {
    index_t len = 0;
    std::vector<float*> pages;  ///< SeqView aliases this
  };

  /// A page with room for the next token, allocating or recycling if the
  /// current tail page is full; null when the budget is spent.
  bool ensure_tail_page(Sequence& seq);

  KvCacheOptions options_;
  std::size_t page_floats_ = 0;  ///< 2 * page_tokens * token_row
  index_t capacity_pages_ = 0;
  std::unordered_map<std::uint64_t, Sequence> seqs_;
  /// Page storage, never released: slabs of up to 2 MiB of whole pages
  /// (util/aligned_buffer.hpp huge_page_buffer), carved a page at a time.
  std::vector<AlignedBuffer> slabs_;
  float* fresh_ = nullptr;     ///< the newest slab's next uncarved page
  index_t fresh_pages_ = 0;    ///< uncarved pages left in it
  std::vector<float*> free_pages_;
  index_t pages_in_use_ = 0;

  // stats() counters (written by the one caller, read by any thread).
  std::atomic<std::uint64_t> appended_tokens_{0};
  std::atomic<std::uint64_t> pages_allocated_{0};
  std::atomic<std::uint64_t> pages_recycled_{0};
  std::atomic<std::uint64_t> live_sequences_{0};
  std::atomic<std::uint64_t> freed_sequences_{0};
  std::atomic<std::size_t> slab_bytes_{0};
  std::atomic<int> numa_node_{-1};
};

}  // namespace nmspmm::attn
