#include "attn/kv_cache.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/numa_alloc.hpp"

namespace nmspmm::attn {

Status KvCacheOptions::validate() const {
  std::ostringstream os;
  if (n_kv_heads < 1) {
    os << "KvCacheOptions.n_kv_heads must be >= 1, got " << n_kv_heads;
    return Status::InvalidArgument(os.str());
  }
  if (head_dim < 1) {
    os << "KvCacheOptions.head_dim must be >= 1, got " << head_dim;
    return Status::InvalidArgument(os.str());
  }
  if (page_tokens < 1) {
    os << "KvCacheOptions.page_tokens must be >= 1, got " << page_tokens;
    return Status::InvalidArgument(os.str());
  }
  if (max_tokens < 1) {
    os << "KvCacheOptions.max_tokens must be >= 1, got " << max_tokens;
    return Status::InvalidArgument(os.str());
  }
  return Status::Ok();
}

KvCache::KvCache(KvCacheOptions options) : options_(options) {
  NMSPMM_CHECK_OK(options_.validate());
  page_floats_ =
      2 * static_cast<std::size_t>(options_.page_tokens * token_row());
  capacity_pages_ =
      (options_.max_tokens + options_.page_tokens - 1) / options_.page_tokens;
}

Status KvCache::begin_sequence(std::uint64_t seq_id) {
  auto [it, inserted] = seqs_.try_emplace(seq_id);
  if (!inserted) {
    std::ostringstream os;
    os << "sequence " << seq_id << " is already live (begin_sequence called "
       << "twice without free_sequence)";
    return Status::FailedPrecondition(os.str());
  }
  (void)it;
  live_sequences_.store(seqs_.size(), std::memory_order_relaxed);
  return Status::Ok();
}

Status KvCache::free_sequence(std::uint64_t seq_id) {
  auto it = seqs_.find(seq_id);
  if (it == seqs_.end()) {
    std::ostringstream os;
    os << "sequence " << seq_id << " is not live (double free, or freeing a "
       << "sequence that was never begun)";
    return Status::FailedPrecondition(os.str());
  }
  // Eviction: the finished sequence's pages go to the free list intact;
  // the next allocating append recycles them without touching the
  // allocator (or the page's NUMA placement).
  free_pages_.insert(free_pages_.end(), it->second.pages.begin(),
                     it->second.pages.end());
  pages_in_use_ -= static_cast<index_t>(it->second.pages.size());
  seqs_.erase(it);
  live_sequences_.store(seqs_.size(), std::memory_order_relaxed);
  freed_sequences_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

bool KvCache::has_sequence(std::uint64_t seq_id) const {
  return seqs_.count(seq_id) != 0;
}

StatusOr<index_t> KvCache::seq_len(std::uint64_t seq_id) const {
  auto it = seqs_.find(seq_id);
  if (it == seqs_.end()) {
    std::ostringstream os;
    os << "unknown sequence " << seq_id;
    return Status::NotFound(os.str());
  }
  return it->second.len;
}

bool KvCache::ensure_tail_page(Sequence& seq) {
  if (seq.len < static_cast<index_t>(seq.pages.size()) * options_.page_tokens) {
    return true;  // tail page still has room
  }
  float* page = nullptr;
  if (!free_pages_.empty()) {
    page = free_pages_.back();
    free_pages_.pop_back();
    pages_recycled_.fetch_add(1, std::memory_order_relaxed);
  } else {
    if (pages_in_use_ >= capacity_pages_) return false;
    if (fresh_pages_ == 0) {
      // A new slab: the pages that fit in 2 MiB (at least one), never
      // past the budget. Attention streams a sequence's pages every step;
      // on 2 MiB pages that walk costs one TLB entry per slab.
      const std::size_t page_bytes = page_floats_ * sizeof(float);
      fresh_pages_ = std::min<index_t>(
          static_cast<index_t>(std::max<std::size_t>(
              1, kHugePageBytes / page_bytes)),
          capacity_pages_ - pages_in_use_);
      slabs_.push_back(huge_page_buffer(
          static_cast<std::size_t>(fresh_pages_) * page_bytes));
      fresh_ = slabs_.back().as<float>();
      slab_bytes_.fetch_add(slabs_.back().size_bytes(),
                            std::memory_order_relaxed);
    }
    page = fresh_;
    fresh_ += page_floats_;
    --fresh_pages_;
    // First-touch placement: fault the page in from this (appending)
    // thread so it lands on the node that will stream it every decode
    // step. Also zeroes the K/V rows the sequence has not reached yet.
    numa::first_touch_zero(page, page_floats_ * sizeof(float));
    pages_allocated_.fetch_add(1, std::memory_order_relaxed);
    numa_node_.store(numa::node_of(page), std::memory_order_relaxed);
  }
  seq.pages.push_back(page);
  ++pages_in_use_;
  return true;
}

Status KvCache::append(std::uint64_t seq_id, const float* k, const float* v) {
  auto it = seqs_.find(seq_id);
  if (it == seqs_.end()) {
    std::ostringstream os;
    os << "unknown sequence " << seq_id << "; begin_sequence it first";
    return Status::NotFound(os.str());
  }
  Sequence& seq = it->second;
  if (!ensure_tail_page(seq)) {
    std::ostringstream os;
    os << "KV cache capacity exhausted appending to sequence " << seq_id
       << ": all " << capacity_pages_ << " pages ("
       << capacity_pages_ * options_.page_tokens
       << " tokens) are live; free finished sequences and retry";
    return Status::ResourceExhausted(os.str());
  }
  const index_t row = token_row();
  const index_t slot = seq.len % options_.page_tokens;
  float* page = seq.pages.back();
  std::memcpy(page + slot * row, k, static_cast<std::size_t>(row) *
                                        sizeof(float));
  std::memcpy(page + (options_.page_tokens + slot) * row, v,
              static_cast<std::size_t>(row) * sizeof(float));
  ++seq.len;
  appended_tokens_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

StatusOr<KvCache::SeqView> KvCache::view(std::uint64_t seq_id) const {
  auto it = seqs_.find(seq_id);
  if (it == seqs_.end()) {
    std::ostringstream os;
    os << "unknown sequence " << seq_id;
    return Status::NotFound(os.str());
  }
  SeqView v;
  v.len = it->second.len;
  v.page_tokens = options_.page_tokens;
  v.row = token_row();
  v.pages = it->second.pages.data();
  return v;
}

KvCache::Stats KvCache::stats() const {
  Stats s;
  s.page_bytes = page_floats_ * sizeof(float);
  s.capacity_pages = capacity_pages_;
  s.appended_tokens = appended_tokens_.load(std::memory_order_relaxed);
  s.pages_allocated = pages_allocated_.load(std::memory_order_relaxed);
  s.pages_recycled = pages_recycled_.load(std::memory_order_relaxed);
  s.live_sequences = live_sequences_.load(std::memory_order_relaxed);
  s.freed_sequences = freed_sequences_.load(std::memory_order_relaxed);
  s.numa_node = numa_node_.load(std::memory_order_relaxed);
  // Slabs are never released and every token is one K row + one V row.
  s.resident_bytes = slab_bytes_.load(std::memory_order_relaxed);
  s.appended_bytes = static_cast<std::size_t>(s.appended_tokens) * 2 *
                     static_cast<std::size_t>(token_row()) * sizeof(float);
  return s;
}

}  // namespace nmspmm::attn
