#include "mem/weight_store.hpp"

#include <chrono>
#include <utility>

#include "obs/trace.hpp"
#include "serve/fault.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace nmspmm::mem {

const char* to_string(ResidencyMode mode) {
  switch (mode) {
    case ResidencyMode::kDefault: return "default";
    case ResidencyMode::kPackedOnly: return "packed-only";
  }
  return "?";
}

// ---------------------------------------------------------------- lease

WeightLease::~WeightLease() {
  if (store_ != nullptr) store_->release(*this);
}

std::shared_ptr<const PackedWeights> WeightLease::pin() const {
  // Non-evictable leases (packed-only mode, unbudgeted stores) freeze
  // their payload for life: no lock, no pin accounting, just a
  // shared_ptr copy — the hot path pays nothing for the store.
  if (!evictable_.load(std::memory_order_acquire)) return payload_;
  return store_->pin_slow(*this);
}

std::shared_ptr<const PackedWeights> WeightLease::resident() const {
  if (!evictable_.load(std::memory_order_acquire)) return payload_;
  std::lock_guard lock(store_->mutex_);
  return payload_;
}

int WeightLease::numa_node() const {
  const auto payload = resident();
  return payload != nullptr ? payload->numa_node() : -1;
}

// ---------------------------------------------------------------- store

std::size_t WeightStore::KeyHash::operator()(
    const WeightLease::Key& k) const noexcept {
  std::size_t h = std::hash<const void*>{}(k.weights);
  hash_combine(h, static_cast<std::size_t>(k.ks));
  hash_combine(h, static_cast<std::size_t>(k.ns));
  hash_combine(h, static_cast<std::size_t>(k.kind));
  return h;
}

WeightStore::WeightStore(WeightStoreOptions options) : options_(options) {}

// Leases hold a shared_ptr to their store, so no lease can outlive it:
// by the time this runs the registry and LRU are empty.
WeightStore::~WeightStore() = default;

const std::shared_ptr<WeightStore>& WeightStore::global() {
  static auto* store = new std::shared_ptr<WeightStore>(
      std::make_shared<WeightStore>());
  return *store;
}

std::shared_ptr<const PackedWeights> WeightStore::build_payload(
    const CompressedNM& B, const WeightLease& lease,
    ThreadPool* pool) const {
  // Chaos hook: a repack-on-demand allocation failure surfaces to the
  // executing plan as bad_alloc → RESOURCE_EXHAUSTED, exactly like a
  // real allocation failure inside PackedWeights::build.
  if (NMSPMM_FAULT_FIRE(kRepackAlloc)) {
    throw ResourceExhaustedError("injected repack allocation failure");
  }
  return std::make_shared<const PackedWeights>(PackedWeights::build(
      B, lease.key_.ks, lease.key_.ns, lease.kind_, nullptr, pool));
}

std::shared_ptr<const PackedWeights> WeightStore::make_pin_locked(
    const WeightLease& lease) {
  ++lease.pins_;
  // The guard keeps three things alive until the caller lets go: the
  // payload bytes (kernels stream them), the lease (the deleter reads
  // it), and transitively this store. Unpinning re-checks the budget.
  struct PinReleaser {
    std::shared_ptr<WeightLease> lease;
    std::shared_ptr<const PackedWeights> payload;
    void operator()(const PackedWeights*) {
      lease->store_->unpin(*lease);
    }
  };
  return std::shared_ptr<const PackedWeights>(
      lease.payload_.get(),
      PinReleaser{const_cast<WeightLease&>(lease).shared_from_this(),
                  lease.payload_});
}

void WeightStore::touch_locked(const WeightLease& lease) {
  if (lease.in_lru_) {
    lru_.splice(lru_.begin(), lru_, lease.lru_pos_);
    lease.lru_pos_ = lru_.begin();
  }
}

void WeightStore::evict_locked() {
  if (options_.max_resident_bytes == 0) return;
  auto it = lru_.end();
  while (resident_bytes_ > options_.max_resident_bytes && it != lru_.begin()) {
    --it;
    WeightLease* victim = *it;
    // Pinned forms are never dropped: an in-flight execute streams from
    // them, and freeing bytes someone still holds a pin on would not
    // reduce the footprint anyway.
    if (victim->pins_ != 0 || victim->payload_ == nullptr) continue;
    victim->payload_.reset();
    resident_bytes_ -= victim->bytes_;
    ++stats_.evictions;
  }
}

std::shared_ptr<const PackedWeights> WeightStore::pin_slow(
    const WeightLease& lease) {
  {
    std::lock_guard lock(mutex_);
    if (lease.payload_ != nullptr) {
      ++stats_.hits;
      touch_locked(lease);
      return make_pin_locked(lease);
    }
  }
  // Evicted: rebuild from the source weights outside the lock (packing
  // is O(weights) and must not stall other matrices). Racing repackers
  // are possible; the loser's copy is dropped below.
  const auto source = lease.source_.lock();
  NMSPMM_CHECK_MSG(source != nullptr,
                   "packed weights were evicted and the source CompressedNM "
                   "has been released: cannot repack");
  const auto pool = lease.repack_pool_.lock();
  const auto repack_start = std::chrono::steady_clock::now();
  auto rebuilt = build_payload(*source, lease, pool.get());
  // Repack-on-demand is exactly the hidden latency a trace exists to
  // surface: count it process-wide and emit a kRepack span (a tracing
  // Server attributes the count to the execute window it landed in).
  obs::count_repack_event(
      lease.bytes_,
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - repack_start)
              .count()));

  std::lock_guard lock(mutex_);
  if (lease.payload_ == nullptr) {
    lease.payload_ = std::move(rebuilt);
    resident_bytes_ += lease.bytes_;
    ++stats_.repacks;
    touch_locked(lease);
  } else {
    ++stats_.hits;  // a racing repacker beat us; serve its copy
  }
  // Pin before re-checking the budget: the caller is about to execute
  // against these tiles, so the sweep must pick a different victim.
  auto pinned = make_pin_locked(lease);
  evict_locked();
  return pinned;
}

void WeightStore::unpin(const WeightLease& lease) {
  std::lock_guard lock(mutex_);
  NMSPMM_DCHECK(lease.pins_ > 0);
  --lease.pins_;
  if (lease.pins_ == 0) evict_locked();
}

void WeightStore::release(WeightLease& lease) {
  std::lock_guard lock(mutex_);
  if (lease.in_lru_) {
    lru_.erase(lease.lru_pos_);
    lease.in_lru_ = false;
  }
  if (lease.payload_ != nullptr) {
    resident_bytes_ -= lease.bytes_;
    lease.payload_.reset();
  }
  // Drop the registry entry unless a newer lease already took the key
  // (our weak_ptr is expired by now, a live one is not ours).
  if (auto it = leases_.find(lease.key_);
      it != leases_.end() && it->second.expired()) {
    leases_.erase(it);
  }
}

std::shared_ptr<WeightLease> WeightStore::acquire(
    const std::shared_ptr<const CompressedNM>& B, index_t ks, index_t ns,
    PackedWeights::IndexKind kind, ResidencyMode mode,
    const std::shared_ptr<ThreadPool>& pool) {
  NMSPMM_CHECK(B != nullptr);
  const WeightLease::Key key{B.get(), ks, ns, static_cast<int>(kind)};
  std::shared_ptr<WeightLease> existing;
  {
    std::lock_guard lock(mutex_);
    if (auto it = leases_.find(key); it != leases_.end()) {
      if (auto lease = it->second.lock();
          lease != nullptr && lease->source_.lock() == B) {
        // Alive and still the same matrix (address reuse implies the
        // old owner died first, expiring the source weak_ptr).
        if (lease->payload_ != nullptr) {
          ++stats_.hits;
          touch_locked(*lease);
          if (mode == ResidencyMode::kPackedOnly && lease->in_lru_) {
            // Upgrade: packed-only callers strip their source values,
            // so this form must never be evicted again.
            lru_.erase(lease->lru_pos_);
            lease->in_lru_ = false;
            lease->evictable_.store(false, std::memory_order_release);
          }
          return lease;
        }
        existing = std::move(lease);  // evicted: rebuild below
      } else {
        leases_.erase(it);  // expired or address-reused entry
      }
    }
  }

  if (existing != nullptr) {
    // Rebuild through the pin path (it handles racing repackers), then
    // apply the packed-only upgrade while the payload is pinned.
    auto pinned = existing->pin();
    if (mode == ResidencyMode::kPackedOnly) {
      std::lock_guard lock(mutex_);
      if (existing->in_lru_) {
        lru_.erase(existing->lru_pos_);
        existing->in_lru_ = false;
      }
      existing->evictable_.store(false, std::memory_order_release);
    }
    return existing;
  }

  // First contact: build outside the lock — packing is O(weights) and
  // must not stall concurrent plan builds for other matrices.
  auto payload = std::make_shared<const PackedWeights>(
      PackedWeights::build(*B, ks, ns, kind, nullptr, pool.get()));

  std::lock_guard lock(mutex_);
  if (auto it = leases_.find(key); it != leases_.end()) {
    if (auto lease = it->second.lock();
        lease != nullptr && lease->source_.lock() == B) {
      // A racing builder won the insert; drop our copy and serve its
      // lease — but still honor this caller's mode: a packed-only
      // claim must pin the form for life even when the winner was a
      // default-mode builder (the packed-only caller strips its source
      // next, after which eviction would be unrecoverable).
      ++stats_.hits;
      if (mode == ResidencyMode::kPackedOnly) {
        if (lease->payload_ == nullptr) {
          // Instantly evicted under a tiny budget: reinstate the copy
          // we just built rather than repacking again.
          lease->payload_ = std::move(payload);
          resident_bytes_ += lease->bytes_;
          ++stats_.repacks;
        }
        if (lease->in_lru_) {
          lru_.erase(lease->lru_pos_);
          lease->in_lru_ = false;
        }
        lease->evictable_.store(false, std::memory_order_release);
      }
      return lease;
    }
    leases_.erase(it);
  }
  auto lease = std::shared_ptr<WeightLease>(new WeightLease());
  lease->store_ = shared_from_this();
  lease->key_ = key;
  lease->source_ = B;
  lease->repack_pool_ = pool;
  lease->kind_ = kind;
  lease->bytes_ = payload->footprint_bytes();
  lease->payload_ = std::move(payload);
  const bool evictable = options_.max_resident_bytes > 0 &&
                         mode == ResidencyMode::kDefault;
  lease->evictable_.store(evictable, std::memory_order_release);
  if (evictable) {
    lru_.push_front(lease.get());
    lease->lru_pos_ = lru_.begin();
    lease->in_lru_ = true;
  }
  resident_bytes_ += lease->bytes_;
  ++stats_.misses;
  leases_[key] = lease;
  evict_locked();
  return lease;
}

WeightStore::Stats WeightStore::stats() const {
  std::lock_guard lock(mutex_);
  Stats stats = stats_;
  stats.resident_bytes = resident_bytes_;
  for (const WeightLease* lease : lru_) {
    if (lease->pins_ != 0 && lease->payload_ != nullptr) {
      stats.pinned_bytes += lease->bytes_;
    }
  }
  for (const auto& [key, weak] : leases_) {
    if (!weak.expired()) ++stats.leases;
  }
  return stats;
}

}  // namespace nmspmm::mem
