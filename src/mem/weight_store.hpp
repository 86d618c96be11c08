// mem::WeightStore — the single authority for packed-weight residency.
//
// PR 3's plan-time pre-packing made the serving hot path stage zero
// weight bytes, but left every served matrix resident twice (the
// original CompressedNM B'+D *and* its tile-major PackedWeights) and
// scattered the lifetime decisions across an ad-hoc weak-held interning
// registry. The WeightStore centralizes all of it:
//
//   - Interning: one PackedWeights per live (weights identity, ks, ns,
//     kind), shared by every batch-size bucket, engine and model plan
//     through a WeightLease. Entries die with their last lease, exactly
//     like the old registry — but now the store can also account and
//     evict them.
//   - Packed-only residency (ResidencyMode::kPackedOnly): the plan
//     layer strips the original B' value buffer after packing
//     (strip_values), so steady-state resident weight bytes drop to
//     ~1x the packed footprint. The lease is pinned for life — with the
//     source values gone there is nothing to rebuild from — and every
//     values-consuming entry point (reference kernel,
//     PackedWeights::build, decompress) is rejected.
//   - Byte budget with LRU eviction and repack-on-demand
//     (WeightStoreOptions::max_resident_bytes): when resident packed
//     bytes exceed the budget, cold unpinned forms are dropped; the
//     next execute that touches an evicted lease transparently rebuilds
//     it from the (still-held) source weights. Executes pin the form
//     for their duration, so an in-flight kernel can never lose its
//     tiles; hit/miss/evict/repack counters expose the behavior.
//   - NUMA-aware placement: (re)builds route the PackedWeights
//     first-touch zero-fill through the executing pool
//     (util/numa_alloc), so each n-block partition's tiles land on the
//     node of the worker that streams them.
//
// An unbudgeted store (max_resident_bytes == 0, the default) makes
// every lease permanently resident: pin() is then a lock-free
// shared_ptr copy and the hot path pays nothing for the subsystem.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/nm_format.hpp"
#include "core/packed_weights.hpp"

namespace nmspmm {
class ThreadPool;
}

namespace nmspmm::mem {

/// How a plan holds the weight bytes it serves from.
///  - kDefault: the CompressedNM and its packed form are both resident
///    (evictable under a store budget; values-consuming paths keep
///    working).
///  - kPackedOnly: after packing, the plan releases the original B'
///    value buffer and serves from the packed form alone (~1x packed
///    footprint); values-consuming entry points are rejected and the
///    packed form is pinned for the plan's lifetime.
enum class ResidencyMode : std::uint8_t { kDefault, kPackedOnly };

const char* to_string(ResidencyMode mode);

struct WeightStoreOptions {
  /// Byte budget over all resident PackedWeights of this store. 0 means
  /// unbounded: every lease stays resident for its lifetime and pin()
  /// is lock-free. A positive budget evicts cold, unpinned forms LRU
  /// when exceeded; they are rebuilt on the next touch. Pinned and
  /// packed-only bytes count against the budget but are never evicted,
  /// so the store can sit above the budget when everything is hot.
  std::size_t max_resident_bytes = 0;
  /// Route the packed value zero-fill through the executing pool so
  /// first-touch places each n-block partition on its worker's node.
  bool numa_first_touch = true;
  /// Explicitly mbind packed values to this node (>= 0); -1 leaves
  /// placement to first-touch.
  int bind_node = -1;
};

class WeightStore;

/// A shared claim on one interned packed form. Plans hold a
/// shared_ptr<WeightLease> instead of the PackedWeights itself; the
/// payload may come and go under the store's budget while the lease
/// persists. Destroying the last lease releases the payload and the
/// store entry (the old registry semantics).
class WeightLease : public std::enable_shared_from_this<WeightLease> {
 public:
  WeightLease(const WeightLease&) = delete;
  WeightLease& operator=(const WeightLease&) = delete;
  ~WeightLease();

  /// Resolve to the resident packed form, rebuilding it from the source
  /// weights if it was evicted, and pin it until the returned
  /// shared_ptr is released: a pinned form is never evicted, so kernels
  /// stream from stable tiles for the whole execute. Throws CheckError
  /// when a rebuild is needed but the source weights died (the plan
  /// layer maps this to FAILED_PRECONDITION). Lock-free for
  /// non-evictable leases (unbudgeted stores and packed-only mode).
  [[nodiscard]] std::shared_ptr<const PackedWeights> pin() const;

  /// The resident payload right now, or null while evicted. Does not
  /// pin and never rebuilds — for stats and tests only; racing
  /// evictions can invalidate the answer immediately.
  [[nodiscard]] std::shared_ptr<const PackedWeights> resident() const;

  /// Bytes the payload occupies when resident (recorded at first build;
  /// rebuilds produce the same layout, hence the same size).
  [[nodiscard]] std::size_t footprint_bytes() const { return bytes_; }

  /// False once this lease is pinned for life (packed-only mode or an
  /// unbudgeted store).
  [[nodiscard]] bool evictable() const {
    return evictable_.load(std::memory_order_acquire);
  }

  /// NUMA node of the resident value tiles (-1 unknown/mixed/evicted).
  [[nodiscard]] int numa_node() const;

 private:
  friend class WeightStore;
  WeightLease() = default;

  struct Key {
    const CompressedNM* weights = nullptr;
    index_t ks = 0;
    index_t ns = 0;
    int kind = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };

  std::shared_ptr<WeightStore> store_;  ///< leases keep their store alive
  Key key_;
  /// Repack source and address-reuse guard: the raw pointer in the key
  /// can only name the matrix it was interned for while this is alive.
  std::weak_ptr<const CompressedNM> source_;
  /// Pool to route repack first-touch through (the pool that executes
  /// this form); weak so a dead pool degrades to serial zero-fill.
  std::weak_ptr<ThreadPool> repack_pool_;
  PackedWeights::IndexKind kind_ = PackedWeights::IndexKind::kDirect;
  std::size_t bytes_ = 0;
  std::atomic<bool> evictable_{true};

  // ---- guarded by the store mutex (lock-free reads allowed only when
  // !evictable(), which freezes payload_ for the lease's lifetime).
  mutable std::shared_ptr<const PackedWeights> payload_;
  mutable std::uint32_t pins_ = 0;
  mutable std::list<WeightLease*>::iterator lru_pos_;
  mutable bool in_lru_ = false;
};

class WeightStore : public std::enable_shared_from_this<WeightStore> {
 public:
  /// Stores are shared-owned: leases keep theirs alive, so construct
  /// through std::make_shared (the Engine and global() already do).
  explicit WeightStore(WeightStoreOptions options = {});
  ~WeightStore();

  WeightStore(const WeightStore&) = delete;
  WeightStore& operator=(const WeightStore&) = delete;

  /// Intern (building on first contact) the packed form of @p B under
  /// (ks, ns, kind) and return a lease on it. @p mode kPackedOnly pins
  /// the form for the lease's lifetime — the caller is expected to
  /// strip the source values, after which no rebuild is possible.
  /// @p pool (the executing worker pool) drives NUMA first-touch
  /// placement of the value tiles. Throws CheckError on invalid
  /// blocking or values-stripped @p B (mirrors PackedWeights::build).
  std::shared_ptr<WeightLease> acquire(
      const std::shared_ptr<const CompressedNM>& B, index_t ks, index_t ns,
      PackedWeights::IndexKind kind,
      ResidencyMode mode = ResidencyMode::kDefault,
      const std::shared_ptr<ThreadPool>& pool = nullptr);

  struct Stats {
    std::uint64_t hits = 0;       ///< acquires/pins that found a resident form
    std::uint64_t misses = 0;     ///< first-contact builds
    std::uint64_t evictions = 0;  ///< payloads dropped under the budget
    std::uint64_t repacks = 0;    ///< rebuilds of evicted payloads
    std::size_t resident_bytes = 0;  ///< packed bytes currently resident
    std::size_t pinned_bytes = 0;    ///< resident bytes pinned right now
    std::size_t leases = 0;          ///< live interned entries
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const WeightStoreOptions& options() const { return options_; }

  /// Process-global store backing engines that are not given their own:
  /// unbudgeted, so it reproduces the old interning registry's behavior
  /// with zero hot-path cost.
  static const std::shared_ptr<WeightStore>& global();

 private:
  friend class WeightLease;

  struct KeyHash {
    std::size_t operator()(const WeightLease::Key& k) const noexcept;
  };

  /// Build a packed form for @p lease from @p B (outside the lock).
  std::shared_ptr<const PackedWeights> build_payload(
      const CompressedNM& B, const WeightLease& lease,
      ThreadPool* pool) const;

  /// Rebuild-and-pin slow path of WeightLease::pin().
  std::shared_ptr<const PackedWeights> pin_slow(const WeightLease& lease);
  void unpin(const WeightLease& lease);
  /// Drop the lease's accounting when it dies. Never touches the
  /// payload bytes themselves — outstanding pins keep them alive.
  void release(WeightLease& lease);

  /// Wrap @p payload so the pin count drops when the caller lets go.
  std::shared_ptr<const PackedWeights> make_pin_locked(
      const WeightLease& lease);
  /// Evict cold unpinned payloads (LRU) until the budget holds.
  /// Requires mutex_ held.
  void evict_locked();
  void touch_locked(const WeightLease& lease);

  WeightStoreOptions options_;

  mutable std::mutex mutex_;
  std::unordered_map<WeightLease::Key, std::weak_ptr<WeightLease>, KeyHash>
      leases_;
  std::list<WeightLease*> lru_;  ///< front = most recently touched
  std::size_t resident_bytes_ = 0;
  Stats stats_;
};

}  // namespace nmspmm::mem
