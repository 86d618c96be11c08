// nmspmm::Engine — the serving-oriented entry point.
//
// An inference server sees one long-lived weight matrix and a stream of
// activation batches of varying row counts. The paper's workflow (offline
// pre-processing amortized over many executions) maps onto that as a
// plan cache: the engine keys plans by (weights identity, batch-size
// bucket, options) and builds one transparently on first use, so
//
//   nmspmm::Engine engine;
//   engine.spmm(A.view(), weights, C.view());   // any batch size
//
// never fails on an unplanned shape and never re-runs pre-processing for
// a shape it has already served. Batch sizes are bucketed (rounded up to
// a power of two) so a ragged request stream maps onto a handful of
// plans; a plan built for bucket m serves every batch m' <= m.
//
// The engine also owns the worker pool: every cached plan executes on
// the same threads (EngineOptions::num_threads, 0 = hardware
// concurrency), so a process hosting several engines controls its total
// thread count explicitly. All entry points are thread-safe and report
// recoverable errors as Status — nothing in the serving path throws.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/spmm.hpp"
#include "mem/weight_store.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace nmspmm {

namespace model {
struct FfnBlock;
class ModelPlan;
struct DecoderLayer;
class DecoderPlan;
}  // namespace model

namespace attn {
struct KvCacheOptions;
}  // namespace attn

struct EngineOptions {
  /// Worker threads shared by every plan this engine builds.
  /// 0 = hardware concurrency; 1 = strictly serial execution.
  unsigned num_threads = 0;
  /// Cached plans beyond this are evicted least-recently-used. Each plan
  /// holds its pre-processing artifacts (col_info / resolved indices), so
  /// the cap bounds memory on servers hosting many weight matrices.
  std::size_t plan_cache_capacity = 64;
  /// Smallest planned batch: requests with m below this share one plan.
  index_t min_batch_bucket = 16;
  /// Weight residency of every plan this engine builds
  /// (mem/weight_store.hpp). kPackedOnly releases the original B' value
  /// buffer after pre-packing: steady-state resident weight bytes drop
  /// to ~1x the packed footprint, at the cost of rejecting
  /// values-consuming entry points (reference variant, decompress,
  /// PackedWeights::build) for those weights.
  mem::ResidencyMode residency = mem::ResidencyMode::kDefault;
  /// The WeightStore owning packed-weight residency for this engine's
  /// plans (interning, max_resident_bytes budget, NUMA placement). Null
  /// uses the process-global unbudgeted store, which all engines share —
  /// pass a dedicated store to budget one engine's weights in isolation.
  std::shared_ptr<mem::WeightStore> weight_store;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// C = A (*) (B, D) for any batch size, building or reusing a cached
  /// plan. @p B is the weights identity: pass the *same* shared_ptr for
  /// repeated calls against the same weights to hit the cache.
  Status spmm(ConstViewF A, std::shared_ptr<const CompressedNM> B, ViewF C,
              SpmmOptions options = {});

  /// Fetch (building if needed) the cached plan serving batches of up to
  /// m rows. The returned plan is immutable and safe to execute from any
  /// thread; it stays valid after eviction as long as the caller holds
  /// the shared_ptr.
  StatusOr<std::shared_ptr<const SpmmPlan>> plan_for(
      index_t m, std::shared_ptr<const CompressedNM> B,
      SpmmOptions options = {});

  /// Plan a chain of FFN blocks (src/model/ffn.hpp) as one executable
  /// unit serving up to @p max_tokens activation rows: per-layer plans
  /// come from this engine's plan cache (sharing interned PackedWeights
  /// and the worker pool), the gating activation is fused into the
  /// up-projection's epilogue, and all activation scratch is sized here,
  /// so ModelPlan::run never allocates. @p options seeds every layer's
  /// SpmmOptions (variant, packing, params); its epilogue member must be
  /// inactive — the model layer owns the epilogues. Defined in
  /// src/model/ffn.cpp.
  StatusOr<std::shared_ptr<model::ModelPlan>> plan_model(
      index_t max_tokens, std::vector<model::FfnBlock> blocks,
      SpmmOptions options = {});

  /// Plan one full decoder layer (src/model/decoder.hpp) serving decode
  /// batches of up to @p max_batch sequences: QKV and output-projection
  /// plans out of this engine's plan cache (attn_norm prologue and the
  /// attention residual fused into their stores), a paged KV cache
  /// sized by @p kv_options (its n_kv_heads / head_dim are taken from
  /// the layer's attention geometry — callers pick only page_tokens and
  /// max_tokens), and the FFN tail as a nested plan_model. @p options
  /// seeds every projection's SpmmOptions; its epilogue and prologue
  /// members must be inactive. Defined in src/model/decoder.cpp.
  StatusOr<std::shared_ptr<model::DecoderPlan>> plan_decoder(
      index_t max_batch, model::DecoderLayer layer,
      attn::KvCacheOptions kv_options, SpmmOptions options = {});

  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;  ///< plans currently cached
  };
  [[nodiscard]] CacheStats cache_stats() const;
  void clear_cache();

  /// The engine's worker pool (size 1 when running serially). Exposed so
  /// callers can co-schedule auxiliary work on the same threads.
  [[nodiscard]] ThreadPool* pool() const { return pool_.get(); }
  [[nodiscard]] unsigned num_threads() const {
    return pool_ != nullptr ? pool_->size() : 1;
  }
  [[nodiscard]] const EngineOptions& options() const { return options_; }
  /// The store owning this engine's packed-weight residency.
  [[nodiscard]] const std::shared_ptr<mem::WeightStore>& weight_store()
      const {
    return store_;
  }

  /// The per-call thread-count value this engine actually plans with
  /// (the engine's pool or serial mode decides threading, not the
  /// caller's option): 1 when strictly serial, else 0. Callers building
  /// keys that must match the plan cache — the serving layer's batch
  /// groups — normalize through this so the rules cannot diverge.
  /// Exception: a call passing an explicit num_threads == 1 gets a
  /// strictly serial plan even on a pooled engine (cached under its own
  /// key) — the building block of the Server's split lanes, which run
  /// several serial products concurrently on the pool.
  [[nodiscard]] unsigned normalized_num_threads() const {
    return options_.num_threads == 1 ? 1u : 0u;
  }

  /// Round a batch size up to its plan bucket: min_bucket for small
  /// batches, the next power of two beyond that. Batches beyond the
  /// largest representable power of two (2^62 for int64 index_t) get an
  /// exact bucket of m itself instead of overflowing.
  static index_t bucket_batch(index_t m, index_t min_bucket);

 private:
  struct Key {
    const CompressedNM* weights = nullptr;
    index_t bucket_m = 0;
    SpmmOptions options;

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  struct Entry {
    Key key;
    std::shared_ptr<const SpmmPlan> plan;
    /// Liveness guard for the raw weights pointer in the key. Default
    /// plans hold the weights themselves, but packed-only plans strip
    /// and drop the original — if the caller then releases it too, this
    /// expires and the entry is discarded instead of matching a
    /// different matrix that reused the address.
    std::weak_ptr<const CompressedNM> origin;
  };
  EngineOptions options_;
  std::shared_ptr<ThreadPool> pool_;  ///< null when running serially
  std::shared_ptr<mem::WeightStore> store_;

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  CacheStats stats_;
};

}  // namespace nmspmm
