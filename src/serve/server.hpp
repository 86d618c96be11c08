// nmspmm::Server — asynchronous request front end with dynamic batching,
// sharded for multi-core submission and execution.
//
// Real inference traffic arrives as a stream of small, unaligned requests
// (decode steps are often a single activation row), not pre-formed
// batches. Serving each row as its own SpMM re-reads the whole compressed
// weight matrix per request; coalescing concurrent requests against the
// same weights into one batched SpMM reads it once and rides the Engine's
// bucketed plan cache. The Server implements that coalescing:
//
//   nmspmm::Server server;                        // owns an Engine
//   auto f1 = server.submit(a1.view(), weights, c1.view());
//   auto f2 = server.submit(a2.view(), weights, c2.view());
//   f1.get().check_ok();                          // both served by ONE SpMM
//
// Architecture:
//
//   submit threads                dispatcher shards              engine
//   ──────────────                ─────────────────              ──────
//   submit()  ──┐   lock-free   ┌────────────────────┐
//   submit()  ──┼─► MPSC ring ─►│ shard 0: group map, │──┐
//   submit()  ──┘               │ staging, SLO flush  │  │  one pooled
//                               └────────────────────┘  ├─► SpMM, or N
//   submit()  ──┐               ┌────────────────────┐  │  concurrent
//   submit()  ──┼─► MPSC ring ─►│ shard 1:   …        │──┘  serial SpMMs
//   submit()  ──┘               └────────────────────┘     (run_chunks)
//
// Each shard owns a bounded lock-free MPSC ring (serve/mpsc_ring.hpp),
// a dispatcher thread, and its own group map / staging / flush state.
// Groups hash to shards by target identity, so every request against
// one weight matrix (or plan) lands on the same shard and keeps
// coalescing exactly as in the single-dispatcher design. The hot submit
// path is lock-free: validate, claim a ring slot (one CAS), publish,
// return — a mutex is taken only to wake a sleeping dispatcher (idle by
// definition, so never contended) and on the single-row bypass.
//
// Every submission names one target, fixed at submit time: a weight
// matrix (submit), a fused-FFN model::ModelPlan (submit_ffn), or a
// decoder-layer model::DecoderPlan (submit_decode). Requests against the
// same target (and, for plain SpMM, the same options) form one group,
// and one execution serves a whole batch of them: a burst of decode
// steps pays one pass over the weights — or over all of a plan's
// projection weights — instead of one per request (src/model/ffn.hpp,
// src/model/decoder.hpp). Batches differ only in what the target
// executes; the dispatcher path is the same for all three.
//
// The dispatcher drains its ring into per-group FIFO queues, flushes a
// group when its pending rows reach its row budget (max_batch_rows,
// capped at a plan's token budget), its oldest request has waited
// max_wait_us, or an SLO deadline approaches, gathers the batch into
// one staged execution, and scatters the results back. A decoder batch
// runs attention per sequence between its batched projections and
// resolves each request with its *own* status (NOT_FOUND for an unknown
// sequence, retryable RESOURCE_EXHAUSTED when the KV budget is spent),
// so one bad sequence never fails its batchmates; every other batch
// resolves all its requests with the batch status. One exception to
// the gather: a prefill-heavy plain-SpMM batch (at least 16 rows per
// request on average, on a pool of more than one worker) runs its
// requests as concurrent strictly-serial SpMMs over the shared
// ThreadPool instead — each request is big enough to busy a core on
// its own, and each computes straight into its caller's views with
// zero gather/scatter copies.
//
// Two latency escapes keep the common cases fast and the process alive:
//  - Single-row bypass: when a 1-row submit() arrives and its shard is
//    idle (no request in flight), nothing could coalesce with it anyway
//    — it is served synchronously on the submitting thread (same engine
//    plan cache, zero dispatch round-trip) and counted in
//    stats().bypassed, outside batch accounting.
//  - The dispatcher wraps every batch execution in an exception guard:
//    a failure while assembling or running a batch fails that batch's
//    futures with a typed Status — RESOURCE_EXHAUSTED for allocation /
//    budget exhaustion (staging growth, max_staging_bytes, repack), or
//    INTERNAL for a genuine invariant trip — instead of
//    std::terminate-ing the process, and keeps serving later batches.
//
// Overload behavior is a policy (ServerOptions::admission):
//  - kBlock (default): a full shard ring back-pressures submit() with a
//    bounded spin — bounded by the request's own deadline_us, so a
//    submitter never stalls past its SLO (DEADLINE_EXCEEDED instead).
//  - kShed: fail fast with RESOURCE_EXHAUSTED when the ring is full or
//    the shard's pending rows exceed the shed_pending_rows high-water
//    mark. Shed requests never entered the queue; the caller may retry
//    (serve::RetryPolicy).
//  - kShedByClass: shed prefill (multi-row) like kShed, but let 1-row
//    decode requests ride the kBlock path — under overload the server
//    keeps the latency-critical decode stream alive and sheds the
//    bandwidth-hungry prefill work first.
//
// Shape errors are rejected per request (an immediately-ready error
// future) so one malformed submission can never poison a batch. Shutdown
// drains: every request accepted before shutdown() is served, then the
// dispatchers exit; submissions after shutdown fail with UNAVAILABLE
// (retryable — e.g. against a replacement server). Prefer raw Engine::spmm
// when requests are already large batches — batching adds a
// gather/scatter copy and up to max_wait_us of latency that only pay
// off on small concurrent requests.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/engine.hpp"
#include "model/decoder.hpp"
#include "model/ffn.hpp"
#include "obs/trace.hpp"
#include "serve/batch_queue.hpp"
#include "serve/mpsc_ring.hpp"
#include "serve/telemetry.hpp"

namespace nmspmm {

/// What submit() does when a shard cannot take the request right now
/// (ring full, or pending rows past the high-water mark). See the header
/// comment's "Overload behavior".
enum class AdmissionPolicy : std::uint8_t {
  kBlock,        ///< spin (bounded by the request's deadline_us)
  kShed,         ///< fail fast with RESOURCE_EXHAUSTED
  kShedByClass,  ///< shed multi-row prefill, block 1-row decode
};

struct ServerOptions {
  /// Flush a group as soon as its pending rows reach this many. Also the
  /// granularity of batch assembly: larger values amortize weight reads
  /// across more requests but grow the staging buffers and tail latency.
  index_t max_batch_rows = 64;
  /// Flush a non-full group once its oldest request has waited this long.
  /// 0 = flush continuously (batches only what accumulates while the
  /// dispatcher is busy executing).
  std::uint32_t max_wait_us = 200;
  /// Upper bound on retained per-shard group state. When a shard holds
  /// more distinct (weights, options) groups than this, idle groups
  /// (empty queues) are evicted: their weights reference and staging
  /// buffers are released — a server cycling through many weight
  /// matrices stays bounded. Counters and latency history survive in
  /// the shard totals; an evicted group that comes back starts fresh.
  std::size_t max_groups = 64;
  /// Serve 1-row requests synchronously on the submitting thread when
  /// their shard is idle (nothing in flight to coalesce with): skips the
  /// dispatch round-trip and batch accounting entirely.
  bool bypass_single_rows = true;
  /// Cap on a dispatcher's gather/scatter staging for one batch, in
  /// bytes (0 = unbounded). A batch needing more fails with
  /// RESOURCE_EXHAUSTED (the affected batch only; the dispatcher keeps
  /// serving) instead of letting staging growth take the process down.
  std::size_t max_staging_bytes = 0;
  /// Overload behavior of submit() — see AdmissionPolicy.
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Shedding high-water mark, per shard (0 = off; ignored under
  /// kBlock). A sheddable request is refused with RESOURCE_EXHAUSTED
  /// when admitting it would push the shard's pending (admitted,
  /// unresolved) rows past the mark.
  std::size_t shed_pending_rows = 0;
  /// Flush a group early when a pending request's SLO deadline (the
  /// deadline_us argument of submit / submit_ffn) is within slo_margin_us
  /// of now, instead of waiting out max_wait_us. Off, deadlines are still
  /// tracked (violation counters, shutdown expiry) but never trigger an
  /// early flush — the fixed-max-wait policy the SLO comparison in
  /// bench_serving_open measures against.
  bool slo_aware = true;
  /// Headroom the SLO-aware flush leaves before the tightest pending
  /// deadline: the estimated time to assemble + execute + scatter one
  /// batch. Too small and near-deadline requests still miss; too large
  /// and batches flush half-empty.
  std::uint32_t slo_margin_us = 150;
  /// Record per-request stage latencies (serve/telemetry.hpp) into
  /// per-thread shards, exposed via stats().latency. Lock-free on the
  /// submit path; the switch exists so the overhead can be measured
  /// against a telemetry-free baseline, not because it is expected to
  /// matter.
  bool telemetry = true;
  /// Dispatcher shards. 0 = auto: half the hardware threads, clamped to
  /// [1, 4] — submission rarely needs more dispatchers than that before
  /// the engine pool is the bottleneck. Groups hash to shards by
  /// weights identity, so shards beyond the number of distinct weight
  /// matrices served go unused. 1 reproduces the single-dispatcher
  /// behavior (still with the lock-free submit ring).
  unsigned num_shards = 0;
  /// Per-shard submission ring capacity in requests (rounded up to a
  /// power of two; 0 = default 1024). A full ring back-pressures
  /// submitters: submit() spins with backoff until the dispatcher
  /// drains a slot, counting the stall in stats().ring_stalls.
  std::size_t ring_capacity = 1024;
  /// Span tracing (src/obs/trace.hpp): trace 1 request in every
  /// trace_sample_n (0 = tracing off; 1 = every request). A traced
  /// request leaves one span per life-cycle stage — submit, queue,
  /// gather, execute, total — carrying shard / flush-reason / execute-
  /// lane / repack attributes, retrievable via dump_trace(). The record
  /// cost is a handful of relaxed stores, so 1-in-1024 sampling is ≈0
  /// on the submit path (gated by the trace_overhead bench block).
  std::uint64_t trace_sample_n = 0;
  /// Spans retained per recording thread (the flight-recorder window;
  /// rounded up to a power of two). Overwrites count in
  /// stats().trace_drops, never silently.
  std::size_t trace_buffer_spans = 4096;
  /// When nonempty (and tracing is on), a dispatcher whose batch fails
  /// through the exception guard dumps the flight recorder here —
  /// after a chaos/fault failure the last trace_buffer_spans spans of
  /// history are on disk without anyone having asked.
  std::string trace_flight_path;
  /// The backing engine (worker pool + plan cache) the server owns.
  EngineOptions engine;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();  // shutdown(): drains pending requests, then joins

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueue C = A (*) (B, D) and return a future that resolves when the
  /// request has been served (possibly coalesced with others, or bypassed
  /// — see ServerOptions::bypass_single_rows, in which case the future is
  /// already resolved on return). A and C must stay alive until then.
  /// Shape/argument errors resolve the future immediately without
  /// enqueuing. @p options must carry an inactive EpilogueSpec (epilogue
  /// operands cannot ride a batched submission; use submit_ffn for the
  /// fused-FFN workload).
  ///
  /// Lock-free: after validation the request is published onto its
  /// shard's MPSC ring with a single CAS — no mutex is ever taken on
  /// this path while the dispatcher is awake.
  ///
  /// @p deadline_us (0 = none) is the request's SLO budget from this call:
  /// with slo_aware batching the dispatcher flushes the group early enough
  /// to leave slo_margin_us of service time before it. A missed deadline
  /// still serves the request (counted in slo_violations / the telemetry
  /// snapshot) — except during shutdown drain, where an already-expired
  /// request fails fast with DEADLINE_EXCEEDED instead of consuming the
  /// drain's remaining time.
  std::future<Status> submit(ConstViewF A,
                             std::shared_ptr<const CompressedNM> B, ViewF C,
                             SpmmOptions options = {},
                             std::uint64_t deadline_us = 0);

  /// Enqueue out = FFN(A) against @p plan (built by
  /// Engine::plan_model — any engine; plans carry their own weights and
  /// pool). Concurrent submissions against the same plan coalesce into
  /// one ModelPlan::run over the gathered token rows. A and out must
  /// stay alive until the future resolves. Requests with more rows than
  /// plan->planned_tokens() are rejected up front (they could never be
  /// served); batches assembled from smaller requests are capped at the
  /// plan's token budget.
  std::future<Status> submit_ffn(ConstViewF A,
                                 std::shared_ptr<model::ModelPlan> plan,
                                 ViewF out, std::uint64_t deadline_us = 0);

  /// Enqueue one decoder-layer decode step for @p seq_id against
  /// @p plan (built by Engine::plan_decoder): A is exactly one token
  /// row, out (1 x hidden) receives the layer output. Concurrent
  /// submissions against the same plan coalesce into one
  /// DecoderPlan::decode over the gathered rows — the SpMM projections
  /// batch across sequences, attention runs per sequence between them.
  /// The future resolves with the request's *own* status: NOT_FOUND
  /// for a sequence never begun, RESOURCE_EXHAUSTED (retryable — back
  /// off and retry once sequences free, serve::RetryPolicy) when the
  /// plan's KV budget is spent. Sequence lifecycle goes through the
  /// plan directly (DecoderPlan::begin_sequence / free_sequence; both
  /// thread-safe).
  std::future<Status> submit_decode(std::uint64_t seq_id, ConstViewF A,
                                    std::shared_ptr<model::DecoderPlan> plan,
                                    ViewF out, std::uint64_t deadline_us = 0);

  /// Stop accepting requests, serve everything already queued, and join
  /// every shard dispatcher. Idempotent; the destructor calls it.
  void shutdown();

  /// Per-group (and aggregate) serving counters.
  struct GroupStats {
    std::uint64_t requests = 0;         ///< submissions accepted
    std::uint64_t rows = 0;             ///< activation rows accepted
    std::uint64_t batches = 0;          ///< batches dispatched
    std::uint64_t full_flushes = 0;     ///< batches flushed on row budget
    std::uint64_t timeout_flushes = 0;  ///< flushed on max_wait / drain
    std::uint64_t slo_flushes = 0;      ///< flushed early for a deadline
    std::uint64_t bypassed = 0;         ///< served synchronously at submit
    std::uint64_t errors = 0;           ///< requests resolved non-OK
    std::uint64_t slo_violations = 0;   ///< deadlines missed (incl. expiry)
    std::uint64_t split_batches = 0;    ///< batches run as concurrent
                                        ///< serial SpMMs
    std::size_t max_queue_depth = 0;    ///< peak pending requests
  };
  struct Stats {
    GroupStats totals;  ///< every request ever accepted, incl. evicted
                        ///< groups (per-shard counters, exact)
    /// (target, options) groups created. An evicted group that comes
    /// back is created, and counted, again.
    std::size_t groups = 0;
    std::size_t shards = 0;  ///< dispatcher shards (resolved num_shards)
    /// Times a submit found its shard's ring full and had to back off
    /// before claiming a slot (one per stalled request, not per retry).
    std::uint64_t ring_stalls = 0;
    /// Requests refused with RESOURCE_EXHAUSTED by the admission policy
    /// (ring full or high-water mark), and their staging-footprint
    /// bytes. Shed requests never reach totals.requests.
    std::uint64_t shed_requests = 0;
    std::uint64_t shed_bytes = 0;
    /// kBlock submitters whose deadline expired while stalled on a full
    /// ring (failed DEADLINE_EXCEEDED without entering the queue).
    std::uint64_t submit_deadline_fails = 0;
    /// Per-request stage latency distributions across every group, live
    /// and evicted (empty when ServerOptions::telemetry is off).
    serve::TelemetrySnapshot latency;
    /// Trace spans recorded / overwritten by ring wraparound (0 when
    /// tracing is off). Nonzero trace_drops means the flight window was
    /// shorter than the traffic between dumps.
    std::uint64_t trace_spans = 0;
    std::uint64_t trace_drops = 0;
    /// Per-dispatcher-shard counters, indexed by shard (the tid of the
    /// trace dump); totals above is their exact aggregate.
    std::vector<GroupStats> per_shard;
  };
  /// Aggregate counters and latency across all shards. Lock-free: reads
  /// per-shard atomic counters and merges per-shard telemetry snapshots
  /// (additive histograms — per-class percentiles stay exact), so stats
  /// polling can never stall a submitter or dispatcher.
  [[nodiscard]] Stats stats() const;
  /// Aggregate over every *live* group serving @p weights (any options);
  /// counters of groups already evicted under max_groups only survive in
  /// stats().totals. Takes the owning shard's mutex briefly (never
  /// contended by the lock-free submit path).
  [[nodiscard]] GroupStats weights_stats(const CompressedNM* weights) const;
  /// As weights_stats, for the FFN groups serving @p plan.
  [[nodiscard]] GroupStats model_stats(const model::ModelPlan* plan) const;
  /// As weights_stats, for the decode groups serving @p plan.
  [[nodiscard]] GroupStats decode_stats(const model::DecoderPlan* plan) const;

  /// Write every retained trace span as Chrome trace-event JSON (load
  /// the file in chrome://tracing or ui.perfetto.dev). FAILED_PRECONDITION
  /// when tracing is off (ServerOptions::trace_sample_n == 0).
  [[nodiscard]] Status dump_trace(const std::string& path) const;
  /// The span recorder (null when tracing is off). Exposed for tests
  /// and harnesses that want spans without going through a file.
  [[nodiscard]] const obs::TraceRecorder* tracer() const {
    return tracer_.get();
  }

  [[nodiscard]] Engine& engine() { return engine_; }
  /// Post-construction options: num_shards / ring_capacity reflect the
  /// resolved values, not the 0 = auto the caller may have passed.
  [[nodiscard]] const ServerOptions& options() const { return options_; }

 private:
  using Clock = BatchQueue::Clock;

  /// What one execution serves a whole group with: a plain weight
  /// matrix, a fused-FFN ModelPlan, or a decoder-layer DecoderPlan.
  /// Fixed at submit time; the group holds it alive, so its address
  /// alone identifies the target.
  using Target = std::variant<std::shared_ptr<const CompressedNM>,
                              std::shared_ptr<model::ModelPlan>,
                              std::shared_ptr<model::DecoderPlan>>;
  /// What submit-time validation and batch assembly need to know about
  /// a target: activation depth k, output width n, and the plan's token
  /// budget, which caps both one request and one batch (0 = none).
  struct TargetShape {
    index_t k = 0;
    index_t n = 0;
    index_t max_rows = 0;
  };
  /// Requests batch together only when one execution can serve them all:
  /// they must agree on the target and, for plain SpMM, on the options.
  struct GroupKey {
    const void* target = nullptr;  ///< the Target's object address
    SpmmOptions options;  ///< default-constructed for plan groups

    friend bool operator==(const GroupKey&, const GroupKey&) = default;
  };
  struct GroupKeyHash {
    std::size_t operator()(const GroupKey& k) const noexcept;
  };
  /// GroupStats as relaxed atomics, so the dispatcher and bypassing
  /// submitters update them without a lock and stats readers snapshot
  /// them concurrently. Each event is counted twice — once on its group,
  /// once on the shard totals — so stats() stays exact across group
  /// eviction without any fold-on-evict bookkeeping.
  struct GroupCounters {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> rows{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> full_flushes{0};
    std::atomic<std::uint64_t> timeout_flushes{0};
    std::atomic<std::uint64_t> slo_flushes{0};
    std::atomic<std::uint64_t> bypassed{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> slo_violations{0};
    std::atomic<std::uint64_t> split_batches{0};
    std::atomic<std::size_t> max_queue_depth{0};

    [[nodiscard]] GroupStats snapshot() const;
    void count_flush(FlushReason reason);
  };
  struct Group {
    Target target;
    index_t k = 0;           ///< activation depth
    index_t n = 0;           ///< output width
    index_t row_budget = 0;  ///< rows one batch may assemble
    /// Pending requests. Only touched under the owning shard's mutex
    /// (dispatcher drain/flush, bypass idle checks never read it).
    BatchQueue queue;
    GroupCounters counters;
  };
  /// One submission in flight between submit() and its shard's
  /// dispatcher: everything needed to find-or-create the group and
  /// enqueue the request. Owns its target reference, so a message
  /// outliving a group eviction is self-sufficient.
  struct SubmitMsg {
    GroupKey key;
    Target target;
    BatchRequest request;
  };
  /// A popped batch, ready to execute outside the lock. Holds shared
  /// ownership of its group (and through it weights / plan),
  /// so eviction can never free state a batch still executes against.
  struct PendingBatch {
    std::shared_ptr<Group> group;
    GroupKey key;
    std::vector<BatchRequest> requests;
    index_t rows = 0;
    /// When the batch left its queue — end of each request's kQueue stage.
    Clock::time_point popped;
    /// Why next_batch flushed it (a trace attribute on every span).
    FlushReason reason = FlushReason::kTimeout;
    /// How serve_batch executed it (kNone until it runs), and the
    /// WeightStore repack events observed during the execute window
    /// (trace attributes).
    obs::ExecLane lane = obs::ExecLane::kNone;
    std::uint64_t exec_repacks = 0;
  };
  /// Reusable gather/scatter staging, owned by one dispatcher thread and
  /// keyed by batch target: the gathered rows and, per row, the request's
  /// sequence id and status.
  struct Staging {
    MatrixF a;
    MatrixF c;
    std::vector<std::uint64_t> seq_ids;
    std::vector<Status> row_status;
  };
  using StagingMap = std::unordered_map<const void*, Staging>;

  /// One dispatcher's world: submission ring, wake protocol, group map.
  ///
  /// Locking rules (the whole point of the sharded design):
  ///  - `ring` is lock-free; submitters publish, the dispatcher pops.
  ///  - `mutex` guards `groups` (map structure AND the BatchQueues
  ///    inside) and `cv`. It is taken by the dispatcher (drain / flush /
  ///    evict), by bypassing submitters (shard idle by definition), by
  ///    per-target stats queries, and momentarily by a submitter waking
  ///    a sleeping dispatcher — never on the lock-free submit path.
  ///  - `totals`, group counters, and the telemetry recorder are atomics
  ///    / lock-free, updated and read without the mutex.
  ///
  /// Sleep/wake is an eventcount over `pushed` + `sleeping`, all
  /// seq_cst (TSan-clean; no fences): a producer does {publish;
  /// pushed++ (RMW); load sleeping} and the dispatcher does {store
  /// sleeping=true; load pushed, compare against its drained count} —
  /// seq_cst forbids both sides reading the other's old value, so
  /// either the dispatcher sees the new push and skips sleeping, or the
  /// producer sees sleeping==true and notifies under the mutex (which
  /// serializes with the dispatcher's predicate-check-then-wait).
  struct Shard {
    explicit Shard(std::size_t ring_capacity, bool telemetry)
        : ring(ring_capacity),
          telemetry(telemetry ? std::make_shared<serve::Telemetry>()
                              : nullptr) {}

    serve::MpscRing<SubmitMsg> ring;
    /// Position in Server::shards_ (the shard attribute of trace spans
    /// and the tid of the Chrome trace dump).
    std::uint16_t index = 0;
    /// Successful ring publishes (the eventcount ticket).
    std::atomic<std::uint64_t> pushed{0};
    /// Dispatcher is (about to be) parked on cv.
    std::atomic<bool> sleeping{false};
    /// Submitters currently inside the publish protocol; the shutdown
    /// drain exits only once this is 0 (see dispatcher_loop).
    std::atomic<std::uint64_t> entrants{0};
    /// Ring-path requests not yet resolved (in ring, queued, or mid
    /// batch). The single-row bypass fires only at 0: the shard is idle,
    /// so nothing could coalesce and the mutex below is uncontended.
    std::atomic<std::uint64_t> inflight{0};
    /// Shard-wide counters: the lock-free source for stats(). See
    /// GroupCounters for the double-count scheme.
    GroupCounters totals;
    std::atomic<std::uint64_t> ring_stalls{0};
    std::atomic<std::uint64_t> groups_seen{0};
    /// Admission accounting. pending_rows tracks the
    /// admitted-but-unresolved ring-path rows the high-water mark bounds
    /// (incremented at publish, decremented at resolution — bypassed
    /// requests never enter). shed_* / submit_deadline_fails mirror the
    /// Stats fields of the same names.
    std::atomic<std::uint64_t> pending_rows{0};
    std::atomic<std::uint64_t> shed_requests{0};
    std::atomic<std::uint64_t> shed_bytes{0};
    std::atomic<std::uint64_t> submit_deadline_fails{0};
    /// Shard-wide latency recorder backing stats().latency (null when
    /// telemetry is off). Immutable pointer after construction, so
    /// stats() reads it without the mutex.
    std::shared_ptr<serve::Telemetry> telemetry;

    std::mutex mutex;
    std::condition_variable cv;
    std::unordered_map<GroupKey, std::shared_ptr<Group>, GroupKeyHash>
        groups;
    std::thread dispatcher;
  };

  /// The shard every group of @p target lives on (mixed pointer hash):
  /// all option-variants of one weight matrix share a shard, so staging
  /// and coalescing stay per-target exactly as before sharding.
  [[nodiscard]] Shard& shard_of(const void* target) const;
  [[nodiscard]] static TargetShape shape_of(const Target& target);
  /// The submit-time checks every target shares: a live target, a
  /// nonempty batch, A and C shaped for the target, the plan's token
  /// budget, and no epilogue operands.
  [[nodiscard]] static Status validate(const Target& target,
                                       const SpmmOptions& options,
                                       ConstViewF A, ViewF C);
  /// Common path of submit / submit_ffn / submit_decode: validate, then
  /// bypass or publish to the shard ring (with full-ring backpressure)
  /// and wake the dispatcher.
  std::future<Status> enqueue(Target target, SpmmOptions options,
                              ConstViewF A, ViewF C,
                              std::uint64_t deadline_us,
                              std::uint64_t seq_id = 0);
  /// Find or create the group of @p key (which @p target backs).
  /// Requires shard.mutex.
  std::shared_ptr<Group>& make_group(Shard& shard, const GroupKey& key,
                                     Target target);
  /// Run @p a through @p group's target into @p c — the one place that
  /// executes an SpMM, a ModelPlan, or a DecoderPlan. @p seq_ids and
  /// @p row_status hold one entry per row: a DecoderPlan reports each
  /// row's own status there, the other targets leave it untouched, so
  /// callers start it OK and every row of those reads the batch status.
  Status execute(const Group& group, const SpmmOptions& options,
                 ConstViewF a, const std::uint64_t* seq_ids, ViewF c,
                 Status* row_status);

  void dispatcher_loop(Shard& shard);
  /// Pop every published ring message into its group's queue (creating
  /// groups as needed). Returns the number of messages drained; adds
  /// them to @p drained for the eventcount.
  std::size_t drain_ring(Shard& shard, std::uint64_t& drained,
                         std::vector<SubmitMsg>& scratch);
  /// Pop the next batch that must flush (row budget, deadline, or drain),
  /// oldest front request first when several groups are ready. Locks the
  /// shard mutex; returns an empty batch when nothing is ready.
  PendingBatch next_batch(Shard& shard, Clock::time_point now);
  /// Evict idle groups beyond options_.max_groups (except @p keep, the
  /// group the caller is still inserting into). Requires shard.mutex.
  void prune_idle_groups(Shard& shard, const Group* keep = nullptr);
  /// Drop staging buffers for targets no live group of @p shard serves.
  /// Requires shard.mutex (group map read); staging itself is the
  /// dispatcher's own.
  void prune_staging(Shard& shard, StagingMap& staging);
  /// Assemble, execute, scatter, and resolve one batch (no lock held).
  /// Returns the batch's worst Status. May throw (e.g. staging growth
  /// failure); the dispatcher's guard turns that into an INTERNAL
  /// resolution for the batch's futures.
  Status serve_batch(Shard& shard, PendingBatch& batch, StagingMap& staging);
  /// Prefill-heavy plain-SpMM batches: run the requests as concurrent
  /// serial SpMMs on the engine pool, each straight on its caller's views.
  Status serve_batch_split(Shard& shard, PendingBatch& batch);
  /// The one stage record: the interval [@p from, @p to] of @p stage
  /// goes into the shard histogram of @p request's class and, when the
  /// request is sampled (nonzero trace_id), out as a span carrying
  /// @p request's attributes and @p detail.
  void record_stage(Shard& shard, const obs::TraceSpan& request,
                    serve::Stage stage, Clock::time_point from,
                    Clock::time_point to, std::uint64_t detail = 0) const;
  /// The attributes of @p r's stage records once it sits in @p batch:
  /// request identity plus the batch's flush reason and execute lane.
  [[nodiscard]] static obs::TraceSpan batch_span(const Shard& shard,
                                                 const PendingBatch& batch,
                                                 const BatchRequest& r);
  /// Count a resolved request's error / SLO violation on its group and
  /// shard (bypassed requests included).
  static void count_outcome(Shard& shard, Group& g, serve::RequestClass cls,
                            bool failed, bool violated);
  /// Settle one ring-path request before its promise is fulfilled:
  /// count_outcome, then give back its admission gauge (pending_rows)
  /// and its inflight slot.
  static void release_request(Shard& shard, Group& g, const BatchRequest& r,
                              bool failed, bool violated);
  /// Record the batched stages of one executed request, release it, and
  /// fulfil its promise.
  void resolve_request(Shard& shard, PendingBatch& batch, BatchRequest& r,
                       Clock::time_point exec_start,
                       Clock::time_point exec_end, const Status& status);
  /// Resolve every not-yet-resolved future of @p batch with @p status.
  void fail_batch(Shard& shard, PendingBatch& batch, const Status& status);
  /// Aggregate the live groups whose key target is @p target.
  [[nodiscard]] GroupStats target_stats(const void* target) const;
  /// Dump the flight recorder to options_.trace_flight_path (no-op when
  /// tracing is off or the path is empty). Called by the dispatcher's
  /// exception guard after a batch failure.
  void flight_dump() const;

  ServerOptions options_;
  Engine engine_;
  std::atomic<bool> stop_{false};
  /// Span recorder (null when trace_sample_n == 0) and the sampling
  /// sequence: request n is traced when n % trace_sample_n == 0.
  std::unique_ptr<obs::TraceRecorder> tracer_;
  std::atomic<std::uint64_t> trace_seq_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace nmspmm
