#include "serve/server.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <unordered_set>
#include <utility>
#include <variant>

#include "serve/fault.hpp"
#include "util/hash.hpp"

namespace nmspmm {

namespace {

void accumulate(Server::GroupStats& into, const Server::GroupStats& from) {
  into.requests += from.requests;
  into.rows += from.rows;
  into.batches += from.batches;
  into.full_flushes += from.full_flushes;
  into.timeout_flushes += from.timeout_flushes;
  into.slo_flushes += from.slo_flushes;
  into.bypassed += from.bypassed;
  into.errors += from.errors;
  into.slo_violations += from.slo_violations;
  into.split_batches += from.split_batches;
  into.max_queue_depth = std::max(into.max_queue_depth, from.max_queue_depth);
}

/// Monotone max over a relaxed atomic (peak-depth tracking).
void atomic_max(std::atomic<std::size_t>& target, std::size_t value) {
  std::size_t cur = target.load(std::memory_order_relaxed);
  while (cur < value && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

/// Bytes the dispatcher's staging matrices need for one batch of
/// @p rows gathered activations (depth @p k) and outputs (width @p n),
/// matching MatrixF's padded leading dimension.
std::size_t staging_bytes(index_t rows, index_t k, index_t n) {
  auto padded = [](index_t cols) {
    return round_up(static_cast<std::size_t>(std::max<index_t>(cols, 1)),
                    MatrixF::kLdPadElements);
  };
  return static_cast<std::size_t>(rows) * (padded(k) + padded(n)) *
         sizeof(float);
}

using Clock = BatchQueue::Clock;

/// Non-negative interval between two steady_clock instants, in us.
std::uint64_t elapsed_us(Clock::time_point from, Clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

/// Absolute deadline for a submit-relative budget; max() when unset.
Clock::time_point deadline_from(Clock::time_point submitted,
                                std::uint64_t deadline_us) {
  if (deadline_us == 0) return Clock::time_point::max();
  return submitted + std::chrono::microseconds(deadline_us);
}

/// Finalizing mix of MurmurHash3 — spreads pointer identity across all
/// bits so the shard index uses more than allocator alignment bits.
std::uint64_t mix_pointer(const void* p) {
  auto x = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p));
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// FlushReason / RequestClass as the attribute bytes trace spans carry
/// (obs is layered below serve and defines its own canonical tables).
std::uint8_t trace_flush_byte(FlushReason reason) {
  switch (reason) {
    case FlushReason::kFull:
      return 0;
    case FlushReason::kTimeout:
      return 1;
    case FlushReason::kSlo:
      return 2;
    case FlushReason::kShutdown:
      return 3;
  }
  return obs::kNoAttr;
}

std::uint8_t trace_cls_byte(serve::RequestClass cls) {
  return static_cast<std::uint8_t>(cls);
}

// The first five span kinds mirror serve::Stage one to one.
static_assert(static_cast<int>(obs::SpanKind::kSubmit) ==
                  static_cast<int>(serve::Stage::kSubmit) &&
              static_cast<int>(obs::SpanKind::kQueue) ==
                  static_cast<int>(serve::Stage::kQueue) &&
              static_cast<int>(obs::SpanKind::kGather) ==
                  static_cast<int>(serve::Stage::kGather) &&
              static_cast<int>(obs::SpanKind::kExecute) ==
                  static_cast<int>(serve::Stage::kExecute) &&
              static_cast<int>(obs::SpanKind::kTotal) ==
                  static_cast<int>(serve::Stage::kTotal));

/// The attributes every stage record of one request carries: its class
/// (the histogram row) and, for a sampled request, its span identity.
obs::TraceSpan request_span(std::uint16_t shard, std::uint64_t trace_id,
                            const void* target, index_t rows) {
  obs::TraceSpan span;
  span.trace_id = trace_id;
  span.target =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(target));
  span.rows = static_cast<std::uint32_t>(rows);
  span.shard = shard;
  span.cls = trace_cls_byte(serve::classify_rows(rows));
  return span;
}

/// A plain-SpMM batch splits into concurrent serial lanes once its
/// average rows per request reach this many: each request keeps a core
/// busy on its own, and skipping the gather/scatter of large row blocks
/// beats amortizing one weight read. Decode bursts stay well below it —
/// for them the shared weight read is the whole win.
constexpr index_t kSplitMinAvgRows = 16;

/// An already-resolved future (per-request rejections).
std::future<Status> ready(Status status) {
  std::promise<Status> done;
  done.set_value(std::move(status));
  return done.get_future();
}

/// std::visit over one lambda per Server target type.
template <class... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

/// The object a Server target points at: its group identity (null for
/// a null target).
template <class Target>
const void* address_of(const Target& target) {
  return std::visit([](const auto& p) -> const void* { return p.get(); },
                    target);
}

}  // namespace

std::size_t Server::GroupKeyHash::operator()(
    const GroupKey& k) const noexcept {
  std::size_t h = std::hash<const void*>{}(k.target);
  hash_combine(h, hash_value(k.options));
  return h;
}

Server::GroupStats Server::GroupCounters::snapshot() const {
  GroupStats s;
  s.requests = requests.load(std::memory_order_relaxed);
  s.rows = rows.load(std::memory_order_relaxed);
  s.batches = batches.load(std::memory_order_relaxed);
  s.full_flushes = full_flushes.load(std::memory_order_relaxed);
  s.timeout_flushes = timeout_flushes.load(std::memory_order_relaxed);
  s.slo_flushes = slo_flushes.load(std::memory_order_relaxed);
  s.bypassed = bypassed.load(std::memory_order_relaxed);
  s.errors = errors.load(std::memory_order_relaxed);
  s.slo_violations = slo_violations.load(std::memory_order_relaxed);
  s.split_batches = split_batches.load(std::memory_order_relaxed);
  s.max_queue_depth = max_queue_depth.load(std::memory_order_relaxed);
  return s;
}

void Server::GroupCounters::count_flush(FlushReason reason) {
  switch (reason) {
    case FlushReason::kFull:
      full_flushes.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlushReason::kSlo:
      slo_flushes.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlushReason::kTimeout:
    case FlushReason::kShutdown:
      // Drain flushes count with the timeout flushes rather than
      // inventing a counter for a one-off shutdown state.
      timeout_flushes.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

Server::Server(ServerOptions options)
    : options_(options), engine_(options.engine) {
  if (options_.max_batch_rows < 1) options_.max_batch_rows = 1;
  if (options_.max_groups < 1) options_.max_groups = 1;
  if (options_.num_shards == 0) {
    // Auto: half the hardware threads for dispatch, clamped to [1, 4] —
    // the engine pool is the bottleneck long before 4 dispatchers are.
    options_.num_shards =
        std::clamp(std::thread::hardware_concurrency() / 2, 1u, 4u);
  }
  if (options_.ring_capacity == 0) options_.ring_capacity = 1024;
  if (options_.trace_sample_n > 0) {
    tracer_ = std::make_unique<obs::TraceRecorder>(
        obs::TraceRecorder::Options{options_.trace_buffer_spans});
    // Subsystems with no path to this Server (WeightStore repack) emit
    // through the process-global hook; last tracing server wins.
    obs::set_global_recorder(tracer_.get());
  }
  shards_.reserve(options_.num_shards);
  for (unsigned i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(options_.ring_capacity, options_.telemetry));
    shards_.back()->index = static_cast<std::uint16_t>(i);
  }
  options_.ring_capacity = shards_.front()->ring.capacity();
  // Threads start only after every shard exists: a dispatcher never
  // observes a half-built shard vector.
  for (auto& shard : shards_) {
    shard->dispatcher =
        std::thread([this, s = shard.get()] { dispatcher_loop(*s); });
  }
}

Server::~Server() { shutdown(); }

void Server::shutdown() {
  // Unhook the global trace recorder first: after shutdown returns the
  // caller may destroy this Server, and a WeightStore repack on another
  // server's engine must not record into a recorder about to die.
  if (tracer_ != nullptr) obs::clear_global_recorder(tracer_.get());
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& shard : shards_) {
    // Lock-then-notify: a dispatcher between its predicate check and
    // cv.wait holds the mutex, so acquiring it here guarantees the
    // notify is not lost.
    { std::lock_guard lock(shard->mutex); }
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->dispatcher.joinable()) shard->dispatcher.join();
  }
}

Server::Shard& Server::shard_of(const void* target) const {
  return *shards_[mix_pointer(target) % shards_.size()];
}

Server::TargetShape Server::shape_of(const Target& target) {
  return std::visit(
      Overloaded{
          [](const std::shared_ptr<const CompressedNM>& weights) {
            return TargetShape{weights->orig_rows, weights->cols, 0};
          },
          [](const std::shared_ptr<model::ModelPlan>& plan) {
            return TargetShape{plan->hidden_in(), plan->hidden_out(),
                               plan->planned_tokens()};
          },
          [](const std::shared_ptr<model::DecoderPlan>& plan) {
            return TargetShape{plan->hidden(), plan->hidden(),
                               plan->planned_tokens()};
          }},
      target);
}

Status Server::validate(const Target& target, const SpmmOptions& options,
                        ConstViewF A, ViewF C) {
  if (address_of(target) == nullptr) {
    return Status::InvalidArgument("target shared_ptr is null");
  }
  if (A.rows() < 1) {
    return Status::InvalidArgument("activation batch is empty");
  }
  const TargetShape shape = shape_of(target);
  if (A.cols() != shape.k) {
    std::ostringstream os;
    os << "A depth " << A.cols() << " != target depth " << shape.k;
    return Status::InvalidArgument(os.str());
  }
  if (C.rows() != A.rows() || C.cols() != shape.n) {
    std::ostringstream os;
    os << "C is " << C.rows() << "x" << C.cols() << " but must be "
       << A.rows() << "x" << shape.n;
    return Status::InvalidArgument(os.str());
  }
  if (shape.max_rows != 0 && A.rows() > shape.max_rows) {
    // Such a request could never be served.
    std::ostringstream os;
    os << "request of " << A.rows() << " tokens exceeds the plan's "
       << shape.max_rows << "-token budget";
    return Status::FailedPrecondition(os.str());
  }
  if (options.epilogue.active()) {
    return Status::InvalidArgument(
        "batched submissions cannot carry epilogue operands; submit whole "
        "FFN blocks through submit_ffn instead");
  }
  return Status();
}

std::future<Status> Server::submit(ConstViewF A,
                                   std::shared_ptr<const CompressedNM> B,
                                   ViewF C, SpmmOptions options,
                                   std::uint64_t deadline_us) {
  // Requests batch only when one plan serves them all: normalize the
  // thread count exactly as the engine does for its cache key.
  options.num_threads = engine_.normalized_num_threads();
  return enqueue(std::move(B), options, A, C, deadline_us);
}

std::future<Status> Server::submit_ffn(ConstViewF A,
                                       std::shared_ptr<model::ModelPlan> plan,
                                       ViewF out, std::uint64_t deadline_us) {
  return enqueue(std::move(plan), SpmmOptions{}, A, out, deadline_us);
}

std::future<Status> Server::submit_decode(
    std::uint64_t seq_id, ConstViewF A,
    std::shared_ptr<model::DecoderPlan> plan, ViewF out,
    std::uint64_t deadline_us) {
  if (A.rows() != 1) {
    return ready(Status::InvalidArgument(
        "submit_decode takes exactly one token row per sequence step"));
  }
  return enqueue(std::move(plan), SpmmOptions{}, A, out, deadline_us,
                 seq_id);
}

std::future<Status> Server::enqueue(Target target, SpmmOptions options,
                                    ConstViewF A, ViewF C,
                                    std::uint64_t deadline_us,
                                    std::uint64_t seq_id) {
  const auto submitted = Clock::now();
  // Per-request validation: a malformed submission resolves immediately
  // and can never poison the batch it would have joined.
  if (Status invalid = validate(target, options, A, C); !invalid.ok()) {
    return ready(std::move(invalid));
  }
  const void* address = address_of(target);
  GroupKey key{address, std::move(options)};
  Shard& shard = shard_of(address);
  if (stop_.load(std::memory_order_seq_cst)) {
    return ready(Status::Unavailable("server is shut down"));
  }

  // Trace sampling: every accepted request (bypassed included) draws a
  // ticket; 1 in trace_sample_n carries a nonzero trace id through its
  // whole life cycle. One relaxed fetch_add when tracing is on, nothing
  // at all when it is off.
  std::uint64_t trace_id = 0;
  if (tracer_ != nullptr) {
    const std::uint64_t n =
        trace_seq_.fetch_add(1, std::memory_order_relaxed);
    if (n % options_.trace_sample_n == 0) trace_id = n + 1;
  }

  // Single-row fast path: with nothing in flight on the shard there is
  // nothing to coalesce with — serve synchronously here instead of
  // paying the dispatch round-trip. Skips batch accounting entirely
  // (no batches / flush counters). The shard mutex taken to look up the
  // group is uncontended by construction (the shard is idle).
  if (options_.bypass_single_rows && A.rows() == 1 &&
      shard.inflight.load(std::memory_order_seq_cst) == 0) {
    std::shared_ptr<Group> group;
    {
      std::lock_guard lock(shard.mutex);
      group = make_group(shard, key, std::move(target));
      prune_idle_groups(shard, group.get());
    }
    Group& g = *group;
    g.counters.requests.fetch_add(1, std::memory_order_relaxed);
    g.counters.rows.fetch_add(1, std::memory_order_relaxed);
    g.counters.bypassed.fetch_add(1, std::memory_order_relaxed);
    shard.totals.requests.fetch_add(1, std::memory_order_relaxed);
    shard.totals.rows.fetch_add(1, std::memory_order_relaxed);
    shard.totals.bypassed.fetch_add(1, std::memory_order_relaxed);
    const auto exec_start = Clock::now();
    // A DecoderPlan serializes internally, so bypassing while the
    // dispatcher later batches the same plan is safe. Per-sequence
    // failures surface through the single row's status.
    Status row;
    Status status = execute(g, key.options, A, &seq_id, C, &row);
    if (status.ok()) status = row;
    const auto resolved = Clock::now();
    // The bypassed request never queued or gathered, so only submit-side
    // overhead, execution, and the end-to-end total are recorded.
    obs::TraceSpan request = request_span(shard.index, trace_id, key.target, 1);
    request.lane = obs::ExecLane::kBypass;
    record_stage(shard, request, serve::Stage::kSubmit, submitted, exec_start);
    record_stage(shard, request, serve::Stage::kExecute, exec_start, resolved);
    record_stage(shard, request, serve::Stage::kTotal, submitted, resolved);
    count_outcome(
        shard, g, serve::RequestClass::kDecode, !status.ok(),
        deadline_us != 0 && resolved > deadline_from(submitted, deadline_us));
    return ready(status);
  }

  // Admission control. A request is sheddable when the policy says so
  // for its class; a sheddable request is refused with RESOURCE_EXHAUSTED
  // instead of ever blocking (ring full, or admitting it would push the
  // shard's pending work past a high-water mark). kShedByClass protects
  // the 1-row decode stream: decode follows the kBlock path.
  const auto rows = static_cast<std::uint64_t>(A.rows());
  const std::size_t bytes = staging_bytes(A.rows(), A.cols(), C.cols());
  const bool sheddable =
      options_.admission == AdmissionPolicy::kShed ||
      (options_.admission == AdmissionPolicy::kShedByClass && A.rows() > 1);
  auto count_shed = [&] {
    shard.shed_requests.fetch_add(1, std::memory_order_relaxed);
    shard.shed_bytes.fetch_add(bytes, std::memory_order_relaxed);
  };
  if (sheddable) {
    const bool over_rows =
        options_.shed_pending_rows != 0 &&
        shard.pending_rows.load(std::memory_order_relaxed) + rows >
            options_.shed_pending_rows;
    const bool over_bytes =
        options_.shed_pending_bytes != 0 &&
        shard.pending_bytes.load(std::memory_order_relaxed) + bytes >
            options_.shed_pending_bytes;
    if (over_rows || over_bytes) {
      count_shed();
      return ready(Status::ResourceExhausted(
          over_rows ? "request shed: shard pending rows over high-water mark"
                    : "request shed: shard pending bytes over high-water "
                      "mark"));
    }
  }

  // Lock-free publish path. The entrants counter brackets the whole
  // protocol so the shutdown drain can prove no submitter is about to
  // publish: a submitter either increments entrants before the
  // dispatcher's entrants == 0 read (the dispatcher keeps draining), or
  // after it — in which case seq_cst ordering forces this stop_ load to
  // see the store that preceded that read, and the submitter fails fast
  // without publishing.
  shard.entrants.fetch_add(1, std::memory_order_seq_cst);
  if (stop_.load(std::memory_order_seq_cst)) {
    shard.entrants.fetch_sub(1, std::memory_order_seq_cst);
    return ready(Status::Unavailable("server is shut down"));
  }
  // inflight (and the admission pending gauges) must rise before the
  // publish so the bypass's idle test cannot miss a request that is
  // already on its way to the ring.
  shard.inflight.fetch_add(1, std::memory_order_seq_cst);
  shard.pending_rows.fetch_add(rows, std::memory_order_relaxed);
  shard.pending_bytes.fetch_add(bytes, std::memory_order_relaxed);
  std::promise<Status> done;
  std::future<Status> result = done.get_future();
  SubmitMsg msg;
  msg.key = std::move(key);
  msg.target = std::move(target);
  msg.request =
      BatchRequest{A, C, std::move(done), submitted, Clock::now(),
                   deadline_from(submitted, deadline_us), trace_id, seq_id};
  // Undo the publish-protocol counters on any abort below (the request
  // never reaches the ring, so nothing downstream will release them).
  auto release = [&] {
    shard.pending_rows.fetch_sub(rows, std::memory_order_relaxed);
    shard.pending_bytes.fetch_sub(bytes, std::memory_order_relaxed);
    shard.inflight.fetch_sub(1, std::memory_order_seq_cst);
    shard.entrants.fetch_sub(1, std::memory_order_seq_cst);
  };
  bool stalled = false;
  unsigned spins = 0;
  for (;;) {
    const bool forced_full = NMSPMM_FAULT_FIRE(kRingFull);
    if (!forced_full && shard.ring.try_push(msg)) break;
    // Ring full ⇒ the dispatcher is awake and draining (it only sleeps
    // with an empty ring). A sheddable request fails fast; a blocking
    // one backs off until a slot frees, its own deadline expires, or
    // shutdown lands.
    if (sheddable) {
      release();
      count_shed();
      msg.request.done.set_value(
          Status::ResourceExhausted("request shed: submission ring full"));
      return result;
    }
    // Counted once per stalled request, not per retry.
    if (!stalled) {
      stalled = true;
      shard.ring_stalls.fetch_add(1, std::memory_order_relaxed);
    }
    if (stop_.load(std::memory_order_seq_cst)) {
      release();
      msg.request.done.set_value(
          Status::Unavailable("server shut down while awaiting ring space"));
      return result;
    }
    if (msg.request.has_deadline() && Clock::now() > msg.request.deadline) {
      // The submitter's own SLO ran out while stalled: spinning past it
      // only adds more load at the worst possible moment.
      release();
      shard.submit_deadline_fails.fetch_add(1, std::memory_order_relaxed);
      msg.request.done.set_value(Status::DeadlineExceeded(
          "deadline expired while stalled on a full submission ring"));
      return result;
    }
    if (++spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  // Eventcount publish: the counter RMW plus the sleeping load are both
  // seq_cst, pairing with the dispatcher's {sleeping = true; load
  // pushed} — one side always sees the other (no lost wakeup).
  shard.pushed.fetch_add(1, std::memory_order_seq_cst);
  if (shard.sleeping.load(std::memory_order_seq_cst)) {
    if (!NMSPMM_FAULT_FIRE(kDropWake)) {
      { std::lock_guard lock(shard.mutex); }
      shard.cv.notify_all();
    }
  }
  shard.entrants.fetch_sub(1, std::memory_order_seq_cst);
  return result;
}

std::shared_ptr<Server::Group>& Server::make_group(Shard& shard,
                                                   const GroupKey& key,
                                                   Target target) {
  std::shared_ptr<Group>& slot = shard.groups[key];
  if (slot == nullptr) {
    slot = std::make_shared<Group>();
    const TargetShape shape = shape_of(target);
    slot->target = std::move(target);
    slot->k = shape.k;
    slot->n = shape.n;
    // A batch larger than a plan's token budget could never execute.
    slot->row_budget = shape.max_rows != 0
                           ? std::min(options_.max_batch_rows, shape.max_rows)
                           : options_.max_batch_rows;
    shard.groups_seen.fetch_add(1, std::memory_order_relaxed);
  }
  return slot;
}

std::size_t Server::drain_ring(Shard& shard, std::uint64_t& drained,
                               std::vector<SubmitMsg>& scratch) {
  scratch.clear();
  SubmitMsg msg;
  while (shard.ring.try_pop(msg)) scratch.push_back(std::move(msg));
  if (scratch.empty()) return 0;
  drained += scratch.size();
  std::lock_guard lock(shard.mutex);
  for (SubmitMsg& m : scratch) {
    Group& g = *make_group(shard, m.key, std::move(m.target));
    const auto rows = static_cast<std::uint64_t>(m.request.a.rows());
    g.counters.requests.fetch_add(1, std::memory_order_relaxed);
    g.counters.rows.fetch_add(rows, std::memory_order_relaxed);
    shard.totals.requests.fetch_add(1, std::memory_order_relaxed);
    shard.totals.rows.fetch_add(rows, std::memory_order_relaxed);
    // kSubmit ends at ring publish; ring residency counts as kQueue.
    record_stage(shard,
                 request_span(shard.index, m.request.trace_id, m.key.target,
                              m.request.a.rows()),
                 serve::Stage::kSubmit, m.request.submitted,
                 m.request.enqueued);
    g.queue.push(std::move(m.request));
    atomic_max(g.counters.max_queue_depth, g.queue.max_depth_seen());
    atomic_max(shard.totals.max_queue_depth, g.queue.max_depth_seen());
  }
  const std::size_t popped = scratch.size();
  scratch.clear();
  prune_idle_groups(shard);  // bounded retention even under group churn
  return popped;
}

Server::PendingBatch Server::next_batch(Shard& shard,
                                        Clock::time_point now) {
  PendingBatch batch;
  const std::chrono::microseconds wait(options_.max_wait_us);
  const std::chrono::microseconds margin(options_.slo_margin_us);
  std::lock_guard lock(shard.mutex);
  const bool draining = stop_.load(std::memory_order_relaxed);
  // Among ready groups, serve the one whose front request is oldest —
  // sustained row-budget traffic on one group must not starve another
  // group's deadline-expired requests.
  const GroupKey* pick_key = nullptr;
  const std::shared_ptr<Group>* pick = nullptr;
  for (auto& [key, group] : shard.groups) {
    BatchQueue& queue = group->queue;
    if (queue.empty()) continue;
    if (!draining && !queue.ready(now, group->row_budget, wait,
                                  options_.slo_aware, margin)) {
      continue;
    }
    if (pick == nullptr || queue.oldest() < (*pick)->queue.oldest()) {
      pick_key = &key;
      pick = &group;
    }
  }
  if (pick == nullptr) return batch;

  Group& g = **pick;
  const index_t budget = g.row_budget;
  // Attribute the flush before popping mutates the queue. During drain a
  // not-otherwise-ready queue flushes for shutdown; count it with the
  // timeout flushes.
  FlushReason reason = FlushReason::kShutdown;
  if (g.queue.ready(now, budget, wait, options_.slo_aware, margin)) {
    reason = g.queue.flush_reason(now, budget, wait);
  }
  batch.group = *pick;
  batch.key = *pick_key;
  batch.popped = now;
  batch.reason = reason;
  batch.requests = g.queue.take_batch(budget);
  for (const BatchRequest& r : batch.requests) batch.rows += r.a.rows();
  g.counters.batches.fetch_add(1, std::memory_order_relaxed);
  g.counters.count_flush(reason);
  shard.totals.batches.fetch_add(1, std::memory_order_relaxed);
  shard.totals.count_flush(reason);
  return batch;
}

void Server::prune_idle_groups(Shard& shard, const Group* keep) {
  if (shard.groups.size() <= options_.max_groups) return;
  for (auto it = shard.groups.begin();
       it != shard.groups.end() &&
       shard.groups.size() > options_.max_groups;) {
    // Idle = empty queue. A group whose batch is mid-flight on the
    // dispatcher may be evicted safely: the PendingBatch holds shared
    // ownership of the Group (and its weights / plan), and
    // shard totals already carry every counter. An evicted group that
    // comes back starts fresh.
    if (it->second.get() != keep && it->second->queue.empty()) {
      it = shard.groups.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::prune_staging(Shard& shard, StagingMap& staging) {
  // Staging buffers are keyed per batch target; release those no live
  // group references any more.
  std::unordered_set<const void*> alive;
  for (const auto& [key, group] : shard.groups) alive.insert(key.target);
  for (auto it = staging.begin(); it != staging.end();) {
    it = alive.count(it->first) != 0 ? std::next(it) : staging.erase(it);
  }
}

void Server::record_stage(Shard& shard, const obs::TraceSpan& request,
                          serve::Stage stage, Clock::time_point from,
                          Clock::time_point to, std::uint64_t detail) const {
  const std::uint64_t us = elapsed_us(from, to);
  if (shard.telemetry != nullptr) {
    shard.telemetry->record(static_cast<serve::RequestClass>(request.cls),
                            stage, us);
  }
  if (request.trace_id != 0 && tracer_ != nullptr) {
    obs::TraceSpan span = request;
    span.kind = static_cast<obs::SpanKind>(stage);
    span.ts_us = tracer_->to_us(from);
    span.dur_us = us;
    span.detail = detail;
    tracer_->record(span);
  }
}

obs::TraceSpan Server::batch_span(const Shard& shard,
                                  const PendingBatch& batch,
                                  const BatchRequest& r) {
  obs::TraceSpan span =
      request_span(shard.index, r.trace_id, batch.key.target, r.a.rows());
  span.flush = trace_flush_byte(batch.reason);
  span.lane = batch.lane;
  return span;
}

void Server::count_outcome(Shard& shard, Group& g, serve::RequestClass cls,
                           bool failed, bool violated) {
  if (violated) {
    g.counters.slo_violations.fetch_add(1, std::memory_order_relaxed);
    shard.totals.slo_violations.fetch_add(1, std::memory_order_relaxed);
    if (shard.telemetry != nullptr) shard.telemetry->count_violation(cls);
  }
  if (failed) {
    g.counters.errors.fetch_add(1, std::memory_order_relaxed);
    shard.totals.errors.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::release_request(Shard& shard, Group& g, const BatchRequest& r,
                             bool failed, bool violated) {
  count_outcome(shard, g, serve::classify_rows(r.a.rows()), failed, violated);
  shard.pending_rows.fetch_sub(static_cast<std::uint64_t>(r.a.rows()),
                               std::memory_order_relaxed);
  shard.pending_bytes.fetch_sub(staging_bytes(r.a.rows(), r.a.cols(),
                                              r.c.cols()),
                                std::memory_order_relaxed);
  shard.inflight.fetch_sub(1, std::memory_order_seq_cst);
}

void Server::resolve_request(Shard& shard, PendingBatch& batch,
                             BatchRequest& r, Clock::time_point exec_start,
                             Clock::time_point exec_end,
                             const Status& status) {
  // Record before resolving the future: a caller that joins on its
  // future and then reads stats() must see its own sample.
  const auto resolved = Clock::now();
  const obs::TraceSpan request = batch_span(shard, batch, r);
  record_stage(shard, request, serve::Stage::kQueue, r.enqueued,
               batch.popped);
  record_stage(shard, request, serve::Stage::kGather, batch.popped,
               exec_start);
  record_stage(shard, request, serve::Stage::kExecute, exec_start, exec_end,
               batch.exec_repacks);
  record_stage(shard, request, serve::Stage::kTotal, r.submitted, resolved);
  // Drop inflight before fulfilling the promise: a caller that joins
  // and immediately submits a single row must observe the idle shard
  // (bypass eligibility), not a stale in-flight count.
  release_request(shard, *batch.group, r, !status.ok(),
                  r.has_deadline() && resolved > r.deadline);
  r.done.set_value(status);
}

Status Server::execute(const Group& group, const SpmmOptions& options,
                       ConstViewF a, const std::uint64_t* seq_ids, ViewF c,
                       Status* row_status) {
  return std::visit(
      Overloaded{
          [&](const std::shared_ptr<const CompressedNM>& weights) {
            return engine_.spmm(a, weights, c, options);
          },
          [&](const std::shared_ptr<model::ModelPlan>& plan) {
            return plan->run(a, c);
          },
          [&](const std::shared_ptr<model::DecoderPlan>& plan) {
            return plan->decode(a, seq_ids, c, row_status);
          }},
      group.target);
}

Status Server::serve_batch(Shard& shard, PendingBatch& batch,
                           StagingMap& staging) {
  Group& g = *batch.group;
  // Chaos hook: per-shard artificial execute latency (no-op by default).
  NMSPMM_FAULT_EXECUTE_DELAY();

  // Prefill-heavy plain-SpMM batches split into concurrent serial lanes
  // (see kSplitMinAvgRows). That needs a real pool; a plan binds its own
  // pool and cannot run as a serial lane.
  const auto count = static_cast<index_t>(batch.requests.size());
  ThreadPool* pool = engine_.pool();
  if (count > 1 &&
      std::holds_alternative<std::shared_ptr<const CompressedNM>>(
          g.target) &&
      pool != nullptr && pool->size() > 1 &&
      batch.rows >= kSplitMinAvgRows * count) {
    return serve_batch_split(shard, batch);
  }

  // A lone request needs no gather/scatter: its own views are the batch
  // (same plan caches, zero copies).
  batch.lane = obs::ExecLane::kCoalesce;
  BatchRequest& front = batch.requests.front();
  ConstViewF a_view = front.a;
  ViewF c_view = front.c;
  const std::uint64_t* seq_ids = &front.seq_id;
  Status lone_status;
  Status* row_status = &lone_status;
  if (count > 1) {
    const index_t capacity = std::max(batch.rows, options_.max_batch_rows);
    // Bound dispatcher memory before it grows: a trip here unwinds into
    // the dispatcher's exception guard, failing this batch with
    // RESOURCE_EXHAUSTED while the server keeps serving. Real bad_alloc
    // from the MatrixF growth below takes the same guard path.
    if (options_.max_staging_bytes != 0 &&
        staging_bytes(capacity, g.k, g.n) > options_.max_staging_bytes) {
      std::ostringstream os;
      os << "batch of " << batch.rows << " rows needs "
         << staging_bytes(capacity, g.k, g.n)
         << " staging bytes, over max_staging_bytes="
         << options_.max_staging_bytes;
      throw ResourceExhaustedError(os.str());
    }
    if (NMSPMM_FAULT_FIRE(kStagingAlloc)) {
      throw ResourceExhaustedError("injected staging allocation failure");
    }
    Staging& st = staging[batch.key.target];
    if (st.a.rows() < batch.rows || st.a.cols() != g.k) {
      st.a = MatrixF(capacity, g.k);
    }
    if (st.c.rows() < batch.rows || st.c.cols() != g.n) {
      st.c = MatrixF(capacity, g.n);
    }
    st.seq_ids.clear();
    index_t row = 0;
    for (const BatchRequest& r : batch.requests) {
      for (index_t i = 0; i < r.a.rows(); ++i) {
        std::copy_n(r.a.row(i), g.k, st.a.row(row++));
        st.seq_ids.push_back(r.seq_id);
      }
    }
    st.row_status.assign(static_cast<std::size_t>(batch.rows), Status());
    a_view = st.a.view().block(0, 0, batch.rows, g.k);
    c_view = st.c.view().block(0, 0, batch.rows, g.n);
    seq_ids = st.seq_ids.data();
    row_status = st.row_status.data();
  }

  const std::uint64_t repacks_before = obs::repack_events();
  const auto exec_start = Clock::now();
  const Status status =
      execute(g, batch.key.options, a_view, seq_ids, c_view, row_status);
  const auto exec_end = Clock::now();
  batch.exec_repacks = obs::repack_events() - repacks_before;
  // Scatter and resolve per request. A decode row failure fails that
  // request alone; the rest of the batch still lands.
  Status worst;
  index_t row = 0;
  for (BatchRequest& r : batch.requests) {
    const Status rs = status.ok() ? row_status[row] : status;
    if (rs.ok() && count > 1) {
      for (index_t i = 0; i < r.c.rows(); ++i) {
        std::copy_n(c_view.row(row + i), g.n, r.c.row(i));
      }
    }
    row += r.a.rows();
    if (worst.ok()) worst = rs;
    resolve_request(shard, batch, r, exec_start, exec_end, rs);
  }
  return worst;
}

Status Server::serve_batch_split(Shard& shard, PendingBatch& batch) {
  Group& g = *batch.group;
  const std::size_t n = batch.requests.size();
  std::vector<Status> statuses(n);
  std::vector<Clock::time_point> starts(n);
  std::vector<Clock::time_point> ends(n);
  // Each lane runs a strictly serial plan (Engine honors the explicit
  // num_threads == 1) straight on the caller's views: zero gather or
  // scatter, and no nested pool waits — the concurrency comes from
  // run_chunks spreading the lanes over the workers.
  SpmmOptions lane_options = batch.key.options;
  lane_options.num_threads = 1;
  batch.lane = obs::ExecLane::kSplit;
  const std::uint64_t repacks_before = obs::repack_events();
  engine_.pool()->run_chunks(
      static_cast<std::int64_t>(n), [&](std::int64_t i) {
        BatchRequest& r = batch.requests[static_cast<std::size_t>(i)];
        starts[i] = Clock::now();
        statuses[i] = engine_.spmm(
            r.a, std::get<std::shared_ptr<const CompressedNM>>(g.target),
            r.c, lane_options);
        ends[i] = Clock::now();
      });
  batch.exec_repacks = obs::repack_events() - repacks_before;
  g.counters.split_batches.fetch_add(1, std::memory_order_relaxed);
  shard.totals.split_batches.fetch_add(1, std::memory_order_relaxed);
  Status worst;
  for (std::size_t i = 0; i < n; ++i) {
    resolve_request(shard, batch, batch.requests[i], starts[i], ends[i],
                    statuses[i]);
    if (worst.ok() && !statuses[i].ok()) worst = statuses[i];
  }
  return worst;
}

void Server::fail_batch(Shard& shard, PendingBatch& batch,
                        const Status& status) {
  for (BatchRequest& r : batch.requests) {
    // A request may already have been resolved before the failure
    // surfaced; second set_value throws future_error — skip those
    // (their counters and inflight are already settled).
    try {
      r.done.set_value(status);
    } catch (const std::future_error&) {
      continue;
    }
    release_request(shard, *batch.group, r, /*failed=*/true,
                    /*violated=*/false);
  }
}

void Server::dispatcher_loop(Shard& shard) {
  // Staging buffers live on this dispatcher's stack: only this thread
  // gathers/scatters for its shard, so they need no locking and are
  // reused batch after batch (no per-batch allocation once warm).
  StagingMap staging;
  std::vector<SubmitMsg> scratch;
  // Eventcount position: messages this dispatcher has popped. Compared
  // against shard.pushed to decide whether sleeping is safe.
  std::uint64_t drained = 0;
  for (;;) {
    drain_ring(shard, drained, scratch);
    PendingBatch batch = next_batch(shard, Clock::now());
    if (batch.group != nullptr) {
      // Drain fast-fail: once shutdown() is in flight, a request whose
      // deadline already expired can never be served within its SLO —
      // fail it immediately with DEADLINE_EXCEEDED instead of spending
      // the drain's remaining time computing an answer nobody is
      // waiting for (and instead of hanging its future).
      if (stop_.load(std::memory_order_relaxed)) {
        const auto now = Clock::now();
        std::vector<BatchRequest> live;
        live.reserve(batch.requests.size());
        for (BatchRequest& r : batch.requests) {
          if (r.has_deadline() && now > r.deadline) {
            record_stage(shard, batch_span(shard, batch, r),
                         serve::Stage::kTotal, r.submitted, now);
            release_request(shard, *batch.group, r, /*failed=*/true,
                            /*violated=*/true);
            r.done.set_value(Status::DeadlineExceeded(
                "deadline expired before the drain reached the request"));
          } else {
            live.push_back(std::move(r));
          }
        }
        batch.requests = std::move(live);
        batch.rows = 0;
        for (const BatchRequest& r : batch.requests) {
          batch.rows += r.a.rows();
        }
        if (batch.requests.empty()) continue;
      }
      // Exception guard (ROADMAP): a failure assembling or running the
      // batch fails this batch's futures instead of std::terminate-ing
      // the process on a bare thread. Allocation / budget exhaustion
      // (staging growth, max_staging_bytes, repack-on-demand) surfaces
      // as RESOURCE_EXHAUSTED — retryable; anything else is a genuine
      // invariant trip and stays INTERNAL.
      try {
        // Per-request error accounting happens inside resolve_request;
        // the returned worst status is only of interest to tests.
        static_cast<void>(serve_batch(shard, batch, staging));
      } catch (const std::bad_alloc& e) {
        fail_batch(shard, batch, Status::ResourceExhausted(e.what()));
        flight_dump();
      } catch (const std::exception& e) {
        fail_batch(shard, batch, Status::Internal(e.what()));
        flight_dump();
      }
      {
        std::lock_guard lock(shard.mutex);
        prune_idle_groups(shard);
        prune_staging(shard, staging);
      }
      continue;  // more groups may be ready; drain before sleeping
    }

    // Nothing ready. Shutdown drain exit: with stop_ set and no
    // submitter inside the publish protocol, no new message can ever
    // arrive (see enqueue()); once the ring and every queue are empty
    // the shard is fully drained.
    if (stop_.load(std::memory_order_seq_cst) &&
        shard.entrants.load(std::memory_order_seq_cst) == 0) {
      drain_ring(shard, drained, scratch);
      if (shard.ring.empty()) {
        std::lock_guard lock(shard.mutex);
        bool pending = false;
        for (const auto& [key, group] : shard.groups) {
          if (!group->queue.empty()) {
            pending = true;
            break;
          }
        }
        if (!pending) return;
      }
      continue;
    }

    // Sleep until new work (eventcount), a queue deadline, or shutdown.
    auto earliest = Clock::time_point::max();
    bool any_pending = false;
    std::unique_lock lock(shard.mutex);
    for (const auto& [key, group] : shard.groups) {
      if (group->queue.empty()) continue;
      any_pending = true;
      earliest = std::min(
          earliest, group->queue.deadline(
                        std::chrono::microseconds(options_.max_wait_us)));
      if (options_.slo_aware) {
        // Wake early enough to flush ahead of the tightest SLO deadline.
        earliest = std::min(
            earliest, group->queue.slo_flush_at(std::chrono::microseconds(
                          options_.slo_margin_us)));
      }
    }
    shard.sleeping.store(true, std::memory_order_seq_cst);
    const auto pred = [&shard, &drained, this] {
      return shard.pushed.load(std::memory_order_seq_cst) != drained ||
             stop_.load(std::memory_order_seq_cst);
    };
    if (!pred()) {
      if (any_pending) {
        shard.cv.wait_until(lock, earliest, pred);
      } else {
        shard.cv.wait(lock, pred);
      }
    }
    shard.sleeping.store(false, std::memory_order_relaxed);
  }
}

Status Server::dump_trace(const std::string& path) const {
  if (tracer_ == nullptr) {
    return Status::FailedPrecondition(
        "tracing is off (ServerOptions::trace_sample_n == 0)");
  }
  return tracer_->dump_chrome_json(path);
}

void Server::flight_dump() const {
  // The flight recorder: after an injected-fault (or real) batch
  // failure the last trace_buffer_spans spans land on disk unasked.
  if (tracer_ == nullptr || options_.trace_flight_path.empty()) return;
  static_cast<void>(tracer_->dump_chrome_json(options_.trace_flight_path));
}

Server::Stats Server::stats() const {
  Stats stats;
  stats.shards = shards_.size();
  stats.per_shard.reserve(shards_.size());
  if (tracer_ != nullptr) {
    stats.trace_spans = tracer_->recorded();
    stats.trace_drops = tracer_->drops();
  }
  for (const auto& shard : shards_) {
    stats.per_shard.push_back(shard->totals.snapshot());
    accumulate(stats.totals, stats.per_shard.back());
    stats.groups += shard->groups_seen.load(std::memory_order_relaxed);
    stats.ring_stalls +=
        shard->ring_stalls.load(std::memory_order_relaxed);
    stats.shed_requests +=
        shard->shed_requests.load(std::memory_order_relaxed);
    stats.shed_bytes += shard->shed_bytes.load(std::memory_order_relaxed);
    stats.submit_deadline_fails +=
        shard->submit_deadline_fails.load(std::memory_order_relaxed);
    if (shard->telemetry != nullptr) {
      stats.latency.merge(shard->telemetry->snapshot());
    }
  }
  return stats;
}

Server::GroupStats Server::target_stats(const void* target) const {
  Shard& shard = shard_of(target);
  std::lock_guard lock(shard.mutex);
  GroupStats stats;
  for (const auto& [key, group] : shard.groups) {
    if (key.target == target) accumulate(stats, group->counters.snapshot());
  }
  return stats;
}

Server::GroupStats Server::weights_stats(const CompressedNM* weights) const {
  return target_stats(weights);
}

Server::GroupStats Server::model_stats(const model::ModelPlan* plan) const {
  return target_stats(plan);
}

Server::GroupStats Server::decode_stats(
    const model::DecoderPlan* plan) const {
  return target_stats(plan);
}

}  // namespace nmspmm
