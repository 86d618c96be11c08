// Open-loop traffic generation against nmspmm::Server.
//
// Closed-loop benchmarking (bench_serving) keeps a fixed number of
// requests in flight: the load adapts to the server, so queueing delay —
// the thing tail-latency SLOs are about — never builds up. Real serving
// is open-loop: requests arrive on their own schedule whether or not the
// server keeps up, and the latency distribution under a given *offered*
// rate is the figure of merit. run_open_loop() generates that schedule:
//
//   - arrivals: Poisson (exponential inter-arrival) or bursty MMPP-2 —
//     a two-state Markov-modulated Poisson process alternating between a
//     calm and a burst rate, the classic model for flash-crowd traffic
//     that a mean-rate-matched Poisson stream cannot reproduce;
//   - request mix: weighted classes (decode steps of one row, prefill
//     requests of 64-512 rows) each with its own SLO deadline;
//   - targets: weighted set of weight matrices / ModelPlans, so several
//     models can share one Server (and one WeightStore byte budget);
//   - N submitting threads, each with a seeded Rng — a (seed, options)
//     pair replays the same schedule bit-for-bit.
//
// Submission is fire-and-forget into pre-allocated per-thread slot
// buffers (64 per thread; the Server requires A and C alive until the
// future resolves); when every slot of a thread is still in flight the
// thread must wait for one — counted as a `stall`, the honest signal
// that the offered rate exceeded what an open-loop harness with finite
// memory can offer.
//
// The report's latency snapshot is the difference of Server::stats()
// telemetry taken after and before the run, so a shared server can host
// several consecutive runs without cross-contamination.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/ffn.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "serve/telemetry.hpp"

namespace nmspmm::serve {

/// One request class in the traffic mix.
struct TrafficClass {
  std::string name;        ///< reported per class ("decode", "prefill", ...)
  index_t rows_min = 1;    ///< activation rows, uniform in [min, max]
  index_t rows_max = 1;
  double weight = 1.0;     ///< relative share of arrivals
  /// Per-request SLO budget from submit time, in us (0 = no deadline).
  std::uint64_t deadline_us = 0;
};

/// One submission target: exactly one of weights (Server::submit) or
/// plan (Server::submit_ffn).
struct TrafficTarget {
  std::shared_ptr<const CompressedNM> weights;
  std::shared_ptr<model::ModelPlan> plan;
  double weight = 1.0;  ///< relative share of arrivals
};

enum class ArrivalProcess {
  kPoisson,  ///< exponential inter-arrival at the offered rate
  /// MMPP-2: the burst state runs at 4x the mean rate for ~10% of the
  /// time (mean sojourn 20 ms), the calm rate keeps the long-run mean at
  /// offered_rps; exponential state sojourns.
  kBursty,
};

/// Client-side retry for retryable Status codes (RESOURCE_EXHAUSTED,
/// UNAVAILABLE — see is_retryable in util/check.hpp). Off by default
/// (max_attempts = 1). Retries run synchronously on the source thread
/// (delaying its later arrivals — the cost of a retry storm is visible
/// in the schedule, as in a real client) and are governed by three
/// independent bounds, whichever bites first:
///  - max_attempts: total attempts per request, including the first;
///  - the request's deadline_us: a retry whose backoff would land past
///    the deadline (measured from the FIRST submission) is never sent,
///    and a resubmission carries only the remaining budget;
///  - a token-bucket retry budget shared by all source threads: each
///    success earns 0.1 tokens (capped at budget_cap), each retry spends
///    one — so when most requests are failing, the bucket drains and
///    retries stop amplifying the overload.
/// Backoff starts at initial_backoff_us and doubles per retry, capped at
/// max_backoff_us, scaled by a seeded jitter in [0.75, 1.25) from the
/// source thread's xoshiro stream: schedules stay replayable, and
/// concurrent retriers de-synchronize instead of re-colliding.
struct RetryPolicy {
  int max_attempts = 1;
  std::uint64_t initial_backoff_us = 200;
  std::uint64_t max_backoff_us = 10000;
  double budget_cap = 64.0;

  [[nodiscard]] bool enabled() const { return max_attempts > 1; }
};

struct TrafficOptions {
  double offered_rps = 1000.0;  ///< aggregate arrival rate, requests/s
  double duration_s = 1.0;      ///< submission window (drain excluded)
  ArrivalProcess arrivals = ArrivalProcess::kPoisson;
  int submit_threads = 2;   ///< open-loop sources, splitting offered_rps
  std::uint64_t seed = 42;  ///< replays the exact schedule
  /// Client-side retry of retryable failures (off by default).
  RetryPolicy retry;
  std::vector<TrafficClass> classes;  ///< default: 1-row, no deadline
  /// Metrics sampling cadence during the run (0 = off): an
  /// obs::MetricsExporter polls server.stats() every interval and its
  /// timeline lands in TrafficReport::timeline — time series of the
  /// run's counters instead of end-only aggregates.
  std::uint32_t metrics_interval_ms = 0;
  /// Optional export files rewritten atomically each sample tick while
  /// the run is live ("" = in-memory timeline only).
  std::string metrics_prometheus_path;
  std::string metrics_json_path;
};

struct ClassReport {
  std::string name;
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  /// Of `errors`: final RESOURCE_EXHAUSTED (shed and not recovered by
  /// retry) and final DEADLINE_EXCEEDED resolutions.
  std::uint64_t shed = 0;
  std::uint64_t deadline_failed = 0;
};

struct TrafficReport {
  double offered_rps = 0.0;
  /// Resolved requests / wall time of the whole run including drain —
  /// compare against offered_rps to see whether the server kept up.
  double achieved_rps = 0.0;
  double duration_s = 0.0;  ///< wall time, submission + drain
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  /// Times a source thread found every slot in flight and had to block
  /// on a future before submitting — offered-load back-pressure events.
  std::uint64_t stalls = 0;
  std::vector<ClassReport> classes;
  /// Telemetry delta attributable to this run (stats().latency after
  /// minus before). Empty when the server runs with telemetry off.
  TelemetrySnapshot latency;
  /// Server violation-counter delta over the run.
  std::uint64_t slo_violations = 0;
  /// Server-side submission-ring stall delta over the run: times a
  /// submit found its shard's MPSC ring full and had to back off
  /// (distinct from `stalls`, the harness running out of slot buffers).
  std::uint64_t ring_stalls = 0;
  /// Shed-vs-stall split of the overload response. `shed` counts
  /// requests whose FINAL status was RESOURCE_EXHAUSTED (refused by
  /// admission control and not recovered by retry); `deadline_failed`
  /// the final DEADLINE_EXCEEDED resolutions. `server_shed` is the
  /// server-side stats().shed_requests delta — larger than `shed`
  /// whenever retries turned sheds into successes.
  std::uint64_t shed = 0;
  std::uint64_t deadline_failed = 0;
  std::uint64_t server_shed = 0;
  /// Client retry accounting (all zero when retry is off): attempts
  /// re-sent, how many of those ended OK, and retryable failures NOT
  /// retried (attempts exhausted, deadline too close, budget empty).
  std::uint64_t retries = 0;
  std::uint64_t retry_ok = 0;
  std::uint64_t retry_denied = 0;
  /// Periodic stats() samples over the run (metrics_interval_ms > 0
  /// only). Counters are cumulative-since-server-start — difference
  /// adjacent samples for rates; t_ms counts from just before the first
  /// arrival.
  std::vector<obs::TimelineSample> timeline;
};

/// Drive @p server open-loop per @p options, splitting arrivals across
/// options.submit_threads threads and the weighted targets/classes.
/// Blocks until every submitted request has resolved. Validation errors
/// (no targets, a target with both or neither of weights/plan, rows
/// exceeding an FFN plan's token budget, infeasible MMPP shape) return
/// InvalidArgument without submitting anything.
[[nodiscard]] StatusOr<TrafficReport> run_open_loop(
    Server& server, const std::vector<TrafficTarget>& targets,
    const TrafficOptions& options);

}  // namespace nmspmm::serve
