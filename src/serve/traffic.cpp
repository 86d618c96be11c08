#include "serve/traffic.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>
#include <utility>

#include "util/rng.hpp"

namespace nmspmm::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Exponential inter-event time at @p rate events/s. next_double() is in
/// [0, 1), so 1-u is in (0, 1] and the log is finite.
double sample_exp(Rng& rng, double rate) {
  return -std::log(1.0 - rng.next_double()) / rate;
}

/// Weighted index pick over @p cumulative (inclusive prefix sums).
std::size_t pick_weighted(Rng& rng, const std::vector<double>& cumulative) {
  const double u = rng.next_double() * cumulative.back();
  const auto it =
      std::upper_bound(cumulative.begin(), cumulative.end(), u);
  return std::min<std::size_t>(it - cumulative.begin(),
                               cumulative.size() - 1);
}

/// MMPP-2 shape: the burst state arrives at kBurstRateFactor x the mean
/// rate and holds ~kBurstTimeFraction of the time, with a mean sojourn
/// of kMeanBurstS; the calm rate is derived so the long-run mean stays
/// the offered rate.
constexpr double kBurstRateFactor = 4.0;
constexpr double kBurstTimeFraction = 0.1;
constexpr double kMeanBurstS = 0.02;
constexpr double kMeanCalmS =
    kMeanBurstS * (1.0 - kBurstTimeFraction) / kBurstTimeFraction;
static_assert(kBurstTimeFraction > 0.0 && kBurstTimeFraction < 1.0);
static_assert(kBurstTimeFraction * kBurstRateFactor < 1.0,
              "the calm-state rate must stay positive");

/// Arrival schedule of one source thread: Poisson, or MMPP-2 where the
/// process alternates between a calm and a burst rate with exponential
/// sojourns. Memorylessness lets us resample the inter-arrival clock at
/// each state switch, so no thinning is needed.
class ArrivalSampler {
 public:
  ArrivalSampler(bool bursty, double rate, Rng& rng)
      : rng_(rng), bursty_(bursty) {
    if (!bursty_) {
      calm_rate_ = burst_rate_ = rate;
      return;
    }
    const double f = kBurstTimeFraction;
    burst_rate_ = rate * kBurstRateFactor;
    // Long-run mean stays `rate`: f * burst + (1-f) * calm = rate.
    calm_rate_ = rate * (1.0 - f * kBurstRateFactor) / (1.0 - f);
    state_end_s_ = sample_exp(rng_, 1.0 / kMeanCalmS);
  }

  /// Absolute time (seconds from the schedule origin) of the next
  /// arrival after @p now_s.
  double next_arrival(double now_s) {
    double t = now_s;
    for (;;) {
      const double rate = in_burst_ ? burst_rate_ : calm_rate_;
      const double dt = sample_exp(rng_, rate);
      if (!bursty_ || t + dt <= state_end_s_) return t + dt;
      t = state_end_s_;
      in_burst_ = !in_burst_;
      state_end_s_ =
          t + sample_exp(rng_, 1.0 / (in_burst_ ? kMeanBurstS : kMeanCalmS));
    }
  }

 private:
  Rng& rng_;
  bool bursty_ = false;
  bool in_burst_ = false;
  double calm_rate_ = 0.0;
  double burst_rate_ = 0.0;
  double state_end_s_ = 0.0;
};

/// In-flight request buffers per source thread; all busy = the thread
/// stalls.
constexpr std::size_t kSlotsPerThread = 64;

/// One pre-allocated in-flight request buffer. The Server requires A and
/// C alive until the future resolves, so open-loop submission without
/// per-request allocation needs a bounded ring of kSlotsPerThread. The
/// request's identity (class, target, rows, deadline, attempt count,
/// first-submit time) rides along so a retryable failure can be re-sent
/// verbatim.
struct Slot {
  MatrixF a;
  MatrixF c;
  std::future<Status> fut;
  int cls = -1;
  int target = -1;
  index_t rows = 0;
  std::uint64_t deadline_us = 0;
  int attempts = 0;
  Clock::time_point first_submit;
};

struct ThreadTally {
  std::uint64_t submitted = 0;
  std::uint64_t stalls = 0;
  std::uint64_t retries = 0;
  std::uint64_t retry_ok = 0;
  std::uint64_t retry_denied = 0;
  std::vector<std::uint64_t> ok;        // per class
  std::vector<std::uint64_t> errors;    // per class
  std::vector<std::uint64_t> shed;      // per class, final RESOURCE_EXHAUSTED
  std::vector<std::uint64_t> deadline;  // per class, final DEADLINE_EXCEEDED
};

/// Retry-budget tokens one success earns.
constexpr double kBudgetPerSuccess = 0.1;

/// Shared token-bucket retry budget in milli-tokens: retries spend 1000,
/// successes earn kBudgetPerSuccess * 1000 up to the cap. Lock-free CAS
/// loops — source threads touch it once per settle.
class RetryBudget {
 public:
  explicit RetryBudget(const RetryPolicy& policy)
      : cap_millis_(static_cast<std::int64_t>(policy.budget_cap * 1000.0)),
        tokens_(cap_millis_) {}

  bool try_spend() {
    std::int64_t cur = tokens_.load(std::memory_order_relaxed);
    while (cur >= 1000) {
      if (tokens_.compare_exchange_weak(cur, cur - 1000,
                                        std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  void credit() {
    std::int64_t cur = tokens_.load(std::memory_order_relaxed);
    while (cur < cap_millis_ &&
           !tokens_.compare_exchange_weak(
               cur, std::min(cap_millis_, cur + kCreditMillis),
               std::memory_order_relaxed)) {
    }
  }

 private:
  static constexpr auto kCreditMillis =
      static_cast<std::int64_t>(kBudgetPerSuccess * 1000.0);
  const std::int64_t cap_millis_;
  std::atomic<std::int64_t> tokens_;
};

/// Backoff growth per retry, and its jitter: each backoff is scaled by a
/// uniform draw from [1 - kBackoffJitter/2, 1 + kBackoffJitter/2).
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffJitter = 0.5;

/// Exponential backoff with seeded jitter for retry attempt @p attempts
/// (count already made, so the first retry gets the initial backoff).
std::uint64_t backoff_us(const RetryPolicy& policy, int attempts, Rng& rng) {
  double us = static_cast<double>(policy.initial_backoff_us);
  for (int i = 1; i < attempts; ++i) us *= kBackoffMultiplier;
  us *= 1.0 - kBackoffJitter / 2.0 + kBackoffJitter * rng.next_double();
  us = std::min(us, static_cast<double>(policy.max_backoff_us));
  return static_cast<std::uint64_t>(std::max(us, 0.0));
}

Status validate(const std::vector<TrafficTarget>& targets,
                const TrafficOptions& options,
                const std::vector<TrafficClass>& classes) {
  if (!(options.offered_rps > 0.0)) {
    return Status::InvalidArgument("offered_rps must be positive");
  }
  if (!(options.duration_s > 0.0)) {
    return Status::InvalidArgument("duration_s must be positive");
  }
  if (options.submit_threads < 1) {
    return Status::InvalidArgument("submit_threads must be >= 1");
  }
  if (targets.empty()) {
    return Status::InvalidArgument("traffic needs at least one target");
  }
  double target_weight = 0.0;
  for (const TrafficTarget& t : targets) {
    if ((t.weights != nullptr) == (t.plan != nullptr)) {
      return Status::InvalidArgument(
          "each target must set exactly one of weights / plan");
    }
    if (t.weight < 0.0) {
      return Status::InvalidArgument("target weight must be >= 0");
    }
    target_weight += t.weight;
  }
  if (!(target_weight > 0.0)) {
    return Status::InvalidArgument("target weights sum to zero");
  }
  double class_weight = 0.0;
  for (const TrafficClass& c : classes) {
    if (c.rows_min < 1 || c.rows_max < c.rows_min) {
      std::ostringstream os;
      os << "class '" << c.name << "' has invalid rows range ["
         << c.rows_min << ", " << c.rows_max << "]";
      return Status::InvalidArgument(os.str());
    }
    if (c.weight < 0.0) {
      return Status::InvalidArgument("class weight must be >= 0");
    }
    class_weight += c.weight;
    for (const TrafficTarget& t : targets) {
      if (t.plan != nullptr && c.rows_max > t.plan->planned_tokens()) {
        std::ostringstream os;
        os << "class '" << c.name << "' rows_max " << c.rows_max
           << " exceeds an FFN target's " << t.plan->planned_tokens()
           << "-token plan budget";
        return Status::InvalidArgument(os.str());
      }
    }
  }
  if (!(class_weight > 0.0)) {
    return Status::InvalidArgument("class weights sum to zero");
  }
  const RetryPolicy& retry = options.retry;
  if (retry.max_attempts < 1) {
    return Status::InvalidArgument("retry.max_attempts must be >= 1");
  }
  if (retry.enabled() && retry.budget_cap < 0.0) {
    return Status::InvalidArgument("retry.budget_cap must be >= 0");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<TrafficReport> run_open_loop(
    Server& server, const std::vector<TrafficTarget>& targets,
    const TrafficOptions& options) {
  std::vector<TrafficClass> classes = options.classes;
  if (classes.empty()) {
    classes.push_back(TrafficClass{"decode", 1, 1, 1.0, 0});
  }
  NMSPMM_RETURN_IF_ERROR(validate(targets, options, classes));

  // Slot buffers sized to the widest (class, target) combination; each
  // submission carves an exact-shape block view out of them.
  index_t max_rows = 1, max_k = 1, max_n = 1;
  for (const TrafficClass& c : classes) {
    max_rows = std::max(max_rows, c.rows_max);
  }
  for (const TrafficTarget& t : targets) {
    const index_t k =
        t.plan != nullptr ? t.plan->hidden_in() : t.weights->orig_rows;
    const index_t n =
        t.plan != nullptr ? t.plan->hidden_out() : t.weights->cols;
    max_k = std::max(max_k, k);
    max_n = std::max(max_n, n);
  }

  std::vector<double> class_cum, target_cum;
  for (const TrafficClass& c : classes) {
    class_cum.push_back((class_cum.empty() ? 0.0 : class_cum.back()) +
                        c.weight);
  }
  for (const TrafficTarget& t : targets) {
    target_cum.push_back((target_cum.empty() ? 0.0 : target_cum.back()) +
                         t.weight);
  }

  const auto before = server.stats();
  // Optional metrics timeline: the exporter thread polls stats() on its
  // own cadence for the whole run (submission + drain) and the samples
  // land in the report. File export (if paths are set) rides the same
  // ticks, so a scraper can watch the run live.
  std::unique_ptr<obs::MetricsExporter> exporter;
  if (options.metrics_interval_ms > 0) {
    obs::MetricsExporter::Options mopts;
    mopts.interval_ms = options.metrics_interval_ms;
    mopts.prometheus_path = options.metrics_prometheus_path;
    mopts.json_path = options.metrics_json_path;
    exporter = std::make_unique<obs::MetricsExporter>(server, mopts);
  }
  const int num_threads = options.submit_threads;
  const double rate_per_thread = options.offered_rps / num_threads;
  std::vector<ThreadTally> tallies(num_threads);
  for (ThreadTally& t : tallies) {
    t.ok.assign(classes.size(), 0);
    t.errors.assign(classes.size(), 0);
    t.shed.assign(classes.size(), 0);
    t.deadline.assign(classes.size(), 0);
  }
  RetryBudget budget(options.retry);

  const auto origin = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (int tid = 0; tid < num_threads; ++tid) {
    threads.emplace_back([&, tid] {
      ThreadTally& tally = tallies[tid];
      // Decorrelate per-thread streams without losing replayability: the
      // (seed, thread id) pair fixes this thread's entire schedule.
      Rng rng(options.seed + 0x9E3779B97F4A7C15ULL *
                                 static_cast<std::uint64_t>(tid + 1));
      std::vector<Slot> slots(kSlotsPerThread);
      for (Slot& s : slots) {
        s.a = MatrixF(max_rows, max_k);
        s.c = MatrixF(max_rows, max_n);
        for (index_t i = 0; i < max_rows; ++i) {
          for (index_t j = 0; j < max_k; ++j) {
            s.a.row(i)[j] = rng.next_float(-1.0f, 1.0f);
          }
        }
      }
      // Resubmission of a slot's request, verbatim, with the remaining
      // deadline budget (0 keeps "no deadline").
      auto resubmit = [&](Slot& s, std::uint64_t remaining_us) {
        const TrafficTarget& target = targets[s.target];
        const index_t k = target.plan != nullptr
                              ? target.plan->hidden_in()
                              : target.weights->orig_rows;
        const index_t n = target.plan != nullptr
                              ? target.plan->hidden_out()
                              : target.weights->cols;
        const ConstViewF a = s.a.view().block(0, 0, s.rows, k);
        const ViewF c = s.c.view().block(0, 0, s.rows, n);
        s.fut = target.plan != nullptr
                    ? server.submit_ffn(a, target.plan, c, remaining_us)
                    : server.submit(a, target.weights, c, {}, remaining_us);
      };
      auto settle = [&](Slot& s) {
        if (!s.fut.valid()) return;
        Status status = s.fut.get();
        // Retry chain: re-send retryable failures until success, a
        // terminal failure, or one of the three retry bounds bites.
        while (!status.ok() && is_retryable(status.code()) &&
               options.retry.enabled()) {
          if (s.attempts >= options.retry.max_attempts) {
            ++tally.retry_denied;
            break;
          }
          const std::uint64_t wait =
              backoff_us(options.retry, s.attempts, rng);
          std::uint64_t remaining_us = 0;
          if (s.deadline_us != 0) {
            const auto elapsed = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - s.first_submit)
                    .count());
            if (elapsed + wait >= s.deadline_us) {
              // Never retry past the request's own deadline: the
              // resubmission would only burn server time to fail.
              ++tally.retry_denied;
              break;
            }
            remaining_us = s.deadline_us - elapsed - wait;
          }
          if (!budget.try_spend()) {
            ++tally.retry_denied;
            break;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(wait));
          ++tally.retries;
          ++s.attempts;
          resubmit(s, remaining_us);
          status = s.fut.get();
          if (status.ok()) ++tally.retry_ok;
        }
        if (status.ok()) {
          ++tally.ok[s.cls];
          budget.credit();
        } else {
          ++tally.errors[s.cls];
          if (status.code() == StatusCode::kResourceExhausted) {
            ++tally.shed[s.cls];
          } else if (status.code() == StatusCode::kDeadlineExceeded) {
            ++tally.deadline[s.cls];
          }
        }
        s.cls = -1;
      };

      ArrivalSampler sampler(options.arrivals == ArrivalProcess::kBursty,
                             rate_per_thread, rng);
      double t_s = sampler.next_arrival(0.0);
      std::size_t next_slot = 0;
      while (t_s < options.duration_s) {
        std::this_thread::sleep_until(
            origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(t_s)));
        const std::size_t ci = pick_weighted(rng, class_cum);
        const std::size_t ti = pick_weighted(rng, target_cum);
        const TrafficClass& cls = classes[ci];
        const TrafficTarget& target = targets[ti];
        const index_t rows = cls.rows_min == cls.rows_max
                                 ? cls.rows_min
                                 : static_cast<index_t>(rng.next_int(
                                       cls.rows_min, cls.rows_max));
        Slot& slot = slots[next_slot];
        next_slot = (next_slot + 1) % slots.size();
        if (slot.fut.valid() &&
            slot.fut.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
          // Open-loop back-pressure: every buffer is in flight, so this
          // source cannot hold the offered rate. Count it and block.
          ++tally.stalls;
        }
        settle(slot);
        const index_t k = target.plan != nullptr
                              ? target.plan->hidden_in()
                              : target.weights->orig_rows;
        const index_t n = target.plan != nullptr
                              ? target.plan->hidden_out()
                              : target.weights->cols;
        const ConstViewF a = slot.a.view().block(0, 0, rows, k);
        const ViewF c = slot.c.view().block(0, 0, rows, n);
        slot.cls = static_cast<int>(ci);
        slot.target = static_cast<int>(ti);
        slot.rows = rows;
        slot.deadline_us = cls.deadline_us;
        slot.attempts = 1;
        slot.first_submit = Clock::now();
        slot.fut = target.plan != nullptr
                       ? server.submit_ffn(a, target.plan, c,
                                           cls.deadline_us)
                       : server.submit(a, target.weights, c, {},
                                       cls.deadline_us);
        ++tally.submitted;
        t_s = sampler.next_arrival(t_s);
      }
      for (Slot& s : slots) settle(s);
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - origin).count();
  const auto after = server.stats();

  TrafficReport report;
  if (exporter != nullptr) {
    exporter->stop();  // final sample + file write before we read
    report.timeline = exporter->samples();
  }
  report.offered_rps = options.offered_rps;
  report.duration_s = wall_s;
  report.classes.reserve(classes.size());
  for (std::size_t ci = 0; ci < classes.size(); ++ci) {
    ClassReport cr;
    cr.name = classes[ci].name;
    for (const ThreadTally& t : tallies) {
      cr.ok += t.ok[ci];
      cr.errors += t.errors[ci];
      cr.shed += t.shed[ci];
      cr.deadline_failed += t.deadline[ci];
    }
    cr.submitted = cr.ok + cr.errors;
    report.ok += cr.ok;
    report.errors += cr.errors;
    report.shed += cr.shed;
    report.deadline_failed += cr.deadline_failed;
    report.classes.push_back(std::move(cr));
  }
  for (const ThreadTally& t : tallies) {
    report.submitted += t.submitted;
    report.stalls += t.stalls;
    report.retries += t.retries;
    report.retry_ok += t.retry_ok;
    report.retry_denied += t.retry_denied;
  }
  report.achieved_rps =
      wall_s > 0.0
          ? static_cast<double>(report.ok + report.errors) / wall_s
          : 0.0;
  report.latency = after.latency;
  report.latency.subtract(before.latency);
  report.slo_violations =
      after.totals.slo_violations - before.totals.slo_violations;
  report.ring_stalls = after.ring_stalls - before.ring_stalls;
  report.server_shed = after.shed_requests - before.shed_requests;
  return report;
}

}  // namespace nmspmm::serve
