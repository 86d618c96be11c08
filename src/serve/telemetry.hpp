// Serving telemetry: per-request stage latencies, captured lock-free.
//
// Production serving is judged on open-loop tail latency, not closed-loop
// throughput — a dispatcher that batches beautifully but parks a decode
// step for two flush windows is invisible to bench_serving and fatal to a
// p99 SLO. This header is the measurement substrate: every request the
// Server touches leaves a timestamp at each stage of its life
//
//   submit -> enqueue -> flush -> execute -> resolve
//
// and the four stage intervals plus the end-to-end total are recorded
// into fixed-bucket log-scale latency histograms, split by request class
// (decode = 1 activation row, prefill = more). Percentiles (p50/p95/p99)
// fall out of the bucket counts; Server::stats() exposes the aggregate
// over its shards.
//
// The capture path is deliberately lock-free: a Telemetry object owns up
// to kMaxShards per-thread shards (lazily CAS-installed, one per
// recording thread), and record() touches only the calling thread's
// shard with relaxed atomic increments. No mutex, no shared cache line
// in the common case — submit() must not pay a contended lock for
// observability. snapshot() walks every shard and sums; it is the slow
// path and may run concurrently with recording (counts are atomics, so
// a snapshot taken mid-burst is just a consistent-enough point-in-time
// reading, never a torn one).
//
// Percentile semantics: percentile(q) returns the *upper bound in
// microseconds* of the log-scale bucket holding the rank-q sample. With
// 16 sub-buckets per power of two the overestimate is bounded by ~6.25%
// of the value — conservative in the direction an SLO cares about, and
// stable enough for a 10% regression gate.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>

namespace nmspmm::serve {

/// Which life-cycle interval of a request a sample measures.
enum class Stage : std::uint8_t {
  kSubmit = 0,  ///< submit() entry -> request enqueued (validation + lock)
  kQueue,       ///< enqueued -> popped into a batch (the batching wait)
  kGather,      ///< popped -> execution starts (batch assembly / staging)
  kExecute,     ///< execution starts -> future resolved (kernel + scatter)
  kTotal,       ///< submit() entry -> future resolved (what the caller saw)
  kCount,
};
inline constexpr int kNumStages = static_cast<int>(Stage::kCount);

const char* to_string(Stage stage);

/// Request classes with distinct latency expectations. Decode steps are
/// single-row and latency-critical; prefill requests are wide and
/// throughput-bound — one histogram over both would hide the tail that
/// matters.
enum class RequestClass : std::uint8_t {
  kDecode = 0,  ///< 1 activation row
  kPrefill,     ///< > 1 activation rows
  kCount,
};
inline constexpr int kNumClasses = static_cast<int>(RequestClass::kCount);

const char* to_string(RequestClass cls);

[[nodiscard]] constexpr RequestClass classify_rows(std::int64_t rows) {
  return rows <= 1 ? RequestClass::kDecode : RequestClass::kPrefill;
}

/// Fixed-bucket log-scale latency histogram over microseconds.
///
/// Buckets 0..15 are exact (0us..15us); above that each power of two is
/// split into 16 sub-buckets (4 significant bits), so relative bucket
/// width — and therefore the percentile overestimate — stays <= ~6.25%
/// everywhere. Values at or beyond 2^26 us (~67 s) clamp into the last
/// bucket; a serving latency up there is not a measurement problem.
/// Counts are relaxed atomics: any thread may record, any thread may
/// read, no locks anywhere.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBits;  // 16
  static constexpr int kMaxExp = 26;                 // clamp at 2^26 us
  static constexpr int kBuckets =
      kSubBuckets + (kMaxExp - kSubBits) * kSubBuckets;  // 368

  /// Bucket holding @p us. Total order: every bucket's values are >= all
  /// of the previous bucket's.
  [[nodiscard]] static int bucket_index(std::uint64_t us) {
    if (us < kSubBuckets) return static_cast<int>(us);
    const int exp = 63 - std::countl_zero(us);  // floor(log2), >= kSubBits
    if (exp >= kMaxExp) return kBuckets - 1;
    const int sub =
        static_cast<int>((us >> (exp - kSubBits)) & (kSubBuckets - 1));
    return kSubBuckets + (exp - kSubBits) * kSubBuckets + sub;
  }

  /// Smallest value mapping to bucket @p b.
  [[nodiscard]] static std::uint64_t bucket_lower_us(int b) {
    if (b < kSubBuckets) return static_cast<std::uint64_t>(b);
    const int octave = (b - kSubBuckets) / kSubBuckets;
    const int sub = (b - kSubBuckets) % kSubBuckets;
    const int exp = octave + kSubBits;
    return static_cast<std::uint64_t>(kSubBuckets + sub) << (exp - kSubBits);
  }

  /// Exclusive upper bound of bucket @p b — what percentile() reports.
  [[nodiscard]] static std::uint64_t bucket_upper_us(int b) {
    return b + 1 < kBuckets ? bucket_lower_us(b + 1)
                            : (std::uint64_t{1} << kMaxExp);
  }

  void record(std::uint64_t us) {
    counts_[bucket_index(us)].fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(us, std::memory_order_relaxed);
    // Exact min/max ride along (monotone CAS, relaxed): percentiles are
    // bucket upper bounds, but the extremes — and through sum/count the
    // mean — stay exact.
    std::uint64_t cur = min_us_.load(std::memory_order_relaxed);
    while (us < cur && !min_us_.compare_exchange_weak(
                           cur, us, std::memory_order_relaxed)) {
    }
    cur = max_us_.load(std::memory_order_relaxed);
    while (us > cur && !max_us_.compare_exchange_weak(
                           cur, us, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t bucket_count(int b) const {
    return counts_[b].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum_us() const {
    return sum_us_.load(std::memory_order_relaxed);
  }
  /// Smallest sample recorded (UINT64_MAX sentinel when none yet).
  [[nodiscard]] std::uint64_t min_us() const {
    return min_us_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max_us() const {
    return max_us_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> counts_[kBuckets] = {};
  std::atomic<std::uint64_t> sum_us_{0};
  std::atomic<std::uint64_t> min_us_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_us_{0};
};

/// Plain-value aggregate of one (class, stage) histogram: additive,
/// subtractable (counts are monotonic), percentile-queryable.
struct StageSnapshot {
  std::uint64_t counts[LatencyHistogram::kBuckets] = {};
  std::uint64_t count = 0;
  std::uint64_t sum_us = 0;
  /// Exact extremes of the recorded samples; both 0 when empty. After
  /// subtract() they remain the *cumulative* extremes (a histogram
  /// cannot un-see its max) — conservative bounds for the delta window.
  std::uint64_t min_us = 0;
  std::uint64_t max_us = 0;

  void merge(const StageSnapshot& other);
  /// this -= earlier: the samples recorded strictly after @p earlier was
  /// taken. Both must come from the same (set of) recorders. min_us /
  /// max_us keep their cumulative values (see above).
  void subtract(const StageSnapshot& earlier);

  /// Upper bound (us) of the bucket holding the rank-ceil(q * count)
  /// sample, clamped to the exact max_us — so a percentile can never
  /// overstate past the largest sample actually seen (fixes systematic
  /// p50 overstatement at bucket edges in low-count regimes); 0 when
  /// empty. q in [0, 1].
  [[nodiscard]] std::uint64_t percentile(double q) const;
  [[nodiscard]] std::uint64_t p50() const { return percentile(0.50); }
  [[nodiscard]] std::uint64_t p95() const { return percentile(0.95); }
  [[nodiscard]] std::uint64_t p99() const { return percentile(0.99); }
  [[nodiscard]] double mean_us() const {
    return count > 0 ? static_cast<double>(sum_us) / static_cast<double>(count)
                     : 0.0;
  }
};

/// Point-in-time aggregate of a Telemetry recorder (or a merge of
/// several): per-class, per-stage latency distributions plus SLO
/// violation counts.
struct TelemetrySnapshot {
  StageSnapshot stages[kNumClasses][kNumStages];
  std::uint64_t violations[kNumClasses] = {};

  [[nodiscard]] const StageSnapshot& stage(RequestClass cls,
                                           Stage stage) const {
    return stages[static_cast<int>(cls)][static_cast<int>(stage)];
  }
  [[nodiscard]] std::uint64_t total_violations() const {
    std::uint64_t v = 0;
    for (int c = 0; c < kNumClasses; ++c) v += violations[c];
    return v;
  }
  /// Requests observed end-to-end (count of the kTotal stage).
  [[nodiscard]] std::uint64_t requests(RequestClass cls) const {
    return stage(cls, Stage::kTotal).count;
  }
  [[nodiscard]] std::uint64_t total_requests() const {
    std::uint64_t r = 0;
    for (int c = 0; c < kNumClasses; ++c) {
      r += requests(static_cast<RequestClass>(c));
    }
    return r;
  }

  void merge(const TelemetrySnapshot& other);
  void subtract(const TelemetrySnapshot& earlier);
};

/// Lock-free multi-writer latency recorder. One instance per Server
/// group; every recording thread gets its own shard (two threads can
/// share one after kMaxShards registrations — still correct, atomically
/// merged, just potentially contended).
class Telemetry {
 public:
  static constexpr int kMaxShards = 32;

  Telemetry() = default;
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Record one @p us sample for (cls, stage). Lock-free: touches only
  /// the calling thread's shard. The only allocation ever made is the
  /// shard itself, once per (recorder, thread).
  void record(RequestClass cls, Stage stage, std::uint64_t us) {
    shard().hist[static_cast<int>(cls)][static_cast<int>(stage)].record(us);
  }

  /// Count a request resolved after its deadline. Lock-free.
  void count_violation(RequestClass cls) {
    shard().violations[static_cast<int>(cls)].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Sum every shard into a plain-value snapshot. Safe concurrently with
  /// recording.
  [[nodiscard]] TelemetrySnapshot snapshot() const;

 private:
  struct Shard {
    LatencyHistogram hist[kNumClasses][kNumStages];
    std::atomic<std::uint64_t> violations[kNumClasses] = {};
  };

  Shard& shard();

  std::atomic<Shard*> shards_[kMaxShards] = {};
};

}  // namespace nmspmm::serve
