// Per-request span tracing, captured lock-free and exported as Chrome
// trace-event / Perfetto JSON.
//
// Aggregate telemetry (serve/telemetry.hpp) answers "what is the p99";
// it cannot answer "which requests were slow and where" — ring stall?
// flush wait? split-lane execute? a repack-on-demand in the middle of
// the batch? A trace answers that: every sampled request leaves one
// span per life-cycle stage
//
//   submit -> queue -> gather -> execute -> total
//
// each carrying the serving shard, the batch's FlushReason, the execute
// lane (bypass / coalesce / split), and the request class; WeightStore
// repack-on-demand events land as their own spans inside the execute
// window. Load the dump in chrome://tracing or https://ui.perfetto.dev.
//
// The capture path mirrors the Telemetry recorder's discipline: a
// TraceRecorder owns up to kMaxShards per-thread shards (lazily
// CAS-installed, one per recording thread), and record() touches only
// the calling thread's shard — no mutex, no shared cache line in the
// common case. Each shard is a bounded ring of the last N spans (the
// flight recorder: after a fault you still hold the recent history),
// and overwrites are counted in drops(), never silent.
//
// Slot protocol: spans are published through a per-slot seqlock (odd =
// write in progress, even = ticket complete) with the payload held in
// release/acquire atomics, so a snapshot racing a wrapping writer skips
// the torn slot instead of reading garbage. With one shard per recording
// thread each slot effectively has a single writer; the seqlock guards
// the reader-vs-writer race that remains.
//
// Sampling: the Server traces 1 request in trace_sample_n. The record
// cost is a handful of atomic stores per span (plain stores on x86), so 1-in-1024 sampling
// is ≈0 overhead on the submit path (gated by the committed
// trace_overhead bench block).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace nmspmm::obs {

/// What a span measures. The first five mirror serve::Stage; kRepack is
/// a WeightStore repack-on-demand rebuild; kAttn / kKvAppend are the
/// decoder plan's per-batch attention and KV-append windows (the
/// non-SpMM work inside a decode execute).
enum class SpanKind : std::uint8_t {
  kSubmit = 0,
  kQueue,
  kGather,
  kExecute,
  kTotal,
  kRepack,
  kAttn,
  kKvAppend,
  kCount,
};
inline constexpr int kNumSpanKinds = static_cast<int>(SpanKind::kCount);

const char* to_string(SpanKind kind);

/// How the request's batch was executed: bypassed, gathered into one
/// execution, or (prefill-heavy plain-SpMM batches) split into lanes.
enum class ExecLane : std::uint8_t {
  kNone = 0,  ///< not an execute-bearing span (or unknown)
  kBypass,    ///< served synchronously on the submitting thread
  kCoalesce,  ///< gathered into one pooled SpMM / ModelPlan::run
  kSplit,     ///< concurrent serial lane over the shared pool
};

const char* to_string(ExecLane lane);

/// Attribute value meaning "not applicable" for flush / class bytes.
inline constexpr std::uint8_t kNoAttr = 0xff;

/// One completed span, plain values (what snapshot() returns).
struct TraceSpan {
  std::uint64_t trace_id = 0;  ///< sampled request id (nonzero)
  std::uint64_t ts_us = 0;     ///< start, us since the recorder epoch
  std::uint64_t dur_us = 0;
  std::uint64_t target = 0;  ///< pointer identity of weights / plan
  std::uint64_t detail = 0;  ///< kExecute: repack events during the
                             ///< window; kRepack: rebuilt bytes
  std::uint32_t rows = 0;
  std::uint16_t shard = 0;   ///< serving shard (0xffff = n/a)
  SpanKind kind = SpanKind::kSubmit;
  std::uint8_t cls = kNoAttr;    ///< serve::RequestClass byte
  std::uint8_t flush = kNoAttr;  ///< FlushReason byte of the batch
  ExecLane lane = ExecLane::kNone;
};

/// Lock-free multi-writer bounded span recorder (see header comment).
class TraceRecorder {
 public:
  static constexpr int kMaxShards = 32;

  struct Options {
    /// Spans retained per recording thread (rounded up to a power of
    /// two). The flight recorder holds the last this-many spans each.
    std::size_t ring_spans = 4096;
  };

  // (Two constructors rather than one defaulted-argument: GCC 12 cannot
  // use a nested class's member initializers in a default argument
  // before the enclosing class is complete.)
  TraceRecorder();
  explicit TraceRecorder(Options options);
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Record one completed span. Lock-free; the only allocation ever
  /// made is the calling thread's shard, once.
  void record(const TraceSpan& span);

  /// Steady-clock instant @p tp as us since the recorder's epoch
  /// (spans' ts_us timebase). Instants before the epoch clamp to 0.
  [[nodiscard]] std::uint64_t to_us(
      std::chrono::steady_clock::time_point tp) const;
  [[nodiscard]] std::uint64_t now_us() const {
    return to_us(std::chrono::steady_clock::now());
  }

  /// Spans ever recorded / overwritten by ring wraparound. A nonzero
  /// drops() means the flight window was shorter than the traffic —
  /// counted, never silent.
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t drops() const;

  /// Every retained span, sorted by start time. Safe concurrently with
  /// recording (in-progress slots are skipped via the seqlock).
  [[nodiscard]] std::vector<TraceSpan> snapshot() const;

  /// Write the retained spans as Chrome trace-event JSON
  /// ({"traceEvents": [...]}; chrome://tracing and Perfetto both load
  /// it). pid 1 is the server; tid is the serving shard.
  [[nodiscard]] Status dump_chrome_json(const std::string& path) const;

 private:
  // Payload packed into 6 atomic words plus the seqlock word.
  static constexpr int kWords = 6;
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  ///< 0 empty; odd writing;
                                        ///< even = 2 * (ticket + 1)
    std::atomic<std::uint64_t> words[kWords] = {};
  };
  struct Shard {
    explicit Shard(std::size_t capacity)
        : slots(capacity), head(0) {}
    std::vector<Slot> slots;
    std::atomic<std::uint64_t> head;  ///< tickets issued (monotone)
  };

  Shard& shard();
  void snapshot_shard(const Shard& shard, std::vector<TraceSpan>& out) const;

  std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_;  ///< power of two, per shard
  std::atomic<Shard*> shards_[kMaxShards] = {};
};

/// Append Chrome trace-event JSON for @p spans to @p out (the body of a
/// "traceEvents" array, no surrounding braces). Exposed for tests.
void append_chrome_events(const std::vector<TraceSpan>& spans,
                          std::string& out);

/// Process-global recorder hook for subsystems with no path to a Server
/// (WeightStore repack-on-demand fires from arbitrary execute threads).
/// At most one recorder is active — the tracing Server installs itself;
/// last install wins and uninstall clears only its own pointer.
void set_global_recorder(TraceRecorder* recorder);
/// Uninstall @p recorder if it is still the active one (CAS — a server
/// tearing down never clears a newer server's installation).
void clear_global_recorder(TraceRecorder* recorder);
[[nodiscard]] TraceRecorder* global_recorder();

/// Monotone process-wide count of WeightStore repack-on-demand events;
/// the dispatcher reads the delta around a batch execute to attribute
/// repacks to the execute span.
[[nodiscard]] std::uint64_t repack_events();

/// Count one repack of @p bytes taking @p dur_us, and emit a kRepack
/// span into the global recorder when one is installed. Called by
/// mem::WeightStore; lock-free.
void count_repack_event(std::uint64_t bytes, std::uint64_t dur_us);

/// Monotone process-wide counts of decoder attention / KV-append
/// windows (one each per decode batch), mirroring repack_events().
[[nodiscard]] std::uint64_t attn_events();
[[nodiscard]] std::uint64_t kv_append_events();

/// Count one per-batch attention window over @p rows sequences totalling
/// @p context_tokens of attended context, and emit a kAttn span into the
/// global recorder when one is installed. Called by model::DecoderPlan.
void count_attn_event(std::uint32_t rows, std::uint64_t context_tokens,
                      std::uint64_t dur_us);

/// Count one per-batch KV-append window that wrote @p bytes of K/V
/// payload for @p rows sequences, and emit a kKvAppend span likewise.
void count_kv_append_event(std::uint32_t rows, std::uint64_t bytes,
                           std::uint64_t dur_us);

}  // namespace nmspmm::obs
