// Model layer: the one stage runner both plans execute through.
//
// A model plan is a fixed sequence of stages — the decoder's QKV
// projection, KV append, attention and output projection, the FFN's
// gate/up/down projections. StageProfile runs each stage and attributes
// its cost:
//
//   - wall-clock time (steady_clock) and a call count, always — two
//     clock reads per stage, so a plan reports where its time went
//     without perf_event_open;
//   - hardware counters (obs::PerfCounterSet) while profiling is on and
//     the host supports them. The counter group opens lazily on the
//     thread of the first profiled run and counts that thread only:
//     exact for serial plans, the calling thread's share when a worker
//     pool fans the tiles out.
//
//   profile_.begin_run();                 // under the plan's run lock
//   NMSPMM_RETURN_IF_ERROR(profile_.run(Stage::kGate, [&] { ... }));
//   StageProfile::Snapshot s = profile_.snapshot();   // any thread
//
// begin_run() and run() have one caller at a time: the owning plan calls
// them under its run lock. snapshot() takes no lock — every accumulator
// is a relaxed atomic — so a metrics scrape never waits behind a run. A
// snapshot taken while a run is in flight may mix that run's finished
// stages with the totals of the runs before it.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "obs/perf_counters.hpp"
#include "util/check.hpp"

namespace nmspmm::model {

/// Every stage of ModelPlan and DecoderPlan. to_string() gives the
/// per-layer names the benchmarks report.
enum class Stage { kQkv, kKvAppend, kAttend, kAttnOut, kGate, kUp, kDown };
inline constexpr std::size_t kNumStages = 7;

const char* to_string(Stage stage);

class StageProfile {
 public:
  /// Totals of one stage over every run() call.
  struct StageTotals {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;  ///< wall-clock time inside the stage
    /// Counters of the profiled calls; supported == false (and zeroed
    /// counts) when none was counted.
    obs::PerfCounts perf;
  };
  struct Snapshot {
    bool enabled = false;    ///< profiling is on
    bool supported = false;  ///< the counter group opened
    std::uint64_t runs = 0;           ///< begin_run() calls
    std::uint64_t profiled_runs = 0;  ///< of those, with profiling on
    std::array<StageTotals, kNumStages> per_stage{};

    [[nodiscard]] const StageTotals& operator[](Stage stage) const {
      return per_stage[static_cast<std::size_t>(stage)];
    }
  };

  void set_profiling(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool profiling() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Starts one run of the owning plan: counts it, and latches whether
  /// its stages are counted (opening the counter group on first use).
  void begin_run();

  /// Runs @p fn as @p stage and records its wall time (and counters,
  /// when the run is profiled). @p elapsed_ns, when given, receives the
  /// stage's wall time for callers that report it elsewhere.
  template <class F>
  Status run(Stage stage, F&& fn, std::uint64_t* elapsed_ns = nullptr) {
    if (counting_) counters_->start();
    const auto t0 = std::chrono::steady_clock::now();
    const Status status = fn();
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    record(stage, ns, counting_ ? counters_->stop() : obs::PerfCounts{});
    if (elapsed_ns != nullptr) *elapsed_ns = ns;
    return status;
  }

  [[nodiscard]] Snapshot snapshot() const;

 private:
  struct Totals {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> counted{0};  ///< calls with supported counts
    /// Sums of PerfCounts' integer fields, in kPerfFields order.
    std::array<std::atomic<std::uint64_t>, 6> perf{};
  };

  void record(Stage stage, std::uint64_t ns, const obs::PerfCounts& counts);

  std::atomic<bool> enabled_{false};
  std::atomic<bool> supported_{false};
  std::atomic<std::uint64_t> runs_{0};
  std::atomic<std::uint64_t> profiled_runs_{0};
  std::array<Totals, kNumStages> totals_{};

  // Writer-only state (under the owning plan's run lock).
  std::unique_ptr<obs::PerfCounterSet> counters_;  ///< lazily opened
  bool counting_ = false;  ///< the current run is counted
};

}  // namespace nmspmm::model
