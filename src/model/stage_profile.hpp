// Model layer: the one stage runner both plans execute through.
//
// A model plan is a fixed sequence of stages — the decoder's QKV
// projection, KV append, attention and output projection, the FFN's
// gate/up/down projections. StageProfile runs each stage and records its
// wall-clock time (steady_clock) and a call count: two clock reads per
// stage, always on, so a plan reports where its time went on any host.
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
  };
  struct Snapshot {
    std::uint64_t runs = 0;  ///< begin_run() calls
    std::array<StageTotals, kNumStages> per_stage{};

    [[nodiscard]] const StageTotals& operator[](Stage stage) const {
      return per_stage[static_cast<std::size_t>(stage)];
    }
  };

  /// Counts one run of the owning plan.
  void begin_run() { runs_.fetch_add(1, std::memory_order_relaxed); }

  /// Runs @p fn as @p stage, records its wall time and returns its
  /// Status. @p elapsed_ns, when given, receives the stage's wall time
  /// for callers that report it elsewhere.
  template <class F>
  Status run(Stage stage, F&& fn, std::uint64_t* elapsed_ns = nullptr) {
    const auto t0 = std::chrono::steady_clock::now();
    const Status status = fn();
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    record(stage, ns);
    if (elapsed_ns != nullptr) *elapsed_ns = ns;
    return status;
  }

  [[nodiscard]] Snapshot snapshot() const;

 private:
  struct Totals {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};
  };

  void record(Stage stage, std::uint64_t ns);

  std::atomic<std::uint64_t> runs_{0};
  std::array<Totals, kNumStages> totals_{};
};

}  // namespace nmspmm::model
