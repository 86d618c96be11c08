// Hardware-counter profiling via perf_event_open, with graceful
// fallback.
//
// A kernel's GFLOP/s number says how fast it went; cycles / instructions
// / LLC misses / backend stalls say *why*. PerfCounterSet opens one
// counter group (cycles leads; instructions, cache misses, and stalled
// backend cycles ride as siblings so all four are read atomically from
// one fd) scoped around a region:
//
//   obs::PerfCounterSet perf;
//   perf.start();
//   plan.execute(a, c);          // the region being attributed
//   obs::PerfCounts counts = perf.stop();
//   if (counts.supported) { ... counts.ipc() ... }
//
// bench_resident wraps each kernel-variant timing loop in one, and the
// model plans' StageProfile (model/stage_profile.hpp) brackets every
// stage with one while profiling is on. Opening counters can fail — unprivileged containers
// (perf_event_paranoid), CI boxes, non-Linux builds — and every failure
// degrades to supported=false with zeroed counts; nothing in the
// serving or bench path may change behavior because perf was absent.
// Individual events may also be missing (stalled-cycles-backend is not
// architectural); those read 0 while the rest of the group still works.
//
// Counts are multiplex-corrected: when the kernel time-shares the PMU,
// values are scaled by time_enabled / time_running (standard perf
// practice); time_* are exposed so a consumer can judge the correction.
#pragma once

#include <cstdint>

namespace nmspmm::obs {

/// One region's hardware-counter readings (multiplex-corrected).
struct PerfCounts {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_misses = 0;    ///< LLC misses (PERF_COUNT_HW_CACHE_MISSES)
  std::uint64_t stalled_backend = 0; ///< backend stall cycles (0 where absent)
  std::uint64_t time_enabled_ns = 0;
  std::uint64_t time_running_ns = 0;
  /// False when the counters could not be opened (EPERM sandboxes,
  /// non-Linux, forced-failure test hook): every count above is 0 and
  /// the region ran unperturbed.
  bool supported = false;

  PerfCounts& operator+=(const PerfCounts& other);
  /// Instructions per cycle; 0 when cycles were not measured.
  [[nodiscard]] double ipc() const;
  /// LLC misses per thousand instructions; 0 when not measured.
  [[nodiscard]] double misses_per_kilo_instr() const;
};

/// A scoped group of hardware counters for the calling thread
/// (counts this process, all CPUs it migrates across). Not thread-safe;
/// one set per profiling site.
class PerfCounterSet {
 public:
  struct Options {
    /// Test hook: pretend perf_event_open failed with this errno (e.g.
    /// EPERM) without issuing the syscall. 0 = really open counters.
    int force_errno = 0;
  };

  // (Two constructors rather than one defaulted-argument: GCC 12 cannot
  // use a nested class's member initializers in a default argument
  // before the enclosing class is complete.)
  PerfCounterSet();
  explicit PerfCounterSet(Options options);
  ~PerfCounterSet();
  PerfCounterSet(const PerfCounterSet&) = delete;
  PerfCounterSet& operator=(const PerfCounterSet&) = delete;

  /// True when the counter group opened; stop() will report real counts.
  [[nodiscard]] bool supported() const { return supported_; }
  /// errno of the failed open when !supported() (0 when supported).
  [[nodiscard]] int error() const { return error_; }

  /// Zero and enable the group. A start() with !supported() is a no-op.
  void start();
  /// Disable the group and read it. Unsupported sets return zeroed
  /// counts with supported=false.
  PerfCounts stop();

 private:
  static constexpr int kEvents = 4;
  int fds_[kEvents] = {-1, -1, -1, -1};
  int group_size_ = 0;  ///< events that actually opened
  bool supported_ = false;
  int error_ = 0;
};

}  // namespace nmspmm::obs
