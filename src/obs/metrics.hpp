// Metrics export: Server::stats() rendered for machines.
//
// The Server's stats() struct is the source of truth for serving
// counters and latency distributions; this header turns one snapshot
// into the two formats the outside world speaks:
//
//  - Prometheus text exposition (render_prometheus): counters as
//    *_total, gauges, and the per-class/per-stage latency histograms as
//    native Prometheus histograms with cumulative le buckets — point a
//    scraper (or promtool check metrics) at the file the exporter
//    writes. Only occupied buckets are emitted (the log-scale histogram
//    has 368 of them); cumulativity is preserved and +Inf always
//    present.
//  - JSON (render_json): the same snapshot as one machine-readable
//    object, for harnesses that want numbers without a Prometheus
//    parser.
//
// Every metric name carries the nmspmm_ prefix. Per-shard counters ride
// with a shard="i" label.
//
// MetricsExporter is the periodic half: a background thread polls
// server.stats() every interval_ms, rewrites the Prometheus/JSON files
// atomically (write temp + rename), and retains a bounded in-memory
// timeline of compact samples that serve::run_open_loop folds into
// TrafficReport — time-series of throughput/error/violation counters
// over an open-loop run instead of end-only aggregates.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"

namespace nmspmm::obs {

/// Render @p stats in Prometheus text exposition format, ending with a
/// trailing newline.
[[nodiscard]] std::string render_prometheus(const Server::Stats& stats);

/// The same snapshot as one JSON object.
[[nodiscard]] std::string render_json(const Server::Stats& stats);

/// One compact point of the exporter's in-memory timeline. Counters are
/// cumulative-since-server-start (difference adjacent samples for
/// rates); percentiles are over all samples recorded so far.
struct TimelineSample {
  std::uint64_t t_ms = 0;  ///< since the exporter started
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t shed_requests = 0;
  std::uint64_t slo_violations = 0;
  std::uint64_t decode_p99_us = 0;
  std::uint64_t prefill_p99_us = 0;
};

/// Periodic file/fd exporter over one Server. Start it before the load,
/// stop() (or destroy) after; samples() is the timeline.
class MetricsExporter {
 public:
  struct Options {
    std::uint32_t interval_ms = 100;
    std::string prometheus_path;  ///< rewritten each tick ("" = skip)
    std::string json_path;        ///< rewritten each tick ("" = skip)
    std::size_t max_samples = 4096;  ///< timeline bound (oldest dropped)
  };

  MetricsExporter(const Server& server, Options options);
  ~MetricsExporter();  // stop()
  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Take a final sample, write the files one last time, join. Idempotent.
  void stop();

  /// Copy of the timeline so far (safe while running).
  [[nodiscard]] std::vector<TimelineSample> samples() const;

 private:
  void tick();

  const Server& server_;
  Options options_;
  std::chrono::steady_clock::time_point start_;
  mutable std::mutex mutex_;  ///< guards samples_ + cv_ + stop_
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<TimelineSample> samples_;
  std::thread thread_;
};

}  // namespace nmspmm::obs
