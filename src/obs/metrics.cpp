#include "obs/metrics.hpp"

#include <cstdio>
#include <fstream>

namespace nmspmm::obs {
namespace {

/// Every exported metric name starts with this.
constexpr const char* kPrefix = "nmspmm_";

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

/// Bare sample line (no HELP/TYPE — the family header was emitted once).
void sample(std::string& out, const char* name, const std::string& labels,
            std::uint64_t value) {
  out += std::string(kPrefix) + name + labels + " ";
  append_u64(out, value);
  out += "\n";
}

/// A single-sample family of @p type ("counter" / "gauge").
void scalar(std::string& out, const char* type, const char* name,
            const char* help, std::uint64_t value) {
  out += std::string("# HELP ") + kPrefix + name + " " + help + "\n";
  out += std::string("# TYPE ") + kPrefix + name + " " + type + "\n";
  sample(out, name, {}, value);
}

void counter(std::string& out, const char* name, const char* help,
             std::uint64_t value) {
  scalar(out, "counter", name, help, value);
}

void gauge(std::string& out, const char* name, const char* help,
           std::uint64_t value) {
  scalar(out, "gauge", name, help, value);
}

/// One Prometheus histogram (cumulative le buckets, only occupied
/// boundaries + +Inf, then _sum and _count) for a StageSnapshot.
void histogram(std::string& out, const char* name, const std::string& labels,
               const serve::StageSnapshot& s) {
  const std::string base = std::string(kPrefix) + name;
  std::uint64_t cum = 0;
  for (int b = 0; b < serve::LatencyHistogram::kBuckets; ++b) {
    if (s.counts[b] == 0) continue;
    cum += s.counts[b];
    out += base + "_bucket{" + labels + "le=\"";
    append_u64(out, serve::LatencyHistogram::bucket_upper_us(b));
    out += "\"} ";
    append_u64(out, cum);
    out += "\n";
  }
  out += base + "_bucket{" + labels + "le=\"+Inf\"} ";
  append_u64(out, s.count);
  out += "\n";
  out += base + "_sum{" + labels.substr(0, labels.size() - 1) + "} ";
  append_u64(out, s.sum_us);
  out += "\n";
  out += base + "_count{" + labels.substr(0, labels.size() - 1) + "} ";
  append_u64(out, s.count);
  out += "\n";
}

void append_json_group(std::string& out, const Server::GroupStats& g) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"requests\":%llu,\"rows\":%llu,\"batches\":%llu,"
      "\"full_flushes\":%llu,\"timeout_flushes\":%llu,\"slo_flushes\":%llu,"
      "\"bypassed\":%llu,\"errors\":%llu,\"slo_violations\":%llu,"
      "\"split_batches\":%llu,\"max_queue_depth\":%llu}",
      static_cast<unsigned long long>(g.requests),
      static_cast<unsigned long long>(g.rows),
      static_cast<unsigned long long>(g.batches),
      static_cast<unsigned long long>(g.full_flushes),
      static_cast<unsigned long long>(g.timeout_flushes),
      static_cast<unsigned long long>(g.slo_flushes),
      static_cast<unsigned long long>(g.bypassed),
      static_cast<unsigned long long>(g.errors),
      static_cast<unsigned long long>(g.slo_violations),
      static_cast<unsigned long long>(g.split_batches),
      static_cast<unsigned long long>(g.max_queue_depth));
  out += buf;
}

void append_json_latency(std::string& out,
                         const serve::TelemetrySnapshot& latency) {
  out += "{";
  for (int c = 0; c < serve::kNumClasses; ++c) {
    if (c > 0) out += ",";
    out += "\"";
    out += serve::to_string(static_cast<serve::RequestClass>(c));
    out += "\":{";
    for (int st = 0; st < serve::kNumStages; ++st) {
      const auto& s = latency.stages[c][st];
      if (st > 0) out += ",";
      char buf[256];
      std::snprintf(
          buf, sizeof(buf),
          "\"%s\":{\"count\":%llu,\"sum_us\":%llu,\"min_us\":%llu,"
          "\"max_us\":%llu,\"mean_us\":%.1f,\"p50_us\":%llu,"
          "\"p95_us\":%llu,\"p99_us\":%llu}",
          serve::to_string(static_cast<serve::Stage>(st)),
          static_cast<unsigned long long>(s.count),
          static_cast<unsigned long long>(s.sum_us),
          static_cast<unsigned long long>(s.min_us),
          static_cast<unsigned long long>(s.max_us), s.mean_us(),
          static_cast<unsigned long long>(s.p50()),
          static_cast<unsigned long long>(s.p95()),
          static_cast<unsigned long long>(s.p99()));
      out += buf;
    }
    out += ",\"slo_violations\":";
    append_u64(out, latency.violations[c]);
    out += "}";
  }
  out += "}";
}

/// Write @p body to @p path atomically (temp file + rename), so a
/// concurrent scraper never reads a half-written exposition.
void write_file_atomic(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) return;
    file.write(body.data(), static_cast<std::streamsize>(body.size()));
  }
  std::rename(tmp.c_str(), path.c_str());
}

}  // namespace

std::string render_prometheus(const Server::Stats& stats) {
  std::string out;
  out.reserve(16 * 1024);

  counter(out, "requests_total", "Submissions accepted",
          stats.totals.requests);
  counter(out, "rows_total", "Activation rows accepted", stats.totals.rows);
  counter(out, "batches_total", "Batches dispatched", stats.totals.batches);
  counter(out, "full_flushes_total", "Batches flushed on row budget",
          stats.totals.full_flushes);
  counter(out, "timeout_flushes_total", "Batches flushed on max_wait/drain",
          stats.totals.timeout_flushes);
  counter(out, "slo_flushes_total", "Batches flushed early for a deadline",
          stats.totals.slo_flushes);
  counter(out, "bypassed_total", "Requests served on the submit thread",
          stats.totals.bypassed);
  counter(out, "errors_total", "Requests resolved non-OK",
          stats.totals.errors);
  counter(out, "split_batches_total", "Batches run as concurrent serial SpMMs",
          stats.totals.split_batches);
  counter(out, "ring_stalls_total", "Submits that found a full ring",
          stats.ring_stalls);
  counter(out, "shed_requests_total", "Requests refused by admission",
          stats.shed_requests);
  counter(out, "shed_bytes_total", "Staging bytes of shed requests",
          stats.shed_bytes);
  counter(out, "submit_deadline_fails_total",
          "Submits whose deadline expired while stalled",
          stats.submit_deadline_fails);
  counter(out, "trace_spans_total", "Trace spans recorded",
          stats.trace_spans);
  counter(out, "trace_drops_total",
          "Trace spans overwritten by ring wraparound", stats.trace_drops);
  gauge(out, "groups",
        "Groups created (an evicted group that returns counts again)",
        stats.groups);
  gauge(out, "shards", "Dispatcher shards", stats.shards);
  gauge(out, "max_queue_depth", "Peak pending requests in any group",
        stats.totals.max_queue_depth);

  // Per-shard counters, one family header then a sample per shard.
  if (!stats.per_shard.empty()) {
    out += "# HELP nmspmm_shard_requests_total Per-shard counters\n";
    out += "# TYPE nmspmm_shard_requests_total counter\n";
    for (std::size_t i = 0; i < stats.per_shard.size(); ++i) {
      std::string labels = "{shard=\"" + std::to_string(i) + "\"}";
      sample(out, "shard_requests_total", labels,
             stats.per_shard[i].requests);
    }
    out += "# TYPE nmspmm_shard_batches_total counter\n";
    for (std::size_t i = 0; i < stats.per_shard.size(); ++i) {
      std::string labels = "{shard=\"" + std::to_string(i) + "\"}";
      sample(out, "shard_batches_total", labels, stats.per_shard[i].batches);
    }
    out += "# TYPE nmspmm_shard_errors_total counter\n";
    for (std::size_t i = 0; i < stats.per_shard.size(); ++i) {
      std::string labels = "{shard=\"" + std::to_string(i) + "\"}";
      sample(out, "shard_errors_total", labels, stats.per_shard[i].errors);
    }
  }

  // Latency histograms per (class, stage), plus exact min/max gauges
  // (the histogram's _sum/_count give the exact mean).
  out +=
      "# HELP nmspmm_stage_latency_us Per-request stage latency "
      "(microseconds)\n";
  out += "# TYPE nmspmm_stage_latency_us histogram\n";
  for (int c = 0; c < serve::kNumClasses; ++c) {
    for (int st = 0; st < serve::kNumStages; ++st) {
      const auto& s = stats.latency.stages[c][st];
      if (s.count == 0) continue;
      std::string labels = "class=\"";
      labels += serve::to_string(static_cast<serve::RequestClass>(c));
      labels += "\",stage=\"";
      labels += serve::to_string(static_cast<serve::Stage>(st));
      labels += "\",";
      histogram(out, "stage_latency_us", labels, s);
    }
  }
  out += "# TYPE nmspmm_stage_latency_us_min gauge\n";
  out += "# TYPE nmspmm_stage_latency_us_max gauge\n";
  for (int c = 0; c < serve::kNumClasses; ++c) {
    for (int st = 0; st < serve::kNumStages; ++st) {
      const auto& s = stats.latency.stages[c][st];
      if (s.count == 0) continue;
      std::string labels = "{class=\"";
      labels += serve::to_string(static_cast<serve::RequestClass>(c));
      labels += "\",stage=\"";
      labels += serve::to_string(static_cast<serve::Stage>(st));
      labels += "\"}";
      sample(out, "stage_latency_us_min", labels, s.min_us);
      sample(out, "stage_latency_us_max", labels, s.max_us);
    }
  }
  out += "# TYPE nmspmm_class_slo_violations_total counter\n";
  for (int c = 0; c < serve::kNumClasses; ++c) {
    std::string labels = "{class=\"";
    labels += serve::to_string(static_cast<serve::RequestClass>(c));
    labels += "\"}";
    sample(out, "class_slo_violations_total", labels,
           stats.latency.violations[c]);
  }
  return out;
}

std::string render_json(const Server::Stats& stats) {
  std::string out = "{\"prefix\":\"nmspmm\",\"totals\":";
  append_json_group(out, stats.totals);
  out += ",\"groups\":";
  append_u64(out, stats.groups);
  out += ",\"shards\":";
  append_u64(out, stats.shards);
  out += ",\"ring_stalls\":";
  append_u64(out, stats.ring_stalls);
  out += ",\"shed_requests\":";
  append_u64(out, stats.shed_requests);
  out += ",\"shed_bytes\":";
  append_u64(out, stats.shed_bytes);
  out += ",\"submit_deadline_fails\":";
  append_u64(out, stats.submit_deadline_fails);
  out += ",\"trace_spans\":";
  append_u64(out, stats.trace_spans);
  out += ",\"trace_drops\":";
  append_u64(out, stats.trace_drops);
  out += ",\"per_shard\":[";
  for (std::size_t i = 0; i < stats.per_shard.size(); ++i) {
    if (i > 0) out += ",";
    append_json_group(out, stats.per_shard[i]);
  }
  out += "],\"latency\":";
  append_json_latency(out, stats.latency);
  out += "}\n";
  return out;
}

MetricsExporter::MetricsExporter(const Server& server, Options options)
    : server_(server),
      options_(std::move(options)),
      start_(std::chrono::steady_clock::now()) {
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      lock.unlock();
      tick();
      lock.lock();
      cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                   [this] { return stop_; });
    }
  });
}

MetricsExporter::~MetricsExporter() { stop(); }

void MetricsExporter::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  tick();  // final sample so short runs still get an end point
}

void MetricsExporter::tick() {
  const Server::Stats stats = server_.stats();
  const auto now = std::chrono::steady_clock::now();

  TimelineSample s;
  s.t_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now - start_)
          .count());
  s.requests = stats.totals.requests;
  s.errors = stats.totals.errors;
  s.shed_requests = stats.shed_requests;
  s.slo_violations = stats.totals.slo_violations;
  s.decode_p99_us =
      stats.latency.stage(serve::RequestClass::kDecode, serve::Stage::kTotal)
          .p99();
  s.prefill_p99_us =
      stats.latency.stage(serve::RequestClass::kPrefill, serve::Stage::kTotal)
          .p99();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (samples_.size() >= options_.max_samples) {
      samples_.erase(samples_.begin());
    }
    samples_.push_back(s);
  }
  if (!options_.prometheus_path.empty()) {
    write_file_atomic(options_.prometheus_path,
                      render_prometheus(stats));
  }
  if (!options_.json_path.empty()) {
    write_file_atomic(options_.json_path,
                      render_json(stats));
  }
}

std::vector<TimelineSample> MetricsExporter::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

}  // namespace nmspmm::obs
