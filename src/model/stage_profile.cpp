#include "model/stage_profile.hpp"

namespace nmspmm::model {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/// The PerfCounts fields StageProfile::Totals::perf sums, in order.
constexpr std::uint64_t obs::PerfCounts::*kPerfFields[] = {
    &obs::PerfCounts::cycles,          &obs::PerfCounts::instructions,
    &obs::PerfCounts::cache_misses,    &obs::PerfCounts::stalled_backend,
    &obs::PerfCounts::time_enabled_ns, &obs::PerfCounts::time_running_ns};

}  // namespace

const char* to_string(Stage stage) {
  constexpr const char* kNames[kNumStages] = {
      "qkv", "kv_append", "attend", "attn_out", "gate", "up", "down"};
  return kNames[static_cast<std::size_t>(stage)];
}

void StageProfile::begin_run() {
  runs_.fetch_add(1, kRelaxed);
  counting_ = false;
  if (!enabled_.load(kRelaxed)) return;
  profiled_runs_.fetch_add(1, kRelaxed);
  if (counters_ == nullptr) {
    counters_ = std::make_unique<obs::PerfCounterSet>();
    supported_.store(counters_->supported(), kRelaxed);
  }
  counting_ = counters_->supported();
}

void StageProfile::record(Stage stage, std::uint64_t ns,
                          const obs::PerfCounts& counts) {
  Totals& t = totals_[static_cast<std::size_t>(stage)];
  t.calls.fetch_add(1, kRelaxed);
  t.ns.fetch_add(ns, kRelaxed);
  if (!counts.supported) return;
  t.counted.fetch_add(1, kRelaxed);
  for (std::size_t f = 0; f < t.perf.size(); ++f) {
    t.perf[f].fetch_add(counts.*kPerfFields[f], kRelaxed);
  }
}

StageProfile::Snapshot StageProfile::snapshot() const {
  Snapshot s;
  s.enabled = enabled_.load(kRelaxed);
  s.supported = supported_.load(kRelaxed);
  s.runs = runs_.load(kRelaxed);
  s.profiled_runs = profiled_runs_.load(kRelaxed);
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const Totals& t = totals_[i];
    StageTotals& out = s.per_stage[i];
    out.calls = t.calls.load(kRelaxed);
    out.ns = t.ns.load(kRelaxed);
    out.perf.supported = t.counted.load(kRelaxed) > 0;
    for (std::size_t f = 0; f < t.perf.size(); ++f) {
      out.perf.*kPerfFields[f] = t.perf[f].load(kRelaxed);
    }
  }
  return s;
}

}  // namespace nmspmm::model
