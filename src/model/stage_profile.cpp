#include "model/stage_profile.hpp"

namespace nmspmm::model {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

const char* to_string(Stage stage) {
  constexpr const char* kNames[kNumStages] = {
      "qkv", "kv_append", "attend", "attn_out", "gate", "up", "down"};
  return kNames[static_cast<std::size_t>(stage)];
}

void StageProfile::record(Stage stage, std::uint64_t ns) {
  Totals& t = totals_[static_cast<std::size_t>(stage)];
  t.calls.fetch_add(1, kRelaxed);
  t.ns.fetch_add(ns, kRelaxed);
}

StageProfile::Snapshot StageProfile::snapshot() const {
  Snapshot s;
  s.runs = runs_.load(kRelaxed);
  for (std::size_t i = 0; i < kNumStages; ++i) {
    s.per_stage[i].calls = totals_[i].calls.load(kRelaxed);
    s.per_stage[i].ns = totals_[i].ns.load(kRelaxed);
  }
  return s;
}

}  // namespace nmspmm::model
