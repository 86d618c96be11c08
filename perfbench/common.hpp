// Shared pieces of the benchmark program: argument parsing, sample sets,
// the result object printed as the final JSON line, seeded weight and
// input generation, and the decoder layer that decode_long and
// serve_mixed both serve.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/nmspmm.hpp"
#include "model/decoder.hpp"

namespace perfbench {

using nmspmm::index_t;
using Clock = std::chrono::steady_clock;

/// Latency sample of a failed request: it misses every latency limit.
inline constexpr double kMissedMs = 1e9;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the artifacts a traced run leaves (trace JSON).
  std::string out_dir = ".";
};

/// A set of timings. p50 is the median; tail() is the highest
/// percentile with at least ten samples beyond it, i.e. the 11th
/// largest sample (the maximum when there are fewer than 11).
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double p50() const;
  [[nodiscard]] double tail() const;
  [[nodiscard]] double max() const;
  /// Percentile rank (0..100) that tail() reports.
  [[nodiscard]] double tail_pct() const;

 private:
  [[nodiscard]] std::vector<double> sorted() const;
  std::vector<double> v_;
};

/// Everything a run reports. Metrics keep insertion order; notes go to
/// stdout before the final JSON line (sample counts, input hash, the
/// reason of every failed check).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> notes;
  /// attempted / failed per operation class.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> ops;

  /// Count one operation of class @p cls; false, and counted as failed,
  /// when @p status is not Ok.
  bool op(const std::string& cls, const nmspmm::Status& status);
  void metric(const std::string& name, double value, const std::string& unit);
  /// A failed output check: the run reports correct = false.
  void check_failed(const std::string& why);
  void note(const std::string& line) { notes.push_back(line); }
  /// A "<key> <value>" note with every digit, for run.py to read.
  void note_value(const std::string& key, double value);
  /// Record a timing's sample count next to the metrics it feeds.
  void samples(const std::string& name, const Samples& s);
  void print() const;
};

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Times four fixed kernels that use none of the library: a register-
/// resident FMA loop (core speed), reads of an 8 MB buffer (shared
/// cache), a read of a 64 MB buffer (memory bandwidth) and a chain of
/// dependent loads through it (memory latency), each the median of five
/// repetitions. A run notes them at its start and end, so runs can be
/// grouped by the host's speed at the time and a host slowdown told
/// apart from a program change.
void note_calibration(const std::string& when, Result& result);

/// 64-bit FNV-1a over byte ranges: the input fingerprint each run
/// prints, so two runs with one seed are shown to be fed the same
/// inputs.
class Hasher {
 public:
  void add(const void* data, std::size_t bytes);
  template <typename T>
  void add_value(const T& v) {
    add(&v, sizeof(v));
  }
  void add(const nmspmm::MatrixF& m) {
    add(m.data(), static_cast<std::size_t>(m.rows()) * m.cols() *
                      sizeof(float));
  }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// A serial engine with its own fresh weight store, so every set-up
/// packs from scratch.
std::unique_ptr<nmspmm::Engine> make_serial_engine();

/// Seeded compressed k x n weights (random keep pattern and values).
std::shared_ptr<const nmspmm::CompressedNM> make_weights(
    index_t k, index_t n, const nmspmm::NMConfig& config, nmspmm::Rng& rng,
    Hasher& hash);

/// Useful FLOPs of one sparse product: 2 * m * n * w (spmm_flops).
double useful_flops(index_t m, const nmspmm::CompressedNM& w);

/// Bytes one m-row projection call touches, computed from tensor sizes:
/// A, C, and the plan's packed B' with its indices (the compressed
/// weights when the plan holds no packed form).
double computed_bytes(const nmspmm::SpmmPlan* plan,
                      const nmspmm::CompressedNM& w, index_t m);

/// Geometry of the Llama-3.2-1B-class GQA layer served by decode_long
/// and serve_mixed.
struct LayerGeometry {
  static constexpr index_t kHidden = 2048;
  static constexpr index_t kFfn = 8192;
  static constexpr index_t kHeads = 32;
  static constexpr index_t kKvHeads = 8;
  static constexpr index_t kHeadDim = 64;
};
inline constexpr nmspmm::NMConfig kLayerSparsity = nmspmm::kSparsity75;

/// The pre-norm decoder layer (both norm gains set), seeded.
nmspmm::model::DecoderLayer make_decoder_layer(nmspmm::Rng& rng,
                                               Hasher& hash);

/// Useful sparse FLOPs of one token through the five projections.
double layer_flops_per_token(const nmspmm::model::DecoderLayer& layer);

/// Bit-for-bit equality of two matrices of one shape.
bool same_bits(nmspmm::ConstViewF a, nmspmm::ConstViewF b);

/// Sizes in MB (1e6 bytes).
inline double mb(double bytes) { return bytes / 1e6; }

int run_prefill_spmm(const Args& args, Result& result);
int run_decode_long(const Args& args, Result& result);
int run_serve_mixed(const Args& args, Result& result);

}  // namespace perfbench
