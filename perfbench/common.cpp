#include "common.hpp"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "core/pruning.hpp"
#include "workloads/generators.hpp"

namespace perfbench {

using namespace nmspmm;

double Samples::sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

double Samples::mean() const {
  return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size());
}

std::vector<double> Samples::sorted() const {
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  return s;
}

double Samples::p50() const {
  if (v_.empty()) return 0.0;
  const std::vector<double> s = sorted();
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double Samples::tail() const {
  if (v_.empty()) return 0.0;
  const std::vector<double> s = sorted();
  return s.size() > 10 ? s[s.size() - 11] : s.back();
}

double Samples::max() const {
  return v_.empty() ? 0.0 : *std::max_element(v_.begin(), v_.end());
}

double Samples::tail_pct() const {
  if (v_.size() <= 10) return 100.0;
  return 100.0 * static_cast<double>(v_.size() - 10) /
         static_cast<double>(v_.size());
}

bool Result::op(const std::string& cls, const Status& status) {
  auto& [attempted_cls, failed_cls] = ops[cls];
  ++attempted;
  ++attempted_cls;
  if (status.ok()) return true;
  ++failed;
  // The first few reasons per class; the counts carry the rest.
  if (failed_cls++ < 3) notes.push_back(cls + " failed: " + status.to_string());
  return false;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    check_failed("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics.push_back({name, {value, unit}});
}

void Result::check_failed(const std::string& why) {
  correct = false;
  notes.push_back("CHECK FAILED: " + why);
}

void Result::note_value(const std::string& key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), " %.17g", value);
  notes.push_back(key + buf);
}

void Result::samples(const std::string& name, const Samples& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "samples %s: n=%zu tail=p%.2f", name.c_str(),
                s.size(), s.tail_pct());
  notes.emplace_back(buf);
}

void Result::print() const {
  for (const std::string& line : notes) std::printf("# %s\n", line.c_str());
  for (const auto& [cls, counts] : ops) {
    std::printf("# ops %s: attempted=%llu failed=%llu\n", cls.c_str(),
                static_cast<unsigned long long>(counts.first),
                static_cast<unsigned long long>(counts.second));
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.c_str(),
                metrics[i].second.first, metrics[i].second.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB
}

namespace {

/// Sum of @p floats floats from @p buf, @p passes times over.
float stream_sum(const float* buf, std::size_t floats, int passes) {
  float lanes[16] = {};
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < floats; i += 16) {
      for (int j = 0; j < 16; ++j) lanes[j] += buf[i + j];
    }
  }
  float sum = 0.0f;
  for (const float v : lanes) sum += v;
  return sum;
}

/// Pages straight from mmap: the calibration buffers must not go through
/// malloc, whose mmap threshold rises after such a buffer is freed and
/// would change how the workload's own memory is allocated afterwards.
class MappedBuffer {
 public:
  explicit MappedBuffer(std::size_t bytes) : bytes_(bytes) {
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    data_ = p == MAP_FAILED ? nullptr : p;
  }
  ~MappedBuffer() {
    if (data_ != nullptr) munmap(data_, bytes_);
  }
  MappedBuffer(const MappedBuffer&) = delete;
  MappedBuffer& operator=(const MappedBuffer&) = delete;
  template <typename T>
  [[nodiscard]] T* as() const {
    return static_cast<T*>(data_);
  }

 private:
  std::size_t bytes_;
  void* data_;
};

}  // namespace

void note_calibration(const std::string& when, Result& result) {
  constexpr int kReps = 5;
  constexpr int kLanes = 64;
  constexpr long kIters = 1L << 22;
  constexpr std::size_t kDramFloats = std::size_t{16} << 20;  // 64 MB
  constexpr std::size_t kCacheFloats = std::size_t{2} << 20;  // 8 MB
  constexpr int kCachePasses = 8;
  constexpr std::size_t kChaseLoads = std::size_t{1} << 18;
  const MappedBuffer buf_pages(kDramFloats * sizeof(float));
  const MappedBuffer next_pages(kDramFloats * sizeof(std::uint32_t));
  float* const buf = buf_pages.as<float>();
  std::uint32_t* const next = next_pages.as<std::uint32_t>();
  if (buf == nullptr || next == nullptr) {
    result.note("calibration " + when + ": mmap failed, skipped");
    return;
  }
  std::fill_n(buf, kDramFloats, 1.0f);
  // One random cycle through the 64 MB as 32-bit indices (Sattolo's
  // shuffle), for dependent loads that each miss the caches.
  {
    Rng rng(12345);
    for (std::size_t i = 0; i < kDramFloats; ++i) {
      next[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = kDramFloats - 1; i > 0; --i) {
      std::swap(next[i], next[rng.next_below(i)]);
    }
  }
  Samples compute_ms, cache_ms, dram_ms, load_ns;
  std::uint32_t at = 0;
  float sink = 0.0f;
  for (int rep = 0; rep < kReps; ++rep) {
    float acc[kLanes];
    for (int j = 0; j < kLanes; ++j) acc[j] = static_cast<float>(j + rep);
    auto t0 = Clock::now();
    for (long i = 0; i < kIters; ++i) {
      for (int j = 0; j < kLanes; ++j) acc[j] = acc[j] * 0.999999f + 1e-7f;
    }
    auto t1 = Clock::now();
    compute_ms.add(ms_between(t0, t1));
    for (int j = 0; j < kLanes; ++j) sink += acc[j];
    sink += stream_sum(buf, kCacheFloats, 1);  // warm the cache
    t0 = Clock::now();
    sink += stream_sum(buf, kCacheFloats, kCachePasses);
    t1 = Clock::now();
    cache_ms.add(ms_between(t0, t1));
    sink += stream_sum(buf, kDramFloats, 1);
    t0 = Clock::now();
    dram_ms.add(ms_between(t1, t0));
    for (std::size_t i = 0; i < kChaseLoads; ++i) at = next[at];
    load_ns.add(ms_between(t0, Clock::now()) * 1e6 /
                static_cast<double>(kChaseLoads));
  }
  sink += static_cast<float>(at);
  char line[200];
  std::snprintf(line, sizeof(line),
                "calibration %s: compute_ms %.3f cache_ms %.3f dram_ms %.3f "
                "load_ns %.1f (checksum %.0f)",
                when.c_str(), compute_ms.p50(), cache_ms.p50(), dram_ms.p50(),
                load_ns.p50(), static_cast<double>(sink));
  result.note(line);
}

void Hasher::add(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

std::string Hasher::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::unique_ptr<Engine> make_serial_engine() {
  EngineOptions options;
  options.num_threads = 1;
  options.weight_store = std::make_shared<mem::WeightStore>();
  return std::make_unique<Engine>(options);
}

std::shared_ptr<const CompressedNM> make_weights(index_t k, index_t n,
                                                 const NMConfig& config,
                                                 Rng& rng, Hasher& hash) {
  // Built straight in compressed form (random keep pattern, then the
  // kept values), never materializing the dense k x n matrix.
  CompressedNM c;
  c.config = config;
  c.orig_rows = k;
  c.cols = n;
  c.indices = random_mask(k, n, config, rng).keep;
  // Xavier-style scale keeps activations O(1) through a deep decode, so
  // attention logits stay in the range trained models produce.
  const float bound = 1.0f / std::sqrt(static_cast<float>(c.indices.rows()));
  c.values = random_matrix(c.indices.rows(), n, rng, -bound, bound);
  auto w = std::make_shared<const CompressedNM>(std::move(c));
  // Hashing every value would cost as much as generating them; the
  // first rows plus the index matrix pin the seed's stream.
  hash.add(w->values.data(),
           static_cast<std::size_t>(std::min<index_t>(w->rows(), 4)) *
               w->cols * sizeof(float));
  hash.add(w->indices.data(),
           static_cast<std::size_t>(w->indices.rows()) * w->indices.cols());
  return w;
}

bool same_bits(ConstViewF a, ConstViewF b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (index_t i = 0; i < a.rows(); ++i) {
    if (std::memcmp(a.row(i), b.row(i),
                    static_cast<std::size_t>(a.cols()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

double useful_flops(index_t m, const CompressedNM& w) {
  return spmm_flops(m, w.cols, w.rows());
}

double computed_bytes(const SpmmPlan* plan, const CompressedNM& w, index_t m) {
  const std::size_t weights =
      plan != nullptr && plan->weight_lease() != nullptr
          ? plan->weight_lease()->footprint_bytes()
          : w.footprint_bytes();
  return static_cast<double>(m * w.orig_rows + m * w.cols) * sizeof(float) +
         static_cast<double>(weights);
}

model::DecoderLayer make_decoder_layer(Rng& rng, Hasher& hash) {
  using G = LayerGeometry;
  model::DecoderLayer layer;
  layer.attn.n_heads = G::kHeads;
  layer.attn.n_kv_heads = G::kKvHeads;
  layer.attn.head_dim = G::kHeadDim;
  layer.attn.rope_theta = 500000.0f;
  layer.qkv = make_weights(G::kHidden, layer.attn.qkv_dim(), kLayerSparsity,
                           rng, hash);
  layer.out_proj =
      make_weights(layer.attn.q_dim(), G::kHidden, kLayerSparsity, rng, hash);
  const MatrixF gains = random_matrix(2, G::kHidden, rng, 0.9f, 1.1f);
  hash.add(gains);
  layer.attn_norm.assign(gains.row(0), gains.row(0) + G::kHidden);
  layer.ffn.gate = make_weights(G::kHidden, G::kFfn, kLayerSparsity, rng, hash);
  layer.ffn.up = make_weights(G::kHidden, G::kFfn, kLayerSparsity, rng, hash);
  layer.ffn.down = make_weights(G::kFfn, G::kHidden, kLayerSparsity, rng, hash);
  layer.ffn.act = Activation::kSilu;
  layer.ffn.input_norm.assign(gains.row(1), gains.row(1) + G::kHidden);
  layer.ffn.residual = true;
  return layer;
}

double layer_flops_per_token(const model::DecoderLayer& layer) {
  return useful_flops(1, *layer.qkv) + useful_flops(1, *layer.out_proj) +
         useful_flops(1, *layer.ffn.gate) + useful_flops(1, *layer.ffn.up) +
         useful_flops(1, *layer.ffn.down);
}

}  // namespace perfbench
