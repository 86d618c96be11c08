// Decoder-layer decode perf: autoregressive tokens/s through a full
// DecoderPlan (RMSNorm -> QKV SpMM -> paged-KV attention -> output
// projection + residual -> fused FFN) as the context deepens, plus the
// KV cache's resident footprint.
//
// Attention cost grows linearly with context while the projections stay
// fixed, so the bench reports tokens/s at several context depths: decode
// proceeds autoregressively and a timing window opens each time the
// context reaches the next depth. Each depth also prints where the
// window's steps went by the plan's own stage attribution (stats().stages:
// attend; stats().ffn.stages: gate, up and down), and the run ends with
// the process's AnonHugePages (how much of the weights and KV cache sits
// on 2 MiB pages). Emits a "model_decode" section merged
// into BENCH_spmm.json (--merge, the CI mode) or a standalone JSON
// (--out); scripts/check_perf_trend.py gates each depth's tokens/s like
// a kernel variant on a same-CPU baseline.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/artifact.hpp"
#include "bench/bench_common.hpp"
#include "model/decoder.hpp"

using namespace nmspmm;
using namespace nmspmm::bench;

namespace {

/// Wall time of the plan's attend stage and of its FFN tail's gate, up
/// and down stages so far, in ms.
std::pair<double, double> attend_ffn_ms(const model::DecoderPlan& plan) {
  using model::Stage;
  const model::DecoderPlan::Stats s = plan.stats();
  const auto& ffn = s.ffn.stages;
  return {static_cast<double>(s.stages[Stage::kAttend].ns) / 1e6,
          static_cast<double>(ffn[Stage::kGate].ns + ffn[Stage::kUp].ns +
                              ffn[Stage::kDown].ns) /
              1e6};
}

/// The process's AnonHugePages in kB (/proc/self/smaps_rollup); -1 where
/// it cannot be read.
long anon_huge_pages_kb() {
  std::ifstream rollup("/proc/self/smaps_rollup");
  std::string line;
  long kb = -1;
  while (std::getline(rollup, line)) {
    if (std::sscanf(line.c_str(), "AnonHugePages: %ld", &kb) == 1) break;
  }
  return kb;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_decode",
                "autoregressive decoder-layer tokens/s vs context depth");
  cli.add_int("hidden", 512, "model hidden size");
  cli.add_int("heads", 8, "query heads");
  cli.add_int("kv-heads", 4, "KV heads (GQA when < heads)");
  cli.add_int("head-dim", 64, "per-head dimension");
  cli.add_int("ffn", 1376, "FFN intermediate size");
  cli.add_int("seqs", 4, "concurrent sequences per decode step");
  cli.add_int("window", 16, "timed decode steps per context depth");
  cli.add_int("threads", 1, "pool size (1 = single-core, the CI default)");
  cli.add_flag("full", false,
               "use a 7B-class geometry (hidden 4096, 32 heads, ffn 11008)");
  cli.add_string("out", "", "write a standalone JSON artifact to this path");
  cli.add_string("merge", "",
                 "merge the model_decode section into this bench JSON");
  if (!cli.parse(argc, argv)) return 1;
  const bool full = cli.get_flag("full");
  const index_t hidden = full ? 4096 : cli.get_int("hidden");
  const index_t n_heads = full ? 32 : cli.get_int("heads");
  const index_t n_kv_heads = full ? 8 : cli.get_int("kv-heads");
  const index_t head_dim = full ? 128 : cli.get_int("head-dim");
  const index_t ffn = full ? 11008 : cli.get_int("ffn");
  const index_t seqs = cli.get_int("seqs");
  const int window = cli.get_int("window");
  const std::vector<index_t> depths = {32, 128, 256};
  const NMConfig cfg{8, 32, 16};  // 75%: the pruned-LLM operating point

  Rng rng(13);
  model::DecoderLayer layer;
  layer.attn.n_heads = n_heads;
  layer.attn.n_kv_heads = n_kv_heads;
  layer.attn.head_dim = head_dim;
  layer.qkv = std::make_shared<const CompressedNM>(
      random_compressed(hidden, layer.attn.qkv_dim(), cfg, rng));
  layer.out_proj = std::make_shared<const CompressedNM>(
      random_compressed(layer.attn.q_dim(), hidden, cfg, rng));
  const MatrixF attn_norm = random_matrix(1, hidden, rng, 0.9f, 1.1f);
  const MatrixF ffn_norm = random_matrix(1, hidden, rng, 0.9f, 1.1f);
  layer.attn_norm.assign(attn_norm.row(0), attn_norm.row(0) + hidden);
  layer.ffn.gate = std::make_shared<const CompressedNM>(
      random_compressed(hidden, ffn, cfg, rng));
  layer.ffn.up = std::make_shared<const CompressedNM>(
      random_compressed(hidden, ffn, cfg, rng));
  layer.ffn.down = std::make_shared<const CompressedNM>(
      random_compressed(ffn, hidden, cfg, rng));
  layer.ffn.act = Activation::kSilu;
  layer.ffn.input_norm.assign(ffn_norm.row(0), ffn_norm.row(0) + hidden);
  layer.ffn.residual = true;

  attn::KvCacheOptions kv_opt;
  kv_opt.page_tokens = 64;
  // Pages are per-sequence: round each sequence's deepest context up to
  // whole pages so the tail of every page counts against the budget.
  kv_opt.max_tokens =
      seqs * (depths.back() + static_cast<index_t>(window) +
              kv_opt.page_tokens);

  EngineOptions engine_opt;
  engine_opt.num_threads = static_cast<unsigned>(cli.get_int("threads"));
  Engine engine(engine_opt);
  auto plan_or = engine.plan_decoder(seqs, layer, kv_opt);
  NMSPMM_CHECK_OK(plan_or.status());
  model::DecoderPlan& plan = **plan_or;

  std::cout << "decoder layer: " << seqs << " seqs, hidden " << hidden
            << ", " << n_heads << " heads / " << n_kv_heads << " KV heads x "
            << head_dim << ", ffn " << ffn << ", " << cfg.to_string()
            << ", threads " << cli.get_int("threads") << "\n";

  std::vector<std::uint64_t> ids(seqs);
  for (index_t s = 0; s < seqs; ++s) {
    ids[s] = static_cast<std::uint64_t>(s + 1);
    NMSPMM_CHECK_OK(plan.begin_sequence(ids[s]));
  }
  MatrixF x = random_matrix(seqs, hidden, rng, -0.5f, 0.5f);
  MatrixF out(seqs, hidden);
  std::vector<Status> row_status(seqs);
  auto step = [&] {
    NMSPMM_CHECK_OK(plan.decode(x.view(), ids.data(), out.view(),
                                row_status.data()));
    for (const Status& s : row_status) NMSPMM_CHECK_OK(s);
    // Feed the output back so the measured stream is autoregressive.
    std::copy_n(out.data(), static_cast<std::size_t>(seqs) * hidden,
                x.data());
  };

  // Decode continuously; when the context reaches each target depth,
  // time the next `window` steps. One warm-up step precedes the first
  // window (plan caches, scratch, KV first-touch).
  step();
  struct Point {
    index_t context;
    double tokens_per_s;
    double attend_ms;  ///< per step
    double ffn_ms;     ///< per step
  };
  std::vector<Point> points;
  index_t context = 1;
  using clock = std::chrono::steady_clock;
  for (const index_t depth : depths) {
    while (context < depth) {
      step();
      ++context;
    }
    const auto before = attend_ffn_ms(plan);
    const auto t0 = clock::now();
    for (int i = 0; i < window; ++i) step();
    const double secs = std::chrono::duration<double>(clock::now() - t0)
                            .count();
    const auto after = attend_ffn_ms(plan);
    context += window;
    points.push_back({depth, static_cast<double>(seqs) * window / secs,
                      (after.first - before.first) / window,
                      (after.second - before.second) / window});
  }

  const model::DecoderPlan::Stats stats = plan.stats();
  ResultTable table({"context", "tokens/s", "attend ms/step", "ffn ms/step"});
  for (const Point& p : points) {
    table.add_row({std::to_string(p.context),
                   ResultTable::fmt(p.tokens_per_s, 0),
                   ResultTable::fmt(p.attend_ms, 3),
                   ResultTable::fmt(p.ffn_ms, 3)});
  }
  print_table(table);
  std::cout << "AnonHugePages: " << anon_huge_pages_kb() << " kB\n";
  const auto per_token =
      static_cast<std::uint64_t>(2 * layer.attn.kv_dim()) * sizeof(float);
  std::cout << "KV cache: "
            << ResultTable::fmt(
                   static_cast<double>(stats.kv.resident_bytes) / 1e6, 2)
            << " MB resident (" << stats.kv.pages_allocated << " pages, "
            << stats.kv.appended_tokens << " tokens, " << per_token
            << " B/token)\n";

  std::ostringstream json;
  json << "{\"hidden\": " << hidden << ", \"n_heads\": " << n_heads
       << ", \"n_kv_heads\": " << n_kv_heads
       << ", \"head_dim\": " << head_dim << ", \"ffn\": " << ffn
       << ", \"seqs\": " << seqs
       << ", \"threads\": " << cli.get_int("threads") << ", \"points\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i != 0) json << ", ";
    json << "{\"context\": " << points[i].context << ", \"tokens_per_s\": "
         << ResultTable::fmt(points[i].tokens_per_s, 2) << "}";
  }
  json << "], \"kv_resident_bytes\": " << stats.kv.resident_bytes
       << ", \"kv_pages\": " << stats.kv.pages_allocated
       << ", \"kv_bytes_per_token\": " << per_token << "}";

  const std::string merge = cli.get_string("merge");
  const std::string out_path = cli.get_string("out");
  if (!merge.empty()) {
    if (!merge_section(merge, "model_decode", json.str())) {
      std::cerr << "cannot merge model_decode section into " << merge
                << "\n";
      return 1;
    }
    std::cout << "merged model_decode section into " << merge << "\n";
  }
  if (!out_path.empty()) {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "cannot open " << out_path << " for writing\n";
      return 1;
    }
    os << "{\n  \"bench\": \"bench_decode\",\n  \"schema_version\": 1,\n"
       << "  \"model_decode\": " << json.str() << "\n}\n";
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
