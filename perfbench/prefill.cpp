// prefill_spmm: one caller pushes a 256-token prompt through the five
// Llama-7B projection roles with Engine::spmm, closed loop. Each role
// has its own sparsity, so the pass covers every level the paper
// evaluates, both below and above the high-sparsity packing threshold.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "baselines/dense_gemm.hpp"
#include "common.hpp"
#include "workloads/generators.hpp"
#include "workloads/llama_shapes.hpp"

namespace perfbench {

using namespace nmspmm;

namespace {

constexpr index_t kTokens = 256;
constexpr int kSetups = 5;
constexpr index_t kCheckedRows = 4;
/// Alternating sparse / dense call pairs behind speedup_vs_dense.
constexpr int kBaselineReps = 5;

struct Role {
  const char* name;
  NMConfig config;
  index_t k = 0;
  index_t n = 0;
  std::shared_ptr<const CompressedNM> weights{};
  MatrixF* input = nullptr;
  MatrixF out{};
  Samples ms{};  ///< per-call time (traced run)
};

bool run_pass(Engine& engine, std::vector<Role>& roles, bool per_role,
              Result& result) {
  bool ok = true;
  for (Role& role : roles) {
    const auto t0 = Clock::now();
    const Status s =
        engine.spmm(role.input->cview(), role.weights, role.out.view());
    if (per_role) role.ms.add(s.ok() ? ms_between(t0, Clock::now()) : kMissedMs);
    ok = result.op(std::string("spmm.") + role.name, s) && ok;
  }
  return ok;
}

/// Each role's output on a few seeded rows against spmm_reference.
void check_outputs(std::vector<Role>& roles, Rng& rng, Result& result) {
  for (Role& role : roles) {
    MatrixF a(kCheckedRows, role.k), ref(kCheckedRows, role.n);
    std::vector<index_t> rows(kCheckedRows);
    for (index_t i = 0; i < kCheckedRows; ++i) {
      rows[i] = static_cast<index_t>(rng.next_below(kTokens));
      std::copy_n(role.input->row(rows[i]), role.k, a.row(i));
    }
    spmm_reference(a.cview(), *role.weights, ref.view());
    double worst = 0.0, scale = 1.0;
    for (index_t i = 0; i < kCheckedRows; ++i) {
      for (index_t j = 0; j < role.n; ++j) {
        worst = std::max(worst, std::fabs(static_cast<double>(
                                    role.out(rows[i], j) - ref(i, j))));
        scale = std::max(scale, std::fabs(static_cast<double>(ref(i, j))));
      }
    }
    if (!(worst <= 1e-4 * scale)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "prefill role %s differs from spmm_reference by %.3g",
                    role.name, worst);
      result.check_failed(buf);
    }
  }
}

}  // namespace

int run_prefill_spmm(const Args& args, Result& result) {
  // The five projection roles of the 7B layer, as llama_layer_tuples()
  // lists them, each at its own sparsity level.
  const std::vector<ProblemShape> tuples = llama_layer_tuples();
  const index_t hidden = tuples[0].k;
  const index_t ffn = tuples[2].n;
  Rng rng(args.seed);
  Hasher hash;
  MatrixF a_hidden = random_matrix(kTokens, hidden, rng);
  MatrixF a_ffn = random_matrix(kTokens, ffn, rng);
  hash.add(a_hidden);
  hash.add(a_ffn);
  std::vector<Role> roles = {
      {"qkv", kSparsity50},  {"attn_out", kSparsity625}, {"gate", kSparsity75},
      {"up", kSparsity75},   {"down", kSparsity875},
  };
  for (std::size_t i = 0; i < roles.size(); ++i) {
    Role& role = roles[i];
    role.k = tuples[i].k;
    role.n = tuples[i].n;
    role.weights = make_weights(role.k, role.n, role.config, rng, hash);
    role.input = role.k == hidden ? &a_hidden : &a_ffn;
    role.out = MatrixF(kTokens, role.n);
    role.out.zero();  // first touch outside every timed set-up
  }
  result.note("inputs " + hash.hex());

  // Set-up: engine, plans (packing), first pass. Repeated on fresh
  // engines and stores; the last one serves the measured passes.
  Samples setup_s;
  double plan_ms = 0.0;
  std::unique_ptr<Engine> engine;
  for (int s = 0; s < kSetups; ++s) {
    engine.reset();
    const auto t0 = Clock::now();
    engine = make_serial_engine();
    plan_ms = 0.0;
    for (Role& role : roles) {
      const auto p0 = Clock::now();
      const auto plan = engine->plan_for(kTokens, role.weights);
      plan_ms += ms_between(p0, Clock::now());
      if (!plan.ok()) {
        result.check_failed("plan_for failed: " + plan.status().to_string());
        return 1;
      }
    }
    if (!run_pass(*engine, roles, false, result)) return 1;
    setup_s.add(ms_between(t0, Clock::now()) / 1e3);
  }

  Samples pass_ms;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  while (pass_ms.size() < 11 || Clock::now() < deadline) {
    const auto t0 = Clock::now();
    const bool ok = run_pass(*engine, roles, args.trace, result);
    pass_ms.add(ok ? ms_between(t0, Clock::now()) : kMissedMs);
  }
  check_outputs(roles, rng, result);

  double pass_flops = 0.0;
  for (const Role& role : roles) pass_flops += useful_flops(kTokens, *role.weights);
  result.samples("setup_s", setup_s);
  result.samples("latency_ms", pass_ms);
  result.note_value("latency_ms_p50", pass_ms.p50());

  if (!args.trace) {
    result.metric("setup_s", setup_s.p50(), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("gflops", pass_flops / (pass_ms.p50() * 1e6), "GFLOP/s");
    result.metric("tokens_per_s", kTokens / (pass_ms.p50() / 1e3), "1/s");
    result.metric("latency_ms_p50", pass_ms.p50(), "ms");
    result.metric("latency_ms_tail", pass_ms.tail(), "ms");
    return 0;
  }

  // Traced run: per-role times, and the dense baseline the paper
  // measures speedup against (gemm_blocked on the decompressed weights,
  // same m, serial like the engine).
  const Engine::CacheStats cache = engine->cache_stats();
  for (Role& role : roles) {
    const double flops = useful_flops(kTokens, *role.weights);
    const auto plan = engine->plan_for(kTokens, role.weights);
    const double bytes = computed_bytes(plan.ok() ? plan->get() : nullptr,
                                        *role.weights, kTokens);
    // Sparse and dense calls alternate, so both sides of the ratio see
    // the same host conditions.
    Samples dense_ms, sparse_ms;
    {
      const MatrixF dense = decompress(*role.weights);
      MatrixF c(kTokens, role.n);
      c.zero();
      for (int rep = 0; rep < kBaselineReps; ++rep) {
        auto t0 = Clock::now();
        const Status s =
            engine->spmm(role.input->cview(), role.weights, role.out.view());
        sparse_ms.add(s.ok() ? ms_between(t0, Clock::now()) : kMissedMs);
        t0 = Clock::now();
        gemm_blocked(role.input->cview(), dense.cview(), c.view());
        dense_ms.add(ms_between(t0, Clock::now()));
      }
      const double diff = max_abs_diff(c.cview(), role.out.cview());
      if (!(diff <= 1e-3)) {
        result.check_failed(std::string("dense baseline disagrees on ") +
                            role.name);
      }
    }
    const double ms = role.ms.p50();
    const double speedup = dense_ms.p50() / sparse_ms.p50();
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s: dense_ms %.3f sparse_ms %.3f",
                  role.name, dense_ms.p50(), sparse_ms.p50());
    result.note(buf);
    const std::string p = std::string("core.") + role.name;
    result.metric(p + ".ms", ms, "ms");
    result.metric(p + ".gflops", flops / (ms * 1e6), "GFLOP/s");
    result.metric(p + ".flops", flops, "FLOP");
    result.metric(p + ".computed_bytes", bytes, "B");
    result.metric(p + ".speedup_vs_dense", speedup, "x");
    result.metric(p + ".frac_of_ideal", speedup * role.config.density(),
                  "ratio");
    result.samples(p + ".ms", role.ms);
  }
  result.metric("core.plan_cache.hits", static_cast<double>(cache.hits),
                "count");
  result.metric("core.plan_cache.misses", static_cast<double>(cache.misses),
                "count");
  const mem::WeightStore::Stats store = engine->weight_store()->stats();
  double weight_bytes = 0.0;
  for (const Role& role : roles) {
    weight_bytes += static_cast<double>(role.weights->footprint_bytes());
  }
  result.metric("mem.plan_ms", plan_ms, "ms");
  result.metric("mem.weight_mb", mb(weight_bytes), "MB");
  result.metric("mem.packed_mb", mb(static_cast<double>(store.resident_bytes)),
                "MB");
  result.metric("mem.store.misses", static_cast<double>(store.misses),
                "count");
  result.metric("mem.store.repacks", static_cast<double>(store.repacks),
                "count");
  return 0;
}

}  // namespace perfbench
