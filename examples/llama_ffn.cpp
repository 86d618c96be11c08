// End-to-end scenario: one SwiGLU feed-forward block of a Llama-style
// transformer with N:M-pruned weights — the workload the paper's
// introduction motivates (LLM inference with pruned linear layers).
//
//   gate = A * Wg;  up = A * Wu;  h = silu(gate) (.) up;  out = h * Wd
//
// The block runs through the model layer (src/model/ffn.hpp): one
// Engine::plan_model call plans all three projections, and
// ModelPlan::run executes them with the silu(gate) (.) up fusion in the
// up-projection's epilogue and plan-time activation scratch — no
// intermediate allocations, no separate activation pass. The unfused
// pipeline (three engine.spmm calls plus a scalar silu_mul loop — what
// this example used to hand-roll) and the dense pipeline are timed for
// comparison.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "baselines/dense_gemm.hpp"
#include "core/nmspmm.hpp"
#include "util/timer.hpp"
#include "workloads/generators.hpp"

namespace {

using namespace nmspmm;

void silu_mul(MatrixF& gate, const MatrixF& up) {
  for (index_t i = 0; i < gate.rows(); ++i) {
    float* g = gate.row(i);
    const float* u = up.row(i);
    for (index_t j = 0; j < gate.cols(); ++j) {
      g[j] = apply_activation(Activation::kSilu, g[j]) * u[j];
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Scaled-down Llama FFN (hidden 1024, ffn 2752 ~ the 7B 4096/11008
  // ratio); pass --full for the real 7B dimensions.
  bool full = argc > 1 && std::string(argv[1]) == "--full";
  const index_t hidden = full ? 4096 : 1024;
  const index_t ffn = full ? 11008 : 2752;
  const index_t tokens = 256;
  const NMConfig config{8, 32, 16};  // 75% sparsity

  Rng rng(7);
  MatrixF A = random_matrix(tokens, hidden, rng, -0.5f, 0.5f);
  MatrixF Wg = random_matrix(hidden, ffn, rng, -0.05f, 0.05f);
  MatrixF Wu = random_matrix(hidden, ffn, rng, -0.05f, 0.05f);
  MatrixF Wd = random_matrix(ffn, hidden, rng, -0.05f, 0.05f);

  std::printf("Llama-style FFN: %lld tokens, hidden %lld, ffn %lld, %s\n",
              static_cast<long long>(tokens), static_cast<long long>(hidden),
              static_cast<long long>(ffn), config.to_string().c_str());

  // Offline: prune + compress each projection, then plan the whole block
  // as one unit — per-projection plans out of the engine's cache, activation
  // scratch sized once, silu fused into the up-projection's stores.
  Timer prep;
  model::FfnBlock block;
  block.gate = std::make_shared<const CompressedNM>(
      compress(Wg.view(), magnitude_mask(Wg.view(), config)));
  block.up = std::make_shared<const CompressedNM>(
      compress(Wu.view(), magnitude_mask(Wu.view(), config)));
  block.down = std::make_shared<const CompressedNM>(
      compress(Wd.view(), magnitude_mask(Wd.view(), config)));
  block.act = Activation::kSilu;
  Engine engine;
  auto plan = engine.plan_model(tokens, block);
  NMSPMM_CHECK_OK(plan.status());
  std::printf("offline pruning + compression + model plan: %.1f ms\n",
              prep.millis());

  // Fused vs unfused (three engine calls + a separate silu_mul pass —
  // the pre-model-layer workflow), timed as interleaved pairs with
  // best-of per side so a background load spike cannot decide the
  // comparison.
  MatrixF out(tokens, hidden);
  MatrixF gate(tokens, ffn), up(tokens, ffn), out_u(tokens, hidden);
  auto run_fused = [&] { NMSPMM_CHECK_OK((*plan)->run(A.view(), out.view())); };
  auto run_unfused = [&] {
    NMSPMM_CHECK_OK(engine.spmm(A.view(), block.gate, gate.view()));
    NMSPMM_CHECK_OK(engine.spmm(A.view(), block.up, up.view()));
    silu_mul(gate, up);
    NMSPMM_CHECK_OK(engine.spmm(gate.view(), block.down, out_u.view()));
  };
  run_fused();
  run_unfused();  // warm plans, scratch, and page tables
  double fused_ms = 1e300, unfused_ms = 1e300;
  for (int pair = 0; pair < 5; ++pair) {
    Timer fused_t;
    run_fused();
    fused_ms = std::min(fused_ms, fused_t.millis());
    Timer unfused_t;
    run_unfused();
    unfused_ms = std::min(unfused_ms, unfused_t.millis());
  }

  MatrixF gate_d(tokens, ffn), up_d(tokens, ffn), out_d(tokens, hidden);
  Timer dense_t;
  gemm_blocked(A.view(), Wg.view(), gate_d.view());
  gemm_blocked(A.view(), Wu.view(), up_d.view());
  silu_mul(gate_d, up_d);
  gemm_blocked(gate_d.view(), Wd.view(), out_d.view());
  const double dense_ms = dense_t.millis();

  std::printf(
      "FFN forward: fused model plan %.2f ms vs unfused 3-call %.2f ms "
      "(%.2fx) vs dense %.2f ms (%.2fx)\n",
      fused_ms, unfused_ms, unfused_ms / fused_ms, dense_ms,
      dense_ms / fused_ms);
  std::printf("fused vs unfused max deviation: %.3g (same plans, fused "
              "epilogue)\n",
              max_abs_diff(out_u.cview(), out.cview()));
  std::printf("hidden-state mean deviation vs dense (Eq. 2): %.5f\n",
              approximation_error(out_d.view(), out.view()));

  const model::ModelPlan::Stats stats = (*plan)->stats();
  std::printf(
      "resident model memory: %.1f MB dense -> %.1f MB compressed + %.1f MB "
      "packed + %.1f MB scratch\n",
      static_cast<double>(2 * hidden * ffn + ffn * hidden) * sizeof(float) /
          1e6,
      static_cast<double>(stats.weight_bytes) / 1e6,
      static_cast<double>(stats.packed_bytes) / 1e6,
      static_cast<double>(stats.scratch_bytes) / 1e6);
  const auto cache = engine.cache_stats();
  std::printf("engine: %zu cached plan(s), %llu hit(s) / %llu miss(es)\n",
              cache.size, static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses));
  return 0;
}
