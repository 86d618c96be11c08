// decode_long: one caller runs DecoderPlan::decode on 8 sequences from
// an empty context to 1024 tokens, closed loop, feeding each step's
// output back as the next input. Attention work grows with depth until
// it dominates the step, while the projections stay at m = 8. The unit
// of work is that whole decode, so a run measures it once whatever
// --seconds says (about 30 s on a 4-vCPU Xeon guest at 2.0 GHz).
#include <algorithm>
#include <cstdio>

#include "attn/attention.hpp"
#include "common.hpp"
#include "workloads/generators.hpp"

namespace perfbench {

using namespace nmspmm;

namespace {

constexpr index_t kSeqs = 8;
constexpr index_t kSteps = 1024;
constexpr index_t kPageTokens = 64;
constexpr int kSetups = 9;
constexpr std::uint64_t kWarmSeq = 1;
/// Steps the traced run decodes before replaying them.
constexpr index_t kReplayChunk = 64;
/// Steps checked against the unfused reference: every 128th, and the last.
constexpr bool reference_step(index_t step) {
  return step % 128 == 0 || step == kSteps - 1;
}

void add_rows(MatrixF& y, ConstViewF x) {
  for (index_t i = 0; i < y.rows(); ++i) {
    for (index_t j = 0; j < y.cols(); ++j) y(i, j) += x(i, j);
  }
}

/// The unfused decode recipe of examples/llama_decode.cpp: plain
/// engine.spmm projections, a separate rmsnorm pass, attention on the
/// reference's own cache, scalar SiLU-mul and residual adds. Every step
/// appends K/V; full outputs are computed only where asked.
class UnfusedReference {
 public:
  UnfusedReference(const model::DecoderLayer& layer,
                   const attn::KvCacheOptions& kv)
      : layer_(layer),
        engine_(make_serial_engine()),
        attn_(layer.attn),
        kv_(kv),
        normed_(kSeqs, layer.hidden()),
        qkv_(kSeqs, layer.attn.qkv_dim()),
        attn_o_(kSeqs, layer.attn.q_dim()),
        x1_(kSeqs, layer.hidden()),
        normed2_(kSeqs, layer.hidden()),
        gate_(kSeqs, layer.ffn.ffn_dim()),
        up_(kSeqs, layer.ffn.ffn_dim()),
        out_(kSeqs, layer.hidden()) {}

  Status begin(std::uint64_t id) { return kv_.begin_sequence(id); }

  /// One step; when @p full, also the layer output (out()).
  Status step(ConstViewF x, const std::uint64_t* ids, bool full) {
    const index_t q_dim = layer_.attn.q_dim();
    const index_t kv_dim = layer_.attn.kv_dim();
    rmsnorm_rows(x, layer_.attn_norm.data(), layer_.norm_eps, normed_.view());
    NMSPMM_RETURN_IF_ERROR(
        engine_->spmm(normed_.cview(), layer_.qkv, qkv_.view()));
    for (index_t s = 0; s < kSeqs; ++s) {
      float* row = qkv_.row(s);
      NMSPMM_RETURN_IF_ERROR(
          attn_.append(kv_, ids[s], row + q_dim, row + q_dim + kv_dim));
    }
    if (!full) return Status::Ok();
    for (index_t s = 0; s < kSeqs; ++s) {
      NMSPMM_RETURN_IF_ERROR(
          attn_.attend(kv_, ids[s], qkv_.row(s), attn_o_.row(s)));
    }
    NMSPMM_RETURN_IF_ERROR(
        engine_->spmm(attn_o_.cview(), layer_.out_proj, x1_.view()));
    add_rows(x1_, x);
    rmsnorm_rows(x1_.cview(), layer_.ffn.input_norm.data(),
                 layer_.ffn.norm_eps, normed2_.view());
    NMSPMM_RETURN_IF_ERROR(
        engine_->spmm(normed2_.cview(), layer_.ffn.gate, gate_.view()));
    NMSPMM_RETURN_IF_ERROR(
        engine_->spmm(normed2_.cview(), layer_.ffn.up, up_.view()));
    for (index_t i = 0; i < kSeqs; ++i) {
      for (index_t j = 0; j < gate_.cols(); ++j) {
        gate_(i, j) =
            apply_activation(Activation::kSilu, gate_(i, j)) * up_(i, j);
      }
    }
    NMSPMM_RETURN_IF_ERROR(
        engine_->spmm(gate_.cview(), layer_.ffn.down, out_.view()));
    add_rows(out_, x1_.cview());
    return Status::Ok();
  }
  [[nodiscard]] const MatrixF& out() const { return out_; }

 private:
  const model::DecoderLayer& layer_;
  std::unique_ptr<Engine> engine_;
  attn::DecodeAttention attn_;
  attn::KvCache kv_;
  MatrixF normed_, qkv_, attn_o_, x1_, normed2_, gate_, up_, out_;
};

/// The traced replay: the public calls DecoderPlan::decode composes,
/// each timed. Plans come from the decode engine's cache (plan_for with
/// the same prologue / epilogue options), attention runs on a cache the
/// benchmark owns, and the FFN tail is a ModelPlan over the same block.
class Replay {
 public:
  struct Times {
    Samples qkv, kv_append, attend, attn_out, ffn;
    double attend_ns = 0.0;
    double context_tokens = 0.0;
  };

  Replay(Engine& engine, const model::DecoderLayer& layer,
         const attn::KvCacheOptions& kv)
      : engine_(engine),
        layer_(layer),
        attn_(layer.attn),
        kv_(kv),
        qkv_(kSeqs, layer.attn.qkv_dim()),
        attn_o_(kSeqs, layer.attn.q_dim()),
        x1_(kSeqs, layer.hidden()),
        out_(kSeqs, layer.hidden()) {
    qkv_opt_.prologue.rmsnorm = !layer.attn_norm.empty();
    qkv_opt_.prologue.eps = layer.norm_eps;
    qkv_opt_.epilogue.bias = !layer.qkv_bias.empty();
    proj_opt_.epilogue.bias = !layer.out_bias.empty();
    proj_opt_.epilogue.add = true;
  }

  Status init() {
    auto ffn = engine_.plan_model(kSeqs, {layer_.ffn});
    NMSPMM_RETURN_IF_ERROR(ffn.status());
    ffn_ = *ffn;
    return Status::Ok();
  }
  Status begin(std::uint64_t id) { return kv_.begin_sequence(id); }

  Status step(ConstViewF x, const std::uint64_t* ids, Times& t) {
    const index_t q_dim = layer_.attn.q_dim();
    const index_t kv_dim = layer_.attn.kv_dim();
    auto qkv_plan = engine_.plan_for(kSeqs, layer_.qkv, qkv_opt_);
    NMSPMM_RETURN_IF_ERROR(qkv_plan.status());
    qkv_plan_ = *qkv_plan;
    auto proj_plan = engine_.plan_for(kSeqs, layer_.out_proj, proj_opt_);
    NMSPMM_RETURN_IF_ERROR(proj_plan.status());
    proj_plan_ = *proj_plan;

    EpilogueArgs qkv_args;
    qkv_args.bias = layer_.qkv_bias.empty() ? nullptr : layer_.qkv_bias.data();
    qkv_args.rms_gain =
        layer_.attn_norm.empty() ? nullptr : layer_.attn_norm.data();
    auto t0 = Clock::now();
    NMSPMM_RETURN_IF_ERROR(
        qkv_plan_->execute(x, qkv_.view(), qkv_args));
    auto t1 = Clock::now();
    t.qkv.add(ms_between(t0, t1));

    for (index_t s = 0; s < kSeqs; ++s) {
      float* row = qkv_.row(s);
      NMSPMM_RETURN_IF_ERROR(
          attn_.append(kv_, ids[s], row + q_dim, row + q_dim + kv_dim));
    }
    t0 = Clock::now();
    t.kv_append.add(ms_between(t1, t0));

    for (index_t s = 0; s < kSeqs; ++s) {
      NMSPMM_RETURN_IF_ERROR(
          attn_.attend(kv_, ids[s], qkv_.row(s), attn_o_.row(s)));
    }
    t1 = Clock::now();
    t.attend.add(ms_between(t0, t1));
    t.attend_ns += ms_between(t0, t1) * 1e6;
    for (index_t s = 0; s < kSeqs; ++s) {
      const auto len = kv_.seq_len(ids[s]);
      if (len.ok()) t.context_tokens += static_cast<double>(*len);
    }

    EpilogueArgs proj_args;
    proj_args.bias = layer_.out_bias.empty() ? nullptr : layer_.out_bias.data();
    proj_args.residual = x;
    t0 = Clock::now();
    NMSPMM_RETURN_IF_ERROR(
        proj_plan_->execute(attn_o_.cview(), x1_.view(), proj_args));
    t1 = Clock::now();
    t.attn_out.add(ms_between(t0, t1));

    NMSPMM_RETURN_IF_ERROR(ffn_->run(x1_.cview(), out_.view()));
    t.ffn.add(ms_between(t1, Clock::now()));
    return Status::Ok();
  }
  [[nodiscard]] const MatrixF& out() const { return out_; }
  /// The plans the last step() looked up.
  [[nodiscard]] const SpmmPlan* qkv_plan() const { return qkv_plan_.get(); }
  [[nodiscard]] const SpmmPlan* proj_plan() const { return proj_plan_.get(); }

 private:
  Engine& engine_;
  const model::DecoderLayer& layer_;
  SpmmOptions qkv_opt_;
  SpmmOptions proj_opt_;
  attn::DecodeAttention attn_;
  attn::KvCache kv_;
  std::shared_ptr<const SpmmPlan> qkv_plan_, proj_plan_;
  std::shared_ptr<model::ModelPlan> ffn_;
  MatrixF qkv_, attn_o_, x1_, out_;
};

}  // namespace

int run_decode_long(const Args& args, Result& result) {
  Rng rng(args.seed);
  Hasher hash;
  const model::DecoderLayer layer = make_decoder_layer(rng, hash);
  const index_t hidden = layer.hidden();
  const MatrixF x0 = random_matrix(kSeqs, hidden, rng);
  hash.add(x0);
  result.note("inputs " + hash.hex());

  attn::KvCacheOptions kv;
  kv.n_kv_heads = layer.attn.n_kv_heads;
  kv.head_dim = layer.attn.head_dim;
  kv.page_tokens = kPageTokens;
  // The measured sequences plus the warm-up one; nothing is freed, so
  // the cache only appends.
  kv.max_tokens = (kSeqs + 1) * (kSteps + kPageTokens);

  // Set-up: engine, plan_decoder (plans, packing, KV cache), one warm-up
  // decode. Repeated on fresh engines and stores; the last one serves.
  Samples setup_s;
  double plan_ms = 0.0;
  std::unique_ptr<Engine> engine;
  std::shared_ptr<model::DecoderPlan> plan;
  MatrixF warm_out(1, hidden);
  std::vector<Status> row_status(kSeqs);
  for (int s = 0; s < kSetups; ++s) {
    plan.reset();
    engine.reset();
    const auto t0 = Clock::now();
    engine = make_serial_engine();
    const auto p0 = Clock::now();
    auto built = engine->plan_decoder(kSeqs, layer, kv);
    plan_ms = ms_between(p0, Clock::now());
    if (!built.ok()) {
      result.check_failed("plan_decoder: " + built.status().to_string());
      return 1;
    }
    plan = *built;
    Status st = plan->begin_sequence(kWarmSeq);
    if (st.ok()) {
      st = plan->decode(x0.cview().block(0, 0, 1, hidden), &kWarmSeq,
                        warm_out.view(), row_status.data());
    }
    if (st.ok()) st = row_status[0];
    if (!st.ok()) {
      result.check_failed("warm-up decode: " + st.to_string());
      return 1;
    }
    setup_s.add(ms_between(t0, Clock::now()) / 1e3);
  }
  const Engine::CacheStats cache = engine->cache_stats();

  UnfusedReference reference(layer, kv);
  Replay replay(*engine, layer, kv);
  Replay::Times times;
  if (args.trace) {
    const Status st = replay.init();
    if (!st.ok()) {
      result.check_failed("replay plan_model: " + st.to_string());
      return 1;
    }
  }

  Samples step_ms;
  double first_q_decode = 0.0, first_q_attn = 0.0;
  double last_q_decode = 0.0, last_q_attn = 0.0;
  std::vector<std::uint64_t> ids(kSeqs);
  for (index_t s = 0; s < kSeqs; ++s) {
    ids[s] = 100 + static_cast<std::uint64_t>(s);
    Status st = plan->begin_sequence(ids[s]);
    if (st.ok()) st = reference.begin(ids[s]);
    if (st.ok() && args.trace) st = replay.begin(ids[s]);
    if (!st.ok()) {
      result.check_failed("begin_sequence: " + st.to_string());
      return 1;
    }
  }
  // Row block t holds step t's input, which is step t-1's output: the
  // whole autoregressive stream, kept so the traced replay and the
  // unfused reference run apart from the timed steps instead of
  // evicting the layer's weights from cache between them.
  MatrixF history((kSteps + 1) * kSeqs, hidden);
  history.zero();
  std::copy_n(x0.data(), static_cast<std::size_t>(kSeqs) * hidden,
              history.data());
  const auto step_in = [&](index_t step) {
    return history.cview().block(step * kSeqs, 0, kSeqs, hidden);
  };
  bool replay_exact = true;
  for (index_t chunk = 0; chunk < kSteps; chunk += kReplayChunk) {
    const index_t chunk_end = std::min(chunk + kReplayChunk, kSteps);
    for (index_t step = chunk; step < chunk_end; ++step) {
      const ConstViewF x = step_in(step);
      const ViewF y =
          history.view().block((step + 1) * kSeqs, 0, kSeqs, hidden);
      const auto t0 = Clock::now();
      const Status st = plan->decode(x, ids.data(), y, row_status.data());
      const double ms = ms_between(t0, Clock::now());
      bool rows_ok = true;
      for (const Status& row : row_status) {
        rows_ok = result.op("decode_row", st.ok() ? row : st) && rows_ok;
      }
      step_ms.add(rows_ok ? ms : kMissedMs);
      if (!st.ok()) {
        result.check_failed("decode: " + st.to_string());
        return 1;
      }
      if (step < kSteps / 4) {
        first_q_decode += ms;
      } else if (step >= kSteps - kSteps / 4) {
        last_q_decode += ms;
      }
    }
    // Traced run: the chunk again through the public calls decode()
    // composes, each timed, bit-exact against decode()'s output every
    // step. Replaying chunk by chunk keeps both timings under the same
    // host conditions while disturbing the timed steps' caches only at
    // chunk starts.
    for (index_t step = chunk; args.trace && replay_exact && step < chunk_end;
         ++step) {
      const double before = times.kv_append.sum() + times.attend.sum();
      const Status rs = replay.step(step_in(step), ids.data(), times);
      if (!rs.ok()) {
        result.check_failed("replay: " + rs.to_string());
        return 1;
      }
      const double attn = times.kv_append.sum() + times.attend.sum() - before;
      if (step < kSteps / 4) {
        first_q_attn += attn;
      } else if (step >= kSteps - kSteps / 4) {
        last_q_attn += attn;
      }
      if (!same_bits(replay.out().cview(), step_in(step + 1))) {
        replay_exact = false;
        result.check_failed(
            "decode() differs from the traced replay at step " +
            std::to_string(step));
      }
    }
  }
  // Live KV bytes as the plan reports them: its sequences' lengths, in
  // whole pages.
  double kv_in_use_pages = 0.0;
  ids.push_back(kWarmSeq);
  for (const std::uint64_t id : ids) {
    const auto len = plan->seq_len(id);
    if (len.ok()) {
      kv_in_use_pages +=
          static_cast<double>((*len + kPageTokens - 1) / kPageTokens);
    }
  }
  ids.pop_back();
  for (index_t step = 0; step < kSteps; ++step) {
    const bool full = reference_step(step);
    const Status fs = reference.step(step_in(step), ids.data(), full);
    if (!fs.ok()) {
      result.check_failed("unfused reference: " + fs.to_string());
      return 1;
    }
    if (full && !same_bits(reference.out().cview(), step_in(step + 1))) {
      result.check_failed(
          "decode() differs from the unfused reference at step " +
          std::to_string(step));
      break;
    }
  }
  result.samples("setup_s", setup_s);
  result.samples("latency_ms", step_ms);
  result.note_value("latency_ms_p50", step_ms.p50());

  const double tokens = static_cast<double>(step_ms.size()) * kSeqs;
  const double decode_s = step_ms.sum() / 1e3;
  if (!args.trace) {
    result.metric("setup_s", setup_s.p50(), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("gflops",
                  tokens * layer_flops_per_token(layer) / decode_s / 1e9,
                  "GFLOP/s");
    result.metric("tokens_per_s", tokens / decode_s, "1/s");
    result.metric("latency_ms_p50", step_ms.p50(), "ms");
    result.metric("latency_ms_tail", step_ms.tail(), "ms");
    return 0;
  }

  // Per-layer breakdown, per decode step (means, so the stages and the
  // glue add up to model.decode.ms exactly).
  const struct {
    const char* name;
    const Samples& ms;
    const CompressedNM& w;
    const SpmmPlan* plan;
  } projections[] = {
      {"qkv", times.qkv, *layer.qkv, replay.qkv_plan()},
      {"attn_out", times.attn_out, *layer.out_proj, replay.proj_plan()},
  };
  for (const auto& p : projections) {
    const std::string prefix = std::string("core.") + p.name;
    const double flops = useful_flops(kSeqs, p.w);
    result.metric(prefix + ".ms", p.ms.mean(), "ms");
    result.metric(prefix + ".gflops", flops / (p.ms.mean() * 1e6), "GFLOP/s");
    result.metric(prefix + ".flops", flops, "FLOP");
    result.metric(prefix + ".computed_bytes",
                  computed_bytes(p.plan, p.w, kSeqs), "B");
  }
  result.metric("core.plan_cache.hits", static_cast<double>(cache.hits),
                "count");
  result.metric("core.plan_cache.misses", static_cast<double>(cache.misses),
                "count");

  const model::DecoderPlan::Stats stats = plan->stats();
  const mem::WeightStore::Stats store = engine->weight_store()->stats();
  result.metric("mem.plan_ms", plan_ms, "ms");
  result.metric("mem.weight_mb",
                mb(static_cast<double>(stats.weight_bytes +
                                       stats.ffn.weight_bytes)),
                "MB");
  result.metric("mem.packed_mb", mb(static_cast<double>(store.resident_bytes)),
                "MB");
  result.metric("mem.store.misses", static_cast<double>(store.misses), "count");
  result.metric("mem.store.repacks", static_cast<double>(store.repacks),
                "count");

  result.metric("attn.kv_append.ms", times.kv_append.mean(), "ms");
  result.metric("attn.attend.ms", times.attend.mean(), "ms");
  result.metric("attn.attend.ns_per_ctx_token",
                times.attend_ns / times.context_tokens, "ns");
  result.metric("attn.kv.resident_mb",
                mb(static_cast<double>(stats.kv.resident_bytes)), "MB");
  result.metric("attn.kv.in_use_mb",
                mb(kv_in_use_pages * static_cast<double>(stats.kv.page_bytes)),
                "MB");
  result.metric("attn.kv.pages_allocated",
                static_cast<double>(stats.kv.pages_allocated), "count");
  result.metric("attn.kv.pages_recycled",
                static_cast<double>(stats.kv.pages_recycled), "count");

  const double stages = times.qkv.mean() + times.kv_append.mean() +
                        times.attend.mean() + times.attn_out.mean() +
                        times.ffn.mean();
  result.metric("model.decode.ms", step_ms.mean(), "ms");
  result.metric("model.ffn.ms", times.ffn.mean(), "ms");
  result.metric("model.decode.glue_ms", step_ms.mean() - stages, "ms");
  result.metric("model.decode.attn_share_first_quarter",
                first_q_attn / first_q_decode, "ratio");
  result.metric("model.decode.attn_share_last_quarter",
                last_q_attn / last_q_decode, "ratio");
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "reconcile decode %.4f ms = qkv %.4f + kv_append %.4f + "
                "attend %.4f + attn_out %.4f + ffn %.4f + glue %.4f",
                step_ms.mean(), times.qkv.mean(), times.kv_append.mean(),
                times.attend.mean(), times.attn_out.mean(), times.ffn.mean(),
                step_ms.mean() - stages);
  result.note(buf);
  return 0;
}

}  // namespace perfbench
