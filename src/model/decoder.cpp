#include "model/decoder.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "obs/trace.hpp"

namespace nmspmm {
namespace model {

Status DecoderLayer::validate() const {
  NMSPMM_RETURN_IF_ERROR(attn.validate());
  if (qkv == nullptr || out_proj == nullptr) {
    return Status::InvalidArgument(
        "DecoderLayer requires qkv and out_proj weights");
  }
  if (qkv->cols != attn.qkv_dim()) {
    std::ostringstream os;
    os << "qkv projection produces " << qkv->cols
       << " features but the attention geometry needs " << attn.qkv_dim()
       << " (q_dim + 2 * kv_dim)";
    return Status::InvalidArgument(os.str());
  }
  if (out_proj->orig_rows != attn.q_dim()) {
    std::ostringstream os;
    os << "out_proj consumes " << out_proj->orig_rows
       << " features but attention produces " << attn.q_dim();
    return Status::InvalidArgument(os.str());
  }
  if (out_proj->cols != hidden()) {
    std::ostringstream os;
    os << "out_proj produces " << out_proj->cols
       << " features but the residual stream is " << hidden() << " wide";
    return Status::InvalidArgument(os.str());
  }
  if (!qkv_bias.empty() &&
      qkv_bias.size() != static_cast<std::size_t>(attn.qkv_dim())) {
    std::ostringstream os;
    os << "qkv bias has " << qkv_bias.size() << " entries but the projection is "
       << attn.qkv_dim() << " wide";
    return Status::InvalidArgument(os.str());
  }
  if (!out_bias.empty() &&
      out_bias.size() != static_cast<std::size_t>(hidden())) {
    std::ostringstream os;
    os << "out bias has " << out_bias.size() << " entries but the projection is "
       << hidden() << " wide";
    return Status::InvalidArgument(os.str());
  }
  if (!attn_norm.empty() &&
      attn_norm.size() != static_cast<std::size_t>(hidden())) {
    std::ostringstream os;
    os << "attn_norm gain has " << attn_norm.size()
       << " entries but the layer consumes " << hidden() << " features";
    return Status::InvalidArgument(os.str());
  }
  NMSPMM_RETURN_IF_ERROR(ffn.validate());
  if (ffn.hidden_in() != hidden()) {
    std::ostringstream os;
    os << "FFN tail consumes " << ffn.hidden_in()
       << " features but the residual stream is " << hidden() << " wide";
    return Status::InvalidArgument(os.str());
  }
  if (!ffn.residual) {
    return Status::InvalidArgument(
        "DecoderLayer's FFN tail must carry the second residual (set "
        "ffn.residual = true)");
  }
  return Status::Ok();
}

Status DecoderPlan::begin_sequence(std::uint64_t seq_id) {
  std::lock_guard lock(run_mutex_);
  return kv_->begin_sequence(seq_id);
}

Status DecoderPlan::free_sequence(std::uint64_t seq_id) {
  std::lock_guard lock(run_mutex_);
  return kv_->free_sequence(seq_id);
}

bool DecoderPlan::has_sequence(std::uint64_t seq_id) const {
  std::lock_guard lock(run_mutex_);
  return kv_->has_sequence(seq_id);
}

StatusOr<index_t> DecoderPlan::seq_len(std::uint64_t seq_id) const {
  std::lock_guard lock(run_mutex_);
  return kv_->seq_len(seq_id);
}

Status DecoderPlan::decode(ConstViewF A, const std::uint64_t* seq_ids,
                           ViewF out, Status* row_status) {
  if (seq_ids == nullptr || row_status == nullptr) {
    return Status::InvalidArgument(
        "decode requires the seq_ids and row_status arrays");
  }
  if (A.rows() < 1) {
    return Status::InvalidArgument("decode batch is empty");
  }
  if (A.cols() != hidden_) {
    std::ostringstream os;
    os << "A depth " << A.cols() << " != layer hidden " << hidden_;
    return Status::InvalidArgument(os.str());
  }
  if (out.rows() != A.rows() || out.cols() != hidden_) {
    std::ostringstream os;
    os << "out is " << out.rows() << "x" << out.cols() << " but must be "
       << A.rows() << "x" << hidden_;
    return Status::InvalidArgument(os.str());
  }
  const index_t m = A.rows();
  if (m > planned_tokens_) {
    std::ostringstream os;
    os << "batch of " << m << " sequences exceeds the planned "
       << planned_tokens_
       << "; build the DecoderPlan with a larger max_batch";
    return Status::FailedPrecondition(os.str());
  }

  std::lock_guard lock(run_mutex_);

  profile_.begin_run();

  for (index_t i = 0; i < m; ++i) row_status[i] = Status::Ok();

  const index_t q_dim = config_.q_dim();
  const index_t kv_dim = config_.kv_dim();

  // 1. Fused QKV projection over the whole batch; the attn_norm RMSNorm
  // rides the plan's prologue so A itself — the residual operand of
  // stage 3 — stays unnormalized.
  const ViewF qkv = qkv_buf_.view().block(0, 0, m, config_.qkv_dim());
  EpilogueArgs qkv_args;
  qkv_args.bias = qkv_bias_.empty() ? nullptr : qkv_bias_.data();
  qkv_args.rms_gain = attn_norm_.empty() ? nullptr : attn_norm_.data();
  NMSPMM_RETURN_IF_ERROR(profile_.run(
      Stage::kQkv, [&] { return qkv_plan_->execute(A, qkv, qkv_args); }));

  // 2. Per-sequence attention between the batched projections: one KV
  // append stage, one attention stage, each also traced through obs
  // with the stage's own wall time. Row failures (unknown sequence, KV
  // budget) land in row_status and zero the row's attention output;
  // batchmates proceed.
  const ViewF attn_out = attn_buf_.view().block(0, 0, m, q_dim);
  std::uint32_t appended = 0;
  std::uint64_t append_ns = 0;
  NMSPMM_RETURN_IF_ERROR(profile_.run(
      Stage::kKvAppend,
      [&] {
        for (index_t i = 0; i < m; ++i) {
          float* row = qkv.row(i);
          row_status[i] = attn_->append(*kv_, seq_ids[i], row + q_dim,
                                        row + q_dim + kv_dim);
          if (row_status[i].ok()) ++appended;
        }
        return Status::Ok();
      },
      &append_ns));
  obs::count_kv_append_event(
      appended,
      static_cast<std::uint64_t>(appended) * 2 * kv_dim * sizeof(float),
      append_ns / 1000);

  std::uint32_t attended = 0;
  std::uint64_t context_tokens = 0;
  std::uint64_t attend_ns = 0;
  NMSPMM_RETURN_IF_ERROR(profile_.run(
      Stage::kAttend,
      [&] {
        for (index_t i = 0; i < m; ++i) {
          float* o = attn_out.row(i);
          if (!row_status[i].ok()) {
            std::fill_n(o, q_dim, 0.0f);
            continue;
          }
          row_status[i] = attn_->attend(*kv_, seq_ids[i], qkv.row(i), o);
          if (row_status[i].ok()) {
            ++attended;
            const auto len = kv_->seq_len(seq_ids[i]);
            if (len.ok()) context_tokens += static_cast<std::uint64_t>(*len);
          } else {
            std::fill_n(o, q_dim, 0.0f);
          }
        }
        return Status::Ok();
      },
      &attend_ns));
  obs::count_attn_event(attended, context_tokens, attend_ns / 1000);

  // 3. Output projection with the attention residual fused into its
  // final-chunk stores: x1 = attn_out Wo (+ b) + A.
  const ViewF x1 = x1_buf_.view().block(0, 0, m, hidden_);
  EpilogueArgs proj_args;
  proj_args.bias = out_bias_.empty() ? nullptr : out_bias_.data();
  proj_args.residual = A;
  NMSPMM_RETURN_IF_ERROR(profile_.run(Stage::kAttnOut, [&] {
    return proj_plan_->execute(attn_out, x1, proj_args);
  }));

  // 4. The FFN tail: out = x1 + FFN(rmsnorm(x1, ffn_norm)) — the nested
  // plan's FfnBlock carries the prologue and the second residual.
  return ffn_plan_->run(x1, out);
}

DecoderPlan::Stats DecoderPlan::stats() const {
  Stats stats;
  stats.planned_tokens = planned_tokens_;
  // qkv and out_proj could in principle share objects (tied weights):
  // count each resident object once, like ModelPlan::stats.
  std::unordered_set<const void*> seen;
  for (const auto& w : {qkv_weights_, proj_weights_}) {
    if (w != nullptr && seen.insert(w.get()).second) {
      stats.weight_bytes += w->footprint_bytes();
    }
  }
  for (const auto& plan : {qkv_plan_, proj_plan_}) {
    if (plan == nullptr) continue;
    const auto& lease = plan->weight_lease();
    if (lease != nullptr && seen.insert(lease.get()).second) {
      stats.packed_bytes += lease->footprint_bytes();
    }
  }
  stats.scratch_bytes =
      qkv_buf_.size_bytes() + attn_buf_.size_bytes() + x1_buf_.size_bytes();
  stats.kv = kv_->stats();
  stats.ffn = ffn_plan_->stats();
  stats.stages = profile_.snapshot();
  return stats;
}

}  // namespace model

StatusOr<std::shared_ptr<model::DecoderPlan>> Engine::plan_decoder(
    index_t max_batch, model::DecoderLayer layer,
    attn::KvCacheOptions kv_options, SpmmOptions options) {
  if (max_batch < 1) {
    return Status::InvalidArgument("max_batch must be positive");
  }
  NMSPMM_RETURN_IF_ERROR(layer.validate());
  if (options.epilogue.active() || options.prologue.active()) {
    return Status::InvalidArgument(
        "plan_decoder owns the per-stage epilogues and prologues; pass "
        "options with inactive Epilogue/PrologueSpecs");
  }
  // The cache geometry is the layer's; callers pick only the paging and
  // the token budget.
  kv_options.n_kv_heads = layer.attn.n_kv_heads;
  kv_options.head_dim = layer.attn.head_dim;
  NMSPMM_RETURN_IF_ERROR(kv_options.validate());

  auto plan = std::shared_ptr<model::DecoderPlan>(new model::DecoderPlan());
  plan->config_ = layer.attn;
  plan->hidden_ = layer.hidden();
  plan->planned_tokens_ = max_batch;

  SpmmOptions qkv_opt = options;
  qkv_opt.epilogue = EpilogueSpec{};
  qkv_opt.epilogue.bias = !layer.qkv_bias.empty();
  qkv_opt.prologue.rmsnorm = !layer.attn_norm.empty();
  qkv_opt.prologue.eps = layer.norm_eps;
  auto qkv = plan_for(max_batch, layer.qkv, qkv_opt);
  NMSPMM_RETURN_IF_ERROR(qkv.status());
  plan->qkv_plan_ = *qkv;

  // The attention residual: x1 = (attn_out Wo + b) + x in the output
  // projection's final-chunk stores.
  SpmmOptions proj_opt = options;
  proj_opt.epilogue = EpilogueSpec{};
  proj_opt.epilogue.bias = !layer.out_bias.empty();
  proj_opt.epilogue.add = true;
  auto proj = plan_for(max_batch, layer.out_proj, proj_opt);
  NMSPMM_RETURN_IF_ERROR(proj.status());
  plan->proj_plan_ = *proj;

  auto ffn = plan_model(max_batch, {std::move(layer.ffn)}, options);
  NMSPMM_RETURN_IF_ERROR(ffn.status());
  plan->ffn_plan_ = *ffn;

  // Both validated above, so neither constructor can throw CheckError.
  plan->attn_ = std::make_unique<attn::DecodeAttention>(layer.attn);
  plan->kv_ = std::make_unique<attn::KvCache>(kv_options);
  plan->qkv_bias_ = std::move(layer.qkv_bias);
  plan->out_bias_ = std::move(layer.out_bias);
  plan->attn_norm_ = std::move(layer.attn_norm);

  // All activation scratch is sized here, once: steady-state decode()
  // never touches the heap (KV pages recycle through the cache's free
  // list once the working set has been paged in).
  try {
    plan->qkv_buf_ = MatrixF(max_batch, layer.attn.qkv_dim());
    plan->attn_buf_ = MatrixF(max_batch, layer.attn.q_dim());
    plan->x1_buf_ = MatrixF(max_batch, plan->hidden_);
  } catch (const std::bad_alloc& e) {
    return Status::ResourceExhausted(e.what());
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  }

  if (options_.residency == mem::ResidencyMode::kPackedOnly) {
    // Hold the values-stripped forms so the packed tiles are the only
    // resident weight values once the caller drops their copies.
    plan->qkv_weights_ = plan->qkv_plan_->shared_weights();
    plan->proj_weights_ = plan->proj_plan_->shared_weights();
  } else {
    plan->qkv_weights_ = std::move(layer.qkv);
    plan->proj_weights_ = std::move(layer.out_proj);
  }
  return plan;
}

}  // namespace nmspmm
