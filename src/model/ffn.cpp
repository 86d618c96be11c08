#include "model/ffn.hpp"

#include <sstream>
#include <unordered_set>
#include <utility>

namespace nmspmm {
namespace model {

namespace {

Status bias_width_error(const char* which, std::size_t got, index_t want) {
  std::ostringstream os;
  os << which << " bias has " << got << " entries but the projection is "
     << want << " wide";
  return Status::InvalidArgument(os.str());
}

}  // namespace

Status FfnBlock::validate() const {
  if (gate == nullptr || up == nullptr || down == nullptr) {
    return Status::InvalidArgument(
        "FfnBlock requires gate, up, and down weights");
  }
  if (up->orig_rows != gate->orig_rows || up->cols != gate->cols) {
    std::ostringstream os;
    os << "gate is " << gate->orig_rows << "->" << gate->cols << " but up is "
       << up->orig_rows << "->" << up->cols
       << "; the two gating projections must agree";
    return Status::InvalidArgument(os.str());
  }
  if (down->orig_rows != gate->cols) {
    std::ostringstream os;
    os << "down projection consumes " << down->orig_rows
       << " features but the gated intermediate is " << gate->cols << " wide";
    return Status::InvalidArgument(os.str());
  }
  if (!gate_bias.empty() &&
      gate_bias.size() != static_cast<std::size_t>(ffn_dim())) {
    return bias_width_error("gate", gate_bias.size(), ffn_dim());
  }
  if (!up_bias.empty() &&
      up_bias.size() != static_cast<std::size_t>(ffn_dim())) {
    return bias_width_error("up", up_bias.size(), ffn_dim());
  }
  if (!down_bias.empty() &&
      down_bias.size() != static_cast<std::size_t>(hidden_out())) {
    return bias_width_error("down", down_bias.size(), hidden_out());
  }
  if (!input_norm.empty() &&
      input_norm.size() != static_cast<std::size_t>(hidden_in())) {
    std::ostringstream os;
    os << "input_norm gain has " << input_norm.size()
       << " entries but the block consumes " << hidden_in() << " features";
    return Status::InvalidArgument(os.str());
  }
  if (residual && hidden_in() != hidden_out()) {
    std::ostringstream os;
    os << "residual connection requires hidden_in == hidden_out, got "
       << hidden_in() << " -> " << hidden_out();
    return Status::InvalidArgument(os.str());
  }
  return Status::Ok();
}

Status ModelPlan::run(ConstViewF A, ViewF out) {
  if (A.rows() < 1) {
    return Status::InvalidArgument("activation batch is empty");
  }
  if (A.cols() != hidden_in()) {
    std::ostringstream os;
    os << "A depth " << A.cols() << " != model hidden " << hidden_in();
    return Status::InvalidArgument(os.str());
  }
  if (out.rows() != A.rows() || out.cols() != hidden_out()) {
    std::ostringstream os;
    os << "out is " << out.rows() << "x" << out.cols() << " but must be "
       << A.rows() << "x" << hidden_out();
    return Status::InvalidArgument(os.str());
  }
  const index_t m = A.rows();
  if (m > planned_tokens_) {
    std::ostringstream os;
    os << "batch of " << m << " tokens exceeds the planned "
       << planned_tokens_
       << "; build the ModelPlan with a larger max_tokens";
    return Status::FailedPrecondition(os.str());
  }

  // The fused residual stores write out before reading the residual
  // operand A, so the two must not share storage.
  if (block_.residual && out.data() == A.data()) {
    return Status::InvalidArgument(
        "residual blocks require out not to alias the block input (the "
        "fused stores write out before reading the residual operand)");
  }

  // One scratch set per plan: run() is serialized, not reentrant.
  std::lock_guard lock(run_mutex_);

  profile_.begin_run();
  const index_t ffn = block_.ffn_dim();

  // gate = A Wg (+ bg), bias fused into the projection's stores. An
  // input_norm gain rides the plans' RMSNorm prologue: gate and up
  // consume rmsnorm(A) while A itself — the residual operand below —
  // stays unnormalized.
  const float* norm_gain =
      block_.input_norm.empty() ? nullptr : block_.input_norm.data();
  const ViewF gate = gate_buf_.view().block(0, 0, m, ffn);
  EpilogueArgs gate_args;
  gate_args.bias = block_.gate_bias.empty() ? nullptr : block_.gate_bias.data();
  gate_args.rms_gain = norm_gain;
  NMSPMM_RETURN_IF_ERROR(profile_.run(
      Stage::kGate, [&] { return gate_plan_->execute(A, gate, gate_args); }));

  // h = (A Wu + bu) (.) act(gate): the SiLU·up fusion — activation and
  // elementwise product ride the up-projection's final-chunk stores,
  // so the tokens x ffn intermediates never see a separate pass.
  const ViewF h = h_buf_.view().block(0, 0, m, ffn);
  EpilogueArgs up_args;
  up_args.bias = block_.up_bias.empty() ? nullptr : block_.up_bias.data();
  up_args.other = gate;
  up_args.rms_gain = norm_gain;
  NMSPMM_RETURN_IF_ERROR(profile_.run(
      Stage::kUp, [&] { return up_plan_->execute(A, h, up_args); }));

  // out = h Wd (+ bd) (+ A): the residual add reads the block's input in
  // the down-projection's final-chunk stores.
  EpilogueArgs down_args;
  down_args.bias =
      block_.down_bias.empty() ? nullptr : block_.down_bias.data();
  if (block_.residual) down_args.residual = A;
  return profile_.run(Stage::kDown, [&] {
    return down_plan_->execute(h, out, down_args);
  });
}

ModelPlan::Stats ModelPlan::stats() const {
  Stats stats;
  stats.planned_tokens = planned_tokens_;
  stats.residency = residency_;
  if (store_ != nullptr) stats.store = store_->stats();
  // Weights and packed forms can be shared between the projections (tied
  // gate and up, interned PackedWeights): count each resident object
  // once.
  std::unordered_set<const void*> seen;
  for (const CompressedNM* w :
       {block_.gate.get(), block_.up.get(), block_.down.get()}) {
    if (seen.insert(w).second) stats.weight_bytes += w->footprint_bytes();
  }
  bool first_node = true;
  for (const SpmmPlan* plan :
       {gate_plan_.get(), up_plan_.get(), down_plan_.get()}) {
    const auto& lease = plan->weight_lease();
    if (!seen.insert(lease.get()).second) continue;
    stats.packed_bytes += lease->footprint_bytes();
    const int node = lease->numa_node();
    if (first_node) {
      stats.packed_numa_node = node;
      first_node = false;
    } else if (stats.packed_numa_node != node) {
      stats.packed_numa_node = -1;  // mixed placement
    }
  }
  stats.scratch_bytes = gate_buf_.size_bytes() + h_buf_.size_bytes();
  stats.stages = profile_.snapshot();
  return stats;
}

}  // namespace model

StatusOr<std::shared_ptr<model::ModelPlan>> Engine::plan_model(
    index_t max_tokens, model::FfnBlock block) {
  if (max_tokens < 1) {
    return Status::InvalidArgument("max_tokens must be positive");
  }
  NMSPMM_RETURN_IF_ERROR(block.validate());

  auto plan = std::shared_ptr<model::ModelPlan>(new model::ModelPlan());
  plan->planned_tokens_ = max_tokens;
  plan->residency_ = options_.residency;
  plan->store_ = store_;

  SpmmOptions gate_opt;
  gate_opt.epilogue.bias = !block.gate_bias.empty();
  gate_opt.prologue.rmsnorm = !block.input_norm.empty();
  gate_opt.prologue.eps = block.norm_eps;
  auto gate = plan_for(max_tokens, block.gate, gate_opt);
  NMSPMM_RETURN_IF_ERROR(gate.status());
  plan->gate_plan_ = *gate;

  // The gating fusion: h = (A Wu + bu) * act(gate) in the
  // up-projection's final-chunk stores.
  SpmmOptions up_opt;
  up_opt.epilogue.act = block.act;
  up_opt.epilogue.bias = !block.up_bias.empty();
  up_opt.epilogue.mul = true;
  up_opt.epilogue.act_on_other = true;
  up_opt.prologue.rmsnorm = !block.input_norm.empty();
  up_opt.prologue.eps = block.norm_eps;
  auto up = plan_for(max_tokens, block.up, up_opt);
  NMSPMM_RETURN_IF_ERROR(up.status());
  plan->up_plan_ = *up;

  SpmmOptions down_opt;
  down_opt.epilogue.bias = !block.down_bias.empty();
  // Transformer skip connection: out = (h Wd + bd) + x in the
  // down-projection's final-chunk stores.
  down_opt.epilogue.add = block.residual;
  auto down = plan_for(max_tokens, block.down, down_opt);
  NMSPMM_RETURN_IF_ERROR(down.status());
  plan->down_plan_ = *down;

  // All scratch is sized here, once: steady-state run() never touches
  // the heap (the kernels' A staging is thread_local and grow-only).
  try {
    plan->gate_buf_ = MatrixF(max_tokens, block.ffn_dim());
    plan->h_buf_ = MatrixF(max_tokens, block.ffn_dim());
  } catch (const std::bad_alloc& e) {
    return Status::ResourceExhausted(e.what());
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  }
  if (options_.residency == mem::ResidencyMode::kPackedOnly) {
    // The projection plans already hold the values-stripped weights;
    // keep those so the ModelPlan does not keep the caller's full copies
    // alive. Once the caller drops theirs, the packed forms are the only
    // resident weight values.
    block.gate = plan->gate_plan_->shared_weights();
    block.up = plan->up_plan_->shared_weights();
    block.down = plan->down_plan_->shared_weights();
  }
  plan->block_ = std::move(block);
  return plan;
}

}  // namespace nmspmm
