#include "model/ffn.hpp"

#include <algorithm>
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

  // One scratch set per plan: run() is serialized, not reentrant.
  std::lock_guard lock(run_mutex_);

  profile_.begin_run();

  ConstViewF x = A;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const FfnBlock& block = blocks_[b];
    const LayerPlans& plans = plans_[b];
    const index_t ffn = block.ffn_dim();

    // gate = A Wg (+ bg), bias fused into the projection's stores. An
    // input_norm gain rides the plans' RMSNorm prologue: gate and up
    // consume rmsnorm(x) while x itself — the residual operand below —
    // stays unnormalized.
    const float* norm_gain =
        block.input_norm.empty() ? nullptr : block.input_norm.data();
    const ViewF gate = gate_buf_.view().block(0, 0, m, ffn);
    EpilogueArgs gate_args;
    gate_args.bias = block.gate_bias.empty() ? nullptr : block.gate_bias.data();
    gate_args.rms_gain = norm_gain;
    NMSPMM_RETURN_IF_ERROR(profile_.run(Stage::kGate, [&] {
      return plans.gate->execute(x, gate, gate_args);
    }));

    // h = (A Wu + bu) (.) act(gate): the SiLU·up fusion — activation and
    // elementwise product ride the up-projection's final-chunk stores,
    // so the tokens x ffn intermediates never see a separate pass.
    const ViewF h = h_buf_.view().block(0, 0, m, ffn);
    EpilogueArgs up_args;
    up_args.bias = block.up_bias.empty() ? nullptr : block.up_bias.data();
    up_args.other = gate;
    up_args.rms_gain = norm_gain;
    NMSPMM_RETURN_IF_ERROR(profile_.run(
        Stage::kUp, [&] { return plans.up->execute(x, h, up_args); }));

    // out = h Wd (+ bd) (+ x); chains ping-pong the hidden-wide
    // activations. The residual add reads the block's input x in the
    // down-projection's final-chunk stores (x never aliases y: y is
    // either the caller's out or the *other* ping-pong buffer).
    const bool last = b + 1 == blocks_.size();
    const ViewF y = last ? out
                         : hidden_buf_[b % 2].view().block(
                               0, 0, m, block.hidden_out());
    EpilogueArgs down_args;
    down_args.bias = block.down_bias.empty() ? nullptr : block.down_bias.data();
    if (block.residual) {
      if (y.data() == x.data()) {
        return Status::InvalidArgument(
            "residual blocks require out not to alias the block input (the "
            "fused stores write out before reading the residual operand)");
      }
      down_args.residual = x;
    }
    NMSPMM_RETURN_IF_ERROR(profile_.run(
        Stage::kDown, [&] { return plans.down->execute(h, y, down_args); }));
    x = y;
  }
  return Status::Ok();
}

ModelPlan::Stats ModelPlan::stats() const {
  Stats stats;
  stats.planned_tokens = planned_tokens_;
  stats.blocks = blocks_.size();
  stats.residency = residency_;
  if (store_ != nullptr) stats.store = store_->stats();
  // Weights and packed forms can be shared between blocks (tied layers,
  // interned PackedWeights): count each resident object once.
  std::unordered_set<const void*> seen;
  auto add_weights = [&](const std::shared_ptr<const CompressedNM>& w) {
    if (w != nullptr && seen.insert(w.get()).second) {
      stats.weight_bytes += w->footprint_bytes();
    }
  };
  bool first_node = true;
  auto add_packed = [&](const std::shared_ptr<const SpmmPlan>& plan) {
    if (plan == nullptr) return;
    const auto& lease = plan->weight_lease();
    if (lease != nullptr && seen.insert(lease.get()).second) {
      stats.packed_bytes += lease->footprint_bytes();
      const int node = lease->numa_node();
      if (first_node) {
        stats.packed_numa_node = node;
        first_node = false;
      } else if (stats.packed_numa_node != node) {
        stats.packed_numa_node = -1;  // mixed placement
      }
    }
  };
  for (const FfnBlock& block : blocks_) {
    add_weights(block.gate);
    add_weights(block.up);
    add_weights(block.down);
  }
  for (const LayerPlans& plans : plans_) {
    add_packed(plans.gate);
    add_packed(plans.up);
    add_packed(plans.down);
  }
  stats.scratch_bytes = gate_buf_.size_bytes() + h_buf_.size_bytes() +
                        hidden_buf_[0].size_bytes() +
                        hidden_buf_[1].size_bytes();
  stats.stages = profile_.snapshot();
  return stats;
}

}  // namespace model

StatusOr<std::shared_ptr<model::ModelPlan>> Engine::plan_model(
    index_t max_tokens, std::vector<model::FfnBlock> blocks,
    SpmmOptions options) {
  if (max_tokens < 1) {
    return Status::InvalidArgument("max_tokens must be positive");
  }
  if (blocks.empty()) {
    return Status::InvalidArgument("plan_model needs at least one FfnBlock");
  }
  if (options.epilogue.active() || options.prologue.active()) {
    return Status::InvalidArgument(
        "plan_model owns the per-layer epilogues and prologues; pass "
        "options with inactive Epilogue/PrologueSpecs");
  }
  index_t max_ffn = 0;
  index_t max_hidden = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    NMSPMM_RETURN_IF_ERROR(blocks[b].validate());
    if (b > 0 && blocks[b].hidden_in() != blocks[b - 1].hidden_out()) {
      std::ostringstream os;
      os << "block " << b << " consumes " << blocks[b].hidden_in()
         << " features but block " << b - 1 << " produces "
         << blocks[b - 1].hidden_out();
      return Status::InvalidArgument(os.str());
    }
    max_ffn = std::max(max_ffn, blocks[b].ffn_dim());
    max_hidden = std::max(max_hidden, blocks[b].hidden_out());
  }

  auto plan = std::shared_ptr<model::ModelPlan>(new model::ModelPlan());
  plan->planned_tokens_ = max_tokens;
  plan->residency_ = options_.residency;
  plan->store_ = store_;
  plan->plans_.reserve(blocks.size());
  for (const model::FfnBlock& block : blocks) {
    model::ModelPlan::LayerPlans layer;

    SpmmOptions gate_opt = options;
    gate_opt.epilogue = EpilogueSpec{};
    gate_opt.epilogue.bias = !block.gate_bias.empty();
    gate_opt.prologue.rmsnorm = !block.input_norm.empty();
    gate_opt.prologue.eps = block.norm_eps;
    auto gate = plan_for(max_tokens, block.gate, gate_opt);
    NMSPMM_RETURN_IF_ERROR(gate.status());
    layer.gate = *gate;

    // The gating fusion: h = (A Wu + bu) * act(gate) in the
    // up-projection's final-chunk stores.
    SpmmOptions up_opt = options;
    up_opt.epilogue = EpilogueSpec{};
    up_opt.epilogue.act = block.act;
    up_opt.epilogue.bias = !block.up_bias.empty();
    up_opt.epilogue.mul = true;
    up_opt.epilogue.act_on_other = true;
    up_opt.prologue.rmsnorm = !block.input_norm.empty();
    up_opt.prologue.eps = block.norm_eps;
    auto up = plan_for(max_tokens, block.up, up_opt);
    NMSPMM_RETURN_IF_ERROR(up.status());
    layer.up = *up;

    SpmmOptions down_opt = options;
    down_opt.epilogue = EpilogueSpec{};
    down_opt.epilogue.bias = !block.down_bias.empty();
    // Transformer skip connection: out = (h Wd + bd) + x in the
    // down-projection's final-chunk stores.
    down_opt.epilogue.add = block.residual;
    auto down = plan_for(max_tokens, block.down, down_opt);
    NMSPMM_RETURN_IF_ERROR(down.status());
    layer.down = *down;

    plan->plans_.push_back(std::move(layer));
  }

  // All scratch is sized here, once: steady-state run() never touches
  // the heap (the kernels' A staging is thread_local and grow-only).
  try {
    plan->gate_buf_ = MatrixF(max_tokens, max_ffn);
    plan->h_buf_ = MatrixF(max_tokens, max_ffn);
    if (blocks.size() > 1) {
      plan->hidden_buf_[0] = MatrixF(max_tokens, max_hidden);
      plan->hidden_buf_[1] = MatrixF(max_tokens, max_hidden);
    }
  } catch (const std::bad_alloc& e) {
    return Status::ResourceExhausted(e.what());
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  }
  plan->blocks_ = std::move(blocks);
  if (options_.residency == mem::ResidencyMode::kPackedOnly) {
    // The layer plans already hold the values-stripped weights; swap
    // the blocks over to them so the ModelPlan does not keep the
    // callers' full copies alive. Once the caller drops theirs, the
    // packed forms are the only resident weight values.
    for (std::size_t b = 0; b < plan->blocks_.size(); ++b) {
      plan->blocks_[b].gate = plan->plans_[b].gate->shared_weights();
      plan->blocks_[b].up = plan->plans_[b].up->shared_weights();
      plan->blocks_[b].down = plan->plans_[b].down->shared_weights();
    }
  }
  return plan;
}

}  // namespace nmspmm
