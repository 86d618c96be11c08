// Model layer: one FFN block's three sparse projections planned and run
// as one unit.
//
// The paper motivates N:M SpMM with LLM inference, where a sparse
// projection never runs alone — it sits inside a SwiGLU/GELU FFN block:
//
//   gate = act_in(A Wg + bg);  up = A Wu + bu;  h = act(gate) (.) up;
//   out  = h Wd + bd
//
// Driving that with three engine.spmm calls plus a scalar activation
// loop (what examples/llama_ffn.cpp used to do) pays two avoidable full
// passes over the ffn-wide intermediates and re-allocates them per
// step. model::ModelPlan owns the whole block instead:
//
//   - its three plans come from the engine's plan cache, so the block
//     shares the interned PackedWeights of its weight matrices and the
//     engine's worker pool;
//   - the SiLU(gate) (.) up fusion runs in the up-projection's epilogue
//     (core/epilogue.hpp): the activation and the elementwise product
//     are applied in the final k-chunk's stores, never as a separate
//     pass over the tokens x ffn intermediate;
//   - the gate and h scratch is sized once at plan time, so
//     steady-state run() calls perform zero heap allocation;
//   - each projection runs as a gate / up / down stage of a
//     StageProfile (model/stage_profile.hpp), so stats().stages says
//     where the time went, in wall time, without a lock.
//
//   nmspmm::Engine engine;
//   auto plan = engine.plan_model(max_tokens, block);     // StatusOr
//   NMSPMM_CHECK_OK((*plan)->run(A.view(), out.view()));  // any m <= max
//
// A stack of layers is one plan per block (DecoderPlan nests one for
// its FFN tail). Batched serving traffic submits whole FFN requests
// through Server::submit_ffn, which coalesces concurrent token rows into
// one pass over all three weight matrices.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "core/engine.hpp"
#include "core/epilogue.hpp"
#include "core/spmm.hpp"
#include "model/stage_profile.hpp"
#include "util/check.hpp"
#include "util/matrix.hpp"

namespace nmspmm::model {

/// Weights (and optional biases) of one gated FFN block. The three
/// projections share the block's activation recipe:
///   out = (act(A gate + gate_bias) (.) (A up + up_bias)) down + down_bias
struct FfnBlock {
  std::shared_ptr<const CompressedNM> gate;  ///< hidden -> ffn
  std::shared_ptr<const CompressedNM> up;    ///< hidden -> ffn
  std::shared_ptr<const CompressedNM> down;  ///< ffn -> hidden
  /// Optional per-projection biases: empty, or exactly the projection's
  /// output width (ffn, ffn, hidden respectively).
  std::vector<float> gate_bias;
  std::vector<float> up_bias;
  std::vector<float> down_bias;
  /// Gating activation (SwiGLU uses SiLU; GEGLU uses GELU).
  Activation act = Activation::kSilu;
  /// Optional pre-norm: empty, or a hidden_in-wide RMSNorm gain. When
  /// set, the gate and up projections consume rmsnorm(x) through their
  /// plans' PrologueSpec (each normalizes its thread-local staging copy
  /// — at decode batch sizes the duplicate O(m*hidden) pass is noise)
  /// while the residual connection still adds the *unnormalized* x, the
  /// pre-norm transformer shape. The caller never materializes a
  /// normalized activation buffer.
  std::vector<float> input_norm;
  /// Variance floor of the input_norm normalizer.
  float norm_eps = 1e-5f;
  /// Fuse the transformer residual connection into the down-projection:
  /// out = (h Wd + bd) + x, where x is the block's input. Rides the
  /// epilogue's residual-add in the final k-chunk's stores instead of a
  /// separate pass over the tokens x hidden output. Requires
  /// hidden_in() == hidden_out().
  bool residual = false;

  [[nodiscard]] index_t hidden_in() const {
    return gate != nullptr ? gate->orig_rows : 0;
  }
  [[nodiscard]] index_t hidden_out() const {
    return down != nullptr ? down->cols : 0;
  }
  [[nodiscard]] index_t ffn_dim() const {
    return gate != nullptr ? gate->cols : 0;
  }

  /// Structural validation (null weights, dimension chain, bias widths).
  [[nodiscard]] Status validate() const;
};

/// An executable plan over one FFN block: its three projection plans out
/// of the engine's plan cache (PackedWeights shared through the
/// interning registry), epilogue-fused activation, and plan-time-sized
/// scratch. Build through Engine::plan_model. run() serializes on an
/// internal mutex (one scratch set); submit concurrent traffic through
/// Server::submit_ffn instead of sharing one plan across threads.
class ModelPlan {
 public:
  /// out = FFN(A). A must be m x hidden_in with m <= planned_tokens();
  /// out must be m x hidden_out and, for a residual block, must not
  /// alias A. Zero heap allocation in steady state; FailedPrecondition
  /// when the batch exceeds the planned token budget.
  [[nodiscard]] Status run(ConstViewF A, ViewF out);

  [[nodiscard]] index_t planned_tokens() const { return planned_tokens_; }
  [[nodiscard]] index_t hidden_in() const { return block_.hidden_in(); }
  [[nodiscard]] index_t hidden_out() const { return block_.hidden_out(); }

  /// Resident-memory accounting of the block: compressed weights (under
  /// kPackedOnly only their index matrices — the B' values are released
  /// after packing), their plan-time pre-packed forms
  /// (PackedWeights::footprint_bytes, deduplicated — tied weights and
  /// interned forms shared between projections count once), the
  /// activation scratch, plus the residency mode, NUMA placement, and
  /// the backing WeightStore's hit/miss/evict/repack counters.
  struct Stats {
    index_t planned_tokens = 0;
    std::size_t weight_bytes = 0;   ///< CompressedNM values + indices
    std::size_t packed_bytes = 0;   ///< interned PackedWeights forms
    std::size_t scratch_bytes = 0;  ///< gate and h activation buffers
    /// Residency mode every projection plan was built under.
    mem::ResidencyMode residency = mem::ResidencyMode::kDefault;
    /// NUMA node of the packed value tiles when they all agree; -1 for
    /// mixed placement, single-node hosts, or unknown.
    int packed_numa_node = -1;
    /// Counters of the WeightStore owning the packed forms.
    mem::WeightStore::Stats store;
    /// Per-stage wall time and call counts of every run() (gate / up /
    /// down; see model/stage_profile.hpp).
    StageProfile::Snapshot stages;
    [[nodiscard]] std::size_t resident_bytes() const {
      return weight_bytes + packed_bytes + scratch_bytes;
    }
  };
  [[nodiscard]] Stats stats() const;

 private:
  friend class nmspmm::Engine;
  ModelPlan() = default;

  FfnBlock block_;
  std::shared_ptr<const SpmmPlan> gate_plan_;
  std::shared_ptr<const SpmmPlan> up_plan_;
  std::shared_ptr<const SpmmPlan> down_plan_;
  index_t planned_tokens_ = 0;
  mem::ResidencyMode residency_ = mem::ResidencyMode::kDefault;
  std::shared_ptr<mem::WeightStore> store_;  ///< owns the packed forms

  // The gate output and the fused h = act(gate)(.)up live in separate
  // ffn-wide buffers: the epilogue reads gate after h's stores, so they
  // cannot alias.
  std::mutex run_mutex_;
  MatrixF gate_buf_;  ///< planned_tokens x ffn
  MatrixF h_buf_;     ///< planned_tokens x ffn

  StageProfile profile_;  ///< written under run_mutex_
};

}  // namespace nmspmm::model
