// Model layer: one full transformer decoder layer served as a unit.
//
// A decode step of a pre-norm decoder layer is
//
//   a   = rmsnorm(x, attn_norm)
//   qkv = a Wqkv (+ b)                      -- one fused sparse projection
//   o   = attention(q, KV-cache(seq), v)    -- per sequence, GQA + RoPE
//   x1  = o Wo (+ b) + x                    -- residual in the epilogue
//   out = x1 + FFN(rmsnorm(x1, ffn_norm))   -- the PR 6 fused FFN block
//
// DecoderPlan owns that whole pipeline for a batch of sequences: the
// QKV and output projections are engine-cached SpMM plans (the
// attn_norm prologue and the residual-add epilogue ride their fused
// stores, so the residual stream never takes a separate pass), the
// attention core and the paged KV cache come from src/attn/, and the
// FFN tail is a nested ModelPlan whose FfnBlock carries the ffn_norm
// prologue and the second residual. SpMM projections batch across
// sequences exactly like ffn traffic; attention runs per sequence
// between them, bracketed as kv_append / attn spans through obs.
//
// Every stage runs through one StageProfile (model/stage_profile.hpp),
// the runner ModelPlan uses too: stats().stages holds the wall time of
// qkv / kv_append / attend / attn_out, stats().ffn.stages the tail's
// gate / up / down. stats() takes no lock, so a metrics scrape never
// waits behind a decode step.
//
//   auto plan = engine.plan_decoder(max_batch, layer, kv_options);
//   NMSPMM_CHECK_OK((*plan)->begin_sequence(7));
//   (*plan)->decode(x.view(), seq_ids, out.view(), row_status);
//
// decode() reports batch-shape problems as its own Status and
// per-sequence lifecycle problems (unknown id, KV budget exhausted)
// through the row_status array, so one bad sequence never poisons its
// batchmates — the serving layer resolves each request individually.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "attn/attention.hpp"
#include "attn/kv_cache.hpp"
#include "model/ffn.hpp"
#include "model/stage_profile.hpp"
#include "util/check.hpp"
#include "util/matrix.hpp"

namespace nmspmm::model {

/// Weights and geometry of one decoder layer. The attention residual is
/// always fused into the output projection's epilogue; the FFN block
/// must carry its own residual (the standard pre-norm shape) and its
/// input_norm is the post-attention ffn_norm.
struct DecoderLayer {
  attn::AttnConfig attn;
  /// Fused QKV projection, hidden -> attn.qkv_dim() (Q rows first, then
  /// K, then V — the layout DecodeAttention consumes).
  std::shared_ptr<const CompressedNM> qkv;
  /// Output projection, attn.q_dim() -> hidden.
  std::shared_ptr<const CompressedNM> out_proj;
  /// Optional biases: empty, or exactly the projection's output width.
  std::vector<float> qkv_bias;
  std::vector<float> out_bias;
  /// Pre-attention RMSNorm gain: empty, or hidden-wide. Rides the QKV
  /// plan's PrologueSpec, so the residual operand x stays unnormalized.
  std::vector<float> attn_norm;
  /// Variance floor of the attn_norm normalizer.
  float norm_eps = 1e-5f;
  /// The FFN tail. Must validate, consume and produce hidden features,
  /// and have residual = true; set ffn.input_norm to the layer's
  /// ffn_norm gain for the standard pre-norm shape.
  FfnBlock ffn;

  [[nodiscard]] index_t hidden() const {
    return qkv != nullptr ? qkv->orig_rows : 0;
  }

  /// Structural validation (null weights, dimension chain, bias and
  /// norm widths, FFN residual shape).
  [[nodiscard]] Status validate() const;
};

/// An executable decoder-layer plan over a batch of live sequences.
/// Build through Engine::plan_decoder. decode() and the sequence
/// lifecycle serialize on an internal mutex (one KV cache, one scratch
/// set) and stats() takes none; submit concurrent decode traffic through
/// Server::submit_decode instead of sharing one plan across threads.
class DecoderPlan {
 public:
  /// Register / finish a sequence in the plan's KV cache. Typed like
  /// the cache: begin on a live id and free of a dead id are
  /// FAILED_PRECONDITION.
  [[nodiscard]] Status begin_sequence(std::uint64_t seq_id);
  [[nodiscard]] Status free_sequence(std::uint64_t seq_id);
  [[nodiscard]] bool has_sequence(std::uint64_t seq_id) const;
  [[nodiscard]] StatusOr<index_t> seq_len(std::uint64_t seq_id) const;

  /// One decode step for A.rows() sequences: row i of @p A is the next
  /// token's hidden activation for @p seq_ids[i], row i of @p out
  /// receives the layer output. @p row_status (A.rows() entries)
  /// reports each sequence individually: NOT_FOUND for an unknown id,
  /// RESOURCE_EXHAUSTED (retryable) when the KV budget is spent,
  /// Ok otherwise. The returned Status covers the batch: shape errors,
  /// a batch beyond planned_tokens(), or a projection failure. Rows
  /// whose status is not Ok produce unspecified output and append
  /// nothing; their batchmates are unaffected.
  [[nodiscard]] Status decode(ConstViewF A, const std::uint64_t* seq_ids,
                              ViewF out, Status* row_status);

  [[nodiscard]] index_t planned_tokens() const { return planned_tokens_; }
  [[nodiscard]] index_t hidden() const { return hidden_; }
  [[nodiscard]] const attn::AttnConfig& attn_config() const { return config_; }

  /// Resident-memory accounting of the whole layer: the attention
  /// projections (weights + interned packed forms + activation
  /// scratch), the KV cache's paged residency, and the nested FFN
  /// plan's own stats — resident_bytes() is the sum, so a serving
  /// process reports decode state (the cache) next to the weights it
  /// reads.
  struct Stats {
    index_t planned_tokens = 0;
    std::size_t weight_bytes = 0;   ///< qkv + out_proj CompressedNM
    std::size_t packed_bytes = 0;   ///< their interned PackedWeights
    std::size_t scratch_bytes = 0;  ///< qkv / attention / x1 buffers
    attn::KvCache::Stats kv;        ///< paged K/V residency + lifecycle
    ModelPlan::Stats ffn;           ///< the nested FFN tail
    /// Per-stage wall time and call counts of every decode() (qkv /
    /// kv_append / attend / attn_out). The FFN tail reports its gate /
    /// up / down under ffn.stages.
    StageProfile::Snapshot stages;
    [[nodiscard]] std::size_t resident_bytes() const {
      return weight_bytes + packed_bytes + scratch_bytes +
             kv.resident_bytes + ffn.resident_bytes();
    }
  };
  [[nodiscard]] Stats stats() const;

 private:
  friend class nmspmm::Engine;
  DecoderPlan() = default;

  attn::AttnConfig config_;
  index_t hidden_ = 0;
  index_t planned_tokens_ = 0;
  std::shared_ptr<const CompressedNM> qkv_weights_;
  std::shared_ptr<const CompressedNM> proj_weights_;
  std::vector<float> qkv_bias_;
  std::vector<float> out_bias_;
  std::vector<float> attn_norm_;
  std::shared_ptr<const SpmmPlan> qkv_plan_;
  std::shared_ptr<const SpmmPlan> proj_plan_;
  std::shared_ptr<ModelPlan> ffn_plan_;
  std::unique_ptr<attn::DecodeAttention> attn_;
  std::unique_ptr<attn::KvCache> kv_;

  // One scratch set and one KV cache per plan: every entry point
  // (decode and the sequence lifecycle) serializes here, mirroring
  // ModelPlan::run.
  mutable std::mutex run_mutex_;
  MatrixF qkv_buf_;   ///< planned_tokens x qkv_dim
  MatrixF attn_buf_;  ///< planned_tokens x q_dim
  MatrixF x1_buf_;    ///< planned_tokens x hidden (post-attention stream)

  StageProfile profile_;  ///< written under run_mutex_
};

}  // namespace nmspmm::model
