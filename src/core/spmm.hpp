// NM-SpMM plan layer: offline pre-processing bound to one weight matrix.
//
// SpmmPlan mirrors the workflow of the released library: build a plan
// once per weight matrix (offline pre-processing: parameter selection,
// col_info, index reordering), then execute it per activation batch.
// Most callers should not manage plans by hand — `nmspmm::Engine`
// (core/engine.hpp) caches plans across batch shapes and owns the worker
// pool; the typical serving loop is:
//
//   auto Bc = std::make_shared<const nmspmm::CompressedNM>(
//       nmspmm::compress(B.view(), nmspmm::magnitude_mask(B.view(), cfg)));
//   nmspmm::Engine engine;                       // shared pool + plan cache
//   auto status = engine.spmm(A.view(), Bc, C.view());
//   if (!status.ok()) { /* recover: status.message() says what's wrong */ }
//
// Direct plan management remains available for ablations and benches:
//
//   auto plan = nmspmm::SpmmPlan::create(m, std::move(Bc));
//   NMSPMM_CHECK_OK(plan.execute(A.view(), C.view()));
//
// execute() returns a Status instead of throwing: a batch larger than the
// planned m, or mismatched operand shapes, come back as recoverable
// errors a server can reject per-request. Every plan runs one of the
// V1/V2/V3 kernels over its pre-packed weights; the unpacked oracle is
// spmm_reference (core/spmm_ref.hpp) plus apply_epilogue, called
// directly.
#pragma once

#include <memory>
#include <optional>

#include "core/col_info.hpp"
#include "core/epilogue.hpp"
#include "core/kernel_params.hpp"
#include "core/nm_format.hpp"
#include "core/packed_weights.hpp"
#include "core/spmm_kernels.hpp"
#include "mem/weight_store.hpp"
#include "util/thread_pool.hpp"

namespace nmspmm {

/// Packing strategy selection (Section III-C1).
///  - kAuto: platform-calibrated sparsity-aware choice. On CPU the cache
///    hierarchy already skips unused lines, so explicit packing never
///    recovers its gather cost and kAuto selects the non-packed path
///    (bench_ablation, ablation 1).
///  - kPaperRule: the paper's GPU rule — pack above the 70% threshold.
///  - kAlways / kNever: force a path (ablations, testing).
enum class PackingMode { kAuto, kPaperRule, kAlways, kNever };

struct SpmmOptions {
  /// kV3 is the full NM-SpMM; kV1/kV2 exist for the step-wise ablation.
  KernelVariant variant = KernelVariant::kV3;
  PackingMode packing = PackingMode::kAuto;
  /// Override the Table I preset (ks of 0 is derived from Eq. 4).
  std::optional<BlockingParams> params;
  /// Worker threads for execute(): 0 = hardware concurrency (the shared
  /// global pool), 1 = strictly serial (bit-exact reference ordering —
  /// though parallel runs are bit-exact too, see spmm_kernels.hpp).
  /// Plans built by an Engine run on the engine's pool instead.
  unsigned num_threads = 0;
  /// Post-ops fused into the final k-chunk's stores (bias, SiLU/GELU,
  /// elementwise mul, residual add — see core/epilogue.hpp). Structural
  /// only: the operands are bound per call via execute(A, C,
  /// EpilogueArgs).
  EpilogueSpec epilogue;
  /// Pre-op applied to the A operand before the kernels read it
  /// (RMSNorm — see core/epilogue.hpp). Structural only: the per-feature
  /// gain is bound per call via EpilogueArgs::rms_gain. The normalized
  /// rows land in thread-local staging, so the caller's A (the residual
  /// stream) is never rewritten.
  PrologueSpec prologue;
  /// Weight residency of the plan (mem/weight_store.hpp). kPackedOnly
  /// releases the original B' value buffer after pre-packing, serving
  /// from the packed form alone (~1x packed footprint); spmm_reference
  /// and other values-consuming paths are then rejected.
  /// Engines overwrite this from EngineOptions::residency, exactly like
  /// num_threads.
  mem::ResidencyMode residency = mem::ResidencyMode::kDefault;

  friend bool operator==(const SpmmOptions&, const SpmmOptions&) = default;
};

/// Hash consistent with SpmmOptions equality; the Engine's plan-cache key
/// and the serving layer's batch key both fold it into their own hashes.
std::size_t hash_value(const SpmmOptions& options);

class SpmmPlan {
 public:
  /// Build a plan for products with up to m rows of activations against
  /// the compressed weights @p B. Performs all offline pre-processing the
  /// selected variant needs. Throws CheckError on invalid configuration
  /// (Engine::plan_for wraps this into a StatusOr).
  static SpmmPlan create(index_t m, CompressedNM B, SpmmOptions options = {});
  /// Convenience overload sharing an existing compressed matrix. A
  /// non-null @p pool overrides options.num_threads (the Engine injects
  /// its shared pool this way). @p store owns the packed-weight
  /// residency (interning, budget, NUMA placement); null uses the
  /// process-global unbudgeted store.
  static SpmmPlan create(index_t m, std::shared_ptr<const CompressedNM> B,
                         SpmmOptions options = {},
                         std::shared_ptr<ThreadPool> pool = nullptr,
                         std::shared_ptr<mem::WeightStore> store = nullptr);

  /// C = A (*) (B, D). A must be m' x k with m' <= planned_m() (the
  /// blocking stays valid for smaller batches); C must be m' x n.
  /// Returns InvalidArgument on shape mismatches and FailedPrecondition
  /// when the batch exceeds the planned m — use an Engine to serve
  /// arbitrary batch sizes. When the plan's options carry an active
  /// EpilogueSpec, the epilogue operands must be supplied through the
  /// three-argument overload.
  [[nodiscard]] Status execute(ConstViewF A, ViewF C) const;
  /// As above, binding @p epilogue_args to the plan's EpilogueSpec: the
  /// final k-chunk's stores apply C = act(acc + bias) (*) other (see
  /// core/epilogue.hpp) with no separate pass over C. @p epilogue_args
  /// must satisfy validate_epilogue for this plan's spec and C's shape;
  /// EpilogueArgs::other must not alias C.
  [[nodiscard]] Status execute(ConstViewF A, ViewF C,
                               const EpilogueArgs& epilogue_args) const;

  [[nodiscard]] index_t planned_m() const { return planned_m_; }
  [[nodiscard]] const BlockingParams& params() const { return params_; }
  [[nodiscard]] KernelVariant variant() const { return options_.variant; }
  [[nodiscard]] bool uses_packing() const { return use_packing_; }
  [[nodiscard]] mem::ResidencyMode residency() const {
    return options_.residency;
  }
  /// The weights the plan validates against. Under kPackedOnly this is
  /// the values-stripped form (shape + config + index matrix only); the
  /// value bytes live solely in the packed form.
  [[nodiscard]] const CompressedNM& weights() const { return *weights_; }
  [[nodiscard]] const std::shared_ptr<const CompressedNM>& shared_weights()
      const {
    return weights_;
  }
  /// The permanently resident pre-packed weights (null for plans whose
  /// store lease is evictable — those pin per execute instead; see
  /// weight_lease()). Pre-packed forms are interned: plans for different
  /// batch-size buckets of the same weights under the same blocking
  /// share one instance.
  [[nodiscard]] const std::shared_ptr<const PackedWeights>& packed_weights()
      const {
    return packed_;
  }
  /// The store lease owning this plan's packed-weight residency (never
  /// null).
  [[nodiscard]] const std::shared_ptr<mem::WeightLease>& weight_lease()
      const {
    return lease_;
  }
  /// col_info packing ratio (1.0 when the plan does not pack).
  [[nodiscard]] double packing_ratio() const { return packing_ratio_; }

 private:
  SpmmPlan() = default;

  std::shared_ptr<const CompressedNM> weights_;
  SpmmOptions options_;
  BlockingParams params_;
  index_t planned_m_ = 0;
  bool use_packing_ = false;
  double packing_ratio_ = 1.0;
  std::shared_ptr<ThreadPool> pool_;  ///< null: strictly serial execute
  std::shared_ptr<mem::WeightLease> lease_;
  /// Strong payload reference, held only when the lease is permanently
  /// resident (unbudgeted store or packed-only mode): execute() then
  /// skips the pin round-trip entirely.
  std::shared_ptr<const PackedWeights> packed_;
};

}  // namespace nmspmm
