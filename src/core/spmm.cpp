#include "core/spmm.hpp"

#include <sstream>

#include "util/hash.hpp"

namespace nmspmm {

std::size_t hash_value(const SpmmOptions& o) {
  std::size_t h = 0;
  hash_combine(h, static_cast<std::size_t>(o.variant));
  hash_combine(h, static_cast<std::size_t>(o.packing));
  hash_combine(h, o.smem_bytes);
  hash_combine(h, o.rescale ? 1u : 0u);
  hash_combine(h, o.num_threads);
  hash_combine(h, hash_value(o.epilogue));
  hash_combine(h, hash_value(o.prologue));
  hash_combine(h, static_cast<std::size_t>(o.residency));
  if (o.params) {
    const BlockingParams& p = *o.params;
    for (index_t f : {p.ms, p.ns, p.ks, p.mt, p.nt, p.mr, p.nr}) {
      hash_combine(h, static_cast<std::size_t>(f));
    }
  }
  return h;
}

SpmmPlan SpmmPlan::create(index_t m, CompressedNM B, SpmmOptions options) {
  return create(m, std::make_shared<const CompressedNM>(std::move(B)),
                std::move(options));
}

SpmmPlan SpmmPlan::create(index_t m, std::shared_ptr<const CompressedNM> B,
                          SpmmOptions options,
                          std::shared_ptr<ThreadPool> pool,
                          std::shared_ptr<mem::WeightStore> store) {
  NMSPMM_CHECK(B != nullptr);
  NMSPMM_CHECK_MSG(m >= 1, "planned batch m must be positive");
  NMSPMM_CHECK_MSG(!(options.epilogue.active() && options.rescale),
                   "epilogue fusion is incompatible with rescale: the M/N "
                   "scale must precede the activation");
  NMSPMM_CHECK_MSG(!options.epilogue.act_on_other || options.epilogue.mul,
                   "epilogue act_on_other requires mul");
  B->config.validate();
  SpmmPlan plan;
  plan.weights_ = std::move(B);
  plan.options_ = options;
  plan.planned_m_ = m;
  // A plan never spawns threads per call: it borrows the injected
  // (Engine's) pool, aliases the process-global one, or — for an
  // explicit non-default thread count — owns a pool built once here.
  plan.pool_ = pool != nullptr ? std::move(pool)
                               : ThreadPool::shared(options.num_threads);

  const CompressedNM& w = *plan.weights_;
  plan.params_ = options.params.value_or(
      make_params(m, w.cols, w.orig_rows, w.config, options.smem_bytes));
  if (plan.params_.ks == 0) {
    plan.params_.ks = derive_ks(w.config, plan.params_.ms, plan.params_.ns,
                                options.smem_bytes, w.orig_rows);
  }
  validate_params(plan.params_, w.config, options.smem_bytes, w.orig_rows);

  switch (options.packing) {
    case PackingMode::kAlways: plan.use_packing_ = true; break;
    case PackingMode::kNever: plan.use_packing_ = false; break;
    case PackingMode::kPaperRule:
      plan.use_packing_ = w.config.is_high_sparsity();
      break;
    case PackingMode::kAuto:
      // CPU calibration: hardware caches already deliver the footprint
      // reduction packing buys on the GPU, so the non-packed path wins
      // at every sparsity level (measured in bench_ablation).
      plan.use_packing_ = false;
      break;
  }
  // V1 never packs; V2 is defined as the packing kernel.
  if (options.variant == KernelVariant::kV1) plan.use_packing_ = false;
  if (options.variant == KernelVariant::kV2) plan.use_packing_ = true;

  // Offline pre-processing, all folded into the plan-time pre-packed
  // weights (Listing 3 lines 2-6 collapse into PackedWeights::build):
  // tile-resident B' plus flattened index streams, interned through the
  // WeightStore so every batch-size bucket of one weight matrix shares
  // a single packed form — and so the store can budget, evict, and
  // NUMA-place it.
  if (store == nullptr) store = mem::WeightStore::global();
  plan.lease_ = store->acquire(
      plan.weights_, plan.params_.ks, plan.params_.ns,
      packed_kind_for(options.variant, plan.use_packing_), options.residency,
      plan.pool_);
  {
    // Freshly acquired leases are resident; record the structural
    // packing ratio now so later stats never force a repack.
    const auto payload = plan.lease_->pin();
    plan.packing_ratio_ = payload->mean_packing_ratio();
    // Permanently resident forms skip the per-execute pin round-trip.
    if (!plan.lease_->evictable()) plan.packed_ = payload;
  }
  if (options.residency == mem::ResidencyMode::kPackedOnly) {
    // Release the original B' value buffer: the packed form is now the
    // only resident copy of the weight values. The stripped matrix keeps
    // shape/config/indices for execute-time validation.
    plan.weights_ =
        std::make_shared<const CompressedNM>(strip_values(*plan.weights_));
  }
  return plan;
}

Status SpmmPlan::execute(ConstViewF A, ViewF C) const {
  return execute(A, C, EpilogueArgs{});
}

Status SpmmPlan::execute(ConstViewF A, ViewF C,
                         const EpilogueArgs& epilogue_args) const {
  const CompressedNM& B = *weights_;
  if (A.cols() != B.orig_rows) {
    std::ostringstream os;
    os << "A depth " << A.cols() << " != weights k " << B.orig_rows;
    return Status::InvalidArgument(os.str());
  }
  if (C.rows() != A.rows() || C.cols() != B.cols) {
    std::ostringstream os;
    os << "C is " << C.rows() << "x" << C.cols() << " but must be "
       << A.rows() << "x" << B.cols;
    return Status::InvalidArgument(os.str());
  }
  if (A.rows() > planned_m_) {
    std::ostringstream os;
    os << "batch m=" << A.rows() << " exceeds the planned m=" << planned_m_
       << "; create a plan for the larger batch or route the call through "
          "nmspmm::Engine, which re-plans per batch-size bucket";
    return Status::FailedPrecondition(os.str());
  }
  NMSPMM_RETURN_IF_ERROR(validate_epilogue(options_.epilogue, epilogue_args,
                                           C.rows(), C.cols()));
  NMSPMM_RETURN_IF_ERROR(
      validate_prologue(options_.prologue, epilogue_args));
  if (options_.prologue.active() && !A.empty()) {
    // RMSNorm prologue: normalize A into thread-local staging and hand
    // the kernels the normalized view. Thread-local (not plan-owned) so
    // concurrent executes of one shared plan never share scratch, and
    // grow-only like the kernels' own A staging. The caller's A — the
    // residual stream a pre-norm decoder layer adds back later — is
    // left untouched.
    thread_local MatrixF normed;
    if (normed.rows() < A.rows() || normed.cols() < A.cols()) {
      try {
        normed = MatrixF(std::max(normed.rows(), A.rows()),
                         std::max(normed.cols(), A.cols()));
      } catch (const std::bad_alloc& e) {
        return Status::ResourceExhausted(e.what());
      }
    }
    ViewF staged = normed.view().block(0, 0, A.rows(), A.cols());
    rmsnorm_rows(A, epilogue_args.rms_gain, options_.prologue.eps, staged);
    A = staged;
  }
  // Pin the packed form for the duration of the kernel: under a store
  // budget the tiles cannot be evicted out from under the execute, and
  // an evicted form is transparently repacked here. Permanently
  // resident plans (packed_ set) skip the round-trip.
  std::shared_ptr<const PackedWeights> pinned;
  const PackedWeights* packed = packed_.get();
  if (packed == nullptr) {
    try {
      pinned = lease_->pin();
    } catch (const CheckError& e) {
      // Repack needed but the source weights died. Not retryable: the
      // source is gone for good, so this stays FAILED_PRECONDITION.
      return Status::FailedPrecondition(e.what());
    } catch (const std::bad_alloc& e) {
      // Repack-on-demand could not allocate the packed form — retryable
      // once the memory pressure passes.
      return Status::ResourceExhausted(e.what());
    }
    packed = pinned.get();
  }
  ThreadPool* pool = pool_.get();
  try {
    switch (options_.variant) {
      case KernelVariant::kV1:
        spmm_v1(A, B, C, params_, *packed, pool, options_.epilogue,
                epilogue_args);
        break;
      case KernelVariant::kV2:
        spmm_v2(A, B, C, params_, *packed, pool, options_.epilogue,
                epilogue_args);
        break;
      case KernelVariant::kV3:
        spmm_v3(A, B, C, params_, use_packing_, *packed, pool,
                options_.epilogue, epilogue_args);
        break;
    }
    if (options_.rescale) {
      const float scale = static_cast<float>(B.config.m) /
                          static_cast<float>(B.config.n);
      for (index_t r = 0; r < C.rows(); ++r) {
        float* row = C.row(r);
        for (index_t c = 0; c < C.cols(); ++c) row[c] *= scale;
      }
    }
  } catch (const std::bad_alloc& e) {
    // Worker-side allocation failure (e.g. surfaced by run_chunks) —
    // retryable, unlike a genuine invariant trip.
    return Status::ResourceExhausted(e.what());
  } catch (const std::exception& e) {
    // Kernel invariant violations and other worker-side failures —
    // recoverable for the server.
    return Status::Internal(e.what());
  }
  return Status::Ok();
}

}  // namespace nmspmm
