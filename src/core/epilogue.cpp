#include "core/epilogue.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "core/reduce.hpp"
#include "util/hash.hpp"

namespace nmspmm {

const char* to_string(Activation act) {
  switch (act) {
    case Activation::kNone: return "none";
    case Activation::kSilu: return "silu";
    case Activation::kGelu: return "gelu";
  }
  return "?";
}

std::size_t hash_value(const EpilogueSpec& spec) {
  std::size_t h = static_cast<std::size_t>(spec.act);
  hash_combine(h, spec.bias ? 1u : 0u);
  hash_combine(h, spec.mul ? 1u : 0u);
  hash_combine(h, spec.act_on_other ? 1u : 0u);
  hash_combine(h, spec.add ? 1u : 0u);
  return h;
}

std::size_t hash_value(const PrologueSpec& spec) {
  std::size_t h = spec.rmsnorm ? 1u : 0u;
  hash_combine(h, static_cast<std::size_t>(std::bit_cast<std::uint32_t>(
                      spec.eps)));
  return h;
}

Status validate_prologue(const PrologueSpec& spec, const EpilogueArgs& args) {
  if (spec.rmsnorm && args.rms_gain == nullptr) {
    return Status::InvalidArgument(
        "prologue spec requires an RMSNorm gain but EpilogueArgs::rms_gain "
        "is null");
  }
  return Status::Ok();
}

Status validate_epilogue(const EpilogueSpec& spec, const EpilogueArgs& args,
                         index_t m, index_t n) {
  if (spec.act_on_other && !spec.mul) {
    return Status::InvalidArgument(
        "epilogue act_on_other requires mul (there is no other operand to "
        "activate)");
  }
  if (spec.bias && args.bias == nullptr) {
    return Status::InvalidArgument(
        "epilogue spec requires a bias but EpilogueArgs::bias is null");
  }
  if (spec.mul) {
    if (args.other.empty()) {
      return Status::InvalidArgument(
          "epilogue spec requires a second operand but EpilogueArgs::other "
          "is empty");
    }
    if (args.other.rows() != m || args.other.cols() != n) {
      std::ostringstream os;
      os << "epilogue operand is " << args.other.rows() << "x"
         << args.other.cols() << " but must match C (" << m << "x" << n
         << ")";
      return Status::InvalidArgument(os.str());
    }
  }
  if (spec.add) {
    if (args.residual.empty()) {
      return Status::InvalidArgument(
          "epilogue spec requires a residual operand but "
          "EpilogueArgs::residual is empty");
    }
    if (args.residual.rows() != m || args.residual.cols() != n) {
      std::ostringstream os;
      os << "epilogue residual is " << args.residual.rows() << "x"
         << args.residual.cols() << " but must match C (" << m << "x" << n
         << ")";
      return Status::InvalidArgument(os.str());
    }
  }
  return Status::Ok();
}

void apply_epilogue(const EpilogueSpec& spec, const EpilogueArgs& args,
                    ViewF C) {
  if (!spec.active()) return;
  NMSPMM_CHECK_OK(validate_epilogue(spec, args, C.rows(), C.cols()));
  const detail::EpilogueApply epi = detail::EpilogueApply::root(spec, args);
  // Row blocks of 8: enough concurrent activation chains to hide their
  // latency (see apply_tile) while keeping the sweep cache-friendly.
  for (index_t i0 = 0; i0 < C.rows(); i0 += 8) {
    epi.shifted(i0, 0).apply_tile(std::min<index_t>(8, C.rows() - i0),
                                  C.row(i0), C.ld(),
                                  static_cast<int>(C.cols()));
  }
}

void rmsnorm_rows(ConstViewF x, const float* gain, float eps, ViewF out) {
  NMSPMM_CHECK(gain != nullptr);
  NMSPMM_CHECK_MSG(out.rows() == x.rows() && out.cols() == x.cols(),
                   "rmsnorm output is " << out.rows() << "x" << out.cols()
                                        << " but input is " << x.rows() << "x"
                                        << x.cols());
  const auto k = x.cols();
  for (index_t i = 0; i < x.rows(); ++i) {
    const float* xi = x.row(i);
    float* oi = out.row(i);
    const float ss = simd::sumsq(xi, k);
    const float inv = 1.0f / std::sqrt(ss / static_cast<float>(k) + eps);
    // Fixed association (x * inv) * gain: elementwise multiplies are
    // exact-deterministic, so the compiler may vectorize this freely
    // without breaking cross-build bit-exactness.
    for (index_t j = 0; j < k; ++j) oi[j] = (xi[j] * inv) * gain[j];
  }
}

}  // namespace nmspmm
