#include "metaop/mult_count.h"

#include <stdexcept>

#include "metaop/lowering.h"

namespace alchemist::metaop {

MultCounts ntt_mults(std::size_t n, std::size_t channels) {
  const NttStagePlan plan = plan_ntt_stages(n);
  MultCounts out;
  const std::uint64_t units_per_stage = n / kLanes * channels;
  // Radix-8: 12 radix-2 butterflies x 3 = 36 eager vs 24 + 16 = 40 lazy.
  out.origin += units_per_stage * plan.radix8_stages * 36;
  out.meta += units_per_stage * plan.radix8_stages * 40;
  // Radix-4 (two butterflies per 8 lanes): 8 x 3 = 24 eager vs 16 + 16 = 32.
  out.origin += units_per_stage * plan.radix4_stages * 24;
  out.meta += units_per_stage * plan.radix4_stages * 32;
  return out;
}

MultCounts bconv_mults(std::size_t n, std::size_t l_in, std::size_t k_out) {
  if (l_in == 0 || k_out == 0) throw std::invalid_argument("bconv_mults: L,K >= 1");
  MultCounts out;
  out.origin = static_cast<std::uint64_t>(n) * (3 * k_out * l_in + 3 * l_in);
  out.meta = static_cast<std::uint64_t>(n) * (k_out * l_in + 3 * l_in + 2 * k_out);
  return out;
}

MultCounts decomp_mults(std::size_t n, std::size_t dnum, std::size_t channels) {
  if (dnum == 0) throw std::invalid_argument("decomp_mults: dnum >= 1");
  MultCounts out;
  out.origin = static_cast<std::uint64_t>(n) * channels * 3 * dnum;
  out.meta = static_cast<std::uint64_t>(n) * channels * (dnum + 2);
  return out;
}

MultCounts elementwise_mults(std::size_t n, std::size_t channels) {
  MultCounts out;
  out.origin = static_cast<std::uint64_t>(n) * channels * 3;
  out.meta = out.origin;
  return out;
}

MultCounts count(const HighOp& op) {
  switch (op.kind) {
    case OpKind::Ntt:
    case OpKind::Intt:
      return ntt_mults(op.n, op.channels);
    case OpKind::Bconv:
      return bconv_mults(op.n, op.param_a, op.param_b);
    case OpKind::DecompPolyMult:
      return decomp_mults(op.n, op.param_a, op.channels);
    case OpKind::PointwiseMult:
      return elementwise_mults(op.n, op.channels);
    case OpKind::PointwiseAdd:
    case OpKind::Automorphism:
      return {};  // no multiplications
  }
  throw std::logic_error("count: unknown op kind");
}

MultCounts count(const OpGraph& graph) {
  MultCounts total;
  for (const HighOp& op : graph.ops()) total += count(op);
  return total;
}

std::array<std::uint64_t, 4> class_mults(const OpGraph& graph, bool meta) {
  std::array<std::uint64_t, 4> by_class = {0, 0, 0, 0};
  for (const HighOp& op : graph.ops()) {
    const MultCounts c = count(op);
    const std::uint64_t value = meta ? c.meta : c.origin;
    OpClass cls = OpClass::Elementwise;
    switch (op.kind) {
      case OpKind::Ntt:
      case OpKind::Intt: cls = OpClass::Ntt; break;
      case OpKind::Bconv: cls = OpClass::Bconv; break;
      case OpKind::DecompPolyMult: cls = OpClass::DecompPolyMult; break;
      default: cls = OpClass::Elementwise; break;
    }
    by_class[static_cast<std::size_t>(cls)] += value;
  }
  return by_class;
}

}  // namespace alchemist::metaop
