#include "metaop/lowering.h"

#include <stdexcept>

#include "common/modarith.h"

namespace alchemist::metaop {

const char* to_string(AccessPattern p) {
  switch (p) {
    case AccessPattern::Slots: return "slots";
    case AccessPattern::Channel: return "channel";
    case AccessPattern::DnumGroup: return "dnum_group";
  }
  return "?";
}

const char* to_string(OpClass c) {
  switch (c) {
    case OpClass::Ntt: return "NTT";
    case OpClass::Bconv: return "Bconv";
    case OpClass::DecompPolyMult: return "DecompPolyMult";
    case OpClass::Elementwise: return "Elementwise";
    case OpClass::kNumClasses: break;
  }
  return "?";
}

const char* class_tag(OpClass c) {
  switch (c) {
    case OpClass::Ntt: return "ntt";
    case OpClass::Bconv: return "bconv";
    case OpClass::DecompPolyMult: return "decomp_poly_mult";
    case OpClass::Elementwise: return "elementwise";
    case OpClass::kNumClasses: break;
  }
  return "?";
}

OpClass class_of(OpKind kind) {
  switch (kind) {
    case OpKind::Ntt:
    case OpKind::Intt: return OpClass::Ntt;
    case OpKind::Bconv: return OpClass::Bconv;
    case OpKind::DecompPolyMult: return OpClass::DecompPolyMult;
    case OpKind::PointwiseMult:
    case OpKind::PointwiseAdd:
    case OpKind::Automorphism: return OpClass::Elementwise;
  }
  return OpClass::Elementwise;
}

const char* operand_tag(OperandClass c) {
  switch (c) {
    case OperandClass::Evk: return "evk";
    case OperandClass::RotationKey: return "rotation_key";
    case OperandClass::CtLimb: return "ct_limb";
    case OperandClass::Twiddle: return "twiddle";
    case OperandClass::Plaintext: return "plaintext";
    case OperandClass::kNumClasses: break;
  }
  return "?";
}

const char* to_string(OpKind kind) {
  switch (kind) {
    case OpKind::Ntt: return "NTT";
    case OpKind::Intt: return "INTT";
    case OpKind::Bconv: return "Bconv";
    case OpKind::DecompPolyMult: return "DecompPolyMult";
    case OpKind::PointwiseMult: return "PointwiseMult";
    case OpKind::PointwiseAdd: return "PointwiseAdd";
    case OpKind::Automorphism: return "Automorphism";
  }
  return "?";
}

std::uint64_t MetaOpStream::core_cycles() const {
  std::uint64_t total = 0;
  for (const MetaOpBatch& b : batches) total += b.core_cycles();
  return total;
}

std::uint64_t MetaOpStream::mult_count() const {
  std::uint64_t total = 0;
  for (const MetaOpBatch& b : batches) total += b.mult_count();
  return total;
}

std::uint64_t MetaOpStream::meta_op_count() const {
  std::uint64_t total = 0;
  for (const MetaOpBatch& b : batches) total += b.count;
  return total;
}

void MetaOpStream::append(const MetaOpStream& other) {
  batches.insert(batches.end(), other.batches.begin(), other.batches.end());
}

void MetaOpStream::append(MetaOpBatch batch) { batches.push_back(batch); }

NttStagePlan plan_ntt_stages(std::size_t n) {
  if (!is_power_of_two(n) || n < 16) {
    throw std::invalid_argument("plan_ntt_stages: N must be a power of two >= 16");
  }
  std::size_t log_n = 0;
  while ((std::size_t{1} << log_n) < n) ++log_n;
  NttStagePlan plan;
  plan.radix8_stages = log_n / 3;
  switch (log_n % 3) {
    case 0: plan.radix4_stages = 0; break;
    case 2: plan.radix4_stages = 1; break;
    case 1:  // 3a + 1 = 3(a-1) + 4: trade one radix-8 for two radix-4 stages
      plan.radix8_stages -= 1;
      plan.radix4_stages = 2;
      break;
  }
  return plan;
}

MetaOpStream lower_ntt(std::size_t n, std::size_t channels) {
  const NttStagePlan plan = plan_ntt_stages(n);
  MetaOpStream out;
  const std::size_t per_stage = n / kLanes * channels;
  if (plan.radix8_stages > 0) {
    // Radix-8 butterfly: three product groups -> (M_8 A_8)_3 R_8 (Fig. 4c).
    out.append(MetaOpBatch{3, per_stage * plan.radix8_stages, AccessPattern::Slots,
                           OpClass::Ntt});
  }
  if (plan.radix4_stages > 0) {
    // Two radix-4 butterflies fill the 8 lanes with two product groups.
    out.append(MetaOpBatch{2, per_stage * plan.radix4_stages, AccessPattern::Slots,
                           OpClass::Ntt});
  }
  return out;
}

MetaOpStream lower_bconv(std::size_t n, std::size_t l_in, std::size_t k_out) {
  if (l_in == 0 || k_out == 0) throw std::invalid_argument("lower_bconv: L,K >= 1");
  MetaOpStream out;
  // Step 1 (Fig. 4b): x * q̂^{-1} per input channel — elementwise.
  out.append(MetaOpBatch{1, n / kLanes * l_in, AccessPattern::Channel, OpClass::Bconv});
  // Step 2: per target channel, accumulate the L scaled contributions with a
  // single lazy reduction: (M_8 A_8)_L R_8.
  out.append(MetaOpBatch{l_in, n / kLanes * k_out, AccessPattern::Channel,
                         OpClass::Bconv});
  return out;
}

MetaOpStream lower_decomp_poly_mult(std::size_t n, std::size_t dnum,
                                    std::size_t channels) {
  if (dnum == 0) throw std::invalid_argument("lower_decomp_poly_mult: dnum >= 1");
  MetaOpStream out;
  out.append(MetaOpBatch{dnum, n / kLanes * channels, AccessPattern::DnumGroup,
                         OpClass::DecompPolyMult});
  return out;
}

MetaOpStream lower_elementwise(std::size_t n, std::size_t channels) {
  MetaOpStream out;
  out.append(MetaOpBatch{1, n / kLanes * channels, AccessPattern::Slots,
                         OpClass::Elementwise});
  return out;
}

MetaOpStream lower(const HighOp& op) {
  switch (op.kind) {
    case OpKind::Ntt:
    case OpKind::Intt:
      return lower_ntt(op.n, op.channels);
    case OpKind::Bconv:
      return lower_bconv(op.n, op.param_a, op.param_b);
    case OpKind::DecompPolyMult:
      return lower_decomp_poly_mult(op.n, op.param_a, op.channels);
    case OpKind::PointwiseMult:
    case OpKind::Automorphism:
      return lower_elementwise(op.n, op.channels);
    case OpKind::PointwiseAdd: {
      // A modular add of two operands runs as (M_8 A_8)_2 R_8: both inputs
      // pass through the multiply-accumulate lanes (x1) before the reduction.
      MetaOpStream out;
      out.append(MetaOpBatch{2, op.n / kLanes * op.channels, AccessPattern::Slots,
                             OpClass::Elementwise});
      return out;
    }
  }
  throw std::logic_error("lower: unknown op kind");
}

MetaOpStream lower(const OpGraph& graph) {
  MetaOpStream out;
  for (const HighOp& op : graph.ops()) out.append(lower(op));
  return out;
}

}  // namespace alchemist::metaop
