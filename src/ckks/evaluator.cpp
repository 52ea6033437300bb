#include "ckks/evaluator.h"

#include <cmath>
#include <stdexcept>

#include "common/thread_pool.h"
#include "poly/lazy_kernels.h"

namespace alchemist::ckks {

namespace {

bool scales_close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

}  // namespace

Evaluator::Evaluator(ContextPtr ctx) : ctx_(std::move(ctx)) {}

void Evaluator::check_compatible(const Ciphertext& a, const Ciphertext& b,
                                 const char* op) const {
  if (a.level != b.level) {
    throw std::invalid_argument(std::string("Evaluator::") + op + ": level mismatch");
  }
  if (!scales_close(a.scale, b.scale)) {
    throw std::invalid_argument(std::string("Evaluator::") + op + ": scale mismatch");
  }
}

Ciphertext Evaluator::add(const Ciphertext& a, const Ciphertext& b) const {
  check_compatible(a, b, "add");
  Ciphertext out = a;
  out.c0 += b.c0;
  out.c1 += b.c1;
  return out;
}

Ciphertext Evaluator::sub(const Ciphertext& a, const Ciphertext& b) const {
  check_compatible(a, b, "sub");
  Ciphertext out = a;
  out.c0 -= b.c0;
  out.c1 -= b.c1;
  return out;
}

Ciphertext Evaluator::negate(const Ciphertext& a) const {
  Ciphertext out = a;
  out.c0.negate();
  out.c1.negate();
  return out;
}

Ciphertext Evaluator::add_plain(const Ciphertext& a, const Plaintext& pt) const {
  if (a.level != pt.level || !scales_close(a.scale, pt.scale)) {
    throw std::invalid_argument("Evaluator::add_plain: level/scale mismatch");
  }
  Ciphertext out = a;
  out.c0 += pt.poly;
  return out;
}

Ciphertext Evaluator::mul_plain(const Ciphertext& a, const Plaintext& pt) const {
  if (a.level != pt.level) {
    throw std::invalid_argument("Evaluator::mul_plain: level mismatch");
  }
  Ciphertext out = a;
  out.c0 *= pt.poly;
  out.c1 *= pt.poly;
  out.scale = a.scale * pt.scale;
  return out;
}

std::vector<RnsPoly> Evaluator::modup_digits(const RnsPoly& d, std::size_t level) const {
  if (!d.is_ntt() || d.degree() != ctx_->degree() || d.moduli() != ctx_->basis_at(level)) {
    throw std::invalid_argument(
        "Evaluator: keyswitch input must be in NTT form over the basis of its level");
  }
  KernelTimer timer(Kernel::Keyswitch);
  const auto ext_basis = ctx_->extended_basis_at(level);
  // Digits are independent: fan them out (nested kernels run inline).
  std::vector<RnsPoly> digits(ctx_->num_digits_at(level));
  parallel_for(digits.size(), 1, [&](std::size_t jb, std::size_t je) {
    for (std::size_t j = jb; j < je; ++j) {
      const auto [first, count] = ctx_->digit_range(j, level);
      digits[j] = modup(d.extract_channels(first, count), ext_basis, first);
    }
  });
  return digits;
}

std::pair<RnsPoly, RnsPoly> Evaluator::mult_moddown(const std::vector<RnsPoly>& digits,
                                                    std::size_t level,
                                                    const KSwitchKey& key) const {
  const std::vector<u64> key_basis = ctx_->key_basis();
  if (key.digits.size() < digits.size()) {
    throw std::invalid_argument("Evaluator: keyswitch key has too few digits");
  }
  for (const auto& [b, a] : key.digits) {
    if (b.moduli() != key_basis || a.moduli() != key_basis || b.degree() != ctx_->degree() ||
        a.degree() != ctx_->degree()) {
      throw std::invalid_argument("Evaluator: keyswitch key does not span the key basis");
    }
  }
  KernelTimer timer(Kernel::Keyswitch);
  // DecompPolyMult: per channel of Q·P, sum digit_j * evk_j over the digits
  // with one reduction per coefficient. The key lives on the full basis
  // [q_0..q_{L-1}, p...]; channel c at `level` reads key channel c, or
  // L + (c - level) for the special primes, in place.
  const std::size_t top = ctx_->params().num_levels;
  const auto ext_basis = ctx_->extended_basis_at(level);
  RnsPoly acc0(ctx_->degree(), ext_basis, RnsPoly::Form::Ntt);
  RnsPoly acc1(ctx_->degree(), ext_basis, RnsPoly::Form::Ntt);
  parallel_for(ext_basis.size(), channel_grain(ctx_->degree()),
               [&](std::size_t cb, std::size_t ce) {
    std::vector<const u64*> x(digits.size()), kb(digits.size()), ka(digits.size());
    for (std::size_t c = cb; c < ce; ++c) {
      const std::size_t kc = c < level ? c : top + (c - level);
      for (std::size_t j = 0; j < digits.size(); ++j) {
        x[j] = digits[j].channel(c).data();
        kb[j] = key.digits[j].first.channel(kc).data();
        ka[j] = key.digits[j].second.channel(kc).data();
      }
      mul_sum_lazy(x, kb, acc0.channel_modulus(c), acc0.channel(c));
      mul_sum_lazy(x, ka, acc1.channel_modulus(c), acc1.channel(c));
    }
  });

  // Moddown: divide by P and return to the Q basis, in the NTT domain.
  const std::size_t num_special = ctx_->params().num_special();
  return {moddown(acc0, num_special), moddown(acc1, num_special)};
}

std::pair<RnsPoly, RnsPoly> Evaluator::keyswitch(const RnsPoly& d, std::size_t level,
                                                 const KSwitchKey& key) const {
  return mult_moddown(modup_digits(d, level), level, key);
}

Ciphertext Evaluator::multiply(const Ciphertext& a, const Ciphertext& b,
                               const RelinKeys& rk) const {
  if (a.level != b.level) {
    throw std::invalid_argument("Evaluator::multiply: level mismatch");
  }
  // Tensor product: (d0, d1, d2) = (c0*c0', c0*c1' + c1*c0', c1*c1').
  RnsPoly d0 = a.c0;
  d0 *= b.c0;
  RnsPoly d1 = a.c0;
  d1 *= b.c1;
  RnsPoly d1b = a.c1;
  d1b *= b.c0;
  d1 += d1b;
  RnsPoly d2 = a.c1;
  d2 *= b.c1;

  auto [ks0, ks1] = keyswitch(d2, a.level, rk.key);
  d0 += ks0;
  d1 += ks1;
  return Ciphertext{std::move(d0), std::move(d1), a.level, a.scale * b.scale};
}

Ciphertext Evaluator::rescale(const Ciphertext& a) const {
  if (a.level < 2) {
    throw std::invalid_argument("Evaluator::rescale: no prime left to drop");
  }
  const u64 dropped = ctx_->q_moduli()[a.level - 1];

  // Exact RNS rescale is a Moddown with the last ciphertext prime playing the
  // special modulus (Eq. 3 with P = q_{l-1}): one inverse NTT per polynomial.
  return Ciphertext{moddown(a.c0, 1), moddown(a.c1, 1), a.level - 1,
                    a.scale / static_cast<double>(dropped)};
}

Ciphertext Evaluator::mod_drop(const Ciphertext& a, std::size_t level) const {
  if (level == 0 || level > a.level) {
    throw std::invalid_argument("Evaluator::mod_drop: bad target level");
  }
  return Ciphertext{a.c0.extract_channels(0, level), a.c1.extract_channels(0, level), level,
                    a.scale};
}

// A real constant is the same residue in every NTT slot, so real scalar ops
// are per-channel residue ops. A non-real one, a + b·X^(N/2), is not
// constant in the NTT domain and goes through its plaintext.
Ciphertext Evaluator::add_scalar(const Ciphertext& a, std::complex<double> value,
                                 const CkksEncoder& encoder) const {
  if (value.imag() != 0.0) {
    return add_plain(a, encoder.encode_constant(value, a.level, a.scale));
  }
  Ciphertext out = a;
  out.c0.add_scalar(encoder.constant_residues(value.real(), a.level, a.scale));
  return out;
}

Ciphertext Evaluator::mul_scalar(const Ciphertext& a, std::complex<double> value,
                                 const CkksEncoder& encoder,
                                 double scalar_scale) const {
  if (value.imag() != 0.0) {
    return mul_plain(a, encoder.encode_constant(value, a.level, scalar_scale));
  }
  const std::vector<u64> residues =
      encoder.constant_residues(value.real(), a.level, scalar_scale);
  Ciphertext out = a;
  out.c0.mul_scalar(residues);
  out.c1.mul_scalar(residues);
  out.scale = a.scale * scalar_scale;
  return out;
}

void Evaluator::check_scale_near(double scale, double target, double tolerance) {
  // Written so that NaN fails every comparison into the throw.
  if (!(target > 0) || !std::isfinite(target) || !(scale > 0) || !std::isfinite(scale)) {
    throw std::invalid_argument("Evaluator::normalize_scale: scale " + std::to_string(scale) +
                                " and target " + std::to_string(target) +
                                " must be positive and finite");
  }
  const double rel = std::abs(scale - target) / target;
  if (rel > tolerance) {
    throw std::invalid_argument("Evaluator::normalize_scale: scale " +
                                std::to_string(scale) + " too far from target " +
                                std::to_string(target));
  }
}

Ciphertext Evaluator::normalize_scale(const Ciphertext& a, double target,
                                      double tolerance) const {
  check_scale_near(a.scale, target, tolerance);
  Ciphertext out = a;
  out.scale = target;
  return out;
}

Ciphertext Evaluator::mul_aligned(const Ciphertext& a, const Ciphertext& b,
                                  const RelinKeys& rk) const {
  const std::size_t level = std::min(a.level, b.level);
  Ciphertext aa = a.level == level ? a : mod_drop(a, level);
  Ciphertext bb = b.level == level ? b : mod_drop(b, level);
  // The prime ladder keeps both scales within ~2^-20 of each other; force
  // them equal so the product's bookkeeping stays exact.
  bb = normalize_scale(bb, aa.scale);
  return rescale(multiply(aa, bb, rk));
}

Ciphertext Evaluator::add_aligned(const Ciphertext& a, const Ciphertext& b) const {
  const std::size_t level = std::min(a.level, b.level);
  Ciphertext aa = a.level == level ? a : mod_drop(a, level);
  Ciphertext bb = b.level == level ? b : mod_drop(b, level);
  bb = normalize_scale(bb, aa.scale);
  return add(aa, bb);
}

Ciphertext Evaluator::apply_galois(const Ciphertext& a, u64 galois_elt,
                                   const KSwitchKey& key) const {
  // (c0(X^g), c1(X^g)) decrypts under s(X^g); keyswitch c1 back to s. Both
  // automorphisms are NTT-slot permutations.
  auto [ks0, ks1] = keyswitch(a.c1.automorphism(galois_elt), a.level, key);
  ks0 += a.c0.automorphism(galois_elt);
  return Ciphertext{std::move(ks0), std::move(ks1), a.level, a.scale};
}

std::vector<Ciphertext> Evaluator::rotate_hoisted(const Ciphertext& a,
                                                  std::span<const int> steps,
                                                  const GaloisKeys& gk) const {
  // Hoisted part, paid once: Modup every digit of c1, in NTT form.
  // Automorphisms commute with the RNS decomposition (the digit residues are
  // just coefficient permutations), so rotating the extended digits
  // decomposes the rotated c1.
  const std::vector<RnsPoly> digits = modup_digits(a.c1, a.level);

  // Per rotation: permute the slots of the shared digits and of c0, then
  // DecompPolyMult with that rotation's key and Moddown. No NTT runs outside
  // the Moddown.
  std::vector<Ciphertext> out;
  out.reserve(steps.size());
  for (int step : steps) {
    const u64 g = ctx_->galois_elt_for_rotation(step);
    if (g == 1) {
      out.push_back(a);
      continue;
    }
    if (!gk.has(g)) {
      throw std::invalid_argument("rotate_hoisted: missing galois key for step");
    }
    std::vector<RnsPoly> rotated;
    rotated.reserve(digits.size());
    for (const RnsPoly& x : digits) rotated.push_back(x.automorphism(g));
    auto [ks0, ks1] = mult_moddown(rotated, a.level, gk.at(g));
    ks0 += a.c0.automorphism(g);
    out.push_back(Ciphertext{std::move(ks0), std::move(ks1), a.level, a.scale});
  }
  return out;
}

Ciphertext Evaluator::rotate(const Ciphertext& a, int steps,
                             const GaloisKeys& gk) const {
  const u64 g = ctx_->galois_elt_for_rotation(steps);
  if (g == 1) return a;
  if (!gk.has(g)) {
    throw std::invalid_argument("Evaluator::rotate: missing galois key for step");
  }
  return apply_galois(a, g, gk.at(g));
}

Ciphertext Evaluator::conjugate(const Ciphertext& a, const GaloisKeys& gk) const {
  const u64 g = ctx_->galois_elt_conjugate();
  if (!gk.has(g)) {
    throw std::invalid_argument("Evaluator::conjugate: missing conjugation key");
  }
  return apply_galois(a, g, gk.at(g));
}

}  // namespace alchemist::ckks
