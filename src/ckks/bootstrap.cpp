#include "ckks/bootstrap.h"

#include <cmath>
#include <stdexcept>

namespace alchemist::ckks {

namespace {

using Complex = std::complex<double>;

std::size_t ceil_log2(std::size_t x) {
  std::size_t k = 0;
  while ((std::size_t{1} << k) < x) ++k;
  return k;
}

}  // namespace

Bootstrapper::Bootstrapper(ContextPtr ctx, const CkksEncoder& encoder,
                           const Evaluator& evaluator, const RelinKeys& relin,
                           const GaloisKeys& galois, BootstrapConfig config)
    : ctx_(std::move(ctx)),
      encoder_(encoder),
      evaluator_(evaluator),
      relin_(relin),
      galois_(galois),
      config_(config),
      poly_(ctx_, encoder_, evaluator_, relin_) {
  const double delta = ctx_->params().scale();
  const double q0 = static_cast<double>(ctx_->q_moduli()[0]);

  // CtS matrix: (Delta / 2 q0) * A^{-1}; the factor turns the conjugation
  // *sum* (no 1/2) directly into t = (m + q0 I) / q0.
  LinearTransform::Matrix cts = coeff_to_slot_matrix(*ctx_);
  const double gamma = delta / (2.0 * q0);
  for (auto& row : cts) {
    for (Complex& v : row) v *= gamma;
  }
  cts_ = std::make_unique<LinearTransform>(ctx_, std::move(cts));
  stc_ = std::make_unique<LinearTransform>(ctx_, slot_to_coeff_matrix(*ctx_));

  // f(t) = (q0 / (2 pi Delta)) * sin(2 pi t) on [-B, B].
  const double b = config_.i_bound + 0.5;
  const double amp = q0 / (2.0 * M_PI * delta);
  sine_cheb_ = chebyshev_fit(
      [amp](double t) { return amp * std::sin(2.0 * M_PI * t); }, -b, b,
      config_.sine_degree);
}

std::vector<int> Bootstrapper::required_rotations(const CkksContext& ctx) {
  // Both transforms are dense over the slot group; collect the BSGS steps of
  // each (they coincide for square dense matrices, but stay general).
  LinearTransform a(std::make_shared<CkksContext>(ctx.params()),
                    slot_to_coeff_matrix(ctx));
  return a.required_rotations(/*bsgs=*/true);
}

std::size_t Bootstrapper::depth() const {
  // CtS: 1 (transform) + 1 (v extraction; u stays a level higher but aligns).
  // EvalMod (Paterson-Stockmeyer over Chebyshev): 1 affine + ceil(log2 k)
  // baby ladder + g giant squarings + 1 direct rescale + g+? recursive
  // combines, with k ~ sqrt(degree) and g = floor(log2(degree/k)).
  // StC: 1 (i*v) + 1 (transform).
  const std::size_t d = config_.sine_degree;
  const std::size_t k = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(d + 1)))));
  std::size_t g = 0;
  for (std::size_t m = k; 2 * m <= d; m *= 2) ++g;
  const std::size_t eval_mod_depth = 2 + ceil_log2(k) + 2 * g;
  return 2 + eval_mod_depth + 2;
}

Ciphertext Bootstrapper::mod_raise(const Ciphertext& ct) const {
  if (ct.level != 1) {
    throw std::invalid_argument("Bootstrapper::mod_raise: expected a level-1 ciphertext");
  }
  const std::size_t top = ctx_->params().num_levels;
  const auto target = ctx_->basis_at(top);
  const u64 q0 = ctx_->q_moduli()[0];

  auto lift = [&](const RnsPoly& in) {
    RnsPoly coeff = in;
    coeff.to_coeff();
    RnsPoly out(coeff.degree(), target, RnsPoly::Form::Coeff);
    for (std::size_t c = 0; c < target.size(); ++c) {
      const Modulus& mod = out.channel_modulus(c);
      auto dst = out.channel(c);
      auto src = coeff.channel(0);
      for (std::size_t k = 0; k < coeff.degree(); ++k) {
        const u64 v = src[k];
        // Centered lift of the q0 residue into each channel: v or v - q0.
        dst[k] = v <= q0 / 2 ? mod.reduce(v) : mod.neg(mod.reduce(q0 - v));
      }
    }
    out.to_ntt();
    return out;
  };

  return Ciphertext{lift(ct.c0), lift(ct.c1), top, ct.scale};
}

std::pair<Ciphertext, Ciphertext> Bootstrapper::coeff_to_slot(const Ciphertext& ct) const {
  // w = (Delta / 2 q0) * A^{-1} z: slots hold gamma * (u + i v).
  Ciphertext w = cts_->apply(evaluator_, encoder_, ct, galois_, ct.scale);
  w = evaluator_.rescale(w);
  const Ciphertext w_conj = evaluator_.conjugate(w, galois_);

  // u-part: w + conj(w) -> slots 2*gamma*u = (m + q0 I)_low / q0.
  const Ciphertext t_u = evaluator_.add(w, w_conj);
  // v-part: (conj(w) - w) * i -> slots 2*gamma*v (one extra level).
  Ciphertext diff = evaluator_.sub(w_conj, w);
  Ciphertext t_v =
      evaluator_.rescale(evaluator_.mul_scalar(diff, Complex{0.0, 1.0}, encoder_,
                                               diff.scale));
  return {t_u, t_v};
}

Ciphertext Bootstrapper::eval_mod(const Ciphertext& ct) const {
  const double b = config_.i_bound + 0.5;
  return poly_.evaluate_chebyshev_stable(ct, sine_cheb_, -b, b);
}

Ciphertext Bootstrapper::slot_to_coeff(const Ciphertext& u, const Ciphertext& v) const {
  // w' = u + i v, then A w' puts the cleaned coefficients back in place.
  Ciphertext iv = evaluator_.rescale(
      evaluator_.mul_scalar(v, Complex{0.0, 1.0}, encoder_, v.scale));
  Ciphertext w = evaluator_.add_aligned(u, iv);
  Ciphertext out = stc_->apply(evaluator_, encoder_, w, galois_, w.scale);
  return evaluator_.rescale(out);
}

Ciphertext Bootstrapper::bootstrap(const Ciphertext& ct) const {
  const Ciphertext raised = mod_raise(ct);
  auto [t_u, t_v] = coeff_to_slot(raised);
  const Ciphertext m_u = eval_mod(t_u);
  const Ciphertext m_v = eval_mod(t_v);
  return slot_to_coeff(m_u, m_v);
}

}  // namespace alchemist::ckks
