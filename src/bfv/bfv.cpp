#include "bfv/bfv.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace alchemist::bfv {

namespace {

// round(t * d / q) mod q for a signed exact tensor coefficient.
u64 scale_round(i128 d, u64 t, u64 q) {
  const bool negative = d < 0;
  const u128 mag = negative ? static_cast<u128>(-d) : static_cast<u128>(d);
  const u128 k = mag / q;
  const u64 r = static_cast<u64>(mag % q);
  // t*k can exceed 64 bits; reduce mod q as we go.
  const u64 whole = mul_mod(static_cast<u64>(k % q), t % q, q);
  const u64 frac = static_cast<u64>((u128{t} * r + q / 2) / q) % q;
  const u64 val = add_mod(whole, frac, q);
  return negative ? neg_mod(val, q) : val;
}

Polynomial scale_round(const std::vector<i128>& d, u64 t, u64 q) {
  Polynomial out(d.size(), q);
  for (std::size_t i = 0; i < d.size(); ++i) out[i] = scale_round(d[i], t, q);
  return out;
}

// The exact tensor product's two-prime CRT holds N*(q/2)^2 only up to here.
const BfvParams& check_q_bits(const BfvParams& params) {
  if (params.q_bits < 40 || params.q_bits > 55) {
    throw std::invalid_argument("BfvContext: q_bits must be in [40, 55]");
  }
  return params;
}

}  // namespace

BfvContext::BfvContext(const BfvParams& params)
    : RingContext(check_q_bits(params), "BfvContext") {}

BfvEncoder::BfvEncoder(BfvContextPtr ctx) : ctx_(std::move(ctx)) {}

std::vector<u64> BfvEncoder::encode(std::span<const u64> values) const {
  return detail::batch_encode(ctx_->degree(), ctx_->t(), values);
}

std::vector<u64> BfvEncoder::decode(std::span<const u64> plain) const {
  return detail::batch_decode(ctx_->degree(), ctx_->t(), plain);
}

BfvKeyGenerator::BfvKeyGenerator(BfvContextPtr ctx, u64 seed)
    : ctx_(std::move(ctx)), rng_(seed), secret_{detail::ternary(*ctx_, rng_)} {}

BfvPublicKey BfvKeyGenerator::make_public_key() {
  return {detail::rlwe_sample(*ctx_, secret_.s, 1, rng_)};
}

BfvRelinKey BfvKeyGenerator::make_relin_key() {
  return {detail::relin_key(*ctx_, secret_.s, 1, rng_)};
}

BfvEncryptor::BfvEncryptor(BfvContextPtr ctx, BfvPublicKey pk, u64 seed)
    : ctx_(std::move(ctx)), pk_(std::move(pk)), rng_(seed) {}

BfvCiphertext BfvEncryptor::encrypt(std::span<const u64> plain) {
  const Polynomial m = detail::to_ring(*ctx_, plain, ctx_->delta());
  return {detail::encrypt(*ctx_, pk_, m, 1, rng_)};
}

BfvDecryptor::BfvDecryptor(BfvContextPtr ctx, BfvSecretKey sk)
    : ctx_(std::move(ctx)), sk_(std::move(sk)) {}

std::vector<u64> BfvDecryptor::decrypt(const BfvCiphertext& ct) const {
  const u64 q = ctx_->q();
  const u64 t = ctx_->t();
  std::vector<u64> out = std::move(detail::phase(ct, sk_.s).coeffs());
  for (u64& v : out) v = static_cast<u64>((u128{t} * v + q / 2) / q) % t;
  return out;
}

double BfvDecryptor::noise_bits(const BfvCiphertext& ct,
                                std::span<const u64> plain) const {
  const u64 q = ctx_->q();
  const Polynomial clean = detail::to_ring(*ctx_, plain, ctx_->delta());
  const Polynomial noise = detail::phase(ct, sk_.s) - clean;
  double max_noise = 0;
  // min(d, q - d) is |d| for d centered in (-q/2, q/2).
  for (u64 d : noise.coeffs()) {
    max_noise = std::max(max_noise, static_cast<double>(std::min(d, q - d)));
  }
  return max_noise > 0 ? std::log2(max_noise) : 0.0;
}

BfvEvaluator::BfvEvaluator(BfvContextPtr ctx) : ctx_(std::move(ctx)) {}

BfvCiphertext BfvEvaluator::add(const BfvCiphertext& x, const BfvCiphertext& y) const {
  return {detail::add(x, y)};
}

BfvCiphertext BfvEvaluator::sub(const BfvCiphertext& x, const BfvCiphertext& y) const {
  return {detail::sub(x, y)};
}

BfvCiphertext BfvEvaluator::negate(const BfvCiphertext& x) const {
  return {detail::negate(x)};
}

BfvCiphertext BfvEvaluator::add_plain(const BfvCiphertext& x,
                                      std::span<const u64> plain) const {
  return {detail::add_plain(x, detail::to_ring(*ctx_, plain, ctx_->delta()))};
}

BfvCiphertext BfvEvaluator::mul_plain(const BfvCiphertext& x,
                                      std::span<const u64> plain) const {
  // Multiply by the *unscaled* plaintext polynomial: Delta*m1*m2 stays at one
  // Delta factor, so no rescale is needed.
  return {detail::mul_plain(x, detail::to_ring(*ctx_, plain, 1))};
}

BfvCiphertext BfvEvaluator::multiply(const BfvCiphertext& x, const BfvCiphertext& y,
                                     const BfvRelinKey& rk) const {
  const u64 q = ctx_->q();
  const u64 t = ctx_->t();
  const auto tensor = [&](const Polynomial& a, const Polynomial& b) {
    if (a.degree() != ctx_->degree()) throw std::invalid_argument("multiply: ring mismatch");
    return detail::exact_negacyclic_mul(a.coeffs(), b.coeffs(), q);
  };
  // Exact signed tensor product, rescaled by t/q with exact rounding.
  auto d1 = tensor(x.c0, y.c1);
  const auto d1b = tensor(x.c1, y.c0);
  for (std::size_t i = 0; i < d1.size(); ++i) d1[i] += d1b[i];
  detail::Ciphertext c{scale_round(tensor(x.c0, y.c0), t, q), scale_round(d1, t, q)};
  return {detail::relinearize(*ctx_, std::move(c), scale_round(tensor(x.c1, y.c1), t, q),
                              rk.digits)};
}

}  // namespace alchemist::bfv
