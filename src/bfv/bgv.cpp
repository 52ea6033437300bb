#include "bfv/bgv.h"

namespace alchemist::bgv {

namespace detail = bfv::detail;

std::vector<u64> bgv_encode(const BgvContext& ctx, std::span<const u64> values) {
  return detail::batch_encode(ctx.degree(), ctx.t(), values);
}

std::vector<u64> bgv_decode(const BgvContext& ctx, std::span<const u64> plain) {
  return detail::batch_decode(ctx.degree(), ctx.t(), plain);
}

BgvKeyGenerator::BgvKeyGenerator(BgvContextPtr ctx, u64 seed)
    : ctx_(std::move(ctx)), rng_(seed), secret_{detail::ternary(*ctx_, rng_)} {}

BgvPublicKey BgvKeyGenerator::make_public_key() {
  // The noise rides at t-multiples so it vanishes mod t.
  return {detail::rlwe_sample(*ctx_, secret_.s, ctx_->t(), rng_)};
}

BgvRelinKey BgvKeyGenerator::make_relin_key() {
  return {detail::relin_key(*ctx_, secret_.s, ctx_->t(), rng_)};
}

BgvEncryptor::BgvEncryptor(BgvContextPtr ctx, BgvPublicKey pk, u64 seed)
    : ctx_(std::move(ctx)), pk_(std::move(pk)), rng_(seed) {}

BgvCiphertext BgvEncryptor::encrypt(std::span<const u64> plain) {
  const Polynomial m = detail::to_ring(*ctx_, plain, 1);
  return {detail::encrypt(*ctx_, pk_, m, ctx_->t(), rng_)};
}

BgvDecryptor::BgvDecryptor(BgvContextPtr ctx, BgvSecretKey sk)
    : ctx_(std::move(ctx)), sk_(std::move(sk)) {}

std::vector<u64> BgvDecryptor::decrypt(const BgvCiphertext& ct) const {
  const u64 q = ctx_->q();
  const u64 t = ctx_->t();
  std::vector<u64> out = std::move(detail::phase(ct, sk_.s).coeffs());
  // Centered lift, then mod t: the message sits in the low bits.
  for (u64& v : out) v = v <= q / 2 ? v % t : (t - (q - v) % t) % t;
  return out;
}

BgvEvaluator::BgvEvaluator(BgvContextPtr ctx) : ctx_(std::move(ctx)) {}

BgvCiphertext BgvEvaluator::add(const BgvCiphertext& x, const BgvCiphertext& y) const {
  return {detail::add(x, y)};
}

BgvCiphertext BgvEvaluator::sub(const BgvCiphertext& x, const BgvCiphertext& y) const {
  return {detail::sub(x, y)};
}

BgvCiphertext BgvEvaluator::add_plain(const BgvCiphertext& x,
                                      std::span<const u64> plain) const {
  return {detail::add_plain(x, detail::to_ring(*ctx_, plain, 1))};
}

BgvCiphertext BgvEvaluator::mul_plain(const BgvCiphertext& x,
                                      std::span<const u64> plain) const {
  return {detail::mul_plain(x, detail::to_ring(*ctx_, plain, 1))};
}

BgvCiphertext BgvEvaluator::multiply(const BgvCiphertext& x, const BgvCiphertext& y,
                                     const BgvRelinKey& rk) const {
  // The tensor product mod q — no rescaling in BGV; the t*e noise multiplies
  // instead.
  Polynomial d1 = x.c0 * y.c1;
  d1 += x.c1 * y.c0;
  return {detail::relinearize(*ctx_, {x.c0 * y.c0, std::move(d1)}, x.c1 * y.c1, rk.digits)};
}

}  // namespace alchemist::bgv
