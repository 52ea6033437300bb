// BFV: exact integer arithmetic FHE (the paper's other arithmetic scheme).
//
// Textbook single-modulus BFV over R_q = Z_q[X]/(X^N+1) with plaintext ring
// R_t, t prime and t ≡ 1 (mod 2N) so the plaintext ring splits into N SIMD
// slots (batching via the negacyclic NTT mod t). Messages are scaled by
// Delta = floor(q/t); multiplication computes the exact integer tensor
// product (double-prime NTT + CRT, no floating point) and rescales by t/q
// with exact rounding. Relinearization uses base-2^w digit decomposition.
//
// Unlike CKKS the arithmetic is exact: decrypt(enc(a) * enc(b)) == a*b mod t,
// bit for bit, while noise stays under Delta/2.
//
// Keys, encryption, relinearization and batching are the RLWE core shared
// with BGV (ring_ops.h), called with message scale Delta and noise multiplier
// 1. BFV itself adds the t/q-rounding decrypt and the exact tensor product.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "bfv/ring_ops.h"

namespace alchemist::bfv {

class BfvContext : public detail::RingContext {
 public:
  explicit BfvContext(const BfvParams& params);
  u64 delta() const { return q() / t(); }
};

using BfvContextPtr = std::shared_ptr<const BfvContext>;

// c0 + c1*s = Delta*m + e.
struct BfvCiphertext : detail::Ciphertext {};

struct BfvSecretKey {
  Polynomial s;  // ternary, mod q
};

// b = -(a*s + e).
struct BfvPublicKey : detail::RlweSample {};

struct BfvRelinKey {
  // digit i: b_i = -(a_i s + e_i) + 2^(w*i) s^2.
  std::vector<detail::RlweSample> digits;
};

// SIMD batching: vector of N values mod t <-> plaintext polynomial.
class BfvEncoder {
 public:
  explicit BfvEncoder(BfvContextPtr ctx);
  // values.size() <= N; the rest is zero-filled.
  std::vector<u64> encode(std::span<const u64> values) const;
  std::vector<u64> decode(std::span<const u64> plain) const;

 private:
  BfvContextPtr ctx_;
};

class BfvKeyGenerator {
 public:
  BfvKeyGenerator(BfvContextPtr ctx, u64 seed = 1);
  const BfvSecretKey& secret_key() const { return secret_; }
  BfvPublicKey make_public_key();
  BfvRelinKey make_relin_key();

 private:
  BfvContextPtr ctx_;
  Rng rng_;
  BfvSecretKey secret_;
};

class BfvEncryptor {
 public:
  BfvEncryptor(BfvContextPtr ctx, BfvPublicKey pk, u64 seed = 2);
  BfvCiphertext encrypt(std::span<const u64> plain);

 private:
  BfvContextPtr ctx_;
  BfvPublicKey pk_;
  Rng rng_;
};

class BfvDecryptor {
 public:
  BfvDecryptor(BfvContextPtr ctx, BfvSecretKey sk);
  std::vector<u64> decrypt(const BfvCiphertext& ct) const;
  // Infinity norm of the noise, in bits (for budget tests).
  double noise_bits(const BfvCiphertext& ct, std::span<const u64> plain) const;

 private:
  BfvContextPtr ctx_;
  BfvSecretKey sk_;
};

class BfvEvaluator {
 public:
  explicit BfvEvaluator(BfvContextPtr ctx);
  BfvCiphertext add(const BfvCiphertext& x, const BfvCiphertext& y) const;
  BfvCiphertext sub(const BfvCiphertext& x, const BfvCiphertext& y) const;
  BfvCiphertext negate(const BfvCiphertext& x) const;
  BfvCiphertext add_plain(const BfvCiphertext& x, std::span<const u64> plain) const;
  BfvCiphertext mul_plain(const BfvCiphertext& x, std::span<const u64> plain) const;
  // Full multiply: exact tensor, t/q rescale, relinearize.
  BfvCiphertext multiply(const BfvCiphertext& x, const BfvCiphertext& y,
                         const BfvRelinKey& rk) const;

 private:
  BfvContextPtr ctx_;
};

}  // namespace alchemist::bfv
