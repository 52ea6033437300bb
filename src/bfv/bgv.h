// BGV: the third classic arithmetic FHE scheme (LSB message encoding).
//
// Where BFV stores the message in the high bits (Delta * m) and rescales
// products by t/q, BGV stores it in the low bits: c0 + c1*s = m + t*e. Adds
// and multiplies act on the message directly modulo t; the tensor product is
// taken mod q and needs no scaling (the noise t*e grows instead — this
// single-modulus implementation supports one multiplicative level;
// production BGV adds modulus switching).
//
// Keys, encryption, relinearization and batching are the RLWE core shared
// with BFV (ring_ops.h), called with message scale 1 and noise multiplier t.
// BGV itself adds the centered decrypt and its mod-q tensor product.
#pragma once

#include "bfv/bfv.h"

namespace alchemist::bgv {

using bfv::BfvParams;

class BgvContext : public bfv::detail::RingContext {
 public:
  explicit BgvContext(const BfvParams& params) : RingContext(params, "BgvContext") {}
};

using BgvContextPtr = std::shared_ptr<const BgvContext>;

// c0 + c1*s = m + t*e.
struct BgvCiphertext : bfv::detail::Ciphertext {};

struct BgvSecretKey {
  Polynomial s;
};

// b = -(a*s + t*e).
struct BgvPublicKey : bfv::detail::RlweSample {};

struct BgvRelinKey {
  // digit i: b_i = -(a_i s + t e_i) + 2^(w*i) s^2.
  std::vector<bfv::detail::RlweSample> digits;
};

// Batching: identical plaintext ring to BFV — reuse bfv::BfvEncoder with a
// BfvContext of the same (n, t), or the helpers below.
std::vector<u64> bgv_encode(const BgvContext& ctx, std::span<const u64> values);
std::vector<u64> bgv_decode(const BgvContext& ctx, std::span<const u64> plain);

class BgvKeyGenerator {
 public:
  BgvKeyGenerator(BgvContextPtr ctx, u64 seed = 1);
  const BgvSecretKey& secret_key() const { return secret_; }
  BgvPublicKey make_public_key();
  BgvRelinKey make_relin_key();

 private:
  BgvContextPtr ctx_;
  Rng rng_;
  BgvSecretKey secret_;
};

class BgvEncryptor {
 public:
  BgvEncryptor(BgvContextPtr ctx, BgvPublicKey pk, u64 seed = 2);
  BgvCiphertext encrypt(std::span<const u64> plain);

 private:
  BgvContextPtr ctx_;
  BgvPublicKey pk_;
  Rng rng_;
};

class BgvDecryptor {
 public:
  BgvDecryptor(BgvContextPtr ctx, BgvSecretKey sk);
  std::vector<u64> decrypt(const BgvCiphertext& ct) const;

 private:
  BgvContextPtr ctx_;
  BgvSecretKey sk_;
};

class BgvEvaluator {
 public:
  explicit BgvEvaluator(BgvContextPtr ctx);
  BgvCiphertext add(const BgvCiphertext& x, const BgvCiphertext& y) const;
  BgvCiphertext sub(const BgvCiphertext& x, const BgvCiphertext& y) const;
  BgvCiphertext add_plain(const BgvCiphertext& x, std::span<const u64> plain) const;
  BgvCiphertext mul_plain(const BgvCiphertext& x, std::span<const u64> plain) const;
  // Tensor + relinearize: one multiplicative level at these parameters.
  BgvCiphertext multiply(const BgvCiphertext& x, const BgvCiphertext& y,
                         const BgvRelinKey& rk) const;

 private:
  BgvContextPtr ctx_;
};

}  // namespace alchemist::bgv
