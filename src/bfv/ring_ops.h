// The RLWE core shared by BFV (bfv.h) and BGV (bgv.h).
//
// Both schemes work in one ring R_q = Z_q[X]/(X^N+1), q a single NTT prime
// with q ≡ 1 (mod 2Nt), and run every RLWE step through the functions below:
// ternary secret, RLWE samples (public key and relin digits), encryption,
// base-2^w relinearization and Z_t batching. A scheme only passes in values:
// where the message sits (Delta*m for BFV, m for BGV) and the noise
// multiplier f (1 for BFV, t for BGV). Decrypt rounding and the tensor
// product stay in the schemes; BFV's exact product lives here too.
#pragma once

#include <span>
#include <vector>

#include "common/modarith.h"
#include "common/rng.h"
#include "poly/polynomial.h"

namespace alchemist::bfv {

struct BfvParams {
  std::size_t n = 1024;
  int q_bits = 55;      // ciphertext modulus (single NTT prime)
  u64 t = 65537;        // plaintext modulus, prime, t ≡ 1 (mod 2N)
  int relin_window = 16;  // base-2^w decomposition for relinearization
  double noise_sigma = 3.2;

  static BfvParams toy(std::size_t n = 1024) {
    BfvParams p;
    p.n = n;
    return p;
  }
};

namespace detail {

// Picks q after checking the parameters: N a power of two, t prime with
// t ≡ 1 (mod 2N), relin_window in [1, q_bits], q_bits in [3, 62] (the prime
// search's range). Throws std::invalid_argument otherwise; `who` names the
// caller in the message.
class RingContext {
 public:
  RingContext(const BfvParams& params, const char* who);

  const BfvParams& params() const { return params_; }
  std::size_t degree() const { return params_.n; }
  u64 q() const { return q_; }
  u64 t() const { return params_.t; }
  std::size_t relin_digits() const { return relin_digits_; }

 private:
  BfvParams params_;
  u64 q_;
  std::size_t relin_digits_;
};

// c0 + c1*s = (message) + f*e.
struct Ciphertext {
  Polynomial c0;
  Polynomial c1;
};

// b + a*s = -f*e + extra: the public key (extra = 0) and each relin digit
// i (extra = 2^(w*i) s^2).
struct RlweSample {
  Polynomial b;
  Polynomial a;
};

// Uniform ternary ring element (the secret s, and u in encryption).
Polynomial ternary(const RingContext& ctx, Rng& rng);
// (-(a*s + f*e), a) for uniform a and Gaussian e: the public key.
RlweSample rlwe_sample(const RingContext& ctx, const Polynomial& s, u64 f, Rng& rng);
// One RLWE sample per relin digit i, with 2^(w*i) s^2 added to b.
std::vector<RlweSample> relin_key(const RingContext& ctx, const Polynomial& s, u64 f,
                                  Rng& rng);

// scale * (plain mod t) in R_q; throws unless plain has N coefficients.
Polynomial to_ring(const RingContext& ctx, std::span<const u64> plain, u64 scale);

// (b*u + f*e1 + m, a*u + f*e2).
Ciphertext encrypt(const RingContext& ctx, const RlweSample& pk, const Polynomial& m,
                   u64 f, Rng& rng);
// c0 + c1*s.
Polynomial phase(const Ciphertext& ct, const Polynomial& s);

// Ring-shape mismatches throw from the Polynomial operators.
Ciphertext add(Ciphertext x, const Ciphertext& y);
Ciphertext sub(Ciphertext x, const Ciphertext& y);
Ciphertext negate(Ciphertext x);
Ciphertext add_plain(Ciphertext x, const Polynomial& m);
Ciphertext mul_plain(const Ciphertext& x, const Polynomial& p);

// (c0, c1, c2) -> (c0, c1) + sum_i digit_i(c2) * rk[i], digits base 2^w.
// Throws if rk has fewer than relin_digits() samples.
Ciphertext relinearize(const RingContext& ctx, Ciphertext c, const Polynomial& c2,
                       const std::vector<RlweSample>& rk);

// Exact negacyclic convolution of centered mod-q polynomials as signed
// 128-bit integers (double-prime NTT + CRT; |result| <= N*(q/2)^2 < 2^118).
// BFV's tensor product, before its t/q rescale.
std::vector<i128> exact_negacyclic_mul(std::span<const u64> a,
                                       std::span<const u64> b, u64 q);

// SIMD batching over Z_t (t prime, t ≡ 1 mod 2N): slot values <-> plaintext
// polynomial coefficients, via the negacyclic NTT mod t.
std::vector<u64> batch_encode(std::size_t n, u64 t, std::span<const u64> values);
std::vector<u64> batch_decode(std::size_t n, u64 t, std::span<const u64> plain);

}  // namespace detail
}  // namespace alchemist::bfv
