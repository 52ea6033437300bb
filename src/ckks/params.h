// CKKS parameter set and context (moduli chains, digit partition).
//
// RNS-CKKS with hybrid keyswitching: the ciphertext modulus Q = prod q_i is a
// chain of NTT primes; rescaling drops primes from the tail. Keyswitching
// decomposes over `dnum` digit groups of alpha = ceil(L/dnum) primes each and
// temporarily raises to Q·P with K = alpha special primes (the paper's
// Modup/Moddown, Eqs. 2-3).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/modarith.h"

namespace alchemist::ckks {

struct CkksParams {
  std::size_t n = 4096;          // ring degree; slots = n/2
  std::size_t num_levels = 4;    // L: ciphertext primes q_0..q_{L-1}
  std::size_t dnum = 2;          // decomposition number (digits)
  int first_prime_bits = 50;     // q_0: holds the final message magnitude
  int prime_bits = 40;           // q_1..q_{L-1}: rescaling primes (paper: 36)
  int special_prime_bits = 50;   // p_0..p_{K-1}
  int log_scale = 40;            // Delta = 2^log_scale
  double noise_sigma = 3.2;
  // 0 = dense ternary secret; h > 0 = sparse ternary with h nonzero
  // coefficients (standard for bootstrapping: bounds the ModRaise overflow
  // I by ~sqrt(h)).
  std::size_t secret_hamming_weight = 0;

  std::size_t slots() const { return n / 2; }
  std::size_t alpha() const { return (num_levels + dnum - 1) / dnum; }
  std::size_t num_special() const { return alpha(); }
  double scale() const { return static_cast<double>(u64{1} << log_scale); }

  // A small parameter set for functional tests and examples.
  static CkksParams toy(std::size_t n = 2048, std::size_t levels = 4,
                        std::size_t dnum_ = 2) {
    CkksParams p;
    p.n = n;
    p.num_levels = levels;
    p.dnum = dnum_;
    p.first_prime_bits = 50;
    p.prime_bits = 40;
    p.special_prime_bits = 50;
    p.log_scale = 40;
    return p;
  }
};

// Derived data shared by every actor of the scheme: the moduli chain and the
// digit partition. Immutable after construction; pass by shared_ptr.
class CkksContext {
 public:
  explicit CkksContext(const CkksParams& params);

  const CkksParams& params() const { return params_; }
  std::size_t degree() const { return params_.n; }

  // Ciphertext primes, level L first dropped last: q_moduli()[0..level).
  const std::vector<u64>& q_moduli() const { return q_moduli_; }
  const std::vector<u64>& p_moduli() const { return p_moduli_; }

  // Basis {q_0..q_{level-1}} for a ciphertext at `level` (level in [1, L]).
  std::vector<u64> basis_at(std::size_t level) const;
  // Basis {q_0..q_{level-1}, p_0..p_{K-1}} used during keyswitching.
  std::vector<u64> extended_basis_at(std::size_t level) const;
  // Full key basis Q·P (level = L).
  std::vector<u64> key_basis() const { return extended_basis_at(params_.num_levels); }

  // Digit group j covers prime indices [j*alpha, min((j+1)*alpha, level)).
  std::size_t num_digits_at(std::size_t level) const;
  std::pair<std::size_t, std::size_t> digit_range(std::size_t digit,
                                                  std::size_t level) const;

  // Galois element for a rotation by `steps` slots (5^steps mod 2N), and for
  // complex conjugation (2N - 1).
  u64 galois_elt_for_rotation(int steps) const;
  u64 galois_elt_conjugate() const { return 2 * params_.n - 1; }

 private:
  CkksParams params_;
  std::vector<u64> q_moduli_;
  std::vector<u64> p_moduli_;
};

using ContextPtr = std::shared_ptr<const CkksContext>;

}  // namespace alchemist::ckks
