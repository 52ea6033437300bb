// Dense polynomial over a single prime modulus in R_q = Z_q[X]/(X^N + 1).
//
// The single-modulus ring of BFV and BGV (their shared RLWE core,
// bfv/ring_ops.h), and the reference that tests check the multi-channel
// RnsPoly (which CKKS works with) against, channel by channel. TFHE does not
// use it; its rings are torus polynomials (tfhe/torus_poly.h).
#pragma once

#include <cstddef>
#include <vector>

#include "common/modarith.h"

namespace alchemist {

class Polynomial {
 public:
  Polynomial() = default;
  Polynomial(std::size_t n, u64 q);
  Polynomial(std::vector<u64> coeffs, u64 q);

  std::size_t degree() const { return coeffs_.size(); }
  u64 modulus() const { return mod_.value(); }
  const Modulus& mod() const { return mod_; }

  u64& operator[](std::size_t i) { return coeffs_[i]; }
  u64 operator[](std::size_t i) const { return coeffs_[i]; }
  const std::vector<u64>& coeffs() const { return coeffs_; }
  std::vector<u64>& coeffs() { return coeffs_; }

  Polynomial& operator+=(const Polynomial& other);
  Polynomial& operator-=(const Polynomial& other);
  Polynomial& negate();
  Polynomial& mul_scalar(u64 scalar);

  friend Polynomial operator+(Polynomial a, const Polynomial& b) { return a += b; }
  friend Polynomial operator-(Polynomial a, const Polynomial& b) { return a -= b; }

  // Negacyclic product via NTT (O(N log N)).
  Polynomial operator*(const Polynomial& other) const;

  // Negacyclic product by schoolbook convolution (O(N^2)) — the ground-truth
  // reference used by tests.
  Polynomial mul_schoolbook(const Polynomial& other) const;

  // X^i -> X^(i*g mod 2N) with sign folding — the Galois automorphism used by
  // CKKS rotations. g must be odd.
  Polynomial automorphism(u64 galois_elt) const;

  bool operator==(const Polynomial& other) const = default;

 private:
  std::vector<u64> coeffs_;
  Modulus mod_;
};

}  // namespace alchemist
