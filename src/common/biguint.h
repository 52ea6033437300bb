// Minimal arbitrary-precision unsigned integer.
//
// Used where exact multi-word arithmetic is required: composing RNS residues
// back into Z_Q (CRT), verifying Bconv/Modup/Moddown against ground truth, and
// computing moduli products Q = prod q_i. Little-endian 64-bit limbs; only the
// operations the FHE substrate needs are provided.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/modarith.h"

namespace alchemist {

class BigUInt {
 public:
  BigUInt() = default;
  explicit BigUInt(u64 value);

  static BigUInt product(const std::vector<u64>& factors);

  bool is_zero() const { return limbs_.empty(); }
  std::size_t bit_length() const;

  BigUInt& operator+=(const BigUInt& other);
  BigUInt& operator-=(const BigUInt& other);  // requires *this >= other
  BigUInt& mul_u64(u64 factor);
  BigUInt& add_u64(u64 value);

  friend BigUInt operator+(BigUInt a, const BigUInt& b) { return a += b; }
  friend BigUInt operator-(BigUInt a, const BigUInt& b) { return a -= b; }
  BigUInt operator*(const BigUInt& other) const;

  // Remainder modulo a word-sized divisor.
  u64 mod_u64(u64 divisor) const;
  // Exact division by a word-sized divisor; throws if not exact when
  // `require_exact` is set.
  BigUInt div_u64(u64 divisor, bool require_exact = false) const;

  int compare(const BigUInt& other) const;  // -1 / 0 / +1
  friend bool operator==(const BigUInt& a, const BigUInt& b) { return a.compare(b) == 0; }
  friend bool operator<(const BigUInt& a, const BigUInt& b) { return a.compare(b) < 0; }
  friend bool operator<=(const BigUInt& a, const BigUInt& b) { return a.compare(b) <= 0; }
  friend bool operator>(const BigUInt& a, const BigUInt& b) { return a.compare(b) > 0; }
  friend bool operator>=(const BigUInt& a, const BigUInt& b) { return a.compare(b) >= 0; }

  std::string to_hex() const;
  double to_double() const;

  const std::vector<u64>& limbs() const { return limbs_; }

 private:
  void trim();
  std::vector<u64> limbs_;  // little-endian, no trailing zero limbs
};

// Garner's mixed-radix CRT over one basis of pairwise coprime moduli, with
// its constants built once: compose() runs no inversion, only Shoup
// multiplies for the mixed-radix digits and one BigUInt Horner pass.
class CrtComposer {
 public:
  explicit CrtComposer(std::vector<u64> moduli);

  // The unique x in [0, prod moduli) with x ≡ residues[i] (mod moduli[i]).
  // Throws std::invalid_argument unless there is one residue per modulus.
  BigUInt compose(std::span<const u64> residues) const;

 private:
  std::vector<u64> moduli_;
  // For digit i: (q_0 ... q_{i-1})^-1 mod q_i, and (q_0 ... q_{j-1}) mod q_i
  // for j < i, as Shoup constants mod q_i.
  std::vector<MulModShoup> radix_inv_;
  std::vector<std::vector<MulModShoup>> radix_;
};

// CRT composition: the unique x in [0, prod moduli) with x ≡ residues[i]
// (mod moduli[i]). Moduli must be pairwise coprime.
BigUInt crt_compose(const std::vector<u64>& residues, const std::vector<u64>& moduli);

}  // namespace alchemist
