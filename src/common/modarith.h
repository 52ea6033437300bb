// Modular arithmetic over word-sized prime moduli.
//
// All FHE substrates in this repository (NTT, RNS base conversion, CKKS, TFHE)
// are built on arithmetic modulo primes q < 2^62. Products are formed in
// unsigned 128-bit arithmetic and reduced with Barrett reduction; hot paths
// with a fixed operand (NTT twiddle factors) use Shoup multiplication, which
// needs no 128-bit division at all.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace alchemist {

using u32 = std::uint32_t;
using u64 = std::uint64_t;
using u128 = unsigned __int128;
using i64 = std::int64_t;
using i128 = __int128;

// Maximum supported modulus: products of two operands must fit the Barrett
// reduction's headroom (q < 2^62 keeps the final conditional subtraction to
// at most one step).
inline constexpr u64 kMaxModulus = (u64{1} << 62) - 1;

constexpr bool is_power_of_two(u64 x) { return x != 0 && (x & (x - 1)) == 0; }

constexpr u64 add_mod(u64 a, u64 b, u64 q) {
  u64 s = a + b;  // no overflow: a, b < q < 2^62
  return s >= q ? s - q : s;
}

constexpr u64 sub_mod(u64 a, u64 b, u64 q) { return a >= b ? a - b : a + q - b; }

constexpr u64 neg_mod(u64 a, u64 q) { return a == 0 ? 0 : q - a; }

inline u64 mul_mod(u64 a, u64 b, u64 q) {
  return static_cast<u64>((u128{a} * b) % q);
}

inline u64 pow_mod(u64 base, u64 exp, u64 q) {
  u64 result = 1 % q;
  base %= q;
  while (exp != 0) {
    if (exp & 1) result = mul_mod(result, base, q);
    base = mul_mod(base, base, q);
    exp >>= 1;
  }
  return result;
}

// Modular inverse via extended Euclid. Throws if gcd(a, q) != 1.
inline u64 inv_mod(u64 a, u64 q) {
  i64 t = 0, new_t = 1;
  i64 r = static_cast<i64>(q), new_r = static_cast<i64>(a % q);
  while (new_r != 0) {
    i64 quotient = r / new_r;
    t -= quotient * new_t;
    std::swap(t, new_t);
    r -= quotient * new_r;
    std::swap(r, new_r);
  }
  if (r != 1) {
    throw std::invalid_argument("inv_mod: " + std::to_string(a) +
                                " is not invertible mod " + std::to_string(q));
  }
  return static_cast<u64>(t < 0 ? t + static_cast<i64>(q) : t);
}

// Prime modulus with the Barrett constant floor(2^128 / q) precomputed, so a
// 128-bit product reduces with three 64x64 multiplies and one correction.
class Modulus {
 public:
  Modulus() = default;

  explicit Modulus(u64 q) : q_(q) {
    if (q < 2 || q > kMaxModulus) {
      throw std::invalid_argument("Modulus: q out of range: " + std::to_string(q));
    }
    // floor((2^128 - 1) / q) == floor(2^128 / q) for any q that does not
    // divide 2^128, i.e. any q that is not a power of two; NTT primes are odd.
    u128 ratio = ~u128{0} / q;
    ratio_hi_ = static_cast<u64>(ratio >> 64);
    ratio_lo_ = static_cast<u64>(ratio);
  }

  u64 value() const { return q_; }

  // Barrett reduction of a full 128-bit value into [0, q).
  u64 reduce(u128 z) const {
    const u64 zlo = static_cast<u64>(z);
    const u64 zhi = static_cast<u64>(z >> 64);
    // Estimate the quotient: top 64 bits of z * floor(2^128/q) / 2^128.
    const u64 carry = static_cast<u64>((u128{zlo} * ratio_lo_) >> 64);
    const u128 mid = u128{zlo} * ratio_hi_ + carry;
    const u128 mid2 = u128{zhi} * ratio_lo_ + static_cast<u64>(mid);
    const u64 q_hat = zhi * ratio_hi_ + static_cast<u64>(mid >> 64) +
                      static_cast<u64>(mid2 >> 64);
    u64 r = zlo - q_hat * q_;
    if (r >= q_) r -= q_;
    return r;
  }

  u64 reduce(u64 z) const { return reduce(u128{z}); }

  u64 mul(u64 a, u64 b) const { return reduce(u128{a} * b); }
  u64 add(u64 a, u64 b) const { return add_mod(a, b, q_); }
  u64 sub(u64 a, u64 b) const { return sub_mod(a, b, q_); }
  u64 neg(u64 a) const { return neg_mod(a, q_); }
  u64 pow(u64 base, u64 exp) const { return pow_mod(base, exp, q_); }
  u64 inv(u64 a) const { return inv_mod(a, q_); }

  friend bool operator==(const Modulus& a, const Modulus& b) { return a.q_ == b.q_; }

 private:
  u64 q_ = 0;
  u64 ratio_hi_ = 0;  // floor(2^128 / q) >> 64
  u64 ratio_lo_ = 0;  // floor(2^128 / q) & (2^64 - 1)
};

// Shoup multiplication: multiply by a *fixed* operand w modulo q using a
// precomputed quotient floor(w * 2^64 / q). The result of mul(x) is in [0, q).
// This is the workhorse of every NTT butterfly.
class MulModShoup {
 public:
  MulModShoup() = default;

  MulModShoup(u64 operand, u64 q) : operand_(operand), q_(q) {
    quotient_ = static_cast<u64>((u128{operand} << 64) / q);
  }

  u64 operand() const { return operand_; }
  u64 quotient() const { return quotient_; }

  u64 mul(u64 x) const {
    const u64 hi = static_cast<u64>((u128{quotient_} * x) >> 64);
    u64 r = operand_ * x - hi * q_;
    if (r >= q_) r -= q_;
    return r;
  }

  // Lazy (Harvey) variant: skips the final conditional subtraction, so the
  // result lives in [0, 2q). Valid for any 64-bit x — the butterflies feed it
  // values up to 4q, which stays below 2^64 because q <= kMaxModulus < 2^62.
  u64 mul_lazy(u64 x) const {
    const u64 hi = static_cast<u64>((u128{quotient_} * x) >> 64);
    return operand_ * x - hi * q_;
  }

 private:
  u64 operand_ = 0;
  u64 quotient_ = 0;
  u64 q_ = 2;
};

}  // namespace alchemist
