// Torus64 scalar helpers: encoding, modulus switching, gadget decomposition.
#pragma once

#include <cstdint>
#include <vector>

#include "common/modarith.h"

namespace alchemist::tfhe {

using Torus = u64;  // t represents t / 2^64 in R/Z

// Encode x in [-0.5, 0.5) (or any real, taken mod 1) on the torus.
inline Torus torus_from_double(double x) {
  x -= std::int64_t(x);  // into (-1, 1)
  return static_cast<Torus>(static_cast<i64>(x * 0x1.0p64));
}

// Decode to the centered representative in [-0.5, 0.5).
inline double torus_to_double(Torus t) {
  return static_cast<double>(static_cast<i64>(t)) * 0x1.0p-64;
}

// Encode message m out of `space` equidistant torus points: m / space.
inline Torus torus_from_message(u64 m, u64 space) {
  // (m / space) * 2^64, exact when space is a power of two.
  return static_cast<Torus>((u128{m % space} << 64) / space);
}

// Nearest of `space` equidistant points.
inline u64 torus_to_message(Torus t, u64 space) {
  const u128 scaled = u128{t} * space + (u128{1} << 63);
  return static_cast<u64>(scaled >> 64) % space;
}

// Round a torus element to Z_{2N} (the blind-rotation modulus switch).
inline u64 torus_to_z2n(Torus t, std::size_t n) {
  const u64 two_n = 2 * static_cast<u64>(n);
  // round(t * 2N / 2^64)
  const u128 scaled = u128{t} * two_n + (u128{1} << 63);
  return static_cast<u64>(scaled >> 64) % two_n;
}

// Signed gadget decomposition of a torus value: digits d_1..d_l with
// d_i in [-Bg/2, Bg/2) and sum_i d_i * 2^(64 - i*bg_bits) = t - eps,
// |eps| <= 2^(64 - l*bg_bits - 1).
//
// The constructor validates the base and length (throws
// std::invalid_argument unless 0 < bg_bits and bg_bits * l <= 63) and
// precomputes the rounding offset, so decompose() is a shift and a mask per
// digit, written into the caller's buffer.
class Gadget {
 public:
  Gadget(int bg_bits, std::size_t l);

  // Largest digit magnitude, Bg/2.
  u64 half_base() const { return half_; }
  int bg_bits() const { return bg_bits_; }
  std::size_t length() const { return l_; }
  // The rounding offset added before the digits are cut out of t.
  u64 offset() const { return offset_; }

  // Digit d_{i+1} of t, i in [0, l).
  i64 digit(Torus t, std::size_t i) const {
    // Offset trick (TFHE-lib): adding half the base at every level plus the
    // rounding offset turns truncation into centered rounding.
    const unsigned shift = 64 - static_cast<unsigned>((i + 1) * bg_bits_);
    return static_cast<i64>(((t + offset_) >> shift) & mask_) - static_cast<i64>(half_);
  }

  // Writes d_1..d_l of t to out[0..l).
  void decompose(Torus t, i64* out) const {
    for (std::size_t i = 0; i < l_; ++i) out[i] = digit(t, i);
  }

 private:
  int bg_bits_;
  std::size_t l_;
  u64 half_;
  u64 mask_;
  u64 offset_;
};

// The gadget scale factors 2^(64 - i*bg_bits) for i = 1..l.
std::vector<Torus> gadget_scales(int bg_bits, std::size_t l);

}  // namespace alchemist::tfhe
