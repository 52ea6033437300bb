// CKKS canonical-embedding encoder.
//
// A message vector z in C^(N/2) is mapped to the real polynomial m(X) with
// m(zeta_j) = z_j at the evaluation points zeta_j = omega^(5^j mod 2N)
// (omega = exp(i*pi/N), the primitive 2N-th root), then scaled by Delta and
// rounded. The orbit of 5 orders the slots so that the Galois automorphism
// X -> X^(5^r) is exactly a cyclic rotation of the slot vector by r.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "ckks/params.h"
#include "poly/rns.h"

namespace alchemist::ckks {

// Scaled, encoded message over the RNS basis of some level. NTT form.
struct Plaintext {
  RnsPoly poly;       // NTT form over basis_at(level)
  std::size_t level;  // number of active q primes
  double scale;
};

class CkksEncoder {
 public:
  explicit CkksEncoder(ContextPtr ctx);

  std::size_t slots() const { return ctx_->params().slots(); }

  // Values beyond `values.size()` are zero-padded; values.size() must not
  // exceed slots(). Throws std::invalid_argument on a non-finite value or
  // scale, or when a scaled coefficient reaches 2^62.
  //
  // Encode runs the special inverse FFT over the rotation group (5^j) in
  // O(N log N), then rounds, lifts into the L channels of basis_at(level) in
  // O(L·N) and runs one NTT per channel, O(L·N log N). Decode runs the
  // matching forward FFT, O(N log N). Error bound, checked against the dense
  // O(N·slots) embedding sums in tests/test_ckks.cpp for N = 4..4096: each
  // unscaled coefficient of an encode is within 1e-12·max_j|z_j| of the
  // dense one, and each decoded slot within 1e-12·max_j|slot_j|. Measured
  // gaps are at most 7e-16 (encode, rounding at scale 2^50 included) and
  // 9e-15 (decode, N = 4096) of those maxima.
  Plaintext encode(std::span<const std::complex<double>> values,
                   std::size_t level, double scale) const;
  Plaintext encode(std::span<const double> values, std::size_t level,
                   double scale) const;

  // The level-free half of encode: the special IFFT and rounding, giving
  // the N signed coefficients of the scaled message, each below 2^62 in
  // magnitude. encode is this, then lift_signed into every channel of the
  // level, then one NTT per channel. Same checks as encode.
  std::vector<i64> encode_coefficients(std::span<const std::complex<double>> values,
                                       double scale) const;

  // Broadcast a + b*i to every slot as the two-coefficient polynomial
  // a + b*X^(N/2) (since 5^j ≡ 1 mod 4, the embedding sends X^(N/2) to +i in
  // every slot). Needs no FFT: O(L) residues plus the L NTTs. The scaled
  // value is formed in 128 bits and must stay below 2^120; non-finite
  // values and scales throw std::invalid_argument.
  Plaintext encode_constant(std::complex<double> value, std::size_t level,
                            double scale) const;

  // The residues of a real constant value·scale (truncated toward zero) in
  // each channel of basis_at(level), with encode_constant's checks. The NTT
  // of a constant polynomial is that constant in every slot, so these are
  // also its NTT-form residues: real scalar ops multiply or add them per
  // channel without a plaintext.
  std::vector<u64> constant_residues(double value, std::size_t level,
                                     double scale) const;

  // Exact decode: CRT-composes the RNS residues, centers mod Q, divides by
  // the scale and evaluates the embedding.
  std::vector<std::complex<double>> decode(const Plaintext& pt) const;

  // Decode pre-centered coefficients (used by the decryptor).
  std::vector<std::complex<double>> decode_centered(
      std::span<const double> centered_coeffs, double scale) const;

 private:
  ContextPtr ctx_;
  std::vector<std::complex<double>> omega_powers_;  // omega^t, t in [0, 2N)
  std::vector<std::size_t> rot_group_;              // 5^j mod 2N, j in [0, N/2)
};

// out[k] = coeffs[k] mod q: rounded coefficients lifted into one RNS
// channel. Each |coeffs[k]| must be below 2^62.
void lift_signed(std::span<const i64> coeffs, const Modulus& mod, std::span<u64> out);

// CRT-compose each coefficient of a coefficient-form RnsPoly and center it
// into (-Q/2, Q/2], returned as doubles. Values must be small enough for a
// double (|x| < 2^1000 trivially, precision loss beyond 2^53 is the caller's
// concern — decrypted CKKS coefficients are Delta-scaled messages, far below).
std::vector<double> to_centered_doubles(const RnsPoly& coeff_form);

}  // namespace alchemist::ckks
