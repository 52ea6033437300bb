#include "ckks/encoder.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/biguint.h"
#include "common/simd.h"

namespace alchemist::ckks {

namespace {

using Complex = std::complex<double>;

// The butterflies work on the real and imaginary parts as plain doubles.
// std::complex's operator* would add a library call for NaN/inf recovery,
// and GCC spills complex temporaries through the stack in a way that stalls
// store forwarding; together they made a butterfly about 6x slower.

// (a, b) <- (a + b·w, a - b·w)
void butterfly(Complex& a, Complex& b, Complex w) {
  const double ar = a.real(), ai = a.imag();
  const double br = b.real() * w.real() - b.imag() * w.imag();
  const double bi = b.real() * w.imag() + b.imag() * w.real();
  a = {ar + br, ai + bi};
  b = {ar - br, ai - bi};
}

// (a, b) <- (a + b, (a - b)·w)
void inverse_butterfly(Complex& a, Complex& b, Complex w) {
  const double dr = a.real() - b.real(), di = a.imag() - b.imag();
  a = {a.real() + b.real(), a.imag() + b.imag()};
  b = {dr * w.real() - di * w.imag(), dr * w.imag() + di * w.real()};
}

void bit_reverse_permute(std::span<Complex> v) {
  const std::size_t n = v.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j |= bit;
    if (i < j) std::swap(v[i], v[j]);
  }
}

// Special FFTs over the rotation group, on the N/2 slot values. At block
// length `len` the j-th butterfly twiddle is omega^((5^j mod 4len)·2N/4len):
// the stages walk the orbit of 5 instead of the powers of one root, so one
// pass of N/2·log2(N/2) butterflies evaluates m at every zeta_j.
// `omega` holds omega^t for t in [0, 2N), `rot_group` 5^j mod 2N.

// Slot values z_j -> v with m_k = Re(v_k), m_{k+N/2} = Im(v_k).
void special_ifft(std::span<Complex> v, std::span<const Complex> omega,
                  std::span<const std::size_t> rot_group) {
  const std::size_t num_slots = v.size();
  for (std::size_t len = num_slots; len >= 2; len >>= 1) {
    const std::size_t half = len >> 1;
    const std::size_t lenq = len << 2;
    const std::size_t gap = omega.size() / lenq;
    for (std::size_t i = 0; i < num_slots; i += len) {
      for (std::size_t j = 0; j < half; ++j) {
        inverse_butterfly(v[i + j], v[i + j + half],
                          omega[(lenq - (rot_group[j] & (lenq - 1))) * gap]);
      }
    }
  }
  bit_reverse_permute(v);
  const double inv_slots = 1.0 / static_cast<double>(num_slots);
  for (Complex& x : v) x *= inv_slots;
}

// v_k = m_k + i·m_{k+N/2} -> slot values m(zeta_j); inverse of special_ifft.
void special_fft(std::span<Complex> v, std::span<const Complex> omega,
                 std::span<const std::size_t> rot_group) {
  const std::size_t num_slots = v.size();
  bit_reverse_permute(v);
  for (std::size_t len = 2; len <= num_slots; len <<= 1) {
    const std::size_t half = len >> 1;
    const std::size_t lenq = len << 2;
    const std::size_t gap = omega.size() / lenq;
    for (std::size_t i = 0; i < num_slots; i += len) {
      for (std::size_t j = 0; j < half; ++j) {
        butterfly(v[i + j], v[i + j + half], omega[(rot_group[j] & (lenq - 1)) * gap]);
      }
    }
  }
}

bool is_finite(Complex z) { return std::isfinite(z.real()) && std::isfinite(z.imag()); }

void check_scale(double scale, const char* who) {
  if (!(scale > 0) || !std::isfinite(scale)) {
    throw std::invalid_argument(std::string(who) + ": scale must be positive and finite");
  }
}

i64 round_scaled(double scaled) {
  // Written so that NaN fails the test too.
  if (!(std::abs(scaled) < 0x1.0p62)) {
    throw std::invalid_argument("CkksEncoder::encode: scaled coefficient exceeds 2^62");
  }
  return std::llround(scaled);
}

}  // namespace

CkksEncoder::CkksEncoder(ContextPtr ctx) : ctx_(std::move(ctx)) {
  const std::size_t n = ctx_->degree();
  const std::size_t two_n = 2 * n;
  omega_powers_.resize(two_n);
  for (std::size_t t = 0; t < two_n; ++t) {
    const double angle = M_PI * static_cast<double>(t) / static_cast<double>(n);
    omega_powers_[t] = {std::cos(angle), std::sin(angle)};
  }
  rot_group_.resize(n / 2);
  std::size_t g = 1;
  for (std::size_t j = 0; j < n / 2; ++j) {
    rot_group_[j] = g;
    g = (g * 5) % two_n;
  }
}

void lift_signed(std::span<const i64> coeffs, const Modulus& mod, std::span<u64> out) {
  simd::lift_signed(coeffs.data(), coeffs.size(), mod.value(), out.data());
}

std::vector<i64> CkksEncoder::encode_coefficients(
    std::span<const std::complex<double>> values, double scale) const {
  const std::size_t n = ctx_->degree();
  const std::size_t num_slots = n / 2;
  if (values.size() > num_slots) {
    throw std::invalid_argument("CkksEncoder::encode: too many values");
  }
  check_scale(scale, "CkksEncoder::encode");
  // One NaN or infinity would spread to every coefficient through the FFT.
  if (!std::all_of(values.begin(), values.end(), is_finite)) {
    throw std::invalid_argument("CkksEncoder::encode: non-finite value");
  }

  std::vector<Complex> v(num_slots);
  std::copy(values.begin(), values.end(), v.begin());
  special_ifft(v, omega_powers_, rot_group_);

  std::vector<i64> rounded(n);
  for (std::size_t k = 0; k < num_slots; ++k) {
    rounded[k] = round_scaled(v[k].real() * scale);
    rounded[k + num_slots] = round_scaled(v[k].imag() * scale);
  }
  return rounded;
}

Plaintext CkksEncoder::encode(std::span<const std::complex<double>> values,
                              std::size_t level, double scale) const {
  const std::vector<i64> rounded = encode_coefficients(values, scale);
  RnsPoly poly(ctx_->degree(), ctx_->basis_at(level));
  for (std::size_t c = 0; c < poly.num_channels(); ++c) {
    lift_signed(rounded, poly.channel_modulus(c), poly.channel(c));
  }
  poly.to_ntt();
  return Plaintext{std::move(poly), level, scale};
}

Plaintext CkksEncoder::encode(std::span<const double> values, std::size_t level,
                              double scale) const {
  std::vector<std::complex<double>> complex_values(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) complex_values[i] = values[i];
  return encode(std::span<const std::complex<double>>(complex_values), level, scale);
}

std::vector<u64> CkksEncoder::constant_residues(double value, std::size_t level,
                                                double scale) const {
  check_scale(scale, "encode_constant");
  if (!std::isfinite(value)) throw std::invalid_argument("encode_constant: non-finite value");
  // Scaled constants can exceed 64 bits (e.g. a constant added at scale
  // Delta^2 during polynomial evaluation); form them in 128-bit and reduce
  // per channel. long double keeps ~64 mantissa bits, so the rounding error
  // is below 2^-60 relative — far under the CKKS noise floor.
  const long double scaled = static_cast<long double>(value) * scale;
  if (!(std::abs(scaled) < 0x1.0p120L)) {
    throw std::invalid_argument("encode_constant: scaled value exceeds 2^120");
  }
  const i128 v = static_cast<i128>(scaled);
  const u128 magnitude = static_cast<u128>(v < 0 ? -v : v);
  const std::vector<u64> basis = ctx_->basis_at(level);
  std::vector<u64> residues(basis.size());
  for (std::size_t c = 0; c < basis.size(); ++c) {
    const u64 r = static_cast<u64>(magnitude % basis[c]);
    residues[c] = v < 0 ? neg_mod(r, basis[c]) : r;
  }
  return residues;
}

Plaintext CkksEncoder::encode_constant(std::complex<double> value, std::size_t level,
                                       double scale) const {
  const std::size_t n = ctx_->degree();
  const std::vector<u64> re = constant_residues(value.real(), level, scale);
  const std::vector<u64> im = constant_residues(value.imag(), level, scale);
  RnsPoly poly(n, ctx_->basis_at(level));
  for (std::size_t c = 0; c < poly.num_channels(); ++c) {
    poly.channel(c)[0] = re[c];
    poly.channel(c)[n / 2] = im[c];
  }
  poly.to_ntt();
  return Plaintext{std::move(poly), level, scale};
}

std::vector<std::complex<double>> CkksEncoder::decode_centered(
    std::span<const double> centered_coeffs, double scale) const {
  const std::size_t n = ctx_->degree();
  const std::size_t num_slots = n / 2;
  if (centered_coeffs.size() != n) {
    throw std::invalid_argument("CkksEncoder::decode_centered: size mismatch");
  }
  std::vector<Complex> v(num_slots);
  for (std::size_t k = 0; k < num_slots; ++k) {
    v[k] = {centered_coeffs[k], centered_coeffs[k + num_slots]};
  }
  special_fft(v, omega_powers_, rot_group_);
  for (Complex& x : v) x /= scale;
  return v;
}

std::vector<std::complex<double>> CkksEncoder::decode(const Plaintext& pt) const {
  RnsPoly coeff = pt.poly;
  coeff.to_coeff();
  const std::vector<double> centered = to_centered_doubles(coeff);
  return decode_centered(centered, pt.scale);
}

std::vector<double> to_centered_doubles(const RnsPoly& coeff_form) {
  if (coeff_form.is_ntt()) {
    throw std::invalid_argument("to_centered_doubles: expected coefficient form");
  }
  const std::size_t n = coeff_form.degree();
  const std::size_t channels = coeff_form.num_channels();
  const BigUInt big_q = BigUInt::product(coeff_form.moduli());
  const BigUInt half_q = big_q.div_u64(2);
  const CrtComposer crt(coeff_form.moduli());

  std::vector<double> out(n);
  std::vector<u64> residues(channels);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t c = 0; c < channels; ++c) residues[c] = coeff_form.channel(c)[k];
    const BigUInt x = crt.compose(residues);
    if (x > half_q) {
      out[k] = -(big_q - x).to_double();
    } else {
      out[k] = x.to_double();
    }
  }
  return out;
}

}  // namespace alchemist::ckks
