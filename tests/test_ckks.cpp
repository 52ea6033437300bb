#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <memory>
#include <span>
#include <string>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "ckks/params.h"
#include "common/rng.h"
#include "common/simd.h"

namespace alchemist::ckks {
namespace {

using Complex = std::complex<double>;

struct CkksFixture {
  ContextPtr ctx;
  std::unique_ptr<CkksEncoder> encoder;
  std::unique_ptr<KeyGenerator> keygen;
  std::unique_ptr<Encryptor> encryptor;
  std::unique_ptr<Decryptor> decryptor;
  std::unique_ptr<Evaluator> evaluator;

  explicit CkksFixture(const CkksParams& params) {
    ctx = std::make_shared<CkksContext>(params);
    encoder = std::make_unique<CkksEncoder>(ctx);
    keygen = std::make_unique<KeyGenerator>(ctx, /*seed=*/7);
    encryptor = std::make_unique<Encryptor>(ctx, keygen->make_public_key());
    decryptor = std::make_unique<Decryptor>(ctx, keygen->secret_key());
    evaluator = std::make_unique<Evaluator>(ctx);
  }
};

std::vector<Complex> random_message(std::size_t count, u64 seed, double mag = 1.0) {
  Rng rng(seed);
  std::vector<Complex> z(count);
  for (Complex& v : z) {
    v = {mag * (2 * rng.uniform_real() - 1), mag * (2 * rng.uniform_real() - 1)};
  }
  return z;
}

template <typename T>
double max_error(const std::vector<T>& a, const std::vector<T>& b) {
  double err = 0;
  for (std::size_t i = 0; i < a.size(); ++i) err = std::max(err, std::abs(a[i] - b[i]));
  return err;
}

// omega^t for t in [0, 2N), omega = exp(i*pi/N).
std::vector<Complex> omega_powers(std::size_t n) {
  std::vector<Complex> omega(2 * n);
  for (std::size_t t = 0; t < 2 * n; ++t) {
    omega[t] = std::polar(1.0, M_PI * static_cast<double>(t) / static_cast<double>(n));
  }
  return omega;
}

// The dense O(N·slots) embedding sums the encoder ran before its special
// FFT, kept as the reference for the FFT paths. Inverse embedding, unscaled:
// m_k = (2/N) * sum_j Re(z_j * conj(zeta_j^k)), zeta_j = omega^(5^j mod 2N).
std::vector<double> dense_inverse_embedding(std::span<const Complex> z, std::size_t n) {
  const std::size_t two_n = 2 * n;
  const std::vector<Complex> omega = omega_powers(n);
  std::vector<double> m(n, 0.0);
  std::size_t sigma = 1;
  for (const Complex& zj : z) {
    for (std::size_t k = 0; k < n; ++k) {
      const Complex& w = omega[(sigma * k) % two_n];
      m[k] += zj.real() * w.real() + zj.imag() * w.imag();
    }
    sigma = (sigma * 5) % two_n;
  }
  for (double& x : m) x *= 2.0 / static_cast<double>(n);
  return m;
}

// Forward embedding: slot j = sum_k c_k * zeta_j^k.
std::vector<Complex> dense_embedding(std::span<const double> c) {
  const std::size_t n = c.size();
  const std::size_t two_n = 2 * n;
  const std::vector<Complex> omega = omega_powers(n);
  std::vector<Complex> out(n / 2);
  std::size_t sigma = 1;
  for (Complex& slot : out) {
    for (std::size_t k = 0; k < n; ++k) slot += c[k] * omega[(sigma * k) % two_n];
    sigma = (sigma * 5) % two_n;
  }
  return out;
}

// Unscaled coefficients of a plaintext: centered residues / scale.
std::vector<double> unscaled_coeffs(const Plaintext& pt) {
  RnsPoly coeff = pt.poly;
  coeff.to_coeff();
  std::vector<double> m = to_centered_doubles(coeff);
  for (double& x : m) x /= pt.scale;
  return m;
}

template <typename T>
double max_abs(const std::vector<T>& v) {
  double r = 0;
  for (const T& x : v) r = std::max(r, std::abs(x));
  return r;
}

// The encoder's stated bound against the dense reference (encoder.h).
constexpr double kFftBound = 1e-12;

TEST(CkksContext, ModuliChainShape) {
  CkksParams p = CkksParams::toy(1024, 4, 2);
  CkksContext ctx(p);
  EXPECT_EQ(ctx.q_moduli().size(), 4u);
  EXPECT_EQ(ctx.p_moduli().size(), 2u);  // alpha = ceil(4/2) = 2
  EXPECT_EQ(ctx.basis_at(2).size(), 2u);
  EXPECT_EQ(ctx.extended_basis_at(2).size(), 4u);
  EXPECT_EQ(ctx.num_digits_at(4), 2u);
  EXPECT_EQ(ctx.num_digits_at(3), 2u);
  EXPECT_EQ(ctx.num_digits_at(2), 1u);
  auto [first, count] = ctx.digit_range(1, 3);
  EXPECT_EQ(first, 2u);
  EXPECT_EQ(count, 1u);  // truncated tail digit
  EXPECT_THROW(ctx.digit_range(1, 2), std::invalid_argument);
  EXPECT_THROW(ctx.basis_at(0), std::invalid_argument);
  EXPECT_THROW(ctx.basis_at(5), std::invalid_argument);
}

TEST(CkksContext, GaloisElements) {
  CkksParams p = CkksParams::toy(1024, 2, 1);
  CkksContext ctx(p);
  EXPECT_EQ(ctx.galois_elt_for_rotation(0), 1u);
  EXPECT_EQ(ctx.galois_elt_for_rotation(1), 5u);
  EXPECT_EQ(ctx.galois_elt_for_rotation(2), 25u);
  EXPECT_EQ(ctx.galois_elt_conjugate(), 2047u);
  // Negative steps normalize to slots - |steps|.
  EXPECT_EQ(ctx.galois_elt_for_rotation(-1), ctx.galois_elt_for_rotation(511));
}

TEST(CkksEncoder, EncodeDecodeRoundTrip) {
  CkksFixture f(CkksParams::toy(1024, 3, 1));
  const auto z = random_message(f.encoder->slots(), 1);
  const Plaintext pt = f.encoder->encode(std::span<const Complex>(z), 3,
                                         f.ctx->params().scale());
  const auto decoded = f.encoder->decode(pt);
  EXPECT_LT(max_error(z, decoded), 1e-7);
}

TEST(CkksEncoder, ZeroPaddingAndScalar) {
  CkksFixture f(CkksParams::toy(1024, 2, 1));
  std::vector<Complex> partial = {{1.0, 0.0}, {2.0, -1.0}};
  const Plaintext pt = f.encoder->encode(std::span<const Complex>(partial), 2,
                                         f.ctx->params().scale());
  const auto decoded = f.encoder->decode(pt);
  EXPECT_NEAR(std::abs(decoded[0] - partial[0]), 0.0, 1e-7);
  EXPECT_NEAR(std::abs(decoded[1] - partial[1]), 0.0, 1e-7);
  for (std::size_t i = 2; i < decoded.size(); ++i) {
    EXPECT_LT(std::abs(decoded[i]), 1e-7);
  }

  const Complex c{0.5, 0.25};
  const Plaintext ps = f.encoder->encode_constant(c, 2, f.ctx->params().scale());
  const auto ds = f.encoder->decode(ps);
  for (const Complex& v : ds) EXPECT_LT(std::abs(v - c), 1e-7);

  // The two-coefficient constant is the FFT encoding of the broadcast.
  // Scale 2^50 keeps the rounding (2^-51) under the bound.
  const double fine = 0x1.0p50;
  const std::vector<Complex> broadcast(f.encoder->slots(), c);
  const auto constant = unscaled_coeffs(f.encoder->encode_constant(c, 2, fine));
  const auto fft = unscaled_coeffs(f.encoder->encode(std::span<const Complex>(broadcast), 2, fine));
  EXPECT_LE(max_error(constant, fft), kFftBound * std::abs(c));
}

// The special FFTs against the dense embedding sums, for every power-of-two
// degree from 4 to 4096: full, zero-padded, real-only and single-slot
// messages. Encode goes through the whole public path (FFT, rounding at
// scale 2^50, RNS lift, NTT, CRT back), so rounding adds at most 2^-51.
// Both bounds are relative to the slot vector: the message z for encode,
// the decoded slots for decode (whose entries reach N·max|coefficient|).
TEST(CkksEncoder, SpecialFftMatchesDenseReference) {
  const double fine = 0x1.0p50;
  for (std::size_t n = 4; n <= 4096; n *= 2) {
    SCOPED_TRACE("N=" + std::to_string(n));
    const auto ctx = std::make_shared<CkksContext>(CkksParams::toy(n, 2, 1));
    const CkksEncoder encoder(ctx);
    const std::size_t slots = encoder.slots();

    std::vector<Complex> real_only = random_message(slots, 3 * n + 1, 2.5);
    for (Complex& z : real_only) z = z.real();
    const std::vector<std::vector<Complex>> messages = {
        random_message(slots, 3 * n, 1.0),
        random_message(std::max<std::size_t>(1, slots / 2 - 1), 3 * n + 2, 4.0),
        real_only,
        {Complex{0.75, -1.5}},
    };
    for (const auto& z : messages) {
      const std::vector<double> dense = dense_inverse_embedding(z, n);
      const std::vector<double> fft =
          unscaled_coeffs(encoder.encode(std::span<const Complex>(z), 2, fine));
      EXPECT_LE(max_error(fft, dense), kFftBound * max_abs(z)) << "size " << z.size();

      // Decode the reference coefficients back: FFT against dense sum.
      const std::vector<Complex> slots_dense = dense_embedding(dense);
      EXPECT_LE(max_error(encoder.decode_centered(dense, 1.0), slots_dense),
                kFftBound * max_abs(slots_dense))
          << "size " << z.size();
    }

    // Decode of arbitrary coefficients, not just those of an encoding.
    Rng rng(n);
    std::vector<double> coeffs(n);
    for (double& x : coeffs) x = 2 * rng.uniform_real() - 1;
    const std::vector<Complex> slots_dense = dense_embedding(coeffs);
    EXPECT_LE(max_error(encoder.decode_centered(coeffs, 1.0), slots_dense),
              kFftBound * max_abs(slots_dense));
  }
}

// A NaN or infinity would poison every coefficient through the FFT (and
// llround/i128 casts of NaN are undefined), so both encoders refuse them.
TEST(CkksEncoder, RejectsNonFiniteInput) {
  const auto ctx = std::make_shared<CkksContext>(CkksParams::toy(64, 2, 1));
  const CkksEncoder encoder(ctx);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double scale = ctx->params().scale();

  for (const Complex bad : {Complex{nan, 0}, Complex{0, nan}, Complex{inf, 0}, Complex{0, -inf}}) {
    std::vector<Complex> z(encoder.slots(), Complex{0.5, 0.5});
    z.back() = bad;
    EXPECT_THROW(encoder.encode(std::span<const Complex>(z), 2, scale), std::invalid_argument);
    EXPECT_THROW(encoder.encode_constant(bad, 2, scale), std::invalid_argument);
  }
  const std::vector<double> real = {1.0, nan};
  EXPECT_THROW(encoder.encode(std::span<const double>(real), 2, scale), std::invalid_argument);

  const std::vector<Complex> ok = {Complex{1.0, 0.0}};
  for (const double bad_scale : {nan, inf, 0.0}) {
    EXPECT_THROW(encoder.encode(std::span<const Complex>(ok), 2, bad_scale), std::invalid_argument);
    EXPECT_THROW(encoder.encode_constant(ok[0], 2, bad_scale), std::invalid_argument);
  }
}

TEST(CkksEncoder, RejectsBadArguments) {
  CkksFixture f(CkksParams::toy(1024, 2, 1));
  std::vector<Complex> too_many(f.encoder->slots() + 1);
  EXPECT_THROW(
      f.encoder->encode(std::span<const Complex>(too_many), 2, 1024.0),
      std::invalid_argument);
  std::vector<Complex> ok(4);
  EXPECT_THROW(f.encoder->encode(std::span<const Complex>(ok), 2, -1.0),
               std::invalid_argument);
}

TEST(Ckks, EncryptDecryptRoundTrip) {
  CkksFixture f(CkksParams::toy(1024, 3, 1));
  const auto z = random_message(f.encoder->slots(), 2);
  const Plaintext pt = f.encoder->encode(std::span<const Complex>(z), 3,
                                         f.ctx->params().scale());
  const Ciphertext ct = f.encryptor->encrypt(pt);
  const auto decrypted = f.decryptor->decrypt(ct, *f.encoder);
  EXPECT_LT(max_error(z, decrypted), 1e-5);
}

TEST(Ckks, HomomorphicAddSub) {
  CkksFixture f(CkksParams::toy(1024, 3, 1));
  const auto za = random_message(f.encoder->slots(), 3);
  const auto zb = random_message(f.encoder->slots(), 4);
  const double scale = f.ctx->params().scale();
  const Ciphertext ca = f.encryptor->encrypt(f.encoder->encode(std::span<const Complex>(za), 3, scale));
  const Ciphertext cb = f.encryptor->encrypt(f.encoder->encode(std::span<const Complex>(zb), 3, scale));

  std::vector<Complex> sum(za.size()), diff(za.size());
  for (std::size_t i = 0; i < za.size(); ++i) {
    sum[i] = za[i] + zb[i];
    diff[i] = za[i] - zb[i];
  }
  EXPECT_LT(max_error(sum, f.decryptor->decrypt(f.evaluator->add(ca, cb), *f.encoder)), 1e-5);
  EXPECT_LT(max_error(diff, f.decryptor->decrypt(f.evaluator->sub(ca, cb), *f.encoder)), 1e-5);

  std::vector<Complex> neg(za.size());
  for (std::size_t i = 0; i < za.size(); ++i) neg[i] = -za[i];
  EXPECT_LT(max_error(neg, f.decryptor->decrypt(f.evaluator->negate(ca), *f.encoder)), 1e-5);
}

TEST(Ckks, AddPlainAndMulPlainWithRescale) {
  CkksFixture f(CkksParams::toy(1024, 3, 1));
  const double scale = f.ctx->params().scale();
  const auto z = random_message(f.encoder->slots(), 5);
  const auto w = random_message(f.encoder->slots(), 6);
  const Ciphertext ct = f.encryptor->encrypt(f.encoder->encode(std::span<const Complex>(z), 3, scale));
  const Plaintext pw = f.encoder->encode(std::span<const Complex>(w), 3, scale);

  std::vector<Complex> sum(z.size()), prod(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) {
    sum[i] = z[i] + w[i];
    prod[i] = z[i] * w[i];
  }
  EXPECT_LT(max_error(sum, f.decryptor->decrypt(f.evaluator->add_plain(ct, pw), *f.encoder)), 1e-5);

  Ciphertext cprod = f.evaluator->mul_plain(ct, pw);
  EXPECT_DOUBLE_EQ(cprod.scale, scale * scale);
  cprod = f.evaluator->rescale(cprod);
  EXPECT_EQ(cprod.level, 2u);
  EXPECT_LT(max_error(prod, f.decryptor->decrypt(cprod, *f.encoder)), 1e-4);
}

TEST(Ckks, CiphertextMultiplyWithRelin) {
  CkksFixture f(CkksParams::toy(1024, 4, 2));
  const double scale = f.ctx->params().scale();
  const RelinKeys rk = f.keygen->make_relin_keys();
  const auto za = random_message(f.encoder->slots(), 7);
  const auto zb = random_message(f.encoder->slots(), 8);
  const Ciphertext ca = f.encryptor->encrypt(f.encoder->encode(std::span<const Complex>(za), 4, scale));
  const Ciphertext cb = f.encryptor->encrypt(f.encoder->encode(std::span<const Complex>(zb), 4, scale));

  Ciphertext prod = f.evaluator->multiply(ca, cb, rk);
  prod = f.evaluator->rescale(prod);

  std::vector<Complex> expected(za.size());
  for (std::size_t i = 0; i < za.size(); ++i) expected[i] = za[i] * zb[i];
  EXPECT_LT(max_error(expected, f.decryptor->decrypt(prod, *f.encoder)), 1e-3);
}

TEST(Ckks, MultiplicationDepthChain) {
  // Three successive multiplications down the moduli chain: z^8.
  CkksFixture f(CkksParams::toy(1024, 4, 2));
  const double scale = f.ctx->params().scale();
  const RelinKeys rk = f.keygen->make_relin_keys();
  const auto z = random_message(f.encoder->slots(), 9, /*mag=*/0.9);
  Ciphertext ct = f.encryptor->encrypt(f.encoder->encode(std::span<const Complex>(z), 4, scale));

  std::vector<Complex> expected = z;
  for (int depth = 0; depth < 3; ++depth) {
    ct = f.evaluator->rescale(f.evaluator->multiply(ct, ct, rk));
    for (Complex& v : expected) v *= v;
  }
  EXPECT_EQ(ct.level, 1u);
  EXPECT_LT(max_error(expected, f.decryptor->decrypt(ct, *f.encoder)), 5e-2);
}

TEST(Ckks, RotationMatchesCyclicShift) {
  CkksFixture f(CkksParams::toy(1024, 3, 1));
  const double scale = f.ctx->params().scale();
  const GaloisKeys gk = f.keygen->make_galois_keys({1, 3, -1});
  const auto z = random_message(f.encoder->slots(), 10);
  const Ciphertext ct = f.encryptor->encrypt(f.encoder->encode(std::span<const Complex>(z), 3, scale));

  for (int steps : {1, 3, -1}) {
    const Ciphertext rotated = f.evaluator->rotate(ct, steps, gk);
    const auto decrypted = f.decryptor->decrypt(rotated, *f.encoder);
    const std::size_t num_slots = f.encoder->slots();
    for (std::size_t i = 0; i < num_slots; ++i) {
      const std::size_t src = (i + static_cast<std::size_t>(
                                       (steps % static_cast<int>(num_slots) +
                                        static_cast<int>(num_slots))) ) % num_slots;
      EXPECT_LT(std::abs(decrypted[i] - z[src]), 1e-3)
          << "steps=" << steps << " slot=" << i;
    }
  }
}

TEST(Ckks, RotateByZeroIsIdentity) {
  CkksFixture f(CkksParams::toy(1024, 2, 1));
  const auto z = random_message(f.encoder->slots(), 11);
  const Ciphertext ct = f.encryptor->encrypt(
      f.encoder->encode(std::span<const Complex>(z), 2, f.ctx->params().scale()));
  GaloisKeys gk;  // rotation by 0 needs no key
  const Ciphertext same = f.evaluator->rotate(ct, 0, gk);
  EXPECT_LT(max_error(f.decryptor->decrypt(ct, *f.encoder),
                      f.decryptor->decrypt(same, *f.encoder)),
            1e-9);
}

TEST(Ckks, ConjugateConjugatesSlots) {
  CkksFixture f(CkksParams::toy(1024, 3, 1));
  const GaloisKeys gk = f.keygen->make_galois_keys({}, /*include_conjugate=*/true);
  const auto z = random_message(f.encoder->slots(), 12);
  const Ciphertext ct = f.encryptor->encrypt(
      f.encoder->encode(std::span<const Complex>(z), 3, f.ctx->params().scale()));
  const auto decrypted = f.decryptor->decrypt(f.evaluator->conjugate(ct, gk), *f.encoder);
  for (std::size_t i = 0; i < z.size(); ++i) {
    EXPECT_LT(std::abs(decrypted[i] - std::conj(z[i])), 1e-3);
  }
}

TEST(Ckks, ModDropPreservesMessage) {
  CkksFixture f(CkksParams::toy(1024, 4, 2));
  const auto z = random_message(f.encoder->slots(), 13);
  const Ciphertext ct = f.encryptor->encrypt(
      f.encoder->encode(std::span<const Complex>(z), 4, f.ctx->params().scale()));
  const Ciphertext dropped = f.evaluator->mod_drop(ct, 2);
  EXPECT_EQ(dropped.level, 2u);
  EXPECT_LT(max_error(z, f.decryptor->decrypt(dropped, *f.encoder)), 1e-4);
  EXPECT_THROW(f.evaluator->mod_drop(ct, 0), std::invalid_argument);
  EXPECT_THROW(f.evaluator->mod_drop(dropped, 3), std::invalid_argument);
}

TEST(Ckks, MismatchChecksThrow) {
  CkksFixture f(CkksParams::toy(1024, 4, 2));
  const double scale = f.ctx->params().scale();
  const auto z = random_message(f.encoder->slots(), 14);
  const Ciphertext a = f.encryptor->encrypt(f.encoder->encode(std::span<const Complex>(z), 4, scale));
  const Ciphertext b = f.evaluator->mod_drop(a, 3);
  EXPECT_THROW(f.evaluator->add(a, b), std::invalid_argument);
  Ciphertext scaled = a;
  scaled.scale *= 2;
  EXPECT_THROW(f.evaluator->add(a, scaled), std::invalid_argument);
  EXPECT_THROW(f.evaluator->rescale(f.evaluator->mod_drop(a, 1)), std::invalid_argument);
  GaloisKeys empty;
  EXPECT_THROW(f.evaluator->rotate(a, 2, empty), std::invalid_argument);
  EXPECT_THROW(f.evaluator->conjugate(a, empty), std::invalid_argument);
}

TEST(Ckks, DnumVariantsAllWork) {
  // The paper sweeps dnum (Fig. 1); every decomposition must stay correct.
  for (std::size_t dnum : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    CkksFixture f(CkksParams::toy(1024, 4, dnum));
    const double scale = f.ctx->params().scale();
    const RelinKeys rk = f.keygen->make_relin_keys();
    const auto z = random_message(f.encoder->slots(), 15 + dnum, 0.9);
    const Ciphertext ct = f.encryptor->encrypt(
        f.encoder->encode(std::span<const Complex>(z), 4, scale));
    Ciphertext sq = f.evaluator->rescale(f.evaluator->multiply(ct, ct, rk));
    std::vector<Complex> expected(z.size());
    for (std::size_t i = 0; i < z.size(); ++i) expected[i] = z[i] * z[i];
    EXPECT_LT(max_error(expected, f.decryptor->decrypt(sq, *f.encoder)), 1e-2)
        << "dnum=" << dnum;
  }
}

TEST(Ckks, KeyswitchAtLowerLevelAfterRescale) {
  // Rotation after two rescales exercises the truncated-digit path.
  CkksFixture f(CkksParams::toy(1024, 4, 2));
  const double scale = f.ctx->params().scale();
  const RelinKeys rk = f.keygen->make_relin_keys();
  const GaloisKeys gk = f.keygen->make_galois_keys({2});
  const auto z = random_message(f.encoder->slots(), 20, 0.9);
  Ciphertext ct = f.encryptor->encrypt(f.encoder->encode(std::span<const Complex>(z), 4, scale));
  ct = f.evaluator->rescale(f.evaluator->multiply(ct, ct, rk));
  ct = f.evaluator->rescale(f.evaluator->multiply(ct, ct, rk));
  ASSERT_EQ(ct.level, 2u);
  const Ciphertext rotated = f.evaluator->rotate(ct, 2, gk);
  const auto decrypted = f.decryptor->decrypt(rotated, *f.encoder);
  const std::size_t num_slots = f.encoder->slots();
  for (std::size_t i = 0; i < num_slots; ++i) {
    const Complex expected = std::pow(z[(i + 2) % num_slots], 4);
    EXPECT_LT(std::abs(decrypted[i] - expected), 5e-2) << i;
  }
}

// Keys can come from serdes::read_relin_keys / read_galois_keys, so every
// keyswitch entry point checks a key's shape before indexing it.
TEST(Ckks, KeyswitchEntryPointsRejectTruncatedKeys) {
  CkksFixture f(CkksParams::toy(1024, 4, 2));
  const auto z = random_message(f.encoder->slots(), 21);
  const Ciphertext ct = f.encryptor->encrypt(
      f.encoder->encode(std::span<const Complex>(z), 4, f.ctx->params().scale()));
  const RelinKeys rk = f.keygen->make_relin_keys();
  const GaloisKeys gk = f.keygen->make_galois_keys({1}, /*include_conjugate=*/true);
  const std::vector<int> steps = {1};
  // [0]: a digit missing; [1]: the last digit polynomial lost a channel.
  auto truncated = [](const KSwitchKey& key, int which) {
    KSwitchKey out = key;
    if (which == 0) {
      out.digits.pop_back();
    } else {
      RnsPoly& a = out.digits.back().second;
      a.drop_channels_to(a.num_channels() - 1);
    }
    return out;
  };
  for (int which : {0, 1}) {
    const KSwitchKey bad = truncated(rk.key, which);
    EXPECT_THROW(f.evaluator->keyswitch(ct.c1, 4, bad), std::invalid_argument) << which;
    EXPECT_THROW(f.evaluator->multiply(ct, ct, RelinKeys{bad}), std::invalid_argument)
        << which;
    GaloisKeys bad_gk;
    for (const auto& [g, key] : gk.keys) bad_gk.keys.emplace(g, truncated(key, which));
    EXPECT_THROW(f.evaluator->rotate(ct, 1, bad_gk), std::invalid_argument) << which;
    EXPECT_THROW(f.evaluator->conjugate(ct, bad_gk), std::invalid_argument) << which;
    EXPECT_THROW(f.evaluator->rotate_hoisted(ct, steps, bad_gk), std::invalid_argument)
        << which;
  }
}

// keyswitch reads d's residues as NTT slots over exactly the basis of its
// level; any other input is rejected instead of being reinterpreted.
TEST(Ckks, KeyswitchRejectsInputOffItsFormOrLevel) {
  CkksFixture f(CkksParams::toy(1024, 4, 2));
  const auto z = random_message(f.encoder->slots(), 23);
  const Ciphertext ct = f.encryptor->encrypt(
      f.encoder->encode(std::span<const Complex>(z), 4, f.ctx->params().scale()));
  const RelinKeys rk = f.keygen->make_relin_keys();
  RnsPoly coeff = ct.c1;
  coeff.to_coeff();
  EXPECT_THROW(f.evaluator->keyswitch(coeff, 4, rk.key), std::invalid_argument)
      << "coefficient form";
  EXPECT_THROW(f.evaluator->keyswitch(ct.c1, 3, rk.key), std::invalid_argument)
      << "wider than its level";
  const RnsPoly narrow = ct.c1.extract_channels(0, 3);
  EXPECT_THROW(f.evaluator->keyswitch(narrow, 4, rk.key), std::invalid_argument)
      << "narrower than its level";
  EXPECT_NO_THROW(f.evaluator->keyswitch(narrow, 3, rk.key));
}

TEST(Ckks, KeyswitchRecordsMulAccDispatch) {
  CkksFixture f(CkksParams::toy(1024, 4, 2));
  const RelinKeys rk = f.keygen->make_relin_keys();
  const auto z = random_message(f.encoder->slots(), 22);
  const Ciphertext ct = f.encryptor->encrypt(
      f.encoder->encode(std::span<const Complex>(z), 4, f.ctx->params().scale()));
  const simd::Isa isa = simd::active_isa();
  const std::uint64_t before = simd::dispatch_count(simd::Kern::MulAcc, isa);
  f.evaluator->keyswitch(ct.c1, 4, rk.key);
  // One DecompPolyMult per channel of Q·P and key half.
  EXPECT_EQ(simd::dispatch_count(simd::Kern::MulAcc, isa) - before,
            2 * f.ctx->extended_basis_at(4).size());
}

}  // namespace
}  // namespace alchemist::ckks
