#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <memory>

#include "ckks/bootstrap.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "ckks/linear_transform.h"
#include "ckks/poly_eval.h"
#include "common/rng.h"

#include <span>

namespace alchemist::ckks {
namespace {

using Complex = std::complex<double>;

struct Fixture {
  ContextPtr ctx;
  std::unique_ptr<CkksEncoder> encoder;
  std::unique_ptr<KeyGenerator> keygen;
  std::unique_ptr<Encryptor> encryptor;
  std::unique_ptr<Decryptor> decryptor;
  std::unique_ptr<Evaluator> evaluator;
  RelinKeys relin;

  explicit Fixture(const CkksParams& params, u64 seed = 21) {
    ctx = std::make_shared<CkksContext>(params);
    encoder = std::make_unique<CkksEncoder>(ctx);
    keygen = std::make_unique<KeyGenerator>(ctx, seed);
    encryptor = std::make_unique<Encryptor>(ctx, keygen->make_public_key());
    decryptor = std::make_unique<Decryptor>(ctx, keygen->secret_key());
    evaluator = std::make_unique<Evaluator>(ctx);
    relin = keygen->make_relin_keys();
  }

  Ciphertext encrypt(const std::vector<double>& v, std::size_t level) const {
    return encryptor->encrypt(
        encoder->encode(std::span<const double>(v), level, ctx->params().scale()));
  }
};

TEST(EncodeConstant, MatchesFullEncode) {
  Fixture f(CkksParams::toy(512, 3, 1));
  for (Complex value : {Complex{0.5, 0.0}, Complex{-1.25, 2.0}, Complex{0.0, -0.75}}) {
    const Plaintext fast = f.encoder->encode_constant(value, 3, f.ctx->params().scale());
    const auto decoded = f.encoder->decode(fast);
    for (const Complex& slot : decoded) {
      EXPECT_LT(std::abs(slot - value), 1e-8) << value;
    }
  }
}

TEST(EvaluatorHelpers, ScalarAddAndMul) {
  Fixture f(CkksParams::toy(512, 3, 1));
  const std::vector<double> v = {1.0, -2.0, 0.25};
  Ciphertext ct = f.encrypt(v, 3);
  Ciphertext shifted = f.evaluator->add_scalar(ct, 10.0, *f.encoder);
  auto dec = f.decryptor->decrypt(shifted, *f.encoder);
  EXPECT_NEAR(dec[0].real(), 11.0, 1e-4);
  EXPECT_NEAR(dec[1].real(), 8.0, 1e-4);

  Ciphertext scaled = f.evaluator->rescale(
      f.evaluator->mul_scalar(ct, Complex{0.0, 1.0}, *f.encoder, ct.scale));
  dec = f.decryptor->decrypt(scaled, *f.encoder);
  EXPECT_NEAR(dec[1].imag(), -2.0, 1e-4);  // i * (-2) = -2i
  EXPECT_NEAR(dec[1].real(), 0.0, 1e-4);
}

TEST(EvaluatorHelpers, AlignedOpsAcrossLevels) {
  Fixture f(CkksParams::toy(1024, 4, 2));
  const std::vector<double> v = {0.5, 0.25};
  Ciphertext deep = f.encrypt(v, 4);
  Ciphertext shallow = f.evaluator->rescale(
      f.evaluator->mul_scalar(deep, 1.0, *f.encoder, deep.scale));
  ASSERT_EQ(shallow.level, 3u);
  // add_aligned handles the level gap; values add.
  auto dec = f.decryptor->decrypt(f.evaluator->add_aligned(deep, shallow), *f.encoder);
  EXPECT_NEAR(dec[0].real(), 1.0, 1e-3);
  // mul_aligned handles it too.
  dec = f.decryptor->decrypt(f.evaluator->mul_aligned(deep, shallow, f.relin), *f.encoder);
  EXPECT_NEAR(dec[0].real(), 0.25, 1e-3);
  EXPECT_THROW(f.evaluator->normalize_scale(deep, deep.scale * 2), std::invalid_argument);
}

TEST(EvaluatorHelpers, NormalizeScaleRejectsNonPositiveAndNonFiniteScales) {
  Fixture f(CkksParams::toy(1024, 4, 2));
  const Ciphertext ct = f.encrypt({0.5}, 4);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A negative, zero or NaN target makes the relative gap negative or NaN,
  // which no tolerance test alone rejects.
  for (double target : {-ct.scale, 0.0, nan, inf, -inf}) {
    EXPECT_THROW(f.evaluator->normalize_scale(ct, target), std::invalid_argument) << target;
  }
  for (double scale : {-ct.scale, 0.0, nan, inf}) {
    Ciphertext bad = ct;
    bad.scale = scale;
    EXPECT_THROW(f.evaluator->normalize_scale(bad, ct.scale), std::invalid_argument) << scale;
  }
  const double target = ct.scale * (1 + 1e-4);
  EXPECT_EQ(f.evaluator->normalize_scale(ct, target).scale, target);
}

TEST(PolyEval, QuadraticAndCubic) {
  Fixture f(CkksParams::toy(1024, 6, 2));
  PolyEvaluator poly(f.ctx, *f.encoder, *f.evaluator, f.relin);
  Rng rng(3);
  std::vector<double> xs(8);
  for (double& x : xs) x = 2.0 * rng.uniform_real() - 1.0;
  const Ciphertext ct = f.encrypt(xs, 6);

  // p(x) = 0.5 - x + 2x^2
  const std::vector<double> p2 = {0.5, -1.0, 2.0};
  auto dec = f.decryptor->decrypt(
      poly.evaluate(ct, std::span<const double>(p2)), *f.encoder);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double expected = 0.5 - xs[i] + 2 * xs[i] * xs[i];
    EXPECT_NEAR(dec[i].real(), expected, 1e-3) << i;
  }

  // p(x) = x^3 - 0.25x
  const std::vector<double> p3 = {0.0, -0.25, 0.0, 1.0};
  dec = f.decryptor->decrypt(poly.evaluate(ct, std::span<const double>(p3)), *f.encoder);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(dec[i].real(), xs[i] * xs[i] * xs[i] - 0.25 * xs[i], 1e-3) << i;
  }
}

TEST(PolyEval, DegreeSevenSigmoidish) {
  Fixture f(CkksParams::toy(1024, 8, 2));
  PolyEvaluator poly(f.ctx, *f.encoder, *f.evaluator, f.relin);
  // Taylor-ish sigmoid approximation around 0: 0.5 + x/4 - x^3/48 + x^5/480.
  const std::vector<double> coeffs = {0.5, 0.25, 0.0, -1.0 / 48, 0.0, 1.0 / 480, 0.0, 0.0};
  std::vector<double> xs = {-1.5, -0.5, 0.0, 0.5, 1.5};
  const Ciphertext ct = f.encrypt(xs, 8);
  const auto dec = f.decryptor->decrypt(
      poly.evaluate(ct, std::span<const double>(coeffs)), *f.encoder);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    double expected = 0;
    double p = 1;
    for (double c : coeffs) {
      expected += c * p;
      p *= xs[i];
    }
    EXPECT_NEAR(dec[i].real(), expected, 5e-3) << "x=" << xs[i];
  }
}

TEST(PolyEval, ChebyshevFitAccuracy) {
  // Pure math: the fit approximates exp on [-1, 1] to near machine precision
  // at degree 15. Evaluates sum c_n T_n(x) with T_n(x) = cos(n acos x).
  const auto cheb = chebyshev_fit([](double t) { return std::exp(t); }, -1, 1, 15);
  for (double x : {-0.9, -0.3, 0.0, 0.4, 0.95}) {
    double val = 0;
    for (std::size_t n = 0; n < cheb.size(); ++n) {
      val += cheb[n] * std::cos(static_cast<double>(n) * std::acos(x));
    }
    EXPECT_NEAR(val, std::exp(x), 1e-10) << x;
  }
}

TEST(PolyEval, ChebyshevStableMatchesFunction) {
  Fixture f(CkksParams::toy(1024, 10, 2));
  PolyEvaluator poly(f.ctx, *f.encoder, *f.evaluator, f.relin);
  // sin on [-4, 4] at degree 31: stable evaluation required (monomial
  // conversion already loses precision here).
  const auto cheb = chebyshev_fit([](double t) { return std::sin(t); }, -4, 4, 31);
  std::vector<double> xs = {-3.5, -2.0, -0.5, 0.0, 1.0, 2.5, 3.9};
  const Ciphertext ct = f.encrypt(xs, 10);
  const Ciphertext out =
      poly.evaluate_chebyshev_stable(ct, std::span<const double>(cheb), -4, 4);
  const auto dec = f.decryptor->decrypt(out, *f.encoder);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(dec[i].real(), std::sin(xs[i]), 2e-2) << "x=" << xs[i];
  }
}

TEST(LinearTransformTest, MatchesCleartextMatrix) {
  Fixture f(CkksParams::toy(256, 4, 2));
  const std::size_t slots = f.ctx->params().slots();
  Rng rng(5);
  LinearTransform::Matrix m(slots, std::vector<Complex>(slots));
  for (auto& row : m) {
    for (Complex& v : row) {
      v = {2 * rng.uniform_real() - 1, 2 * rng.uniform_real() - 1};
    }
  }
  LinearTransform lt(f.ctx, m);
  const GaloisKeys gk = f.keygen->make_galois_keys(lt.required_rotations(true));

  std::vector<Complex> z(slots);
  for (Complex& v : z) v = {2 * rng.uniform_real() - 1, 2 * rng.uniform_real() - 1};
  const Ciphertext ct = f.encryptor->encrypt(
      f.encoder->encode(std::span<const Complex>(z), 4, f.ctx->params().scale()));

  Ciphertext out = lt.apply(*f.evaluator, *f.encoder, ct, gk, f.ctx->params().scale());
  out = f.evaluator->rescale(out);
  const auto dec = f.decryptor->decrypt(out, *f.encoder);

  for (std::size_t r = 0; r < slots; ++r) {
    Complex expected{0, 0};
    for (std::size_t c = 0; c < slots; ++c) expected += m[r][c] * z[c];
    EXPECT_LT(std::abs(dec[r] - expected), 5e-2) << "row " << r;
  }
}

TEST(LinearTransformTest, BsgsAndNaiveAgree) {
  Fixture f(CkksParams::toy(256, 3, 1));
  const std::size_t slots = f.ctx->params().slots();
  Rng rng(6);
  // Sparse banded matrix: only 3 diagonals.
  LinearTransform::Matrix m(slots, std::vector<Complex>(slots, {0, 0}));
  for (std::size_t k = 0; k < slots; ++k) {
    m[k][k] = 1.0;
    m[k][(k + 1) % slots] = 0.5;
    m[k][(k + 7) % slots] = -0.25;
  }
  LinearTransform lt(f.ctx, m);
  EXPECT_EQ(lt.num_diagonals(), 3u);

  auto steps = lt.required_rotations(false);
  auto steps_bsgs = lt.required_rotations(true);
  std::vector<int> all = steps;
  all.insert(all.end(), steps_bsgs.begin(), steps_bsgs.end());
  const GaloisKeys gk = f.keygen->make_galois_keys(all);

  std::vector<double> z(slots);
  for (double& v : z) v = 2 * rng.uniform_real() - 1;
  const Ciphertext ct = f.encrypt(z, 3);
  const double pt_scale = f.ctx->params().scale();

  const auto naive = f.decryptor->decrypt(
      f.evaluator->rescale(lt.apply(*f.evaluator, *f.encoder, ct, gk, pt_scale, false)),
      *f.encoder);
  const auto bsgs = f.decryptor->decrypt(
      f.evaluator->rescale(lt.apply(*f.evaluator, *f.encoder, ct, gk, pt_scale, true)),
      *f.encoder);
  for (std::size_t i = 0; i < slots; ++i) {
    EXPECT_LT(std::abs(naive[i] - bsgs[i]), 1e-3) << i;
  }
}

TEST(LinearTransformTest, SlotCoeffMatricesAreInverse) {
  const CkksParams params = CkksParams::toy(128, 2, 1);
  CkksContext ctx(params);
  const auto a = slot_to_coeff_matrix(ctx);
  const auto inv = coeff_to_slot_matrix(ctx);
  const std::size_t slots = params.slots();
  for (std::size_t r = 0; r < slots; ++r) {
    for (std::size_t c = 0; c < slots; ++c) {
      Complex sum{0, 0};
      for (std::size_t k = 0; k < slots; ++k) sum += a[r][k] * inv[k][c];
      EXPECT_LT(std::abs(sum - (r == c ? 1.0 : 0.0)), 1e-9) << r << "," << c;
    }
  }
}

TEST(HoistedRotations, MatchIndividualRotations) {
  Fixture f(CkksParams::toy(1024, 4, 2));
  const GaloisKeys gk = f.keygen->make_galois_keys({0, 1, 3, 7});
  Rng rng(23);
  std::vector<double> z(f.ctx->params().slots());
  for (double& v : z) v = 2 * rng.uniform_real() - 1;
  const Ciphertext ct = f.encryptor->encrypt(f.encoder->encode(
      std::span<const double>(z), 4, f.ctx->params().scale()));

  const std::vector<int> steps = {0, 1, 3, 7};
  const auto hoisted = f.evaluator->rotate_hoisted(ct, steps, gk);
  ASSERT_EQ(hoisted.size(), steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const auto individual =
        f.decryptor->decrypt(f.evaluator->rotate(ct, steps[i], gk), *f.encoder);
    const auto shared = f.decryptor->decrypt(hoisted[i], *f.encoder);
    for (std::size_t k = 0; k < shared.size(); k += 37) {
      ASSERT_LT(std::abs(shared[k] - individual[k]), 1e-3)
          << "step " << steps[i] << " slot " << k;
    }
  }
}

TEST(HoistedRotations, WorksAtLowerLevelsAndChecksKeys) {
  Fixture f(CkksParams::toy(1024, 4, 2));
  const GaloisKeys gk = f.keygen->make_galois_keys({2});
  std::vector<double> z = {0.5, -0.5, 1.0};
  Ciphertext ct = f.encryptor->encrypt(f.encoder->encode(
      std::span<const double>(z), 4, f.ctx->params().scale()));
  ct = f.evaluator->mod_drop(ct, 2);  // truncated-digit path
  const std::vector<int> good = {2};
  const auto rotated = f.evaluator->rotate_hoisted(ct, good, gk);
  const auto dec = f.decryptor->decrypt(rotated[0], *f.encoder);
  // Left rotation by 2: slot 0 <- z[2], slot 1 <- z[3] (zero padding).
  EXPECT_NEAR(dec[0].real(), 1.0, 1e-3);
  EXPECT_NEAR(dec[1].real(), 0.0, 1e-3);
  const std::vector<int> bad = {5};
  EXPECT_THROW(f.evaluator->rotate_hoisted(ct, bad, gk), std::invalid_argument);
}

TEST(LinearTransformTest, RejectsBadMatrix) {
  Fixture f(CkksParams::toy(128, 2, 1));
  LinearTransform::Matrix wrong(3, std::vector<Complex>(3));
  EXPECT_THROW(LinearTransform(f.ctx, wrong), std::invalid_argument);
  LinearTransform::Matrix zero(f.ctx->params().slots(),
                               std::vector<Complex>(f.ctx->params().slots(), {0, 0}));
  LinearTransform lt(f.ctx, zero);
  GaloisKeys gk;
  const Ciphertext ct = f.encrypt({1.0}, 2);
  EXPECT_THROW(lt.apply(*f.evaluator, *f.encoder, ct, gk, 1024.0), std::invalid_argument);
}

}  // namespace
}  // namespace alchemist::ckks
