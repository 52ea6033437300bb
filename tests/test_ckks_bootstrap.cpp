#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "ckks/bootstrap.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "common/rng.h"

namespace alchemist::ckks {
namespace {

using Complex = std::complex<double>;

// Reduced-degree pipeline parameters: N=128 (64 slots), 20 levels (the
// pipeline consumes 16: 2 CtS + 12 EvalMod + 2 StC).
CkksParams bootstrap_params() {
  CkksParams p = CkksParams::toy(128, 20, 4);
  // Bootstrapping-grade settings: large scale (q0/Delta = 2^5 keeps the sine
  // amplification small) and a sparse secret (|I| <~ 4*sqrt((h+1)/12) ~ 7).
  p.prime_bits = 45;
  p.log_scale = 45;
  p.secret_hamming_weight = 32;
  return p;
}

struct BootFixture {
  ContextPtr ctx;
  std::unique_ptr<CkksEncoder> encoder;
  std::unique_ptr<KeyGenerator> keygen;
  std::unique_ptr<Encryptor> encryptor;
  std::unique_ptr<Decryptor> decryptor;
  std::unique_ptr<Evaluator> evaluator;
  RelinKeys relin;
  GaloisKeys galois;
  std::unique_ptr<Bootstrapper> boot;

  BootFixture() {
    const CkksParams params = bootstrap_params();
    ctx = std::make_shared<CkksContext>(params);
    encoder = std::make_unique<CkksEncoder>(ctx);
    keygen = std::make_unique<KeyGenerator>(ctx, 31);
    encryptor = std::make_unique<Encryptor>(ctx, keygen->make_public_key());
    decryptor = std::make_unique<Decryptor>(ctx, keygen->secret_key());
    evaluator = std::make_unique<Evaluator>(ctx);
    relin = keygen->make_relin_keys();
    galois = keygen->make_galois_keys(Bootstrapper::required_rotations(*ctx),
                                      /*include_conjugate=*/true);
    BootstrapConfig config;
    config.i_bound = 9.0;
    config.sine_degree = 140;
    boot = std::make_unique<Bootstrapper>(ctx, *encoder, *evaluator, relin, galois,
                                          config);
  }

  Ciphertext exhausted_ciphertext(const std::vector<double>& z) const {
    const Ciphertext fresh = encryptor->encrypt(encoder->encode(
        std::span<const double>(z), ctx->params().num_levels, ctx->params().scale()));
    return evaluator->mod_drop(fresh, 1);
  }
};

BootFixture& fixture() {
  static BootFixture f;  // key material is expensive; share across tests
  return f;
}

std::vector<double> test_message(std::size_t slots) {
  Rng rng(77);
  std::vector<double> z(slots);
  for (double& v : z) v = 0.9 * (2 * rng.uniform_real() - 1);
  return z;
}

TEST(CkksBootstrap, ModRaisePreservesResiduesModQ0) {
  BootFixture& f = fixture();
  const auto z = test_message(f.encoder->slots());
  const Ciphertext low = f.exhausted_ciphertext(z);
  const std::vector<double> low_coeffs = f.decryptor->decrypt_coeffs(low);

  const Ciphertext raised = f.boot->mod_raise(low);
  EXPECT_EQ(raised.level, f.ctx->params().num_levels);
  const std::vector<double> raised_coeffs = f.decryptor->decrypt_coeffs(raised);

  const double q0 = static_cast<double>(f.ctx->q_moduli()[0]);
  double max_i = 0;
  for (std::size_t k = 0; k < raised_coeffs.size(); ++k) {
    const double diff = (raised_coeffs[k] - low_coeffs[k]) / q0;
    // The raised ciphertext decrypts to m + q0*I with integer I.
    EXPECT_LT(std::abs(diff - std::round(diff)), 1e-6) << k;
    max_i = std::max(max_i, std::abs(std::round(diff)));
  }
  // |I| must stay within the configured EvalMod range.
  EXPECT_LE(max_i, 9.0);
  EXPECT_GT(max_i, 0.0);  // the lift genuinely wraps
}

TEST(CkksBootstrap, ModRaiseLiftsMultiplesOfAChannelPrimeToZero) {
  // A q0 residue v in the upper half lifts to v - q0. With q0 - v = q_1 that
  // is 0 mod q_1, which must be stored as 0, not as q_1.
  BootFixture& f = fixture();
  const std::vector<u64>& q = f.ctx->q_moduli();
  ASSERT_LT(q[1], q[0] / 2);  // v = q0 - q1 lies in the upper half
  const std::size_t n = f.ctx->degree();
  RnsPoly c0(n, f.ctx->basis_at(1));
  c0.channel(0)[0] = q[0] - q[1];
  c0.to_ntt();
  const RnsPoly c1(n, f.ctx->basis_at(1), RnsPoly::Form::Ntt);
  Ciphertext raised = f.boot->mod_raise(Ciphertext{c0, c1, 1, f.ctx->params().scale()});
  raised.c0.to_coeff();
  for (std::size_t c = 0; c < q.size(); ++c) {
    EXPECT_EQ(raised.c0.channel(c)[0], neg_mod(q[1] % q[c], q[c])) << c;
    for (std::size_t k = 1; k < n; ++k) EXPECT_EQ(raised.c0.channel(c)[k], 0u) << c;
  }
  EXPECT_EQ(raised.c0.channel(1)[0], 0u);
}

TEST(CkksBootstrap, CoeffToSlotExposesScaledCoefficients) {
  BootFixture& f = fixture();
  const auto z = test_message(f.encoder->slots());
  const Ciphertext raised = f.boot->mod_raise(f.exhausted_ciphertext(z));
  const std::vector<double> raised_coeffs = f.decryptor->decrypt_coeffs(raised);
  const double q0 = static_cast<double>(f.ctx->q_moduli()[0]);

  const auto [t_u, t_v] = f.boot->coeff_to_slot(raised);
  const auto u = f.decryptor->decrypt(t_u, *f.encoder);
  const auto v = f.decryptor->decrypt(t_v, *f.encoder);
  const std::size_t slots = f.encoder->slots();
  for (std::size_t j = 0; j < slots; ++j) {
    EXPECT_NEAR(u[j].real(), raised_coeffs[j] / q0, 2e-2) << j;
    EXPECT_NEAR(v[j].real(), raised_coeffs[j + slots] / q0, 2e-2) << j;
    EXPECT_LT(std::abs(u[j].imag()), 2e-2) << j;
  }
}

TEST(CkksBootstrap, EvalModComputesScaledSine) {
  BootFixture& f = fixture();
  // Fresh ciphertext with known t-values spanning the EvalMod range.
  std::vector<double> t = {-8.9, -5.0, -1.25, -0.01, 0.0, 0.02, 2.75, 7.5, 8.8};
  const Ciphertext ct = f.encryptor->encrypt(f.encoder->encode(
      std::span<const double>(t), f.ctx->params().num_levels, f.ctx->params().scale()));
  const Ciphertext out = f.boot->eval_mod(ct);
  const auto dec = f.decryptor->decrypt(out, *f.encoder);

  const double q0 = static_cast<double>(f.ctx->q_moduli()[0]);
  const double amp = q0 / (2.0 * M_PI * f.ctx->params().scale());
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double expected = amp * std::sin(2 * M_PI * t[i]);
    EXPECT_NEAR(dec[i].real(), expected, 5e-3 * std::abs(amp) + 2e-3) << "t=" << t[i];
  }
}

TEST(CkksBootstrap, FullPipelineRefreshesCiphertext) {
  BootFixture& f = fixture();
  const auto z = test_message(f.encoder->slots());
  const Ciphertext low = f.exhausted_ciphertext(z);
  ASSERT_EQ(low.level, 1u);

  const Ciphertext refreshed = f.boot->bootstrap(low);
  // The whole point: the result sits at a *computable* level again.
  EXPECT_GT(refreshed.level, low.level);
  EXPECT_GE(refreshed.level, f.ctx->params().num_levels - f.boot->depth());

  const auto dec = f.decryptor->decrypt(refreshed, *f.encoder);
  double max_err = 0;
  for (std::size_t j = 0; j < z.size(); ++j) {
    max_err = std::max(max_err, std::abs(dec[j] - Complex{z[j], 0.0}));
  }
  EXPECT_LT(max_err, 5e-2) << "bootstrap precision";
}

TEST(CkksBootstrap, RefreshedCiphertextIsComputable) {
  BootFixture& f = fixture();
  const auto z = test_message(f.encoder->slots());
  const Ciphertext refreshed = f.boot->bootstrap(f.exhausted_ciphertext(z));

  // Squaring the refreshed ciphertext must work and be accurate — the
  // exhausted input could not support any further multiplication.
  const Ciphertext squared =
      f.evaluator->rescale(f.evaluator->multiply(refreshed, refreshed, f.relin));
  const auto dec = f.decryptor->decrypt(squared, *f.encoder);
  for (std::size_t j = 0; j < z.size(); ++j) {
    EXPECT_NEAR(dec[j].real(), z[j] * z[j], 0.1) << j;
  }
}

TEST(CkksBootstrap, RejectsWrongLevel) {
  BootFixture& f = fixture();
  const auto z = test_message(f.encoder->slots());
  const Ciphertext fresh = f.encryptor->encrypt(f.encoder->encode(
      std::span<const double>(z), f.ctx->params().num_levels, f.ctx->params().scale()));
  EXPECT_THROW(f.boot->mod_raise(fresh), std::invalid_argument);
}

}  // namespace
}  // namespace alchemist::ckks
