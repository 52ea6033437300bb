// Microbenchmarks of the advanced FHE machinery: polynomial evaluation,
// linear transforms, functional bootstrapping, BFV and BGV multiplication and
// the cross-scheme bridge.
#include <benchmark/benchmark.h>

#include <memory>

#include "bfv/bfv.h"
#include "bfv/bgv.h"
#include "bridge/scheme_switch.h"
#include "ckks/bootstrap.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "ckks/linear_transform.h"
#include "ckks/poly_eval.h"
#include "common/rng.h"
#include "tfhe/integer.h"

namespace {

using namespace alchemist;
using namespace alchemist::ckks;

struct DeepEnv {
  ContextPtr ctx;
  std::unique_ptr<CkksEncoder> encoder;
  std::unique_ptr<KeyGenerator> keygen;
  std::unique_ptr<Encryptor> encryptor;
  std::unique_ptr<Evaluator> evaluator;
  RelinKeys rk;
  GaloisKeys gk;
  std::unique_ptr<PolyEvaluator> poly;
  std::unique_ptr<LinearTransform> lt;
  Ciphertext ct;

  DeepEnv() {
    ctx = std::make_shared<CkksContext>(CkksParams::toy(1024, 10, 2));
    encoder = std::make_unique<CkksEncoder>(ctx);
    keygen = std::make_unique<KeyGenerator>(ctx, 13);
    encryptor = std::make_unique<Encryptor>(ctx, keygen->make_public_key());
    evaluator = std::make_unique<Evaluator>(ctx);
    rk = keygen->make_relin_keys();
    poly = std::make_unique<PolyEvaluator>(ctx, *encoder, *evaluator, rk);

    Rng rng(1);
    const std::size_t slots = ctx->params().slots();
    LinearTransform::Matrix m(slots, std::vector<std::complex<double>>(slots, {0, 0}));
    for (std::size_t k = 0; k < slots; ++k) {
      m[k][k] = 1.0;
      m[k][(k + 1) % slots] = 0.5;
      m[k][(k + 3) % slots] = -0.25;
    }
    lt = std::make_unique<LinearTransform>(ctx, m);
    gk = keygen->make_galois_keys(lt->required_rotations(true));

    std::vector<double> z(slots);
    for (double& v : z) v = rng.uniform_real() - 0.5;
    ct = encryptor->encrypt(
        encoder->encode(std::span<const double>(z), 10, ctx->params().scale()));
  }
};

DeepEnv& env() {
  static DeepEnv e;
  return e;
}

void BM_PolyEvalDegree7(benchmark::State& state) {
  DeepEnv& e = env();
  const std::vector<double> coeffs = {0.5, 0.25, 0.1, -0.05, 0.02, 0.01, -0.005, 0.001};
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.poly->evaluate(e.ct, std::span<const double>(coeffs)));
  }
}
BENCHMARK(BM_PolyEvalDegree7)->Unit(benchmark::kMillisecond);

void BM_PolyEvalChebyshev31(benchmark::State& state) {
  DeepEnv& e = env();
  const auto cheb = chebyshev_fit([](double t) { return std::sin(t); }, -4, 4, 31);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        e.poly->evaluate_chebyshev_stable(e.ct, std::span<const double>(cheb), -4, 4));
  }
}
BENCHMARK(BM_PolyEvalChebyshev31)->Unit(benchmark::kMillisecond);

void BM_LinearTransformBsgs(benchmark::State& state) {
  DeepEnv& e = env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.lt->apply(*e.evaluator, *e.encoder, e.ct, e.gk,
                                         e.ctx->params().scale()));
  }
}
BENCHMARK(BM_LinearTransformBsgs)->Unit(benchmark::kMillisecond);

// The dense CoeffToSlot transform at the ckks_boot shape of bench/e2e:
// N = 256, L = 20, dnum = 4, 45-bit primes, at the top level.
void BM_LinearTransformBsgsBootShape(benchmark::State& state) {
  static auto setup = [] {
    struct Env {
      ContextPtr ctx;
      std::unique_ptr<CkksEncoder> encoder;
      std::unique_ptr<Evaluator> evaluator;
      GaloisKeys gk;
      std::unique_ptr<LinearTransform> lt;
      Ciphertext ct;
    };
    auto e = std::make_unique<Env>();
    CkksParams params = CkksParams::toy(256, 20, 4);
    params.prime_bits = 45;
    params.log_scale = 45;
    params.secret_hamming_weight = 32;
    e->ctx = std::make_shared<CkksContext>(params);
    e->encoder = std::make_unique<CkksEncoder>(e->ctx);
    e->evaluator = std::make_unique<Evaluator>(e->ctx);
    KeyGenerator keygen(e->ctx, 17);
    e->lt = std::make_unique<LinearTransform>(e->ctx, coeff_to_slot_matrix(*e->ctx));
    e->gk = keygen.make_galois_keys(e->lt->required_rotations(true));
    Rng rng(2);
    std::vector<double> z(params.slots());
    for (double& v : z) v = rng.uniform_real() - 0.5;
    e->ct = Encryptor(e->ctx, keygen.make_public_key())
                .encrypt(e->encoder->encode(std::span<const double>(z), params.num_levels,
                                            params.scale()));
    return e;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup->lt->apply(*setup->evaluator, *setup->encoder, setup->ct,
                                              setup->gk, setup->ctx->params().scale()));
  }
}
BENCHMARK(BM_LinearTransformBsgsBootShape)->Unit(benchmark::kMillisecond);

void BM_CkksBootstrap(benchmark::State& state) {
  // Separate, smaller context: bootstrapping-grade parameters.
  static auto setup = [] {
    struct Boot {
      ContextPtr ctx;
      std::unique_ptr<CkksEncoder> encoder;
      std::unique_ptr<KeyGenerator> keygen;
      std::unique_ptr<Encryptor> encryptor;
      std::unique_ptr<Evaluator> evaluator;
      RelinKeys rk;
      GaloisKeys gk;
      std::unique_ptr<Bootstrapper> boot;
      Ciphertext low;
    };
    auto b = std::make_unique<Boot>();
    CkksParams params = CkksParams::toy(128, 20, 4);
    params.prime_bits = 45;
    params.log_scale = 45;
    params.secret_hamming_weight = 32;
    b->ctx = std::make_shared<CkksContext>(params);
    b->encoder = std::make_unique<CkksEncoder>(b->ctx);
    b->keygen = std::make_unique<KeyGenerator>(b->ctx, 31);
    b->encryptor = std::make_unique<Encryptor>(b->ctx, b->keygen->make_public_key());
    b->evaluator = std::make_unique<Evaluator>(b->ctx);
    b->rk = b->keygen->make_relin_keys();
    b->gk = b->keygen->make_galois_keys(Bootstrapper::required_rotations(*b->ctx), true);
    BootstrapConfig config;
    config.i_bound = 9.0;
    config.sine_degree = 140;
    b->boot = std::make_unique<Bootstrapper>(b->ctx, *b->encoder, *b->evaluator,
                                             b->rk, b->gk, config);
    std::vector<double> z = {0.5, -0.25};
    const Ciphertext fresh = b->encryptor->encrypt(
        b->encoder->encode(std::span<const double>(z), 20, params.scale()));
    b->low = b->evaluator->mod_drop(fresh, 1);
    return b;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup->boot->bootstrap(setup->low));
  }
}
BENCHMARK(BM_CkksBootstrap)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_BfvMultiply(benchmark::State& state) {
  using namespace alchemist::bfv;
  static auto ctx = std::make_shared<BfvContext>(BfvParams::toy(1024));
  static BfvEncoder encoder(ctx);
  static BfvKeyGenerator keygen(ctx, 7);
  static BfvEncryptor encryptor(ctx, keygen.make_public_key());
  static BfvEvaluator evaluator(ctx);
  static const BfvRelinKey rk = keygen.make_relin_key();
  static Rng rng(3);
  static const BfvCiphertext ca =
      encryptor.encrypt(encoder.encode(rng.uniform_vector(1024, ctx->t())));
  static const BfvCiphertext cb =
      encryptor.encrypt(encoder.encode(rng.uniform_vector(1024, ctx->t())));
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.multiply(ca, cb, rk));
  }
}
BENCHMARK(BM_BfvMultiply)->Unit(benchmark::kMillisecond);

void BM_BgvMultiply(benchmark::State& state) {
  using namespace alchemist::bgv;
  static auto ctx = std::make_shared<BgvContext>(BfvParams::toy(1024));
  static BgvKeyGenerator keygen(ctx, 7);
  static BgvEncryptor encryptor(ctx, keygen.make_public_key());
  static BgvEvaluator evaluator(ctx);
  static const BgvRelinKey rk = keygen.make_relin_key();
  static Rng rng(3);
  static const BgvCiphertext ca =
      encryptor.encrypt(bgv_encode(*ctx, rng.uniform_vector(1024, ctx->t())));
  static const BgvCiphertext cb =
      encryptor.encrypt(bgv_encode(*ctx, rng.uniform_vector(1024, ctx->t())));
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.multiply(ca, cb, rk));
  }
}
BENCHMARK(BM_BgvMultiply)->Unit(benchmark::kMillisecond);

void BM_BridgeSwitchToTfhe(benchmark::State& state) {
  static auto setup = [] {
    struct Br {
      ckks::ContextPtr ctx;
      std::unique_ptr<CkksEncoder> encoder;
      std::unique_ptr<KeyGenerator> keygen;
      std::unique_ptr<Encryptor> encryptor;
      std::unique_ptr<Evaluator> evaluator;
      tfhe::KeySwitchKey key;
      Ciphertext low;
    };
    auto b = std::make_unique<Br>();
    CkksParams p = CkksParams::toy(1024, 3, 1);
    p.first_prime_bits = 48;
    p.log_scale = 45;
    p.prime_bits = 45;
    b->ctx = std::make_shared<CkksContext>(p);
    b->encoder = std::make_unique<CkksEncoder>(b->ctx);
    b->keygen = std::make_unique<KeyGenerator>(b->ctx, 12);
    b->encryptor = std::make_unique<Encryptor>(b->ctx, b->keygen->make_public_key());
    b->evaluator = std::make_unique<Evaluator>(b->ctx);
    Rng rng(4);
    const tfhe::TfheParams tparams = tfhe::TfheParams::toy();
    const tfhe::LweKey tkey = tfhe::lwe_keygen(tparams.n_lwe, rng);
    b->key = bridge::make_bridge_key(*b->ctx, b->keygen->secret_key(), tkey, tparams, rng);
    const Ciphertext fresh = b->encryptor->encrypt(
        b->encoder->encode_constant(0.5, 3, p.scale()));
    b->low = b->evaluator->mod_drop(fresh, 1);
    return b;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bridge::switch_to_tfhe(*setup->ctx, setup->low, 0, setup->key));
  }
}
BENCHMARK(BM_BridgeSwitchToTfhe);

void BM_EncIntAdd8(benchmark::State& state) {
  using namespace alchemist::tfhe;
  static Rng rng(5);
  static const TfheParams params = TfheParams::toy();
  static const LweKey key = lwe_keygen(params.n_lwe, rng);
  static const TrlweKey tkey = trlwe_keygen(params, rng);
  static const BootstrapContext ctx = make_bootstrap_context(params, key, tkey, rng);
  static const EncInt a = encrypt_int(123, 8, key, params.lwe_sigma, rng);
  static const EncInt b = encrypt_int(45, 8, key, params.lwe_sigma, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(add(a, b, ctx));
  }
}
BENCHMARK(BM_EncIntAdd8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
