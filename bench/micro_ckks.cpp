// Microbenchmarks of the software CKKS library — the measured single-thread
// CPU costs behind Table 7's CPU column (at reduced, test-scale parameters).
#include <benchmark/benchmark.h>

#include <memory>

#include "ckks/bootstrap.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "common/rng.h"

namespace {

using namespace alchemist;
using namespace alchemist::ckks;

struct Env {
  ContextPtr ctx;
  std::unique_ptr<CkksEncoder> encoder;
  std::unique_ptr<KeyGenerator> keygen;
  std::unique_ptr<Encryptor> encryptor;
  std::unique_ptr<Evaluator> evaluator;
  RelinKeys rk;
  GaloisKeys gk;
  Ciphertext ct;
  Plaintext pt;

  explicit Env(std::size_t n) {
    ctx = std::make_shared<CkksContext>(CkksParams::toy(n, 4, 2));
    encoder = std::make_unique<CkksEncoder>(ctx);
    keygen = std::make_unique<KeyGenerator>(ctx, 7);
    encryptor = std::make_unique<Encryptor>(ctx, keygen->make_public_key());
    evaluator = std::make_unique<Evaluator>(ctx);
    rk = keygen->make_relin_keys();
    gk = keygen->make_galois_keys({1});
    Rng rng(1);
    std::vector<double> values(ctx->params().slots());
    for (double& v : values) v = rng.uniform_real();
    pt = encoder->encode(std::span<const double>(values), 4, ctx->params().scale());
    ct = encryptor->encrypt(pt);
  }
};

Env& env(std::size_t n) {
  static std::map<std::size_t, std::unique_ptr<Env>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) it = cache.emplace(n, std::make_unique<Env>(n)).first;
  return *it->second;
}

void BM_CkksEncode(benchmark::State& state) {
  Env& e = env(static_cast<std::size_t>(state.range(0)));
  Rng rng(2);
  std::vector<double> values(e.ctx->params().slots());
  for (double& v : values) v = rng.uniform_real();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.encoder->encode(std::span<const double>(values), 4,
                                               e.ctx->params().scale()));
  }
}
BENCHMARK(BM_CkksEncode)->Arg(256)->Arg(1024)->Arg(4096);

// The slot evaluation a decryption runs on its centered coefficients
// (decode_centered); decode() adds a BigUInt CRT per coefficient on top.
void BM_CkksDecode(benchmark::State& state) {
  Env& e = env(static_cast<std::size_t>(state.range(0)));
  RnsPoly coeff = e.pt.poly;
  coeff.to_coeff();
  const std::vector<double> centered = to_centered_doubles(coeff);
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.encoder->decode_centered(centered, e.pt.scale));
  }
}
BENCHMARK(BM_CkksDecode)->Arg(256)->Arg(1024)->Arg(4096);

void BM_CkksEncrypt(benchmark::State& state) {
  Env& e = env(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.encryptor->encrypt(e.pt));
  }
}
BENCHMARK(BM_CkksEncrypt)->Arg(2048);

void BM_CkksHadd(benchmark::State& state) {
  Env& e = env(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.evaluator->add(e.ct, e.ct));
  }
}
BENCHMARK(BM_CkksHadd)->Arg(2048)->Arg(8192);

void BM_CkksPmult(benchmark::State& state) {
  Env& e = env(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.evaluator->mul_plain(e.ct, e.pt));
  }
}
BENCHMARK(BM_CkksPmult)->Arg(2048)->Arg(8192);

void BM_CkksCmultRelinRescale(benchmark::State& state) {
  Env& e = env(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        e.evaluator->rescale(e.evaluator->multiply(e.ct, e.ct, e.rk)));
  }
}
BENCHMARK(BM_CkksCmultRelinRescale)->Arg(2048)->Arg(8192);

void BM_CkksRotation(benchmark::State& state) {
  Env& e = env(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.evaluator->rotate(e.ct, 1, e.gk));
  }
}
BENCHMARK(BM_CkksRotation)->Arg(2048)->Arg(8192);

// The ckks_helr shape of bench/e2e: N=2048, L=18, dnum=3 (alpha = K = 6),
// at level 13, where the HELR step rotates: 3 digits, the last holding one
// prime. Keys for the ten hoisted steps 0, 1, 2, 4, ..., 256.
struct HelrEnv {
  ContextPtr ctx;
  std::unique_ptr<KeyGenerator> keygen;
  std::unique_ptr<Evaluator> evaluator;
  RelinKeys rk;
  GaloisKeys gk;
  std::vector<int> steps = {0};
  Ciphertext ct;

  HelrEnv() {
    const CkksParams params = CkksParams::toy(2048, 18, 3);
    ctx = std::make_shared<CkksContext>(params);
    keygen = std::make_unique<KeyGenerator>(ctx, 7);
    evaluator = std::make_unique<Evaluator>(ctx);
    rk = keygen->make_relin_keys();
    for (int s = 1; steps.size() < 10; s <<= 1) steps.push_back(s);
    gk = keygen->make_galois_keys(std::vector<int>(steps.begin() + 1, steps.end()));
    Rng rng(1);
    std::vector<double> values(params.slots());
    for (double& v : values) v = rng.uniform_real();
    const CkksEncoder encoder(ctx);
    Encryptor encryptor(ctx, keygen->make_public_key());
    ct = evaluator->mod_drop(
        encryptor.encrypt(encoder.encode(std::span<const double>(values), params.num_levels,
                                         params.scale())),
        13);
  }
};

HelrEnv& helr_env() {
  static HelrEnv e;
  return e;
}

void BM_CkksRotationHelr(benchmark::State& state) {
  HelrEnv& e = helr_env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.evaluator->rotate(e.ct, 1, e.gk));
  }
}
BENCHMARK(BM_CkksRotationHelr)->Name("BM_CkksRotation/helr");

void BM_CkksRotateHoistedHelr(benchmark::State& state) {
  HelrEnv& e = helr_env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.evaluator->rotate_hoisted(e.ct, e.steps, e.gk));
  }
}
BENCHMARK(BM_CkksRotateHoistedHelr)->Name("BM_CkksRotateHoisted/helr");

void BM_CkksKeyswitchHelr(benchmark::State& state) {
  HelrEnv& e = helr_env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.evaluator->keyswitch(e.ct.c1, e.ct.level, e.rk.key));
  }
}
BENCHMARK(BM_CkksKeyswitchHelr)->Name("BM_CkksKeyswitch/helr");

void BM_CkksCmultRelinRescaleHelr(benchmark::State& state) {
  HelrEnv& e = helr_env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        e.evaluator->rescale(e.evaluator->multiply(e.ct, e.ct, e.rk)));
  }
}
BENCHMARK(BM_CkksCmultRelinRescaleHelr)->Name("BM_CkksCmultRelinRescale/helr");

// The ckks_boot shape of bench/e2e: N=256, L=20, dnum=4, 45-bit scaling
// primes and a sparse secret. The scalar ops and the rescale run on a
// top-level ciphertext; EvalMod runs on the first CoeffToSlot output of a
// bootstrap, as Bootstrapper::bootstrap calls it.
struct BootEnv {
  ContextPtr ctx;
  std::unique_ptr<CkksEncoder> encoder;
  std::unique_ptr<KeyGenerator> keygen;
  std::unique_ptr<Evaluator> evaluator;
  RelinKeys rk;
  GaloisKeys gk;
  std::unique_ptr<Bootstrapper> boot;
  Ciphertext top;
  Ciphertext eval_mod_input;

  BootEnv() {
    CkksParams params = CkksParams::toy(256, 20, 4);
    params.prime_bits = 45;
    params.log_scale = 45;
    params.secret_hamming_weight = 32;
    ctx = std::make_shared<CkksContext>(params);
    encoder = std::make_unique<CkksEncoder>(ctx);
    keygen = std::make_unique<KeyGenerator>(ctx, 7);
    evaluator = std::make_unique<Evaluator>(ctx);
    rk = keygen->make_relin_keys();
    gk = keygen->make_galois_keys(Bootstrapper::required_rotations(*ctx),
                                  /*include_conjugate=*/true);
    BootstrapConfig config;
    config.i_bound = 9.0;
    config.sine_degree = 140;
    boot = std::make_unique<Bootstrapper>(ctx, *encoder, *evaluator, rk, gk, config);
    Rng rng(1);
    std::vector<double> values(params.slots());
    for (double& v : values) v = 0.9 * (2 * rng.uniform_real() - 1);
    Encryptor encryptor(ctx, keygen->make_public_key());
    top = encryptor.encrypt(
        encoder->encode(std::span<const double>(values), params.num_levels, params.scale()));
    eval_mod_input =
        boot->coeff_to_slot(boot->mod_raise(evaluator->mod_drop(top, 1))).first;
  }
};

BootEnv& boot_env() {
  static BootEnv e;
  return e;
}

void BM_CkksRescale(benchmark::State& state) {
  BootEnv& e = boot_env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.evaluator->rescale(e.top));
  }
}
BENCHMARK(BM_CkksRescale);

void BM_CkksMulScalar(benchmark::State& state) {
  BootEnv& e = boot_env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        e.evaluator->mul_scalar(e.top, -0.3125, *e.encoder, e.top.scale));
  }
}
BENCHMARK(BM_CkksMulScalar);

void BM_CkksAddScalar(benchmark::State& state) {
  BootEnv& e = boot_env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.evaluator->add_scalar(e.top, -0.3125, *e.encoder));
  }
}
BENCHMARK(BM_CkksAddScalar);

void BM_CkksEvalMod(benchmark::State& state) {
  BootEnv& e = boot_env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.boot->eval_mod(e.eval_mod_input));
  }
}
BENCHMARK(BM_CkksEvalMod)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
