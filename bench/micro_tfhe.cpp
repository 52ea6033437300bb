// Microbenchmarks of the software TFHE library: external product, blind
// rotation and the full programmable bootstrap at the real parameter set I.
//
// The BM_TfheLayer* rows time the external product's layers on the same
// shape, so its split is measured: one product runs the decompose row once,
// 2*(k+1)*l narrow forward and 4*(k+1) narrow inverse transforms, 4*(k+1)
// MACs of (k+1)*l rows, and the lift row once.
#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.h"
#include "common/simd.h"
#include "tfhe/bootstrap.h"

namespace {

using namespace alchemist;
using namespace alchemist::tfhe;

struct Env {
  TfheParams params;
  LweKey lwe_key;
  TrlweKey trlwe_key;
  BootstrapContext ctx;
  LweSample bit_ct;
  TrlweSample acc;
  TgswNtt tgsw_one;
  TorusPoly tv;

  explicit Env(const TfheParams& p) : params(p) {
    Rng rng(11);
    lwe_key = lwe_keygen(params.n_lwe, rng);
    trlwe_key = trlwe_keygen(params, rng);
    ctx = make_bootstrap_context(params, lwe_key, trlwe_key, rng);
    bit_ct = encrypt_bit(true, lwe_key, params.lwe_sigma, rng);
    TorusPoly msg(params.degree);
    msg[0] = torus_from_message(1, 8);
    acc = trlwe_encrypt(params, trlwe_key, msg, rng);
    tgsw_one = tgsw_encrypt(params, trlwe_key, 1, rng);
    tv = make_constant_test_poly(params.degree, u64{1} << 61);
  }
};

Env& env() {
  static Env instance{TfheParams::set_i()};
  return instance;
}

void BM_TfheExternalProduct(benchmark::State& state) {
  Env& e = env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(external_product(e.tgsw_one, e.acc));
  }
}
BENCHMARK(BM_TfheExternalProduct);

// Digit residues of every (component, level) of the operand.
void BM_TfheLayerDecompose(benchmark::State& state) {
  Env& e = env();
  const TorusNttContext& ctx = TorusNttContext::get(e.params.degree);
  const Gadget gadget(e.params.bg_bits, e.params.l);
  std::vector<u32> digits(e.params.l * TorusNttContext::kPrimes * e.params.degree);
  for (auto _ : state) {
    for (std::size_t c = 0; c <= e.params.k; ++c) {
      ctx.digit_residues((c < e.params.k ? e.acc.a[c] : e.acc.b).data(), gadget, digits.data());
      benchmark::DoNotOptimize(digits.data());
    }
  }
}
BENCHMARK(BM_TfheLayerDecompose);

void BM_TfheLayerNarrowForward(benchmark::State& state) {
  Env& e = env();
  const NarrowNttTable& table = TorusNttContext::get(e.params.degree).table(0);
  std::vector<u32> a(e.params.degree);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<u32>(i) % table.modulus();
  for (auto _ : state) {
    table.forward(a);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_TfheLayerNarrowForward);

void BM_TfheLayerNarrowInverse(benchmark::State& state) {
  Env& e = env();
  const NarrowNttTable& table = TorusNttContext::get(e.params.degree).table(0);
  std::vector<u32> a(e.params.degree);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<u32>(i) % table.modulus();
  for (auto _ : state) {
    table.inverse(a);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_TfheLayerNarrowInverse);

// One output half mod one prime: (k+1)*l digit rows against the key rows.
void BM_TfheLayerNarrowMac(benchmark::State& state) {
  Env& e = env();
  const std::size_t n = e.params.degree, rows = (e.params.k + 1) * e.params.l;
  const u32 p = TorusNttContext::get(n).table(0).modulus();
  std::vector<u32> digits(rows * n);
  for (std::size_t i = 0; i < digits.size(); ++i) digits[i] = static_cast<u32>(i * 7919) % p;
  std::vector<const u32*> a(rows), b(rows);
  for (std::size_t row = 0; row < rows; ++row) {
    a[row] = digits.data() + row * n;
    b[row] = e.tgsw_one.poly(row, 0, 0, 0);
  }
  std::vector<u32> out(n);
  for (auto _ : state) {
    simd::mul_sum_narrow(a.data(), b.data(), rows, n, p, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_TfheLayerNarrowMac);

// CRT lift and recombination of every output component.
void BM_TfheLayerLift(benchmark::State& state) {
  Env& e = env();
  const std::size_t n = e.params.degree;
  const TorusNttContext& ctx = TorusNttContext::get(n);
  std::vector<u32> halves(2 * TorusNttContext::kPrimes * n);
  for (std::size_t i = 0; i < halves.size(); ++i) {
    halves[i] = static_cast<u32>(i * 7919) % ctx.table(i / n % 2).modulus();
  }
  TorusPoly out(n);
  for (auto _ : state) {
    for (std::size_t c = 0; c <= e.params.k; ++c) {
      ctx.lift_add(halves.data(), halves.data() + TorusNttContext::kPrimes * n, out.data());
    }
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_TfheLayerLift);

void BM_TfheCmux(benchmark::State& state) {
  Env& e = env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cmux(e.tgsw_one, e.acc, e.acc));
  }
}
BENCHMARK(BM_TfheCmux);

void BM_TfheKeyswitch(benchmark::State& state) {
  Env& e = env();
  const LweSample extracted = sample_extract(e.acc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(keyswitch(extracted, e.ctx.ksk));
  }
}
BENCHMARK(BM_TfheKeyswitch);

void BM_TfhePbs(benchmark::State& state) {
  Env& e = env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(programmable_bootstrap(e.bit_ct, e.tv, e.ctx));
  }
}
BENCHMARK(BM_TfhePbs)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_TfheGateNand(benchmark::State& state) {
  Env& e = env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gate_nand(e.bit_ct, e.bit_ct, e.ctx));
  }
}
BENCHMARK(BM_TfheGateNand)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

BENCHMARK_MAIN();
