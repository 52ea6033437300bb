// Exact encrypted tallying with BFV — the paper's *other* arithmetic scheme.
//
// A private election: each ballot is a one-hot vector over the candidates,
// encrypted under BFV. The tallying server homomorphically accumulates all
// ballots and additionally computes an encrypted weighted score — all
// arithmetic is *exact* modular integer math (no CKKS-style approximation),
// which is what BFV exists for.
#include <cstdio>
#include <memory>
#include <vector>

#include "bfv/bfv.h"
#include "common/rng.h"

int main() {
  using namespace alchemist;
  using namespace alchemist::bfv;

  auto ctx = std::make_shared<BfvContext>(BfvParams::toy(1024));
  BfvEncoder encoder(ctx);
  BfvKeyGenerator keygen(ctx, 11);
  BfvEncryptor encryptor(ctx, keygen.make_public_key());
  BfvDecryptor decryptor(ctx, keygen.secret_key());
  BfvEvaluator evaluator(ctx);
  const BfvRelinKey rk = keygen.make_relin_key();

  std::printf("BFV private election: N=%zu slots, t=%llu, q=2^%d-ish (q mod t = %llu)\n",
              ctx->degree(), static_cast<unsigned long long>(ctx->t()),
              ctx->params().q_bits,
              static_cast<unsigned long long>(ctx->q() % ctx->t()));

  const std::size_t candidates = 5;
  const std::size_t voters = 200;
  Rng rng(3);

  // Cast and encrypt ballots; tally homomorphically.
  std::vector<u64> true_tally(candidates, 0);
  BfvCiphertext tally =
      encryptor.encrypt(encoder.encode(std::vector<u64>(candidates, 0)));
  for (std::size_t v = 0; v < voters; ++v) {
    const std::size_t choice = rng.uniform(candidates);
    ++true_tally[choice];
    std::vector<u64> ballot(candidates, 0);
    ballot[choice] = 1;
    tally = evaluator.add(tally, encryptor.encrypt(encoder.encode(ballot)));
  }

  const auto counts = encoder.decode(decryptor.decrypt(tally));
  bool all_ok = true;
  std::printf("\n%-12s %-10s %-10s\n", "candidate", "decrypted", "expected");
  for (std::size_t c = 0; c < candidates; ++c) {
    all_ok &= counts[c] == true_tally[c];
    std::printf("%-12zu %-10llu %-10llu %s\n", c,
                static_cast<unsigned long long>(counts[c]),
                static_cast<unsigned long long>(true_tally[c]),
                counts[c] == true_tally[c] ? "ok" : "WRONG");
  }

  // Weighted score under encryption: sum_c weight_c * count_c, exact.
  // (E.g. ranked voting where later preferences carry fewer points.)
  const std::vector<u64> weights = {5, 4, 3, 2, 1};
  BfvCiphertext weighted = evaluator.mul_plain(tally, encoder.encode(weights));
  // Squaring the tally (a genuine ciphertext x ciphertext multiply) gives
  // count^2 per slot — e.g. for computing the variance of the distribution.
  BfvCiphertext squares = evaluator.multiply(tally, tally, rk);

  const auto wscore = encoder.decode(decryptor.decrypt(weighted));
  const auto sq = encoder.decode(decryptor.decrypt(squares));
  std::printf("\nweighted points per candidate (exact): ");
  for (std::size_t c = 0; c < candidates; ++c) {
    std::printf("%llu ", static_cast<unsigned long long>(wscore[c]));
    all_ok &= wscore[c] == weights[c] * true_tally[c];
    all_ok &= sq[c] == true_tally[c] * true_tally[c];
  }
  std::printf("\nsquared counts (ciphertext x ciphertext): ");
  for (std::size_t c = 0; c < candidates; ++c) {
    std::printf("%llu ", static_cast<unsigned long long>(sq[c]));
  }
  std::printf("\nall homomorphic results exact: %s\n", all_ok ? "yes" : "NO");
  return all_ok ? 0 : 1;
}
