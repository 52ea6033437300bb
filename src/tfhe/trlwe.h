// TRLWE (ring-LWE over the torus) and TGSW with exact NTT-domain products.
#pragma once

#include <vector>

#include "common/rng.h"
#include "tfhe/lwe.h"
#include "tfhe/params.h"
#include "tfhe/torus_poly.h"

namespace alchemist::tfhe {

struct TrlweKey {
  std::vector<std::vector<i64>> s;  // k binary polynomials
  std::size_t degree() const { return s.empty() ? 0 : s[0].size(); }
};

// b = sum_j a_j * s_j + m + e.
struct TrlweSample {
  std::vector<TorusPoly> a;  // k mask polynomials
  TorusPoly b;

  std::size_t k() const { return a.size(); }
  std::size_t degree() const { return b.degree(); }

  TrlweSample& operator+=(const TrlweSample& other);
  TrlweSample& operator-=(const TrlweSample& other);
  // Negacyclic rotation of every component by X^e.
  TrlweSample rotate(u64 e) const;
};

TrlweKey trlwe_keygen(const TfheParams& params, Rng& rng);

TrlweSample trlwe_trivial(const TfheParams& params, TorusPoly message);
TrlweSample trlwe_encrypt_zero(const TfheParams& params, const TrlweKey& key, Rng& rng);
TrlweSample trlwe_encrypt(const TfheParams& params, const TrlweKey& key,
                          const TorusPoly& message, Rng& rng);

// b - sum_j a_j * s_j (exact).
TorusPoly trlwe_phase(const TrlweSample& sample, const TrlweKey& key);

// TGSW ciphertext of a small integer scalar, stored directly in the NTT
// domain for the external product: each row component is a
// TorusNttContext::DomainPoly, 32-bit residues of both torus halves mod both
// primes, 16 bytes per coefficient. Rows (p, i) for p in [0, k], i in [1, l]:
// TRLWE(0) + m * 2^(64 - i*bg_bits) on component p.
struct TgswNtt {
  // [row][component][half][prime][N], row = p*l + (i-1).
  std::vector<u32> residues;
  std::size_t k = 1;
  std::size_t l = 3;
  int bg_bits = 7;
  std::size_t degree = 0;

  // The N residues of one half of one row component mod one prime.
  const u32* poly(std::size_t row, std::size_t component, std::size_t half,
                  std::size_t prime) const {
    return residues.data() +
           (((row * (k + 1) + component) * 2 + half) * TorusNttContext::kPrimes + prime) *
               degree;
  }
};

TgswNtt tgsw_encrypt(const TfheParams& params, const TrlweKey& key, i64 message,
                     Rng& rng);

// External product: TGSW(m) ⊡ TRLWE(mu) = TRLWE(m * mu) (plus gadget noise).
// Each input coefficient is decomposed once; the (k+1)*l digit polynomials
// are transformed mod both primes (2*(k+1)*l narrow forward NTTs), their
// pointwise products with each key row half summed in a u64 with one fold
// per coefficient (simd::mul_sum_narrow), and each output half transformed
// back mod each prime (4*(k+1) narrow inverse NTTs), lifted by CRT and
// recombined. Scratch lives in a per-thread workspace. Throws
// std::invalid_argument unless (k+1) * l * N * Bg/2 * 2^32 < P/2 (see
// tfhe/torus_poly.h), the limit of an exact lift.
TrlweSample external_product(const TgswNtt& g, const TrlweSample& c);

// CMux: selects c0 if the TGSW encrypts 0, c1 if it encrypts 1.
TrlweSample cmux(const TgswNtt& bit, const TrlweSample& c0, const TrlweSample& c1);

// Extract the constant coefficient as an LWE sample of dimension k*N.
LweSample sample_extract(const TrlweSample& c);
// The LWE key the extraction decrypts under.
LweKey extract_key(const TrlweKey& key);

}  // namespace alchemist::tfhe
