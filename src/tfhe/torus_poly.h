// Torus polynomials (coefficients mod 2^64) and exact negacyclic products.
//
// TFHE multiplies small-integer polynomials (gadget digits, key bits) with
// torus polynomials in Z_{2^64}[X]/(X^N+1). Every product here is *exact*
// and matches the schoolbook reference bit for bit (no FFT rounding).
//
// The fast path works mod two NTT primes p1 > p2 > 2^29, both below 2^30
// and ≡ 1 mod 2N, on 32-bit words (poly/ntt.h NarrowNttTable). A torus
// polynomial is split into 32-bit halves, b = lo + 2^32 * hi, and each half
// is transformed mod each prime on its own (DomainPoly). A sum of T products
// of integer polynomials |a_i| <= A with one half has true coefficients of
// magnitude below T * N * A * 2^32. While that stays under P/2, P = p1 * p2
// (about 2^60), a Garner CRT step recovers each half exactly from its two
// residues, centred, and the halves recombine with a shift mod 2^64.
// For the external product T = (k+1)*l and A = Bg/2, so the limit is
// (k+1) * l * N * Bg/2 * 2^32 < P/2: set I is at 2^50.6, set II at 2^52 and
// the toy set at 2^48. external_product() checks the bound per shape and
// throws outside it. Key products in encryption and phase have T = 1, A = 1.
//
// The context holds its two tables and CRT constants from construction;
// residue conversions and the lift use Shoup multiplies and conditional
// subtractions: no table lookup, lock or division per coefficient.
#pragma once

#include <cstddef>
#include <vector>

#include "common/simd.h"
#include "poly/ntt.h"
#include "tfhe/torus.h"

namespace alchemist::tfhe {

class TorusPoly {
 public:
  TorusPoly() = default;
  explicit TorusPoly(std::size_t n) : coeffs_(n, 0) {}
  explicit TorusPoly(std::vector<Torus> coeffs) : coeffs_(std::move(coeffs)) {}

  std::size_t degree() const { return coeffs_.size(); }
  Torus& operator[](std::size_t i) { return coeffs_[i]; }
  Torus operator[](std::size_t i) const { return coeffs_[i]; }
  const std::vector<Torus>& coeffs() const { return coeffs_; }
  Torus* data() { return coeffs_.data(); }
  const Torus* data() const { return coeffs_.data(); }

  TorusPoly& operator+=(const TorusPoly& other);
  TorusPoly& operator-=(const TorusPoly& other);
  TorusPoly& negate();
  friend TorusPoly operator+(TorusPoly a, const TorusPoly& b) { return a += b; }
  friend TorusPoly operator-(TorusPoly a, const TorusPoly& b) { return a -= b; }

  // Negacyclic multiplication by the monomial X^e, e in [0, 2N).
  TorusPoly rotate(u64 e) const;

  bool operator==(const TorusPoly& other) const = default;

 private:
  std::vector<Torus> coeffs_;
};

// Exact reference: negacyclic convolution of small-int a with torus b,
// wrap-around arithmetic mod 2^64. O(N^2).
TorusPoly negacyclic_mul_schoolbook(const std::vector<i64>& a, const TorusPoly& b);

// Fast exact path: split torus values in the NTT domain of two 30-bit primes.
class TorusNttContext {
 public:
  static constexpr std::size_t kPrimes = 2;

  explicit TorusNttContext(std::size_t n);

  // b = lo + 2^32 * hi with lo, hi in [0, 2^32), each half as residues mod
  // p1 and p2 in the NTT domain, laid out [half][prime][N]; also an
  // accumulator of products with such a polynomial.
  struct DomainPoly {
    std::vector<u32> residues;
  };

  std::size_t degree() const { return n_; }
  const NarrowNttTable& table(std::size_t prime) const { return tables_[prime]; }
  // P = p1 * p2; a centred lift is exact for integers of magnitude below P/2.
  u64 modulus() const { return crt_.q; }

  // A small-integer polynomial in the NTT domain, residues [prime][N].
  std::vector<u32> forward_int(const std::vector<i64>& a) const;
  DomainPoly forward_torus(const TorusPoly& b) const;
  // Writes the residues of forward_torus(b) to dst[0, 2 * kPrimes * N).
  void forward_torus(const TorusPoly& b, u32* dst) const;
  DomainPoly zero() const;

  // acc += a * b, pointwise per half and prime.
  void mul_accumulate(DomainPoly& acc, const std::vector<u32>& a, const DomainPoly& b) const;
  // Inverse NTT of both halves, lift and recombine mod 2^64. Exact while
  // each half's accumulated integer stays below P/2 in magnitude.
  TorusPoly inverse(const DomainPoly& acc) const;

  // The external product's own layers (tfhe/trlwe.cpp).
  // Every digit of every src[0, N) as residues mod p1 and p2, written to
  // dst[level][prime][N]. Needs Bg/2 < p2, which the external product's
  // exactness check implies.
  void digit_residues(const Torus* src, const Gadget& gadget, u32* dst) const;
  // dst[t] += lo + 2^32 * hi mod 2^64 for t in [0, N), each half recovered
  // from its canonical residues [prime][N] as the integer of magnitude below
  // P/2 (simd::NarrowCrt).
  void lift_add(const u32* lo, const u32* hi, Torus* dst) const;

  // Process-wide cache, one context per degree.
  static const TorusNttContext& get(std::size_t n);

 private:
  std::size_t n_;
  std::vector<NarrowNttTable> tables_;  // p1, p2
  std::vector<Modulus> mods_;           // p1, p2, for forward_int
  simd::NarrowCrt crt_;
};

}  // namespace alchemist::tfhe
