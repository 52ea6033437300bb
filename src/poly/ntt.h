// Negacyclic number-theoretic transform over Z_q[X]/(X^N + 1).
//
// Forward transform: Cooley-Tukey (decimation in time), natural input order,
// bit-reversed output order. Inverse: Gentleman-Sande, bit-reversed input,
// natural output (Longa-Naehrig formulation). Pointwise operations in the NTT
// domain are order-agnostic as long as both operands use the same transform.
//
// Slot order: slot j of the forward output holds the evaluation
// a(ψ^(2·brev(j)+1)), where ψ = psi() and brev reverses log2(N) bits. A
// Galois automorphism X -> X^g maps the evaluation point ψ^(2k+1) to
// ψ^((2k+1)·g), so in NTT form it is a slot permutation (NttAutomorphism
// below), the same for every q.
//
// The production butterflies are Harvey-style *lazy*: values live in [0, 4q)
// through the forward stages (the inverse keeps [0, 2q)) and are reduced to
// canonical [0, q) once at the end — the software analogue of the paper's
// (M_j A_j)_n R_j deferral, which replaces one conditional correction per
// butterfly with one per coefficient per transform. 4q < 2^64 holds for every
// Modulus (q <= kMaxModulus < 2^62). The *_eager variants keep the classical
// reduce-every-butterfly dataflow as the bit-identical reference for tests
// and the eager-vs-lazy microbenchmarks.
//
// Twiddle factors are applied with Shoup multiplication (precomputed
// quotients), which is why tables are built once per (q, N) pair and cached.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/modarith.h"
#include "common/simd.h"

namespace alchemist {

class NttTable {
 public:
  // q must be prime with q ≡ 1 (mod 2N); N a power of two.
  NttTable(u64 q, std::size_t n);

  u64 modulus() const { return mod_.value(); }
  const Modulus& mod() const { return mod_; }
  std::size_t size() const { return n_; }
  // The primitive 2N-th root of unity used by this table.
  u64 psi() const { return psi_; }

  // In-place forward negacyclic NTT: natural order in, bit-reversed out.
  // Input coefficients must be in [0, q); output is canonical [0, q).
  // Runs the SIMD tier `isa` (common/simd.h), the runtime-selected one by
  // default; all tiers are bit-identical to the scalar lazy reference. A
  // forced tier this host cannot run throws std::invalid_argument.
  void forward(std::span<u64> a, simd::Isa isa = simd::active_isa()) const;
  // In-place inverse negacyclic NTT: bit-reversed in, natural order out.
  void inverse(std::span<u64> a, simd::Isa isa = simd::active_isa()) const;

  // Classical eagerly-reduced butterflies (pre-lazy dataflow). Bit-identical
  // outputs to forward()/inverse(); roughly one extra conditional subtraction
  // per butterfly. Reference implementation for equivalence tests and the
  // eager-vs-lazy ablation bench.
  void forward_eager(std::span<u64> a) const;
  void inverse_eager(std::span<u64> a) const;

 private:
  simd::NttTables fwd_view() const {
    return {w_op_.data(), w_quot_.data(), mod_.value(), n_};
  }
  simd::NttTables inv_view() const {
    return {inv_w_op_.data(), inv_w_quot_.data(), mod_.value(), n_};
  }

  Modulus mod_;
  std::size_t n_ = 0;
  int log_n_ = 0;
  u64 psi_ = 0;
  std::vector<MulModShoup> root_powers_;      // psi^brev(i)
  std::vector<MulModShoup> inv_root_powers_;  // psi^{-brev(i)}
  // SoA mirrors of the Shoup pairs above: the SIMD kernels read operands and
  // quotients from separate contiguous arrays so lanes load with one vector
  // fetch each instead of a strided gather over MulModShoup structs.
  std::vector<u64> w_op_, w_quot_;
  std::vector<u64> inv_w_op_, inv_w_quot_;
  MulModShoup n_inv_;
};

// The same negacyclic transform on 32-bit words for a prime q < 2^30
// (simd::kMaxNarrowModulus): the root psi and the slot order are those of
// NttTable(q, n), so for canonical input both give the same output. Lazy
// values stay below 4q < 2^32, so each Shoup twiddle multiply is one
// 32x32->64 product per lane (common/simd.h).
class NarrowNttTable {
 public:
  // q must be prime with q ≡ 1 (mod 2N) and q < 2^30; N a power of two.
  NarrowNttTable(std::uint32_t q, std::size_t n);

  std::uint32_t modulus() const { return q_; }
  std::size_t size() const { return n_; }

  // In-place transforms with canonical [0, q) output; forward is natural
  // in, bit-reversed out, and takes any input below 4q; inverse is the
  // reverse and takes canonical input. A forced `isa` this host cannot run
  // throws std::invalid_argument.
  void forward(std::span<std::uint32_t> a, simd::Isa isa = simd::active_isa()) const;
  void inverse(std::span<std::uint32_t> a, simd::Isa isa = simd::active_isa()) const;

 private:
  simd::NttTables32 fwd_view() const { return {w_op_.data(), w_quot_.data(), q_, n_}; }
  simd::NttTables32 inv_view() const {
    return {inv_w_op_.data(), inv_w_quot_.data(), q_, n_};
  }

  std::uint32_t q_;
  std::size_t n_;
  std::vector<std::uint32_t> w_op_, w_quot_;          // psi^brev(i), Shoup pairs
  std::vector<std::uint32_t> inv_w_op_, inv_w_quot_;  // psi^{-brev(i)}
  std::uint32_t n_inv_op_, n_inv_quot_;
};

// Process-wide cache of NTT tables keyed by (q, N). Table construction costs
// O(N) modular exponentiations; every RnsPoly channel shares one table.
// Thread-safe: concurrent lookups take a shared lock, first-time construction
// an exclusive one, so pool workers and svc jobs may race freely.
const NttTable& get_ntt_table(u64 q, std::size_t n);

// Gather indices of the automorphism X -> X^g on NTT-form slots:
// NTT(a(X^g))[j] = NTT(a)[index[j]], with
//   index[j] = brev(((2·brev(j)+1)·g mod 2N − 1) / 2).
// Throws std::invalid_argument unless N is a power of two and g is odd.
struct NttAutomorphism {
  NttAutomorphism(std::size_t n, u64 galois_elt);
  std::vector<std::uint32_t> index;
};

// Process-wide cache of the permutations keyed by (N, g mod 2N), thread-safe
// like get_ntt_table.
const NttAutomorphism& get_ntt_automorphism(std::size_t n, u64 galois_elt);

// Bit reversal of the low `bits` bits of x.
constexpr std::size_t bit_reverse(std::size_t x, int bits) {
  std::size_t r = 0;
  for (int i = 0; i < bits; ++i) {
    r = (r << 1) | (x & 1);
    x >>= 1;
  }
  return r;
}

}  // namespace alchemist
