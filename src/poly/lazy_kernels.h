// Software analogues of the paper's lazy reduction (Tables 2-3).
//
// The Meta-OP (M_j A_j)_n R_j defers modular reduction until after the n-term
// accumulation. In software the same transformation turns n Barrett
// reductions into one: products are accumulated in 128-bit and reduced once,
// valid while n * max(a) * max(b) stays below 2^128. Each lazy kernel has an
// eager reference that reduces every product; the two are bit-identical
// (tested), because a residue sum reduced once equals the same sum reduced
// term by term.
//
// mul_sum is the DecompPolyMult kernel of the CKKS hybrid keyswitch (digits x
// evaluation key, per RNS channel). The TFHE external product runs on 30-bit
// primes and calls its 32-bit-word form, simd::mul_sum_narrow, instead.
// weighted_sum is the BConv accumulation behind modup and moddown, and the
// Chebyshev/power-basis term sum of CKKS polynomial evaluation. The lazy
// variants are the whole-call kernels simd::mul_sum / simd::weighted_sum,
// which pick the accumulator width (128-bit, or 52-bit halves on IFMA
// hosts) for the modulus.
#pragma once

#include <span>

#include "common/modarith.h"
#include "common/simd.h"

namespace alchemist {

// out[k] = sum_t a[t][k] * b[t][k] mod q for k in [0, out.size()) — the
// DecompPolyMult accumulation (Table 2). a[t] and b[t] each point at
// out.size() residues below q. The lazy variant reduces once per
// coefficient, folding early only where the accumulator's headroom is
// spent. It does not allocate and records one MulAcc dispatch per call.
void mul_sum_eager(std::span<const u64* const> a, std::span<const u64* const> b,
                   const Modulus& mod, std::span<u64> out);
void mul_sum_lazy(std::span<const u64* const> a, std::span<const u64* const> b,
                  const Modulus& mod, std::span<u64> out);

// out[k] = sum_i w[i] * x[i][k] mod q for k in [0, out.size()) — one Bconv
// output channel (Table 3), L input channels combined with per-channel
// weights, and one channel of a CKKS linear combination sum_i c_i * ct_i.
// w[i] < q, and x[i] points at out.size() residues below x_bound, or below
// q when x_bound is 0 (BConv's inputs are residues mod the source primes).
// The lazy variant reduces once per coefficient and records one
// WeightedSum dispatch per coefficient chunk of the pool.
void weighted_sum_eager(std::span<const u64* const> x, std::span<const u64> w,
                        const Modulus& mod, std::span<u64> out);
void weighted_sum_lazy(std::span<const u64* const> x, std::span<const u64> w,
                       const Modulus& mod, std::span<u64> out, u64 x_bound = 0);

// The 128-bit headroom rule of the lazy sums (common/simd.h).
using simd::lazy_accumulation_fits;

}  // namespace alchemist
