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
// Chebyshev/power-basis term sum of CKKS polynomial evaluation.
#pragma once

#include <span>

#include "common/modarith.h"

namespace alchemist {

// out[k] = sum_t a[t][k] * b[t][k] mod q for k in [0, out.size()) — the
// DecompPolyMult accumulation (Table 2). a[t] and b[t] each point at
// out.size() residues below q. The lazy variant
// sums the products in 128 bits and reduces once per coefficient, folding
// early only where lazy_accumulation_fits says the headroom is spent. It
// does not allocate and records one MulAcc dispatch per call.
void mul_sum_eager(std::span<const u64* const> a, std::span<const u64* const> b,
                   const Modulus& mod, std::span<u64> out);
void mul_sum_lazy(std::span<const u64* const> a, std::span<const u64* const> b,
                  const Modulus& mod, std::span<u64> out);

// out[k] = sum_i w[i] * x[i][k] mod q for k in [0, out.size()) — one Bconv
// output channel (Table 3), L input channels combined with per-channel
// weights, and one channel of a CKKS linear combination sum_i c_i * ct_i.
// x[i] points at out.size() residues below q and w[i] < q. The lazy
// variant sums in 128 bits and reduces once per coefficient.
void weighted_sum_eager(std::span<const u64* const> x, std::span<const u64> w,
                        const Modulus& mod, std::span<u64> out);
void weighted_sum_lazy(std::span<const u64* const> x, std::span<const u64> w,
                       const Modulus& mod, std::span<u64> out);

// True iff `terms` products of values below 2^`bits_a` * 2^`bits_b` can be
// accumulated in 128 bits without overflow.
bool lazy_accumulation_fits(std::size_t terms, int bits_a, int bits_b);

}  // namespace alchemist
