#include "poly/lazy_kernels.h"

#include <algorithm>
#include <stdexcept>

#include "common/simd.h"
#include "common/thread_pool.h"

namespace alchemist {

namespace {

int bit_width_u64(u64 x) {
  return x == 0 ? 0 : 64 - __builtin_clzll(x);
}

}  // namespace

bool lazy_accumulation_fits(std::size_t terms, int bits_a, int bits_b) {
  if (terms == 0) return true;
  int log_terms = 0;
  while ((std::size_t{1} << log_terms) < terms) ++log_terms;
  return bits_a + bits_b + log_terms <= 127;
}

void mul_sum_eager(std::span<const u64* const> a, std::span<const u64* const> b,
                   const Modulus& mod, std::span<u64> out) {
  if (a.size() != b.size()) throw std::invalid_argument("mul_sum: size mismatch");
  for (std::size_t k = 0; k < out.size(); ++k) {
    u64 acc = 0;
    for (std::size_t t = 0; t < a.size(); ++t) {
      acc = mod.add(acc, mod.mul(a[t][k], b[t][k]));  // reduce every term
    }
    out[k] = acc;
  }
}

void mul_sum_lazy(std::span<const u64* const> a, std::span<const u64* const> b,
                  const Modulus& mod, std::span<u64> out) {
  if (a.size() != b.size()) throw std::invalid_argument("mul_sum: size mismatch");
  simd::note_dispatch(simd::Kern::MulAcc, simd::active_isa());
  const int qbits = bit_width_u64(mod.value());
  // Blocked SoA accumulators: every term streams one contiguous slice of
  // a[t] and b[t] through the vectorized 128-bit accumulator.
  constexpr std::size_t kBlock = 256;
  u64 lo[kBlock], hi[kBlock];
  for (std::size_t base = 0; base < out.size(); base += kBlock) {
    const std::size_t len = std::min(kBlock, out.size() - base);
    std::fill_n(lo, len, u64{0});
    std::fill_n(hi, len, u64{0});
    std::size_t pending = 0;  // terms in the accumulators; a folded residue counts as one
    for (std::size_t t = 0; t < a.size(); ++t) {
      if (!lazy_accumulation_fits(pending + 1, qbits, qbits)) {
        for (std::size_t k = 0; k < len; ++k) {
          lo[k] = mod.reduce((u128{hi[k]} << 64) | lo[k]);
          hi[k] = 0;
        }
        pending = 1;
      }
      simd::mul_accumulate(a[t] + base, b[t] + base, len, lo, hi);
      ++pending;
    }
    for (std::size_t k = 0; k < len; ++k) {
      out[base + k] = mod.reduce((u128{hi[k]} << 64) | lo[k]);
    }
  }
}

// Output coefficients are independent, so both variants split the k-range
// over the pool (each chunk owns a disjoint slice of `out`). Calls arriving
// from an already-parallel caller — e.g. BConv's target-channel fan-out —
// run inline on that worker.
void weighted_sum_eager(std::span<const u64* const> x, std::span<const u64> w,
                        const Modulus& mod, std::span<u64> out) {
  if (x.size() != w.size()) throw std::invalid_argument("weighted_sum: size mismatch");
  KernelTimer timer(Kernel::WeightedSum);
  parallel_for(out.size(), 4096, [&](std::size_t kb, std::size_t ke) {
    for (std::size_t k = kb; k < ke; ++k) out[k] = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      for (std::size_t k = kb; k < ke; ++k) {
        out[k] = mod.add(out[k], mod.mul(w[i], x[i][k]));
      }
    }
  });
}

void weighted_sum_lazy(std::span<const u64* const> x, std::span<const u64> w,
                       const Modulus& mod, std::span<u64> out) {
  if (x.size() != w.size()) throw std::invalid_argument("weighted_sum: size mismatch");
  const int qbits = bit_width_u64(mod.value());
  if (!lazy_accumulation_fits(x.size(), qbits, qbits)) {
    weighted_sum_eager(x, w, mod, out);
    return;
  }
  KernelTimer timer(Kernel::WeightedSum);
  // One dispatch per kernel call; the inner per-block accumulations reuse the
  // same resolved ISA without re-counting.
  simd::note_dispatch(simd::Kern::WeightedSum, simd::active_isa());
  parallel_for(out.size(), 4096, [&](std::size_t kb, std::size_t ke) {
    // Blocked SoA accumulators: for each block of coefficients, fold every
    // input channel in with the vectorized 128-bit accumulator, then reduce.
    // The i-over-k loop order turns the per-coefficient channel walk into
    // contiguous streaming loads of x[i].
    constexpr std::size_t kBlock = 512;
    u64 acc_lo[kBlock], acc_hi[kBlock];
    for (std::size_t b = kb; b < ke; b += kBlock) {
      const std::size_t len = std::min(kBlock, ke - b);
      std::fill_n(acc_lo, len, u64{0});
      std::fill_n(acc_hi, len, u64{0});
      for (std::size_t i = 0; i < x.size(); ++i) {
        simd::weighted_accumulate(x[i] + b, w[i], len, acc_lo, acc_hi);
      }
      for (std::size_t k = 0; k < len; ++k) {
        out[b + k] = mod.reduce((u128{acc_hi[k]} << 64) | acc_lo[k]);
      }
    }
  });
}

}  // namespace alchemist
