#include "poly/lazy_kernels.h"

#include <stdexcept>
#include <vector>

#include "common/simd.h"
#include "common/thread_pool.h"

namespace alchemist {

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
  simd::mul_sum(a.data(), b.data(), a.size(), out.size(), mod.value(), out.data());
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
                       const Modulus& mod, std::span<u64> out, u64 x_bound) {
  if (x.size() != w.size()) throw std::invalid_argument("weighted_sum: size mismatch");
  KernelTimer timer(Kernel::WeightedSum);
  const u64 bound = x_bound == 0 ? mod.value() : x_bound;
  parallel_for(out.size(), 4096, [&](std::size_t kb, std::size_t ke) {
    // Rows offset to this chunk; the whole range (every nested call) needs
    // no copy.
    std::vector<const u64*> shifted;
    if (kb > 0) {
      shifted.assign(x.begin(), x.end());
      for (const u64*& row : shifted) row += kb;
    }
    simd::weighted_sum(kb > 0 ? shifted.data() : x.data(), w.data(), x.size(), ke - kb,
                       mod.value(), bound, out.data() + kb);
  });
}

}  // namespace alchemist
