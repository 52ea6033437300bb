// Measured software counterpart of the paper's lazy reduction (Tables 2-3):
// eager (reduce every product) vs lazy (accumulate in 128-bit, reduce once)
// for the DecompPolyMult and Bconv accumulation patterns. The paper's #Mults
// ratio predicts the trend; the wall-clock ratio below measures it on this
// machine's Barrett implementation. Every row also checks that the lazy
// kernel's output equals the eager reference and exits 1 if it does not.
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "common/primes.h"
#include "common/rng.h"
#include "common/simd.h"
#include "poly/lazy_kernels.h"
#include "metaop/mult_count.h"

namespace {

using namespace alchemist;

template <typename F>
double time_us(F&& f, int iters) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) f();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(stop - start).count() / iters;
}

void print_row(std::size_t terms, double t_eager, double t_lazy, double paper_ratio,
               bool match) {
  std::printf("%-8zu %-12.1f %-12.1f %-10.2f %-18.2f %s\n", terms, t_eager, t_lazy,
              t_eager / t_lazy, paper_ratio, match ? "yes" : "NO");
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation - lazy reduction, measured (software Barrett, this machine)");

  const u64 q = max_ntt_prime(36, 1024);  // the paper's 36-bit word
  const Modulus mod(q);
  const std::size_t n = 4096;
  Rng rng(7);
  bool all_match = true;

  std::printf("DecompPolyMult pattern (dnum digit layers x key layers of N=%zu, "
              "summed per coefficient):\n", n);
  std::printf("%-8s %-12s %-12s %-10s %-18s %s\n", "dnum", "eager us", "lazy us",
              "speedup", "paper #Mults ratio", "lazy==eager");
  for (std::size_t dnum : {2, 3, 4, 8}) {
    std::vector<std::vector<u64>> a(dnum), b(dnum);
    std::vector<const u64*> ap, bp;
    for (std::size_t t = 0; t < dnum; ++t) {
      a[t] = rng.uniform_vector(n, q);
      b[t] = rng.uniform_vector(n, q);
      ap.push_back(a[t].data());
      bp.push_back(b[t].data());
    }
    std::vector<u64> eager(n), lazy(n);
    const double t_eager = time_us([&] { mul_sum_eager(ap, bp, mod, eager); }, 20);
    const double t_lazy = time_us([&] { mul_sum_lazy(ap, bp, mod, lazy); }, 20);
    const auto counts = metaop::decomp_mults(1, dnum, 1);
    all_match &= eager == lazy;
    print_row(dnum, t_eager, t_lazy, static_cast<double>(counts.origin) / counts.meta,
              eager == lazy);
  }

  std::printf("\nBconv pattern (L channels combined into one output channel):\n");
  std::printf("%-8s %-12s %-12s %-10s %-18s %s\n", "L", "eager us", "lazy us",
              "speedup", "paper #Mults ratio", "lazy==eager");
  for (std::size_t l : {4, 11, 22, 44}) {
    std::vector<std::vector<u64>> x(l);
    std::vector<const u64*> xp;
    for (auto& ch : x) {
      ch = rng.uniform_vector(n, q);
      xp.push_back(ch.data());
    }
    std::vector<u64> w = rng.uniform_vector(l, q);
    std::vector<u64> eager(n), lazy(n);
    const double t_eager = time_us([&] { weighted_sum_eager(xp, w, mod, eager); }, 20);
    const double t_lazy = time_us([&] { weighted_sum_lazy(xp, w, mod, lazy); }, 20);
    const auto counts = metaop::bconv_mults(1, l, 1);
    all_match &= eager == lazy;
    print_row(l, t_eager, t_lazy, static_cast<double>(counts.origin) / counts.meta,
              eager == lazy);
  }

  // One row per supported ISA: the lazy kernels forced onto each tier at
  // the ckks_helr shape (6 rows of a 50-bit prime), against the eager
  // reference. The IFMA tier runs its 52-bit body there.
  std::printf("\nPer ISA (6 layers of a 50-bit prime, N=%zu, lazy kernels forced):\n", n);
  std::printf("%-12s %-14s %-16s %s\n", "isa", "mul_sum us", "weighted_sum us",
              "lazy==eager");
  {
    constexpr std::size_t kRows = 6;
    const u64 q50 = max_ntt_prime(50, n);
    const Modulus mod50(q50);
    std::vector<std::vector<u64>> a(kRows), b(kRows);
    std::vector<const u64*> ap, bp;
    for (std::size_t t = 0; t < kRows; ++t) {
      a[t] = rng.uniform_vector(n, q50);
      b[t] = rng.uniform_vector(n, q50);
      ap.push_back(a[t].data());
      bp.push_back(b[t].data());
    }
    const std::vector<u64> w = rng.uniform_vector(kRows, q50);
    std::vector<u64> mul_ref(n), sum_ref(n), out(n);
    mul_sum_eager(ap, bp, mod50, mul_ref);
    weighted_sum_eager(ap, w, mod50, sum_ref);
    for (std::size_t i = 0; i < simd::kNumIsas; ++i) {
      const auto isa = static_cast<simd::Isa>(i);
      if (!simd::isa_supported(isa)) continue;
      const double t_mul = time_us(
          [&] { simd::mul_sum(ap.data(), bp.data(), kRows, n, q50, out.data(), isa); }, 50);
      bool match = out == mul_ref;
      const double t_sum = time_us(
          [&] { simd::weighted_sum(ap.data(), w.data(), kRows, n, q50, q50, out.data(), isa); },
          50);
      match &= out == sum_ref;
      all_match &= match;
      std::printf("%-12s %-14.1f %-16.1f %s\n", simd::isa_name(isa), t_mul, t_sum,
                  match ? "yes" : "NO");
    }
  }

  bench::print_footnote(
      "the CKKS keyswitch runs mul_sum_lazy and BConv runs weighted_sum_lazy "
      "(src/poly/lazy_kernels.h), both the whole-call simd::mul_sum / "
      "simd::weighted_sum; the TFHE external product runs the 32-bit-word "
      "simd::mul_sum_narrow");
  if (!all_match) {
    std::fprintf(stderr, "ablation_lazy_reduction: a lazy kernel differs from its eager "
                         "reference\n");
    return 1;
  }
  return 0;
}
