// The AVX-512 IFMA tier: the AVX-512 bodies, plus 52-bit lazy NTTs, the
// Shoup pass and mul_sum / weighted_sum accumulations for moduli q < 2^50. Compiled with
// -mavx512f -mavx512dq -mavx512ifma (see src/common/CMakeLists.txt); only
// reachable behind simd::isa_supported(Isa::Avx512Ifma), with the q < 2^50
// rule applied by the dispatcher (common/simd.cpp).
//
// vpmadd52lo/hi multiply the low 52 bits of two lanes and add the low or
// high 52 bits of the 104-bit product to a 64-bit accumulator: one
// instruction per half, against the AVX-512 body's four vpmuludq partials
// and two vpmullq. Every multiplier input here stays below 2^52: lazy NTT
// values below 4q, Shoup quotients floor(w << 52 / q), and MAC operands
// below q.
#include "common/simd.h"

#if ALCHEMIST_SIMD_AVX512IFMA

#include "common/simd_avx512.h"

namespace alchemist::simd::detail {

namespace {

constexpr u64 kMask52 = (u64{1} << 52) - 1;

inline __m512i madd52lo(__m512i acc, __m512i a, __m512i b) {
  return _mm512_madd52lo_epu64(acc, a, b);
}
inline __m512i madd52hi(__m512i acc, __m512i a, __m512i b) {
  return _mm512_madd52hi_epu64(acc, a, b);
}

// The 52-bit Shoup multiply: with hi = floor(x * quot / 2^52),
// x * op - hi * q lies in [0, 2q) for any x < 2^52, so it equals its value
// mod 2^52: lo52(x * op) + lo52(hi * (2^52 - q)), masked to 52 bits.
struct Arith52 : Words64<Avx512> {
  struct Twiddle {
    __m512i op, quot;
  };
  __m512i q, two_q, neg_q, mask;

  explicit Arith52(u64 modulus)
      : q(set1(modulus)),
        two_q(set1(2 * modulus)),
        neg_q(set1((u64{1} << 52) - modulus)),
        mask(set1(kMask52)) {}

  // floor(w << 52 / q) is the table's floor(w << 64 / q) shifted right by 12.
  static Twiddle twiddle(__m512i op, __m512i quot64) {
    return {op, _mm512_srli_epi64(quot64, 12)};
  }

  __m512i mul_lazy(__m512i x, const Twiddle& w) const {
    const __m512i zero = _mm512_setzero_si512();
    const __m512i hi = madd52hi(zero, x, w.quot);
    return _mm512_and_si512(madd52lo(madd52lo(zero, x, w.op), hi, neg_q), mask);
  }
};

// Rows the MAC sums before folding: with operands below 2^50 each product's
// high 52-bit half is below 2^48, so 15 of them plus the carries out of the
// low half stay below 2^52, the widest multiplier input.
constexpr std::size_t kIfmaMacRows = 15;

// A lane sum hi * 2^52 + lo, with hi + (lo >> 52) < 2^52, reduced to a
// canonical residue: (hi + lo >> 52) * (2^52 mod q) and lo mod 2^52 each by
// a Shoup multiply into [0, 2q), then two folds.
struct Fold52 {
  Arith52 ar;
  Arith52::Twiddle r52;  // 2^52 mod q and floor(r52 << 52 / q)
  __m512i one_quot;      // floor(2^52 / q), the Shoup quotient of 1

  explicit Fold52(u64 q) : ar(q), r52{}, one_quot(Avx512::set1_64((u64{1} << 52) / q)) {
    const u64 r = (u64{1} << 52) % q;
    r52 = {Avx512::set1_64(r), Avx512::set1_64(static_cast<u64>((u128{r} << 52) / q))};
  }

  __m512i reduce(__m512i lo, __m512i hi) const {
    const __m512i zero = _mm512_setzero_si512();
    const __m512i high = _mm512_add_epi64(hi, _mm512_srli_epi64(lo, 52));
    const __m512i low = _mm512_and_si512(lo, ar.mask);
    const __m512i rh = ar.mul_lazy(high, r52);
    const __m512i quot = madd52hi(zero, low, one_quot);
    const __m512i rl = _mm512_and_si512(madd52lo(low, quot, ar.neg_q), ar.mask);
    return Avx512::fold64(Avx512::fold64(_mm512_add_epi64(rh, rl), ar.two_q), ar.q);
  }
};

// out[k] = sum_t a * b mod q over the rows, 8 coefficients at a time, the
// last block masked; load(t, k, mask, a, b) fetches row t's operands for
// coefficients [k, k + 8), masked lanes zero. The split accumulators take
// the low and high 52-bit halves of each product and fold every
// kIfmaMacRows rows; a folded residue goes back into the low half.
template <typename Load>
void mac52(std::size_t rows, std::size_t n, u64 q, u64* out, Load&& load) {
  const Fold52 fold52(q);
  for (std::size_t k = 0; k < n; k += 8) {
    const __mmask8 m =
        n - k >= 8 ? static_cast<__mmask8>(0xff) : static_cast<__mmask8>((1u << (n - k)) - 1);
    __m512i lo = _mm512_setzero_si512();
    __m512i hi = _mm512_setzero_si512();
    for (std::size_t t0 = 0; t0 < rows; t0 += kIfmaMacRows) {
      if (t0 > 0) {
        lo = fold52.reduce(lo, hi);
        hi = _mm512_setzero_si512();
      }
      const std::size_t t1 = rows - t0 < kIfmaMacRows ? rows : t0 + kIfmaMacRows;
      for (std::size_t t = t0; t < t1; ++t) {
        __m512i a, b;
        load(t, k, m, a, b);
        lo = madd52lo(lo, a, b);
        hi = madd52hi(hi, a, b);
      }
    }
    _mm512_mask_storeu_epi64(out + k, m, fold52.reduce(lo, hi));
  }
}

void mul_sum52(const u64* const* a, const u64* const* b, std::size_t rows, std::size_t n, u64 q,
               u64* out) {
  mac52(rows, n, q, out, [&](std::size_t t, std::size_t k, __mmask8 m, __m512i& va, __m512i& vb) {
    va = _mm512_maskz_loadu_epi64(m, a[t] + k);
    vb = _mm512_maskz_loadu_epi64(m, b[t] + k);
  });
}

void weighted_sum52(const u64* const* x, const u64* w, std::size_t rows, std::size_t n, u64 q,
                    u64* out) {
  mac52(rows, n, q, out, [&](std::size_t t, std::size_t k, __mmask8 m, __m512i& vx, __m512i& vw) {
    vx = _mm512_maskz_loadu_epi64(m, x[t] + k);
    vw = Avx512::set1_64(w[t]);
  });
}

}  // namespace

constinit const Kernels kAvx512IfmaKernels = [] {
  Kernels k = vector_kernels<Avx512>();
  k.ntt_forward52 = ntt_forward<Arith52, NttTables>;
  k.ntt_inverse52 = ntt_inverse<Arith52, NttTables>;
  k.mul_sum52 = mul_sum52;
  k.weighted_sum52 = weighted_sum52;
  k.sub_mul_shoup52 = sub_mul_shoup<Arith52>;
  return k;
}();

}  // namespace alchemist::simd::detail

#endif  // ALCHEMIST_SIMD_AVX512IFMA
