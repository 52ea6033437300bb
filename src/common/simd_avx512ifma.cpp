// AVX-512 IFMA (8x u64 lane, 52-bit multiplier) variants of the lazy NTTs
// and of the mul_sum / weighted_sum accumulations, for moduli q < 2^50.
// Compiled with -mavx512f -mavx512dq -mavx512ifma (see
// src/common/CMakeLists.txt); only reachable behind
// simd::isa_supported(Isa::Avx512Ifma), with the q < 2^50 rule applied by
// the dispatcher (common/simd.cpp).
//
// vpmadd52lo/hi multiply the low 52 bits of two lanes and add the low or
// high 52 bits of the 104-bit product to a 64-bit accumulator: one
// instruction per half, against the AVX-512 body's four vpmuludq partials
// and two vpmullq. Every multiplier input here stays below 2^52: lazy NTT
// values below 4q, Shoup quotients floor(w << 52 / q), and MAC operands
// below q.
#include "common/simd.h"

#if ALCHEMIST_SIMD_AVX512IFMA

#include <immintrin.h>

#include "common/simd_avx512_ntt.h"

namespace alchemist::simd::detail {

namespace {

using u64 = std::uint64_t;

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
struct Arith52 {
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
  Twiddle twiddle(__m512i op, __m512i quot64) const {
    return {op, _mm512_srli_epi64(quot64, 12)};
  }

  __m512i mul_lazy(__m512i x, const Twiddle& w) const {
    const __m512i zero = _mm512_setzero_si512();
    const __m512i hi = madd52hi(zero, x, w.quot);
    return _mm512_and_si512(madd52lo(madd52lo(zero, x, w.op), hi, neg_q), mask);
  }
};

// A lane sum hi * 2^52 + lo, with hi + (lo >> 52) < 2^52, reduced to a
// canonical residue: (hi + lo >> 52) * (2^52 mod q) and lo mod 2^52 each by
// a Shoup multiply into [0, 2q), then two folds.
struct Fold52 {
  Arith52 ar;
  Arith52::Twiddle r52;
  __m512i one_quot;

  explicit Fold52(const IfmaFold& f)
      : ar(f.q), r52{set1(f.r52), set1(f.r52_quot)}, one_quot(set1(f.one_quot)) {}

  __m512i reduce(__m512i lo, __m512i hi) const {
    const __m512i zero = _mm512_setzero_si512();
    const __m512i high = _mm512_add_epi64(hi, _mm512_srli_epi64(lo, 52));
    const __m512i low = _mm512_and_si512(lo, ar.mask);
    const __m512i rh = ar.mul_lazy(high, r52);
    const __m512i quot = madd52hi(zero, low, one_quot);
    const __m512i rl = _mm512_and_si512(madd52lo(low, quot, ar.neg_q), ar.mask);
    return fold(fold(_mm512_add_epi64(rh, rl), ar.two_q), ar.q);
  }
};

// out[k] = sum_t a * b mod q over the rows, 8 coefficients at a time, the
// last block masked; load(t, k, mask, a, b) fetches row t's operands for
// coefficients [k, k + 8), masked lanes zero. The split accumulators take
// the low and high 52-bit halves of each product and fold every
// kIfmaMacRows rows; a folded residue goes back into the low half.
template <typename Load>
void mac52(std::size_t rows, std::size_t n, const IfmaFold& f, u64* out, Load&& load) {
  const Fold52 fold52(f);
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

}  // namespace

void ntt_forward_lazy_avx512ifma(const NttTables& t, u64* a) {
  forward_lazy(t, a, Arith52(t.q));
}

void ntt_inverse_lazy_avx512ifma(const NttTables& t, u64* a, u64 ninv_op, u64 ninv_quot) {
  inverse_lazy(t, a, ninv_op, ninv_quot, Arith52(t.q));
}

void mul_sum_avx512ifma(const u64* const* a, const u64* const* b, std::size_t rows,
                        std::size_t n, const IfmaFold& f, u64* out) {
  mac52(rows, n, f, out,
        [&](std::size_t t, std::size_t k, __mmask8 m, __m512i& va, __m512i& vb) {
          va = _mm512_maskz_loadu_epi64(m, a[t] + k);
          vb = _mm512_maskz_loadu_epi64(m, b[t] + k);
        });
}

void weighted_sum_avx512ifma(const u64* const* x, const u64* w, std::size_t rows,
                             std::size_t n, const IfmaFold& f, u64* out) {
  mac52(rows, n, f, out,
        [&](std::size_t t, std::size_t k, __mmask8 m, __m512i& vx, __m512i& vw) {
          vx = _mm512_maskz_loadu_epi64(m, x[t] + k);
          vw = set1(w[t]);
        });
}

}  // namespace alchemist::simd::detail

#endif  // ALCHEMIST_SIMD_AVX512IFMA
