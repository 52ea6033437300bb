// AVX-512 (8x u64 lane) variants of the lazy NTT butterflies and 128-bit
// accumulators. Compiled with -mavx512f -mavx512dq (see
// src/common/CMakeLists.txt); only reachable behind
// simd::isa_supported(Isa::Avx512), so every helper stays in the anonymous
// namespace — nothing here may be picked by the linker for non-AVX-512 hosts.
//
// vpmullq (DQ) gives the low 64 bits natively; the high 64 bits are still
// synthesized from vpmuludq partials (there is no 64-bit mulhi outside
// IFMA's 52-bit forms), exactly as in the AVX2 TU. The transforms' stage
// loops live in simd_avx512_ntt.h, shared with the IFMA tier. The narrow
// (32-bit word) kernels at the end of the file run 16-wide.
#include "common/simd.h"

#if ALCHEMIST_SIMD_AVX512

#include <immintrin.h>

#include <algorithm>

#include "common/simd_avx512_ntt.h"

namespace alchemist::simd::detail {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// High 64 bits of a*b per lane; same exact-carry chain as the AVX2 TU.
inline __m512i mulhi64(__m512i a, __m512i b, __m512i a_hi, __m512i b_hi) {
  const __m512i lo32 = _mm512_set1_epi64(0xffffffffll);
  const __m512i lolo = _mm512_mul_epu32(a, b);
  const __m512i lohi = _mm512_mul_epu32(a, b_hi);
  const __m512i hilo = _mm512_mul_epu32(a_hi, b);
  const __m512i hihi = _mm512_mul_epu32(a_hi, b_hi);
  const __m512i mid = _mm512_add_epi64(hilo, _mm512_srli_epi64(lolo, 32));
  const __m512i mid2 = _mm512_add_epi64(lohi, _mm512_and_si512(mid, lo32));
  return _mm512_add_epi64(
      hihi, _mm512_add_epi64(_mm512_srli_epi64(mid, 32), _mm512_srli_epi64(mid2, 32)));
}

// The 64-bit Shoup multiply of the scalar body, per lane: op*x -
// mulhi(quot, x)*q mod 2^64, result in [0, 2q).
struct Arith64 {
  struct Twiddle {
    __m512i op, quot, quot_hi;
  };
  __m512i q, two_q;

  explicit Arith64(u64 modulus) : q(set1(modulus)), two_q(set1(2 * modulus)) {}

  Twiddle twiddle(__m512i op, __m512i quot) const {
    return {op, quot, _mm512_srli_epi64(quot, 32)};
  }

  __m512i mul_lazy(__m512i x, const Twiddle& w) const {
    const __m512i hi = mulhi64(w.quot, x, w.quot_hi, _mm512_srli_epi64(x, 32));
    return _mm512_sub_epi64(_mm512_mullo_epi64(w.op, x), _mm512_mullo_epi64(hi, q));
  }
};

}  // namespace

void ntt_forward_lazy_avx512(const NttTables& t, u64* a) {
  forward_lazy(t, a, Arith64(t.q));
}

void ntt_inverse_lazy_avx512(const NttTables& t, u64* a, u64 ninv_op, u64 ninv_quot) {
  inverse_lazy(t, a, ninv_op, ninv_quot, Arith64(t.q));
}

void weighted_accumulate_avx512(const u64* x, u64 w, std::size_t n,
                                u64* acc_lo, u64* acc_hi) {
  const __m512i vw = _mm512_set1_epi64(static_cast<long long>(w));
  const __m512i vw_hi = _mm512_srli_epi64(vw, 32);
  const __m512i one = _mm512_set1_epi64(1);
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m512i vx = loadu(x + k);
    const __m512i vx_hi = _mm512_srli_epi64(vx, 32);
    const __m512i plo = _mm512_mullo_epi64(vw, vx);
    const __m512i phi = mulhi64(vw, vx, vw_hi, vx_hi);
    const __m512i nlo = _mm512_add_epi64(loadu(acc_lo + k), plo);
    const __mmask8 carry = _mm512_cmplt_epu64_mask(nlo, plo);
    __m512i nhi = _mm512_add_epi64(loadu(acc_hi + k), phi);
    nhi = _mm512_mask_add_epi64(nhi, carry, nhi, one);
    storeu(acc_lo + k, nlo);
    storeu(acc_hi + k, nhi);
  }
  for (; k < n; ++k) {
    const u128 p = u128{w} * x[k];
    const u64 plo = static_cast<u64>(p);
    const u64 nlo = acc_lo[k] + plo;
    acc_hi[k] += static_cast<u64>(p >> 64) + (nlo < plo ? 1 : 0);
    acc_lo[k] = nlo;
  }
}

void mul_accumulate_avx512(const u64* a, const u64* b, std::size_t n,
                           u64* acc_lo, u64* acc_hi) {
  const __m512i one = _mm512_set1_epi64(1);
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m512i va = loadu(a + k);
    const __m512i vb = loadu(b + k);
    const __m512i va_hi = _mm512_srli_epi64(va, 32);
    const __m512i vb_hi = _mm512_srli_epi64(vb, 32);
    const __m512i plo = _mm512_mullo_epi64(va, vb);
    const __m512i phi = mulhi64(va, vb, va_hi, vb_hi);
    const __m512i nlo = _mm512_add_epi64(loadu(acc_lo + k), plo);
    const __mmask8 carry = _mm512_cmplt_epu64_mask(nlo, plo);
    __m512i nhi = _mm512_add_epi64(loadu(acc_hi + k), phi);
    nhi = _mm512_mask_add_epi64(nhi, carry, nhi, one);
    storeu(acc_lo + k, nlo);
    storeu(acc_hi + k, nhi);
  }
  for (; k < n; ++k) {
    const u128 p = u128{a[k]} * b[k];
    const u64 plo = static_cast<u64>(p);
    const u64 nlo = acc_lo[k] + plo;
    acc_hi[k] += static_cast<u64>(p >> 64) + (nlo < plo ? 1 : 0);
    acc_lo[k] = nlo;
  }
}

// ---------------------------------------------------------------------------
// Narrow words: 16x u32 lanes for primes q < 2^30, with the even/odd
// vpmuludq high products of the AVX2 TU. Short strides (len = 8, 4, 2, 1)
// split 32 consecutive elements through vpermt2d two-source permutes.

namespace {

using u32 = std::uint32_t;

inline __m512i loadu32(const u32* p) { return _mm512_loadu_si512(p); }
inline void storeu32(u32* p, __m512i v) { _mm512_storeu_si512(p, v); }

struct Twiddle32 {
  __m512i op, quot, quot_odd;
};

inline Twiddle32 twiddle32(__m512i op, __m512i quot) {
  return {op, quot, _mm512_srli_epi64(quot, 32)};
}

inline Twiddle32 twiddle32_broadcast(u32 op, u32 quot) {
  return twiddle32(_mm512_set1_epi32(static_cast<int>(op)),
                   _mm512_set1_epi32(static_cast<int>(quot)));
}

inline __m512i fold32(__m512i x, __m512i bound) {
  return _mm512_min_epu32(x, _mm512_sub_epi32(x, bound));
}

inline __m512i shoup32(__m512i x, const Twiddle32& w, __m512i q) {
  const __m512i even = _mm512_srli_epi64(_mm512_mul_epu32(x, w.quot), 32);
  const __m512i odd = _mm512_mul_epu32(_mm512_srli_epi64(x, 32), w.quot_odd);
  const __m512i hi = _mm512_mask_blend_epi32(0xaaaa, even, odd);
  return _mm512_sub_epi32(_mm512_mullo_epi32(x, w.op), _mm512_mullo_epi32(hi, q));
}

inline void ct32(__m512i& u, __m512i& x, const Twiddle32& w, __m512i q, __m512i two_q) {
  u = fold32(u, two_q);
  const __m512i v = shoup32(x, w, q);
  const __m512i lo = _mm512_add_epi32(u, v);
  x = _mm512_sub_epi32(_mm512_add_epi32(u, two_q), v);
  u = lo;
}

inline void gs32(__m512i& u, __m512i& v, const Twiddle32& w, __m512i q, __m512i two_q) {
  const __m512i sum = fold32(_mm512_add_epi32(u, v), two_q);
  const __m512i diff = _mm512_sub_epi32(_mm512_add_epi32(u, two_q), v);
  u = sum;
  v = shoup32(diff, w, q);
}

// Permute indices of one short stage of stride len over 32 elements (A, B):
// u lane i is element (i / len) * 2len + i % len, v lane i the one len
// later; store_a / store_b put them back (u lane i -> i, v lane i -> 16 + i),
// and u lane i takes the stage's twiddle i / len of the sweep.
struct StageIdx32 {
  u32 split_u[16], split_v[16], store[32], tw[16];
};

constexpr StageIdx32 make_stage_idx32(std::size_t len) {
  StageIdx32 ix{};
  for (std::size_t i = 0; i < 16; ++i) {
    ix.split_u[i] = static_cast<u32>((i / len) * 2 * len + i % len);
    ix.split_v[i] = ix.split_u[i] + static_cast<u32>(len);
    ix.tw[i] = static_cast<u32>(i / len);
  }
  for (std::size_t e = 0; e < 32; ++e) {
    const std::size_t block = e / (2 * len), r = e % (2 * len);
    ix.store[e] = static_cast<u32>(r < len ? block * len + r : 16 + block * len + r - len);
  }
  return ix;
}

// Indexed by log2(len).
constexpr StageIdx32 kStageIdx32[4] = {make_stage_idx32(1), make_stage_idx32(2),
                                       make_stage_idx32(4), make_stage_idx32(8)};

template <typename Butterfly>
void short_stage32(u32* a, const u32* w_op, const u32* w_quot, std::size_t groups,
                   std::size_t len, __m512i q, __m512i two_q, Butterfly&& bf) {
  const StageIdx32& ix = kStageIdx32[__builtin_ctzll(len)];
  const __m512i split_u = loadu32(ix.split_u), split_v = loadu32(ix.split_v);
  const __m512i store_a = loadu32(ix.store), store_b = loadu32(ix.store + 16);
  const __m512i tw_idx = loadu32(ix.tw);
  const std::size_t per = 16 / len;  // stage twiddles per sweep
  const __mmask16 tw_mask = static_cast<__mmask16>((1u << per) - 1);
  for (std::size_t i = 0; i < groups; i += per) {
    u32* p = a + 2 * i * len;
    const __m512i A = loadu32(p);
    const __m512i B = loadu32(p + 16);
    __m512i u = _mm512_permutex2var_epi32(A, split_u, B);
    __m512i v = _mm512_permutex2var_epi32(A, split_v, B);
    const __m512i op =
        _mm512_permutexvar_epi32(tw_idx, _mm512_maskz_loadu_epi32(tw_mask, w_op + i));
    const __m512i quot =
        _mm512_permutexvar_epi32(tw_idx, _mm512_maskz_loadu_epi32(tw_mask, w_quot + i));
    bf(u, v, twiddle32(op, quot), q, two_q);
    storeu32(p, _mm512_permutex2var_epi32(u, store_a, v));
    storeu32(p + 16, _mm512_permutex2var_epi32(u, store_b, v));
  }
}

template <typename Butterfly>
inline void long_block32(u32* a, std::size_t len, const Twiddle32& w, __m512i q,
                         __m512i two_q, Butterfly&& bf) {
  for (std::size_t j = 0; j < len; j += 16) {
    __m512i u = loadu32(a + j), v = loadu32(a + j + len);
    bf(u, v, w, q, two_q);
    storeu32(a + j, u);
    storeu32(a + j + len, v);
  }
}

// A u64 sum per 64-bit lane mod q, canonical, as in the AVX2 TU.
inline __m512i fold_sum64(__m512i s, const NarrowFold& f, __m512i q, __m512i two_q) {
  const __m512i r32 = _mm512_set1_epi64(f.r32);
  const __m512i r32_quot = _mm512_set1_epi64(f.r32_quot);
  const __m512i one_quot = _mm512_set1_epi64(f.one_quot);
  const __m512i hi = _mm512_srli_epi64(s, 32);
  const __m512i qh = _mm512_srli_epi64(_mm512_mul_epu32(hi, r32_quot), 32);
  const __m512i rh = _mm512_sub_epi64(_mm512_mul_epu32(hi, r32), _mm512_mul_epu32(qh, q));
  const __m512i ql = _mm512_srli_epi64(_mm512_mul_epu32(s, one_quot), 32);
  const __m512i lo = _mm512_and_si512(s, _mm512_set1_epi64(0xffffffffll));
  const __m512i rl = _mm512_sub_epi64(lo, _mm512_mul_epu32(ql, q));
  return fold32(fold32(_mm512_add_epi64(rh, rl), two_q), q);
}

}  // namespace

void ntt_forward_narrow_avx512(const NttTables32& t, u32* a) {
  if (t.n < 32) {
    ntt_forward_narrow_scalar(t, a);
    return;
  }
  const __m512i q = _mm512_set1_epi32(static_cast<int>(t.q));
  const __m512i two_q = _mm512_set1_epi32(static_cast<int>(2 * t.q));
  const auto bf = [](__m512i& u, __m512i& v, const Twiddle32& w, __m512i qq, __m512i tq) {
    ct32(u, v, w, qq, tq);
  };
  std::size_t len = t.n;
  for (std::size_t m = 1; m < t.n; m <<= 1) {
    len >>= 1;
    if (len >= 16) {
      for (std::size_t i = 0; i < m; ++i) {
        const Twiddle32 w = twiddle32_broadcast(t.w_op[m + i], t.w_quot[m + i]);
        long_block32(a + 2 * i * len, len, w, q, two_q, bf);
      }
    } else {
      short_stage32(a, t.w_op + m, t.w_quot + m, m, len, q, two_q, bf);
    }
  }
  for (std::size_t j = 0; j < t.n; j += 16) {
    storeu32(a + j, fold32(fold32(loadu32(a + j), two_q), q));
  }
}

void ntt_inverse_narrow_avx512(const NttTables32& t, u32* a, u32 ninv_op, u32 ninv_quot) {
  if (t.n < 32) {
    ntt_inverse_narrow_scalar(t, a, ninv_op, ninv_quot);
    return;
  }
  const __m512i q = _mm512_set1_epi32(static_cast<int>(t.q));
  const __m512i two_q = _mm512_set1_epi32(static_cast<int>(2 * t.q));
  const auto bf = [](__m512i& u, __m512i& v, const Twiddle32& w, __m512i qq, __m512i tq) {
    gs32(u, v, w, qq, tq);
  };
  std::size_t len = 1;
  for (std::size_t m = t.n; m > 1; m >>= 1) {
    const std::size_t h = m >> 1;
    if (len >= 16) {
      for (std::size_t i = 0; i < h; ++i) {
        const Twiddle32 w = twiddle32_broadcast(t.w_op[h + i], t.w_quot[h + i]);
        long_block32(a + 2 * i * len, len, w, q, two_q, bf);
      }
    } else {
      short_stage32(a, t.w_op + h, t.w_quot + h, h, len, q, two_q, bf);
    }
    len <<= 1;
  }
  const Twiddle32 ninv = twiddle32_broadcast(ninv_op, ninv_quot);
  for (std::size_t j = 0; j < t.n; j += 16) {
    storeu32(a + j, fold32(shoup32(loadu32(a + j), ninv, q), q));
  }
}

void mul_sum_narrow_avx512(const u32* const* a, const u32* const* b, std::size_t rows,
                           std::size_t n, const NarrowFold& f, u32* out) {
  const __m512i q = _mm512_set1_epi64(f.q);
  const __m512i two_q = _mm512_set1_epi64(2 * static_cast<u64>(f.q));
  std::size_t k = 0;
  for (; k + 16 <= n; k += 16) {
    __m512i even = _mm512_setzero_si512();
    __m512i odd = _mm512_setzero_si512();
    for (std::size_t t0 = 0; t0 < rows; t0 += kNarrowMacRows) {
      if (t0 > 0) {
        even = fold_sum64(even, f, q, two_q);
        odd = fold_sum64(odd, f, q, two_q);
      }
      const std::size_t t1 = std::min(rows, t0 + kNarrowMacRows);
      for (std::size_t t = t0; t < t1; ++t) {
        const __m512i va = loadu32(a[t] + k);
        const __m512i vb = loadu32(b[t] + k);
        even = _mm512_add_epi64(even, _mm512_mul_epu32(va, vb));
        odd = _mm512_add_epi64(
            odd, _mm512_mul_epu32(_mm512_srli_epi64(va, 32), _mm512_srli_epi64(vb, 32)));
      }
    }
    even = fold_sum64(even, f, q, two_q);
    odd = fold_sum64(odd, f, q, two_q);
    storeu32(out + k, _mm512_mask_blend_epi32(0xaaaa, even, _mm512_slli_epi64(odd, 32)));
  }
  mul_sum_narrow_scalar(a, b, rows, k, n, f, out);
}

void gadget_residues_narrow_avx512(const u64* src, std::size_t n, u64 offset, int bg_bits,
                                   std::size_t levels, const NarrowCrt& crt, u32* dst) {
  const __m512i off = _mm512_set1_epi64(static_cast<long long>(offset));
  const __m512i mask = _mm512_set1_epi32((1 << bg_bits) - 1);
  const __m512i half = _mm512_set1_epi32(1 << (bg_bits - 1));
  const __m512i q1 = _mm512_set1_epi32(static_cast<int>(crt.q1));
  const __m512i q2 = _mm512_set1_epi32(static_cast<int>(crt.q2));
  std::size_t k = 0;
  for (; k + 16 <= n; k += 16) {
    const __m512i s0 = _mm512_add_epi64(loadu(src + k), off);
    const __m512i s1 = _mm512_add_epi64(loadu(src + k + 8), off);
    for (std::size_t i = 0; i < levels; ++i) {
      const __m128i shift = _mm_cvtsi32_si128(64 - static_cast<int>((i + 1) * bg_bits));
      const __m512i f = _mm512_and_si512(
          _mm512_inserti64x4(
              _mm512_castsi256_si512(_mm512_cvtepi64_epi32(_mm512_srl_epi64(s0, shift))),
              _mm512_cvtepi64_epi32(_mm512_srl_epi64(s1, shift)), 1),
          mask);
      const __m512i d = _mm512_sub_epi32(f, half);
      const __mmask16 neg = _mm512_cmplt_epu32_mask(f, half);
      storeu32(dst + (2 * i) * n + k, _mm512_mask_add_epi32(d, neg, d, q1));
      storeu32(dst + (2 * i + 1) * n + k, _mm512_mask_add_epi32(d, neg, d, q2));
    }
  }
  gadget_residues_narrow_scalar(src, k, n, offset, bg_bits, levels, crt, dst);
}

namespace {

// The centred lift of 8 halves, as in the AVX2 TU.
inline __m512i crt_lift8(__m512i r1, __m512i r2, const NarrowCrt& crt) {
  const __m512i q1 = _mm512_set1_epi64(crt.q1);
  const __m512i q2 = _mm512_set1_epi64(crt.q2);
  const __m512i d = _mm512_sub_epi64(_mm512_add_epi64(r2, q2), fold32(r1, q2));
  const __m512i hi =
      _mm512_srli_epi64(_mm512_mul_epu32(d, _mm512_set1_epi64(crt.q1_inv_quot)), 32);
  const __m512i t = fold32(_mm512_sub_epi64(_mm512_mul_epu32(d, _mm512_set1_epi64(crt.q1_inv)),
                                            _mm512_mul_epu32(hi, q2)),
                           q2);
  const __m512i x = _mm512_add_epi64(r1, _mm512_mul_epu32(t, q1));
  const __mmask8 above =
      _mm512_cmpgt_epu64_mask(x, _mm512_set1_epi64(static_cast<long long>(crt.q / 2)));
  return _mm512_mask_sub_epi64(x, above, x, _mm512_set1_epi64(static_cast<long long>(crt.q)));
}

inline __m512i load8_u32(const u32* p) {
  return _mm512_cvtepu32_epi64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

}  // namespace

void crt_lift_add_narrow_avx512(const u32* lo, const u32* hi, std::size_t n,
                                const NarrowCrt& crt, u64* dst) {
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m512i x_lo = crt_lift8(load8_u32(lo + k), load8_u32(lo + n + k), crt);
    const __m512i x_hi = crt_lift8(load8_u32(hi + k), load8_u32(hi + n + k), crt);
    storeu(dst + k, _mm512_add_epi64(loadu(dst + k),
                                     _mm512_add_epi64(x_lo, _mm512_slli_epi64(x_hi, 32))));
  }
  crt_lift_add_narrow_scalar(lo, hi, k, n, crt, dst);
}

}  // namespace alchemist::simd::detail

#endif  // ALCHEMIST_SIMD_AVX512
