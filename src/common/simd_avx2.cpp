// AVX2 (4x u64 lane) variants of the lazy NTT butterflies and 128-bit
// accumulators. Compiled with -mavx2 (see src/common/CMakeLists.txt); only
// reachable behind simd::isa_supported(Isa::Avx2), so every helper stays in
// the anonymous namespace — nothing here may be picked by the linker for a
// non-AVX2 host.
//
// AVX2 has no 64x64 multiply, so the Shoup high/low products are synthesized
// from 32x32 vpmuludq partials with exact carry propagation: the arithmetic
// is bit-identical (mod 2^64) to the scalar u128 formulation.
//
// Stage geometry: butterflies with stride t >= 4 iterate contiguous lanes
// under a broadcast twiddle; the short-stride tails (t = 2, 1) batch
// lanes across adjacent blocks with in-register shuffles and a matching
// permutation of the twiddle vector, so every stage of an N >= 8 transform
// runs vectorized. The narrow (32-bit word) kernels at the end of the file
// follow the same plan on 8 lanes.
#include "common/simd.h"

#if ALCHEMIST_SIMD_AVX2

#include <immintrin.h>

#include <algorithm>

namespace alchemist::simd::detail {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

inline __m256i loadu(const u64* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void storeu(u64* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// Low 64 bits of a*b per lane. *_hi are the operands shifted right 32,
// precomputed by the caller when an operand is loop-invariant.
inline __m256i mullo64(__m256i a, __m256i b, __m256i a_hi, __m256i b_hi) {
  const __m256i lolo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(lolo, _mm256_slli_epi64(cross, 32));
}

// High 64 bits of a*b per lane, exact carries:
//   a*b = hihi<<64 + (lohi + hilo)<<32 + lolo
//   mid  = hilo + (lolo >> 32)                      (fits: < 2^64 - 2^32)
//   mid2 = lohi + (mid & 0xffffffff)                (fits: < 2^64)
//   hi   = hihi + (mid >> 32) + (mid2 >> 32)
inline __m256i mulhi64(__m256i a, __m256i b, __m256i a_hi, __m256i b_hi) {
  const __m256i lo32 = _mm256_set1_epi64x(0xffffffffll);
  const __m256i lolo = _mm256_mul_epu32(a, b);
  const __m256i lohi = _mm256_mul_epu32(a, b_hi);
  const __m256i hilo = _mm256_mul_epu32(a_hi, b);
  const __m256i hihi = _mm256_mul_epu32(a_hi, b_hi);
  const __m256i mid = _mm256_add_epi64(hilo, _mm256_srli_epi64(lolo, 32));
  const __m256i mid2 = _mm256_add_epi64(lohi, _mm256_and_si256(mid, lo32));
  return _mm256_add_epi64(
      hihi, _mm256_add_epi64(_mm256_srli_epi64(mid, 32), _mm256_srli_epi64(mid2, 32)));
}

// x - bound if x >= bound, else x; requires x < 2*bound and bound < 2^63 so
// the signed sign-bit test of (x - bound) is exact.
inline __m256i fold(__m256i x, __m256i bound) {
  const __m256i t = _mm256_sub_epi64(x, bound);
  const __m256i neg = _mm256_cmpgt_epi64(_mm256_setzero_si256(), t);
  return _mm256_add_epi64(t, _mm256_and_si256(bound, neg));
}

// Loop-invariant Shoup twiddle state: (op, quot) plus their >>32 halves.
struct Twiddle {
  __m256i op, op_hi, quot, quot_hi;
};


inline Twiddle twiddle_vec(__m256i op, __m256i quot) {
  return {op, _mm256_srli_epi64(op, 32), quot, _mm256_srli_epi64(quot, 32)};
}

inline Twiddle twiddle_broadcast(u64 op, u64 quot) {
  return twiddle_vec(_mm256_set1_epi64x(static_cast<long long>(op)),
                     _mm256_set1_epi64x(static_cast<long long>(quot)));
}

// Shoup lazy multiply per lane: op*x - mulhi(quot, x)*q, result in [0, 2q).
inline __m256i shoup_mul_lazy(__m256i x, const Twiddle& w, __m256i q, __m256i q_hi) {
  const __m256i x_hi = _mm256_srli_epi64(x, 32);
  const __m256i hi = mulhi64(w.quot, x, w.quot_hi, x_hi);
  const __m256i prod = mullo64(w.op, x, w.op_hi, x_hi);
  const __m256i hq = mullo64(hi, q, _mm256_srli_epi64(hi, 32), q_hi);
  return _mm256_sub_epi64(prod, hq);
}

// One forward CT butterfly over 4 lanes: (u, x) -> (u' + v, u' + 2q - v).
inline void ct_butterfly(__m256i& u, __m256i& x, const Twiddle& w,
                         __m256i q, __m256i q_hi, __m256i two_q) {
  u = fold(u, two_q);
  const __m256i v = shoup_mul_lazy(x, w, q, q_hi);
  const __m256i lo = _mm256_add_epi64(u, v);
  const __m256i hi = _mm256_sub_epi64(_mm256_add_epi64(u, two_q), v);
  u = lo;
  x = hi;
}

// One inverse GS butterfly over 4 lanes: (u, v) -> (fold(u+v), w*(u+2q-v)).
inline void gs_butterfly(__m256i& u, __m256i& v, const Twiddle& w,
                         __m256i q, __m256i q_hi, __m256i two_q) {
  const __m256i sum = fold(_mm256_add_epi64(u, v), two_q);
  const __m256i diff = _mm256_sub_epi64(_mm256_add_epi64(u, two_q), v);
  u = sum;
  v = shoup_mul_lazy(diff, w, q, q_hi);
}

// Deinterleave 2*lanes consecutive elements into (u, v) halves for stride t,
// and the matching twiddle permutation. Layouts (per 8 elements):
//   t == 2: [u0 u1 v0 v1 | u2 u3 v2 v3], twiddles [s0 s0 s1 s1]
//   t == 1: [u0 v0 u1 v1 | u2 v2 u3 v3], twiddles [s0 s2 s1 s3] after the
//           unpack lane order (u = [u0 u2 u1 u3]).
struct Split {
  __m256i u, v;
};

inline Split split_t2(__m256i a, __m256i b) {
  return {_mm256_permute2x128_si256(a, b, 0x20), _mm256_permute2x128_si256(a, b, 0x31)};
}
inline void join_t2(__m256i u, __m256i v, u64* p) {
  storeu(p, _mm256_permute2x128_si256(u, v, 0x20));
  storeu(p + 4, _mm256_permute2x128_si256(u, v, 0x31));
}
inline __m256i twiddles_t2(const u64* w) {
  // [s0 s0 s1 s1] from the 2 consecutive stage twiddles.
  const __m128i two = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w));
  return _mm256_permute4x64_epi64(_mm256_castsi128_si256(two), 0x50);
}

inline Split split_t1(__m256i a, __m256i b) {
  return {_mm256_unpacklo_epi64(a, b), _mm256_unpackhi_epi64(a, b)};
}
inline void join_t1(__m256i u, __m256i v, u64* p) {
  storeu(p, _mm256_unpacklo_epi64(u, v));
  storeu(p + 4, _mm256_unpackhi_epi64(u, v));
}
inline __m256i twiddles_t1(const u64* w) {
  // Natural [s0 s1 s2 s3] -> unpack lane order [s0 s2 s1 s3].
  return _mm256_permute4x64_epi64(loadu(w), 0xd8);
}

}  // namespace

void ntt_forward_lazy_avx2(const NttTables& t, u64* a) {
  const u64 q64 = t.q;
  const __m256i q = _mm256_set1_epi64x(static_cast<long long>(q64));
  const __m256i q_hi = _mm256_srli_epi64(q, 32);
  const __m256i two_q = _mm256_set1_epi64x(static_cast<long long>(2 * q64));
  const u64 two_q64 = 2 * q64;

  std::size_t len = t.n;
  for (std::size_t m = 1; m < t.n; m <<= 1) {
    len >>= 1;
    if (len >= 4) {
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t j1 = 2 * i * len;
        const Twiddle w = twiddle_broadcast(t.w_op[m + i], t.w_quot[m + i]);
        // Two independent butterfly vectors per iteration: the Shoup chain
        // (mulhi -> mullo -> sub) is long, so interleaving a second chain
        // keeps the multiply ports fed while the first drains.
        std::size_t j = j1;
        for (; j + 8 <= j1 + len; j += 8) {
          __m256i u0 = loadu(a + j);
          __m256i x0 = loadu(a + j + len);
          __m256i u1 = loadu(a + j + 4);
          __m256i x1 = loadu(a + j + 4 + len);
          ct_butterfly(u0, x0, w, q, q_hi, two_q);
          ct_butterfly(u1, x1, w, q, q_hi, two_q);
          storeu(a + j, u0);
          storeu(a + j + len, x0);
          storeu(a + j + 4, u1);
          storeu(a + j + 4 + len, x1);
        }
        for (; j < j1 + len; j += 4) {
          __m256i u = loadu(a + j);
          __m256i x = loadu(a + j + len);
          ct_butterfly(u, x, w, q, q_hi, two_q);
          storeu(a + j, u);
          storeu(a + j + len, x);
        }
      }
    } else if (len == 2 && t.n >= 8) {
      for (std::size_t i = 0; i < m; i += 2) {
        const std::size_t j1 = 4 * i;
        Split s = split_t2(loadu(a + j1), loadu(a + j1 + 4));
        const Twiddle w =
            twiddle_vec(twiddles_t2(t.w_op + m + i), twiddles_t2(t.w_quot + m + i));
        ct_butterfly(s.u, s.v, w, q, q_hi, two_q);
        join_t2(s.u, s.v, a + j1);
      }
    } else if (len == 1 && t.n >= 8) {
      for (std::size_t i = 0; i < m; i += 4) {
        const std::size_t j1 = 2 * i;
        Split s = split_t1(loadu(a + j1), loadu(a + j1 + 4));
        const Twiddle w =
            twiddle_vec(twiddles_t1(t.w_op + m + i), twiddles_t1(t.w_quot + m + i));
        ct_butterfly(s.u, s.v, w, q, q_hi, two_q);
        join_t1(s.u, s.v, a + j1);
      }
    } else {
      // Tiny transforms (n == 4's tail stages): scalar butterflies.
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t j1 = 2 * i * len;
        const u64 op = t.w_op[m + i];
        const u64 quot = t.w_quot[m + i];
        for (std::size_t j = j1; j < j1 + len; ++j) {
          u64 u = a[j];
          u -= two_q64 & (u >= two_q64 ? ~u64{0} : 0);
          const u64 x = a[j + len];
          const u64 hi = static_cast<u64>((u128{quot} * x) >> 64);
          const u64 v = op * x - hi * q64;
          a[j] = u + v;
          a[j + len] = u + two_q64 - v;
        }
      }
    }
  }

  // Canonicalize [0, 4q) -> [0, q).
  std::size_t j = 0;
  for (; j + 4 <= t.n; j += 4) {
    storeu(a + j, fold(fold(loadu(a + j), two_q), q));
  }
  for (; j < t.n; ++j) {
    u64 x = a[j];
    x -= two_q64 & (x >= two_q64 ? ~u64{0} : 0);
    x -= q64 & (x >= q64 ? ~u64{0} : 0);
    a[j] = x;
  }
}

void ntt_inverse_lazy_avx2(const NttTables& t, u64* a, u64 ninv_op, u64 ninv_quot) {
  const u64 q64 = t.q;
  const __m256i q = _mm256_set1_epi64x(static_cast<long long>(q64));
  const __m256i q_hi = _mm256_srli_epi64(q, 32);
  const __m256i two_q = _mm256_set1_epi64x(static_cast<long long>(2 * q64));
  const u64 two_q64 = 2 * q64;

  std::size_t len = 1;
  for (std::size_t m = t.n; m > 1; m >>= 1) {
    const std::size_t h = m >> 1;
    if (len >= 4) {
      std::size_t j1 = 0;
      for (std::size_t i = 0; i < h; ++i) {
        const Twiddle w = twiddle_broadcast(t.w_op[h + i], t.w_quot[h + i]);
        std::size_t j = j1;
        for (; j + 8 <= j1 + len; j += 8) {
          __m256i u0 = loadu(a + j);
          __m256i v0 = loadu(a + j + len);
          __m256i u1 = loadu(a + j + 4);
          __m256i v1 = loadu(a + j + 4 + len);
          gs_butterfly(u0, v0, w, q, q_hi, two_q);
          gs_butterfly(u1, v1, w, q, q_hi, two_q);
          storeu(a + j, u0);
          storeu(a + j + len, v0);
          storeu(a + j + 4, u1);
          storeu(a + j + 4 + len, v1);
        }
        for (; j < j1 + len; j += 4) {
          __m256i u = loadu(a + j);
          __m256i v = loadu(a + j + len);
          gs_butterfly(u, v, w, q, q_hi, two_q);
          storeu(a + j, u);
          storeu(a + j + len, v);
        }
        j1 += 2 * len;
      }
    } else if (len == 2 && t.n >= 8) {
      for (std::size_t i = 0; i < h; i += 2) {
        const std::size_t j1 = 4 * i;
        Split s = split_t2(loadu(a + j1), loadu(a + j1 + 4));
        const Twiddle w =
            twiddle_vec(twiddles_t2(t.w_op + h + i), twiddles_t2(t.w_quot + h + i));
        gs_butterfly(s.u, s.v, w, q, q_hi, two_q);
        join_t2(s.u, s.v, a + j1);
      }
    } else if (len == 1 && t.n >= 8) {
      for (std::size_t i = 0; i < h; i += 4) {
        const std::size_t j1 = 2 * i;
        Split s = split_t1(loadu(a + j1), loadu(a + j1 + 4));
        const Twiddle w =
            twiddle_vec(twiddles_t1(t.w_op + h + i), twiddles_t1(t.w_quot + h + i));
        gs_butterfly(s.u, s.v, w, q, q_hi, two_q);
        join_t1(s.u, s.v, a + j1);
      }
    } else {
      std::size_t j1 = 0;
      for (std::size_t i = 0; i < h; ++i) {
        const u64 op = t.w_op[h + i];
        const u64 quot = t.w_quot[h + i];
        for (std::size_t j = j1; j < j1 + len; ++j) {
          const u64 u = a[j];
          const u64 v = a[j + len];
          u64 sum = u + v;
          sum -= two_q64 & (sum >= two_q64 ? ~u64{0} : 0);
          a[j] = sum;
          const u64 x = u + two_q64 - v;
          const u64 hi = static_cast<u64>((u128{quot} * x) >> 64);
          a[j + len] = op * x - hi * q64;
        }
        j1 += 2 * len;
      }
    }
    len <<= 1;
  }

  // Canonicalizing N^{-1} multiply: full Shoup, [0, 2q) in -> [0, q) out.
  const Twiddle ninv = twiddle_broadcast(ninv_op, ninv_quot);
  std::size_t j = 0;
  for (; j + 4 <= t.n; j += 4) {
    const __m256i r = shoup_mul_lazy(loadu(a + j), ninv, q, q_hi);
    storeu(a + j, fold(r, q));
  }
  for (; j < t.n; ++j) {
    const u64 x = a[j];
    const u64 hi = static_cast<u64>((u128{ninv_quot} * x) >> 64);
    u64 r = ninv_op * x - hi * q64;
    if (r >= q64) r -= q64;
    a[j] = r;
  }
}

void weighted_accumulate_avx2(const u64* x, u64 w, std::size_t n,
                              u64* acc_lo, u64* acc_hi) {
  const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
  const __m256i vw = _mm256_set1_epi64x(static_cast<long long>(w));
  const __m256i vw_hi = _mm256_srli_epi64(vw, 32);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256i vx = loadu(x + k);
    const __m256i vx_hi = _mm256_srli_epi64(vx, 32);
    const __m256i plo = mullo64(vw, vx, vw_hi, vx_hi);
    const __m256i phi = mulhi64(vw, vx, vw_hi, vx_hi);
    const __m256i cur_lo = loadu(acc_lo + k);
    const __m256i nlo = _mm256_add_epi64(cur_lo, plo);
    const __m256i carry = _mm256_cmpgt_epi64(_mm256_xor_si256(plo, sign),
                                             _mm256_xor_si256(nlo, sign));
    __m256i nhi = _mm256_add_epi64(loadu(acc_hi + k), phi);
    nhi = _mm256_sub_epi64(nhi, carry);
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

void mul_accumulate_avx2(const u64* a, const u64* b, std::size_t n,
                         u64* acc_lo, u64* acc_hi) {
  const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256i va = loadu(a + k);
    const __m256i vb = loadu(b + k);
    const __m256i va_hi = _mm256_srli_epi64(va, 32);
    const __m256i vb_hi = _mm256_srli_epi64(vb, 32);
    const __m256i plo = mullo64(va, vb, va_hi, vb_hi);
    const __m256i phi = mulhi64(va, vb, va_hi, vb_hi);
    const __m256i nlo = _mm256_add_epi64(loadu(acc_lo + k), plo);
    const __m256i carry = _mm256_cmpgt_epi64(_mm256_xor_si256(plo, sign),
                                             _mm256_xor_si256(nlo, sign));
    __m256i nhi = _mm256_add_epi64(loadu(acc_hi + k), phi);
    nhi = _mm256_sub_epi64(nhi, carry);
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
// Narrow words: 8x u32 lanes for primes q < 2^30. vpmuludq forms the exact
// 32x32->64 products of the even lanes; the odd lanes are shifted down and
// multiplied again, and a blend recombines the two. Low products are vpmulld.

namespace {

using u32 = std::uint32_t;

// A loop-invariant narrow twiddle; quot_odd holds quot's odd lanes shifted
// into the even positions.
struct Twiddle32 {
  __m256i op, quot, quot_odd;
};

inline Twiddle32 twiddle32(__m256i op, __m256i quot) {
  return {op, quot, _mm256_srli_epi64(quot, 32)};
}

inline Twiddle32 twiddle32_broadcast(u32 op, u32 quot) {
  return twiddle32(_mm256_set1_epi32(static_cast<int>(op)),
                   _mm256_set1_epi32(static_cast<int>(quot)));
}

// x - bound if x >= bound, else x, per u32 lane; requires x < 2*bound.
inline __m256i fold32(__m256i x, __m256i bound) {
  return _mm256_min_epu32(x, _mm256_sub_epi32(x, bound));
}

// Shoup lazy multiply per u32 lane: op*x - mulhi(quot, x)*q mod 2^32, in [0, 2q).
inline __m256i shoup32(__m256i x, const Twiddle32& w, __m256i q) {
  const __m256i even = _mm256_srli_epi64(_mm256_mul_epu32(x, w.quot), 32);
  const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), w.quot_odd);
  const __m256i hi = _mm256_blend_epi32(even, odd, 0xaa);
  return _mm256_sub_epi32(_mm256_mullo_epi32(x, w.op), _mm256_mullo_epi32(hi, q));
}

inline void ct32(__m256i& u, __m256i& x, const Twiddle32& w, __m256i q, __m256i two_q) {
  u = fold32(u, two_q);
  const __m256i v = shoup32(x, w, q);
  const __m256i lo = _mm256_add_epi32(u, v);
  x = _mm256_sub_epi32(_mm256_add_epi32(u, two_q), v);
  u = lo;
}

inline void gs32(__m256i& u, __m256i& v, const Twiddle32& w, __m256i q, __m256i two_q) {
  const __m256i sum = fold32(_mm256_add_epi32(u, v), two_q);
  const __m256i diff = _mm256_sub_epi32(_mm256_add_epi32(u, two_q), v);
  u = sum;
  v = shoup32(diff, w, q);
}

inline __m256i loadu32(const u32* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void storeu32(u32* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// One short-stride stage (len in {4, 2, 1}) over 16 consecutive elements per
// sweep, loaded as (A, B) and split into the 8 butterflies' (u, v) lanes:
//   len 4: A = [u0..u3 v0..v3], B = [u4..u7 v4..v7]: 128-bit halves;
//   len 2: A = [u0 u1 v0 v1 u2 u3 v2 v3]: 64-bit unpacks, u = [u0 u1 u4 u5 u2 u3 u6 u7];
//   len 1: A = [u0 v0 u1 v1 ..]: even/odd blends, u = [u0 u4 u1 u5 u2 u6 u3 u7].
// `w` points at the stage's twiddles; each sweep consumes 8/len of them,
// permuted into the u lane order.
template <typename Butterfly>
void short_stage32(u32* a, const u32* w_op, const u32* w_quot, std::size_t groups,
                   std::size_t len, __m256i q, __m256i two_q, Butterfly&& bf) {
  const std::size_t per = 8 / len;
  const __m256i tw_idx = len == 4   ? _mm256_setr_epi32(0, 0, 0, 0, 1, 1, 1, 1)
                         : len == 2 ? _mm256_setr_epi32(0, 0, 2, 2, 1, 1, 3, 3)
                                    : _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  auto load_tw = [&](const u32* w) {
    const __m256i raw =
        len == 4 ? _mm256_castsi128_si256(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(w)))
        : len == 2 ? _mm256_castsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(w)))
                   : loadu32(w);
    return _mm256_permutevar8x32_epi32(raw, tw_idx);
  };
  for (std::size_t i = 0; i < groups; i += per) {
    u32* p = a + 2 * i * len;
    const __m256i A = loadu32(p);
    const __m256i B = loadu32(p + 8);
    __m256i u, v;
    if (len == 4) {
      u = _mm256_permute2x128_si256(A, B, 0x20);
      v = _mm256_permute2x128_si256(A, B, 0x31);
    } else if (len == 2) {
      u = _mm256_unpacklo_epi64(A, B);
      v = _mm256_unpackhi_epi64(A, B);
    } else {
      u = _mm256_blend_epi32(A, _mm256_slli_epi64(B, 32), 0xaa);
      v = _mm256_blend_epi32(_mm256_srli_epi64(A, 32), B, 0xaa);
    }
    bf(u, v, twiddle32(load_tw(w_op + i), load_tw(w_quot + i)), q, two_q);
    if (len == 4) {
      storeu32(p, _mm256_permute2x128_si256(u, v, 0x20));
      storeu32(p + 8, _mm256_permute2x128_si256(u, v, 0x31));
    } else if (len == 2) {
      storeu32(p, _mm256_unpacklo_epi64(u, v));
      storeu32(p + 8, _mm256_unpackhi_epi64(u, v));
    } else {
      storeu32(p, _mm256_blend_epi32(u, _mm256_slli_epi64(v, 32), 0xaa));
      storeu32(p + 8, _mm256_blend_epi32(_mm256_srli_epi64(u, 32), v, 0xaa));
    }
  }
}

// One stage of stride len >= 8: contiguous lanes under a broadcast twiddle.
template <typename Butterfly>
inline void long_block32(u32* a, std::size_t len, const Twiddle32& w, __m256i q,
                         __m256i two_q, Butterfly&& bf) {
  std::size_t j = 0;
  for (; j + 16 <= len; j += 16) {
    __m256i u0 = loadu32(a + j), v0 = loadu32(a + j + len);
    __m256i u1 = loadu32(a + j + 8), v1 = loadu32(a + j + 8 + len);
    bf(u0, v0, w, q, two_q);
    bf(u1, v1, w, q, two_q);
    storeu32(a + j, u0);
    storeu32(a + j + len, v0);
    storeu32(a + j + 8, u1);
    storeu32(a + j + 8 + len, v1);
  }
  for (; j < len; j += 8) {
    __m256i u = loadu32(a + j), v = loadu32(a + j + len);
    bf(u, v, w, q, two_q);
    storeu32(a + j, u);
    storeu32(a + j + len, v);
  }
}

// A u64 sum per 64-bit lane mod q, canonical, in the low half of the lane:
// hi * (2^32 mod q) + lo with one Shoup multiply each. `q` and `two_q` hold
// the bound in the low half of every 64-bit lane.
inline __m256i fold_sum64(__m256i s, const NarrowFold& f, __m256i q, __m256i two_q) {
  const __m256i r32 = _mm256_set1_epi64x(f.r32);
  const __m256i r32_quot = _mm256_set1_epi64x(f.r32_quot);
  const __m256i one_quot = _mm256_set1_epi64x(f.one_quot);
  const __m256i hi = _mm256_srli_epi64(s, 32);
  const __m256i qh = _mm256_srli_epi64(_mm256_mul_epu32(hi, r32_quot), 32);
  const __m256i rh = _mm256_sub_epi64(_mm256_mul_epu32(hi, r32), _mm256_mul_epu32(qh, q));
  const __m256i ql = _mm256_srli_epi64(_mm256_mul_epu32(s, one_quot), 32);
  const __m256i lo = _mm256_and_si256(s, _mm256_set1_epi64x(0xffffffffll));
  const __m256i rl = _mm256_sub_epi64(lo, _mm256_mul_epu32(ql, q));
  return fold32(fold32(_mm256_add_epi64(rh, rl), two_q), q);
}

}  // namespace

void ntt_forward_narrow_avx2(const NttTables32& t, u32* a) {
  if (t.n < 16) {
    ntt_forward_narrow_scalar(t, a);
    return;
  }
  const __m256i q = _mm256_set1_epi32(static_cast<int>(t.q));
  const __m256i two_q = _mm256_set1_epi32(static_cast<int>(2 * t.q));
  const auto bf = [](__m256i& u, __m256i& v, const Twiddle32& w, __m256i qq, __m256i tq) {
    ct32(u, v, w, qq, tq);
  };
  std::size_t len = t.n;
  for (std::size_t m = 1; m < t.n; m <<= 1) {
    len >>= 1;
    if (len >= 8) {
      for (std::size_t i = 0; i < m; ++i) {
        const Twiddle32 w = twiddle32_broadcast(t.w_op[m + i], t.w_quot[m + i]);
        long_block32(a + 2 * i * len, len, w, q, two_q, bf);
      }
    } else {
      short_stage32(a, t.w_op + m, t.w_quot + m, m, len, q, two_q, bf);
    }
  }
  for (std::size_t j = 0; j < t.n; j += 8) {
    storeu32(a + j, fold32(fold32(loadu32(a + j), two_q), q));
  }
}

void ntt_inverse_narrow_avx2(const NttTables32& t, u32* a, u32 ninv_op, u32 ninv_quot) {
  if (t.n < 16) {
    ntt_inverse_narrow_scalar(t, a, ninv_op, ninv_quot);
    return;
  }
  const __m256i q = _mm256_set1_epi32(static_cast<int>(t.q));
  const __m256i two_q = _mm256_set1_epi32(static_cast<int>(2 * t.q));
  const auto bf = [](__m256i& u, __m256i& v, const Twiddle32& w, __m256i qq, __m256i tq) {
    gs32(u, v, w, qq, tq);
  };
  std::size_t len = 1;
  for (std::size_t m = t.n; m > 1; m >>= 1) {
    const std::size_t h = m >> 1;
    if (len >= 8) {
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
  for (std::size_t j = 0; j < t.n; j += 8) {
    storeu32(a + j, fold32(shoup32(loadu32(a + j), ninv, q), q));
  }
}

void mul_sum_narrow_avx2(const u32* const* a, const u32* const* b, std::size_t rows,
                         std::size_t n, const NarrowFold& f, u32* out) {
  const __m256i q = _mm256_set1_epi64x(f.q);
  const __m256i two_q = _mm256_set1_epi64x(2 * static_cast<u64>(f.q));
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    // Even and odd lanes accumulate in separate 64-bit sums.
    __m256i even = _mm256_setzero_si256();
    __m256i odd = _mm256_setzero_si256();
    for (std::size_t t0 = 0; t0 < rows; t0 += kNarrowMacRows) {
      if (t0 > 0) {
        even = fold_sum64(even, f, q, two_q);
        odd = fold_sum64(odd, f, q, two_q);
      }
      const std::size_t t1 = std::min(rows, t0 + kNarrowMacRows);
      for (std::size_t t = t0; t < t1; ++t) {
        const __m256i va = loadu32(a[t] + k);
        const __m256i vb = loadu32(b[t] + k);
        even = _mm256_add_epi64(even, _mm256_mul_epu32(va, vb));
        odd = _mm256_add_epi64(
            odd, _mm256_mul_epu32(_mm256_srli_epi64(va, 32), _mm256_srli_epi64(vb, 32)));
      }
    }
    even = fold_sum64(even, f, q, two_q);
    odd = fold_sum64(odd, f, q, two_q);
    storeu32(out + k, _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xaa));
  }
  mul_sum_narrow_scalar(a, b, rows, k, n, f, out);
}

void gadget_residues_narrow_avx2(const u64* src, std::size_t n, u64 offset, int bg_bits,
                                 std::size_t levels, const NarrowCrt& crt, u32* dst) {
  const __m256i off = _mm256_set1_epi64x(static_cast<long long>(offset));
  const __m256i mask = _mm256_set1_epi32((1 << bg_bits) - 1);
  const __m256i half = _mm256_set1_epi32(1 << (bg_bits - 1));
  const __m256i q1 = _mm256_set1_epi32(static_cast<int>(crt.q1));
  const __m256i q2 = _mm256_set1_epi32(static_cast<int>(crt.q2));
  // [a0 b0 a1 b1 a2 b2 a3 b3] -> [a0 a1 a2 a3 b0 b1 b2 b3]
  const __m256i order = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256i s0 = _mm256_add_epi64(loadu(src + k), off);
    const __m256i s1 = _mm256_add_epi64(loadu(src + k + 4), off);
    for (std::size_t i = 0; i < levels; ++i) {
      const __m128i shift = _mm_cvtsi32_si128(64 - static_cast<int>((i + 1) * bg_bits));
      // The digit fields of 8 coefficients as u32 lanes, in order.
      const __m256i pair = _mm256_or_si256(
          _mm256_and_si256(_mm256_srl_epi64(s0, shift), _mm256_set1_epi64x(0xffffffffll)),
          _mm256_slli_epi64(_mm256_srl_epi64(s1, shift), 32));
      const __m256i f = _mm256_and_si256(_mm256_permutevar8x32_epi32(pair, order), mask);
      const __m256i d = _mm256_sub_epi32(f, half);
      const __m256i neg = _mm256_cmpgt_epi32(half, f);  // f, half < 2^31
      storeu32(dst + (2 * i) * n + k, _mm256_add_epi32(d, _mm256_and_si256(q1, neg)));
      storeu32(dst + (2 * i + 1) * n + k, _mm256_add_epi32(d, _mm256_and_si256(q2, neg)));
    }
  }
  gadget_residues_narrow_scalar(src, k, n, offset, bg_bits, levels, crt, dst);
}

namespace {

// The centred lift of 4 halves from zero-extended residues r1 mod q1 and
// r2 mod q2 in 64-bit lanes; the result wraps mod 2^64 when negative.
inline __m256i crt_lift4(__m256i r1, __m256i r2, const NarrowCrt& crt) {
  const __m256i q1 = _mm256_set1_epi64x(crt.q1);
  const __m256i q2 = _mm256_set1_epi64x(crt.q2);
  const __m256i d = _mm256_sub_epi64(_mm256_add_epi64(r2, q2), fold32(r1, q2));
  const __m256i hi = _mm256_srli_epi64(
      _mm256_mul_epu32(d, _mm256_set1_epi64x(crt.q1_inv_quot)), 32);
  const __m256i t = fold32(_mm256_sub_epi64(_mm256_mul_epu32(d, _mm256_set1_epi64x(crt.q1_inv)),
                                            _mm256_mul_epu32(hi, q2)),
                           q2);
  const __m256i x = _mm256_add_epi64(r1, _mm256_mul_epu32(t, q1));
  const __m256i big_q = _mm256_set1_epi64x(static_cast<long long>(crt.q));
  // x < 2^60, so the signed compare is exact.
  const __m256i above =
      _mm256_cmpgt_epi64(x, _mm256_set1_epi64x(static_cast<long long>(crt.q / 2)));
  return _mm256_sub_epi64(x, _mm256_and_si256(above, big_q));
}

inline __m256i load4_u32(const u32* p) {
  return _mm256_cvtepu32_epi64(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

}  // namespace

void crt_lift_add_narrow_avx2(const u32* lo, const u32* hi, std::size_t n,
                              const NarrowCrt& crt, u64* dst) {
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256i x_lo = crt_lift4(load4_u32(lo + k), load4_u32(lo + n + k), crt);
    const __m256i x_hi = crt_lift4(load4_u32(hi + k), load4_u32(hi + n + k), crt);
    storeu(dst + k, _mm256_add_epi64(loadu(dst + k),
                                     _mm256_add_epi64(x_lo, _mm256_slli_epi64(x_hi, 32))));
  }
  crt_lift_add_narrow_scalar(lo, hi, k, n, crt, dst);
}

}  // namespace alchemist::simd::detail

#endif  // ALCHEMIST_SIMD_AVX2
