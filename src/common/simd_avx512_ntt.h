// The 8x u64 lane stage loops of the lazy NTTs, shared by the AVX-512 and
// AVX-512 IFMA translation units and generic in their lane arithmetic.
// Private to those two TUs: everything here has internal linkage, so each
// compiles its own copy under its own -m flags and the linker can never
// pick one TU's instructions for the other's hosts.
//
// An arithmetic `M` provides
//   M::Twiddle                       a twiddle in the form its multiply wants
//   Twiddle twiddle(op, quot) const  from table operands and 64-bit quotients
//   __m512i mul_lazy(x, w) const     Shoup multiply, result in [0, 2q)
//   __m512i q, two_q
// and must keep every lazy value below 4q exact. Range folds use the
// unsigned min trick: min_epu64(x, x - bound) selects the folded value iff
// x >= bound.
//
// Short-stride stages (len = 4, 2, 1) batch 16 consecutive elements through
// vpermt2q two-source permutes with a matching twiddle permutation, so every
// stage of an N >= 16 transform runs 8-wide. Smaller transforms run the
// scalar body.
#pragma once

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "common/simd.h"

namespace alchemist::simd::detail {
namespace {

inline __m512i loadu(const std::uint64_t* p) { return _mm512_loadu_si512(p); }
inline void storeu(std::uint64_t* p, __m512i v) { _mm512_storeu_si512(p, v); }

inline __m512i set1(std::uint64_t x) { return _mm512_set1_epi64(static_cast<long long>(x)); }

inline __m512i idx8(long long a, long long b, long long c, long long d,
                    long long e, long long f, long long g, long long h) {
  return _mm512_set_epi64(h, g, f, e, d, c, b, a);
}

// x - bound if x >= bound, else x; requires x < 2*bound.
inline __m512i fold(__m512i x, __m512i bound) {
  return _mm512_min_epu64(x, _mm512_sub_epi64(x, bound));
}

template <typename M>
inline void ct_butterfly(__m512i& u, __m512i& x, const typename M::Twiddle& w, const M& m) {
  u = fold(u, m.two_q);
  const __m512i v = m.mul_lazy(x, w);
  const __m512i lo = _mm512_add_epi64(u, v);
  x = _mm512_sub_epi64(_mm512_add_epi64(u, m.two_q), v);
  u = lo;
}

template <typename M>
inline void gs_butterfly(__m512i& u, __m512i& v, const typename M::Twiddle& w, const M& m) {
  const __m512i sum = fold(_mm512_add_epi64(u, v), m.two_q);
  const __m512i diff = _mm512_sub_epi64(_mm512_add_epi64(u, m.two_q), v);
  u = sum;
  v = m.mul_lazy(diff, w);
}

// Two-source permute index vectors for the short-stride stages. For 16
// consecutive elements loaded as (A, B), index k < 8 selects A lane k and
// index 8 + k selects B lane k. The `store_*` pair re-interleaves (U, V)
// back to memory order.
struct StageIdx {
  __m512i split_u, split_v, store_a, store_b;
};

inline StageIdx stage_idx(std::size_t len) {
  if (len == 4) {
    // Blocks of 8: [u0..u3 v0..v3 | u4..u7 v4..v7]; the split indices double
    // as the store indices.
    const __m512i u = idx8(0, 1, 2, 3, 8, 9, 10, 11);
    const __m512i v = idx8(4, 5, 6, 7, 12, 13, 14, 15);
    return {u, v, u, v};
  }
  if (len == 2) {
    return {idx8(0, 1, 4, 5, 8, 9, 12, 13), idx8(2, 3, 6, 7, 10, 11, 14, 15),
            idx8(0, 1, 8, 9, 2, 3, 10, 11), idx8(4, 5, 12, 13, 6, 7, 14, 15)};
  }
  return {idx8(0, 2, 4, 6, 8, 10, 12, 14), idx8(1, 3, 5, 7, 9, 11, 13, 15),
          idx8(0, 8, 1, 9, 2, 10, 3, 11), idx8(4, 12, 5, 13, 6, 14, 7, 15)};
}

// 8/len consecutive stage twiddles, each repeated `len` times in the split
// lane order.
inline __m512i expand_tw(const std::uint64_t* w, std::size_t len) {
  if (len == 4) {
    const __m128i two = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w));
    return _mm512_permutexvar_epi64(idx8(0, 0, 0, 0, 1, 1, 1, 1),
                                    _mm512_castsi128_si512(two));
  }
  if (len == 2) {
    const __m256i four = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
    return _mm512_permutexvar_epi64(idx8(0, 0, 1, 1, 2, 2, 3, 3),
                                    _mm512_castsi256_si512(four));
  }
  return loadu(w);
}

// `pairs` butterflies of stride `len` (len in {4, 2, 1}), 8 per sweep.
template <typename M, typename Butterfly>
inline void short_stage(std::uint64_t* a, const std::uint64_t* w_op,
                        const std::uint64_t* w_quot, std::size_t pairs, std::size_t len,
                        const M& m, Butterfly&& bf) {
  const StageIdx ix = stage_idx(len);
  const std::size_t per = 8 / len;  // stage twiddles consumed per sweep
  for (std::size_t i = 0; i < pairs; i += per) {
    std::uint64_t* p = a + 2 * i * len;
    const __m512i A = loadu(p);
    const __m512i B = loadu(p + 8);
    __m512i u = _mm512_permutex2var_epi64(A, ix.split_u, B);
    __m512i v = _mm512_permutex2var_epi64(A, ix.split_v, B);
    bf(u, v, m.twiddle(expand_tw(w_op + i, len), expand_tw(w_quot + i, len)), m);
    storeu(p, _mm512_permutex2var_epi64(u, ix.store_a, v));
    storeu(p + 8, _mm512_permutex2var_epi64(u, ix.store_b, v));
  }
}

template <typename M>
void forward_lazy(const NttTables& t, std::uint64_t* a, const M& m) {
  if (t.n < 16) {
    ntt_forward_lazy_scalar(t, a);
    return;
  }
  const auto bf = [](__m512i& u, __m512i& v, const typename M::Twiddle& w, const M& mm) {
    ct_butterfly(u, v, w, mm);
  };
  std::size_t len = t.n;
  for (std::size_t groups = 1; groups < t.n; groups <<= 1) {
    len >>= 1;
    if (len >= 8) {
      for (std::size_t i = 0; i < groups; ++i) {
        const std::size_t j1 = 2 * i * len;
        const typename M::Twiddle w =
            m.twiddle(set1(t.w_op[groups + i]), set1(t.w_quot[groups + i]));
        for (std::size_t j = j1; j < j1 + len; j += 8) {
          __m512i u = loadu(a + j);
          __m512i x = loadu(a + j + len);
          ct_butterfly(u, x, w, m);
          storeu(a + j, u);
          storeu(a + j + len, x);
        }
      }
    } else {
      short_stage(a, t.w_op + groups, t.w_quot + groups, groups, len, m, bf);
    }
  }
  for (std::size_t j = 0; j < t.n; j += 8) {
    storeu(a + j, fold(fold(loadu(a + j), m.two_q), m.q));
  }
}

template <typename M>
void inverse_lazy(const NttTables& t, std::uint64_t* a, std::uint64_t ninv_op,
                  std::uint64_t ninv_quot, const M& m) {
  if (t.n < 16) {
    ntt_inverse_lazy_scalar(t, a, ninv_op, ninv_quot);
    return;
  }
  const auto bf = [](__m512i& u, __m512i& v, const typename M::Twiddle& w, const M& mm) {
    gs_butterfly(u, v, w, mm);
  };
  std::size_t len = 1;
  for (std::size_t span = t.n; span > 1; span >>= 1) {
    const std::size_t h = span >> 1;
    if (len >= 8) {
      std::size_t j1 = 0;
      for (std::size_t i = 0; i < h; ++i) {
        const typename M::Twiddle w = m.twiddle(set1(t.w_op[h + i]), set1(t.w_quot[h + i]));
        for (std::size_t j = j1; j < j1 + len; j += 8) {
          __m512i u = loadu(a + j);
          __m512i v = loadu(a + j + len);
          gs_butterfly(u, v, w, m);
          storeu(a + j, u);
          storeu(a + j + len, v);
        }
        j1 += 2 * len;
      }
    } else {
      short_stage(a, t.w_op + h, t.w_quot + h, h, len, m, bf);
    }
    len <<= 1;
  }
  // Canonicalizing N^{-1} multiply.
  const typename M::Twiddle ninv = m.twiddle(set1(ninv_op), set1(ninv_quot));
  for (std::size_t j = 0; j < t.n; j += 8) {
    storeu(a + j, fold(m.mul_lazy(loadu(a + j), ninv), m.q));
  }
}

}  // namespace
}  // namespace alchemist::simd::detail
