// Lane traits on 8x u64 / 16x u32 for the AVX-512 and AVX-512 IFMA units,
// both compiled with at least -mavx512f -mavx512dq; as in simd_kernels.h,
// everything has internal linkage so each unit compiles its own copy.
//
// vpmullq (DQ) gives the low half of a 64-bit lane product natively; the high
// half is still synthesized from vpmuludq partials (simd_kernels.h's mulhi64).
#pragma once

#include <immintrin.h>

#include "common/simd_kernels.h"

namespace alchemist::simd::detail {
namespace {

struct Avx512 {
  using V = __m512i;
  static constexpr std::size_t kBytes = 64;

  static V load(const void* p) { return _mm512_loadu_si512(p); }
  static void store(void* p, V v) { _mm512_storeu_si512(p, v); }
  template <std::size_t Bytes>
  static V load_prefix(const void* p) {
    return _mm512_maskz_loadu_epi32(static_cast<__mmask16>((1u << (Bytes / 4)) - 1), p);
  }
  static V zero() { return _mm512_setzero_si512(); }
  static V set1_64(u64 x) { return _mm512_set1_epi64(static_cast<long long>(x)); }
  static V set1_32(u32 x) { return _mm512_set1_epi32(static_cast<int>(x)); }
  static V add64(V a, V b) { return _mm512_add_epi64(a, b); }
  static V sub64(V a, V b) { return _mm512_sub_epi64(a, b); }
  static V add32(V a, V b) { return _mm512_add_epi32(a, b); }
  static V sub32(V a, V b) { return _mm512_sub_epi32(a, b); }
  static V and_(V a, V b) { return _mm512_and_si512(a, b); }
  template <int N>
  static V shr64(V x) { return _mm512_srli_epi64(x, N); }
  template <int N>
  static V shl64(V x) { return _mm512_slli_epi64(x, N); }
  static V srl64(V x, int n) { return _mm512_srl_epi64(x, _mm_cvtsi32_si128(n)); }
  static V mul32(V a, V b) { return _mm512_mul_epu32(a, b); }
  static V mullo32(V a, V b) { return _mm512_mullo_epi32(a, b); }
  static V mullo64(V a, V b) { return _mm512_mullo_epi64(a, b); }
  static V min_u32(V a, V b) { return _mm512_min_epu32(a, b); }
  static V fold64(V x, V bound) { return _mm512_min_epu64(x, sub64(x, bound)); }
  static V sub_if_lt64(V x, V a, V b, V y) {
    return _mm512_mask_sub_epi64(x, _mm512_cmplt_epu64_mask(a, b), x, y);
  }
  static unsigned lt_mask64(V a, V b) { return _mm512_cmplt_epu64_mask(a, b); }
  static V add_if_neg32(V x, V s, V y) {
    return _mm512_mask_add_epi32(x, _mm512_movepi32_mask(s), x, y);
  }
  static V blend_odd32(V a, V b) { return _mm512_mask_blend_epi32(0xaaaa, a, b); }
  static V permute32(V x, V idx) { return _mm512_permutexvar_epi32(idx, x); }
  template <std::size_t B>
  static void interleave(V& a, V& b) {
    V lo, hi;
    if constexpr (B == 4) {
      lo = blend_odd32(a, shl64<32>(b));
      hi = blend_odd32(shr64<32>(a), b);
    } else if constexpr (B == 8) {
      lo = _mm512_unpacklo_epi64(a, b);
      hi = _mm512_unpackhi_epi64(a, b);
    } else if constexpr (B == 16) {
      lo = _mm512_permutex2var_epi64(a, _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13), b);
      hi = _mm512_permutex2var_epi64(a, _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15), b);
    } else {
      static_assert(B == 32);
      lo = _mm512_shuffle_i64x2(a, b, 0x44);
      hi = _mm512_shuffle_i64x2(a, b, 0xee);
    }
    a = lo;
    b = hi;
  }
  static V widen32(const u32* p) {
    return _mm512_cvtepu32_epi64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static V pack_lo32(V a, V b) {
    return _mm512_inserti64x4(_mm512_castsi256_si512(_mm512_cvtepi64_epi32(a)),
                              _mm512_cvtepi64_epi32(b), 1);
  }
};

}  // namespace
}  // namespace alchemist::simd::detail
