// The AVX2 tier: lane traits on 4x u64 / 8x u32 and its Kernels table.
// Compiled with -mavx2 (see src/common/CMakeLists.txt); only reachable behind
// simd::isa_supported(Isa::Avx2). The kernel bodies are in simd_kernels.h.
//
// AVX2 has no 64x64 multiply: the low half of a lane product is synthesized
// from 32x32 vpmuludq partials, exact mod 2^64, and it has no unsigned 64-bit
// compare, so the folds and carries test sign bits.
#include "common/simd.h"

#if ALCHEMIST_SIMD_AVX2

#include <immintrin.h>

#include "common/simd_kernels.h"

namespace alchemist::simd::detail {

namespace {

struct Avx2 {
  using V = __m256i;
  static constexpr std::size_t kBytes = 32;

  static V load(const void* p) { return _mm256_loadu_si256(static_cast<const V*>(p)); }
  static void store(void* p, V v) { _mm256_storeu_si256(static_cast<V*>(p), v); }
  template <std::size_t Bytes>
  static V load_prefix(const void* p) {
    if constexpr (Bytes == 8) {
      return _mm256_castsi128_si256(_mm_loadl_epi64(static_cast<const __m128i*>(p)));
    } else if constexpr (Bytes == 16) {
      return _mm256_castsi128_si256(_mm_loadu_si128(static_cast<const __m128i*>(p)));
    } else {
      return load(p);
    }
  }
  static V zero() { return _mm256_setzero_si256(); }
  static V set1_64(u64 x) { return _mm256_set1_epi64x(static_cast<long long>(x)); }
  static V set1_32(u32 x) { return _mm256_set1_epi32(static_cast<int>(x)); }
  static V add64(V a, V b) { return _mm256_add_epi64(a, b); }
  static V sub64(V a, V b) { return _mm256_sub_epi64(a, b); }
  static V add32(V a, V b) { return _mm256_add_epi32(a, b); }
  static V sub32(V a, V b) { return _mm256_sub_epi32(a, b); }
  static V and_(V a, V b) { return _mm256_and_si256(a, b); }
  template <int N>
  static V shr64(V x) { return _mm256_srli_epi64(x, N); }
  template <int N>
  static V shl64(V x) { return _mm256_slli_epi64(x, N); }
  static V srl64(V x, int n) { return _mm256_srl_epi64(x, _mm_cvtsi32_si128(n)); }
  static V mul32(V a, V b) { return _mm256_mul_epu32(a, b); }
  static V mullo32(V a, V b) { return _mm256_mullo_epi32(a, b); }
  static V mullo64(V a, V b) {
    const V cross = add64(mul32(a, shr64<32>(b)), mul32(shr64<32>(a), b));
    return add64(mul32(a, b), shl64<32>(cross));
  }
  static V min_u32(V a, V b) { return _mm256_min_epu32(a, b); }
  // The sign of x - bound is exact while bound < 2^63.
  static V fold64(V x, V bound) {
    const V t = sub64(x, bound);
    return add64(t, and_(bound, _mm256_cmpgt_epi64(zero(), t)));
  }
  static V sub_if_lt64(V x, V a, V b, V y) {
    const V sign = set1_64(u64{1} << 63);
    const V lt = _mm256_cmpgt_epi64(_mm256_xor_si256(b, sign), _mm256_xor_si256(a, sign));
    return sub64(x, and_(lt, y));
  }
  static unsigned lt_mask64(V a, V b) {
    const V sign = set1_64(u64{1} << 63);
    const V lt = _mm256_cmpgt_epi64(_mm256_xor_si256(b, sign), _mm256_xor_si256(a, sign));
    return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(lt)));
  }
  static V add_if_neg32(V x, V s, V y) { return add32(x, and_(_mm256_srai_epi32(s, 31), y)); }
  static V blend_odd32(V a, V b) { return _mm256_blend_epi32(a, b, 0xaa); }
  static V permute32(V x, V idx) { return _mm256_permutevar8x32_epi32(x, idx); }
  template <std::size_t B>
  static void interleave(V& a, V& b) {
    V lo, hi;
    if constexpr (B == 4) {
      lo = blend_odd32(a, shl64<32>(b));
      hi = blend_odd32(shr64<32>(a), b);
    } else if constexpr (B == 8) {
      lo = _mm256_unpacklo_epi64(a, b);
      hi = _mm256_unpackhi_epi64(a, b);
    } else {
      static_assert(B == 16);
      lo = _mm256_permute2x128_si256(a, b, 0x20);
      hi = _mm256_permute2x128_si256(a, b, 0x31);
    }
    a = lo;
    b = hi;
  }
  static V widen32(const u32* p) {
    return _mm256_cvtepu32_epi64(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static V pack_lo32(V a, V b) {
    // [a0 b0 a1 b1 a2 b2 a3 b3] -> [a0 a1 a2 a3 b0 b1 b2 b3]
    const V pairs = _mm256_or_si256(and_(a, set1_64(0xffffffff)), shl64<32>(b));
    return permute32(pairs, _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7));
  }
};

}  // namespace

constinit const Kernels kAvx2Kernels = vector_kernels<Avx2>();

}  // namespace alchemist::simd::detail

#endif  // ALCHEMIST_SIMD_AVX2
