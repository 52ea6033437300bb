// Every kernel of common/simd.h, written once. The scalar bodies are the
// scalar tier and the vector bodies' fallback for short transforms and
// tails; each vector body is a template over a lane-traits type `L` that one
// ISA translation unit (simd_avx2.cpp, simd_avx512.cpp, simd_avx512ifma.cpp)
// supplies and instantiates into its Kernels table through vector_kernels<L>.
//
// Everything but that table has internal linkage. The ISA units are compiled
// with different -m flags, so an external-linkage instantiation built under
// -mavx512f could be the copy the linker picks for an AVX2-only host; in an
// anonymous namespace each unit compiles its own copy. For the same reason
// nothing here calls an inline function of another header.
//
// A lane-traits type L supplies, on its vector type L::V of L::kBytes bytes:
//   load(p), store(p, v)    unaligned; load_prefix<Bytes>(p) fills the low
//                           Bytes only and reads no further
//   zero(), set1_64(x), set1_32(x)
//   add64, sub64, add32, sub32, and_            lane-wise
//   shr64<N>, shl64<N>, srl64(v, n)             64-bit lane shifts
//   mul32(a, b)      the 32x32->64 products of the even 32-bit lanes
//   mullo64, mullo32 the low halves of the lane products
//   min_u32, fold64(x, b) (x - b where x >= b, for x < 2b < 2^63)
//   sub_if_lt64(x, a, b, y)  x - y in the 64-bit lanes where a < b, else x
//   lt_mask64(a, b)  bit i set where 64-bit lane i of a < b
//   add_if_neg32(x, s, y)    x + y in the 32-bit lanes where s < 0, else x
//   blend_odd32(a, b) the even 32-bit lanes of a and the odd ones of b
//   permute32(v, idx) 32-bit lane i of the result is lane idx[i] of v
//   interleave<B>(a, b) with a and b cut into blocks of B bytes, a becomes
//                    [a0 b0 a2 b2 ..] and b [a1 b1 a3 b3 ..] (an involution)
//                    for B = 4, 8, 16 and kBytes / 2
//   widen32(p)       kBytes / 8 u32 words zero-extended to 64-bit lanes
//   pack_lo32(a, b)  the low halves of the 64-bit lanes of a, then of b
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/simd.h"

namespace alchemist::simd::detail {

using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i64 = std::int64_t;
using u128 = unsigned __int128;

// One tier's bodies. The *52 entries are the IFMA tier's 52-bit bodies, null
// on every other tier; the dispatcher runs them only for moduli below 2^50.
struct Kernels {
  void (*ntt_forward)(const NttTables& t, u64* a);
  void (*ntt_inverse)(const NttTables& t, u64* a, u64 ninv_op, u64 ninv_quot);
  void (*mul_accumulate)(const u64* a, const u64* b, std::size_t b_stride, std::size_t n,
                         u64* acc_lo, u64* acc_hi);
  void (*ntt_forward_narrow)(const NttTables32& t, u32* a);
  void (*ntt_inverse_narrow)(const NttTables32& t, u32* a, u32 ninv_op, u32 ninv_quot);
  void (*mul_sum_narrow)(const u32* const* a, const u32* const* b, std::size_t rows,
                         std::size_t n, u32 q, u32* out);
  void (*gadget_residues_narrow)(const u64* src, std::size_t n, u64 offset, int bg_bits,
                                 std::size_t levels, const NarrowCrt& crt, u32* dst);
  void (*crt_lift_add_narrow)(const u32* lo, const u32* hi, std::size_t n,
                              const NarrowCrt& crt, u64* dst);
  void (*sub_mul_shoup)(const u64* x, const u64* y, std::size_t n, u64 w_op, u64 w_quot, u64 q,
                        u64* out);
  void (*lift_signed)(const i64* x, std::size_t n, u64 q, u64* out);
  void (*sub_scaled)(u64* acc, const u64* row, u64 d, std::size_t n);
  void (*ntt_forward52)(const NttTables& t, u64* a);
  void (*ntt_inverse52)(const NttTables& t, u64* a, u64 ninv_op, u64 ninv_quot);
  void (*mul_sum52)(const u64* const* a, const u64* const* b, std::size_t rows, std::size_t n,
                    u64 q, u64* out);
  void (*weighted_sum52)(const u64* const* x, const u64* w, std::size_t rows, std::size_t n,
                         u64 q, u64* out);
  void (*sub_mul_shoup52)(const u64* x, const u64* y, std::size_t n, u64 w_op, u64 w_quot, u64 q,
                          u64* out);
};

// Defined by simd.cpp and by each ISA unit the toolchain builds.
extern const Kernels kScalarKernels;
extern const Kernels kAvx2Kernels;
extern const Kernels kAvx512Kernels;
extern const Kernels kAvx512IfmaKernels;

namespace {

// ---------------------------------------------------------------------------
// Scalar bodies, on 64-bit words (u64) or narrow ones (u32, q < 2^30).

// Wide enough for the product of two words.
template <class W>
using Wide = std::conditional_t<sizeof(W) == 8, u128, u64>;

// x - bound if x >= bound, else x; branchless, as lazy data folds half the time.
template <class W>
inline W fold(W x, W bound) {
  return x - (bound & (x >= bound ? ~W{0} : 0));
}

// Shoup lazy multiply: [0, 2q) for any word x, with op * x and hi * q formed
// mod the word size, as MulModShoup::mul_lazy.
template <class W>
inline W shoup_mul_lazy(W x, W op, W quot, W q) {
  const W hi = static_cast<W>((Wide<W>{quot} * x) >> (8 * sizeof(W)));
  return op * x - hi * q;
}

// The Harvey lazy forward transform, [0, 4q) between stages.
template <class T, class W>
void ntt_forward_scalar(const T& t, W* a) {
  const W q = t.q, two_q = 2 * q;
  std::size_t len = t.n;
  for (std::size_t m = 1; m < t.n; m <<= 1) {
    len >>= 1;
    for (std::size_t i = 0; i < m; ++i) {
      const W op = t.w_op[m + i], quot = t.w_quot[m + i];
      for (std::size_t j = 2 * i * len; j < (2 * i + 1) * len; ++j) {
        const W u = fold(a[j], two_q);
        const W v = shoup_mul_lazy(a[j + len], op, quot, q);
        a[j] = u + v;
        a[j + len] = u + two_q - v;
      }
    }
  }
  for (std::size_t j = 0; j < t.n; ++j) a[j] = fold(fold(a[j], two_q), q);
}

// The lazy inverse, [0, 2q) between stages, canonicalized by the N^-1 multiply.
template <class T, class W>
void ntt_inverse_scalar(const T& t, W* a, W ninv_op, W ninv_quot) {
  const W q = t.q, two_q = 2 * q;
  std::size_t len = 1;
  for (std::size_t m = t.n; m > 1; m >>= 1) {
    const std::size_t h = m >> 1;
    for (std::size_t i = 0; i < h; ++i) {
      const W op = t.w_op[h + i], quot = t.w_quot[h + i];
      for (std::size_t j = 2 * i * len; j < (2 * i + 1) * len; ++j) {
        const W u = a[j], v = a[j + len];
        a[j] = fold<W>(u + v, two_q);
        a[j + len] = shoup_mul_lazy<W>(u + two_q - v, op, quot, q);
      }
    }
    len <<= 1;
  }
  for (std::size_t j = 0; j < t.n; ++j) {
    a[j] = fold(shoup_mul_lazy(a[j], ninv_op, ninv_quot, q), q);
  }
}

// acc128[k] += a[k] * b[k * b_stride] for k in [begin, n); b_stride is 0
// (one weight) or 1.
inline void mul_accumulate_scalar(const u64* a, const u64* b, std::size_t b_stride,
                                  std::size_t begin, std::size_t n, u64* acc_lo, u64* acc_hi) {
  const auto body = [&](auto b_at) {
    for (std::size_t k = begin; k < n; ++k) {
      const u128 p = u128{a[k]} * b_at(k);
      const u64 plo = static_cast<u64>(p);
      const u64 nlo = acc_lo[k] + plo;
      acc_hi[k] += static_cast<u64>(p >> 64) + (nlo < plo ? 1 : 0);
      acc_lo[k] = nlo;
    }
  };
  if (begin >= n) return;
  if (b_stride == 0) return body([w = *b](std::size_t) { return w; });
  body([b](std::size_t k) { return b[k]; });
}

// Constants of the narrow MAC's fold of a u64 sum s = hi * 2^32 + lo:
// s mod q = (hi * (2^32 mod q) + lo) mod q, each term by a Shoup multiply.
struct NarrowFold {
  u32 q;
  u32 r32, r32_quot;  // 2^32 mod q and its Shoup quotient
  u32 one_quot;       // floor(2^32 / q), the Shoup quotient of 1
  explicit NarrowFold(u32 modulus)
      : q(modulus),
        r32(static_cast<u32>((u64{1} << 32) % q)),
        r32_quot(static_cast<u32>((u64{r32} << 32) / q)),
        one_quot(static_cast<u32>((u64{1} << 32) / q)) {}

  // A u64 sum mod q, canonical.
  u32 operator()(u64 s) const {
    const u32 r = shoup_mul_lazy(static_cast<u32>(s >> 32), r32, r32_quot, q) +
                  shoup_mul_lazy(static_cast<u32>(s), u32{1}, one_quot, q);
    return fold(fold(r, 2 * q), q);
  }
};

// Rows the narrow MAC sums in a u64 before folding: a folded sum below q plus
// 15 products below (q-1)^2 < 2^60 stays below 2^64.
constexpr std::size_t kNarrowMacRows = 15;

// out[k] = sum_t a[t][k] * b[t][k] mod q for k in [begin, end).
inline void mul_sum_narrow_scalar(const u32* const* a, const u32* const* b, std::size_t rows,
                                  std::size_t begin, std::size_t end, const NarrowFold& f,
                                  u32* out) {
  constexpr std::size_t kBlock = 256;
  u64 acc[kBlock];
  for (std::size_t base = begin; base < end; base += kBlock) {
    const std::size_t len = end - base < kBlock ? end - base : kBlock;
    for (std::size_t k = 0; k < len; ++k) acc[k] = 0;
    for (std::size_t t0 = 0; t0 < rows; t0 += kNarrowMacRows) {
      if (t0 > 0) {
        for (std::size_t k = 0; k < len; ++k) acc[k] = f(acc[k]);
      }
      const std::size_t t1 = rows - t0 < kNarrowMacRows ? rows : t0 + kNarrowMacRows;
      for (std::size_t t = t0; t < t1; ++t) {
        const u32* at = a[t] + base;
        const u32* bt = b[t] + base;
        for (std::size_t k = 0; k < len; ++k) acc[k] += u64{at[k]} * bt[k];
      }
    }
    for (std::size_t k = 0; k < len; ++k) out[base + k] = f(acc[k]);
  }
}

// Signed gadget digits as residues mod q1 and q2, for k in [begin, n).
inline void gadget_residues_scalar(const u64* src, std::size_t begin, std::size_t n,
                                   u64 offset, int bg_bits, std::size_t levels,
                                   const NarrowCrt& crt, u32* dst) {
  const u32 mask = (u32{1} << bg_bits) - 1;
  const u32 half = u32{1} << (bg_bits - 1);
  for (std::size_t k = begin; k < n; ++k) {
    const u64 s = src[k] + offset;
    for (std::size_t i = 0; i < levels; ++i) {
      const unsigned shift = 64 - static_cast<unsigned>((i + 1) * bg_bits);
      const u32 f = static_cast<u32>(s >> shift) & mask;
      const u32 neg = f < half ? ~u32{0} : 0;  // digit f - half < 0: add q
      dst[(2 * i) * n + k] = f - half + (crt.q1 & neg);
      dst[(2 * i + 1) * n + k] = f - half + (crt.q2 & neg);
    }
  }
}

// dst[k] += the centred lifts of (lo, hi), for k in [begin, n).
inline void crt_lift_add_scalar(const u32* lo, const u32* hi, std::size_t begin, std::size_t n,
                                const NarrowCrt& crt, u64* dst) {
  const u64 half_q = crt.q / 2;
  auto lift = [&](u32 r1, u32 r2) -> u64 {
    const u32 d = r2 + crt.q2 - fold(r1, crt.q2);  // (r2 - r1) mod q2, in (0, 2 q2)
    const u32 t = fold(shoup_mul_lazy(d, crt.q1_inv, crt.q1_inv_quot, crt.q2), crt.q2);
    const u64 x = r1 + u64{crt.q1} * t;                // in [0, Q)
    return x - (crt.q & (x > half_q ? ~u64{0} : 0));  // wraps to the negative value
  };
  for (std::size_t k = begin; k < n; ++k) {
    dst[k] += lift(lo[k], lo[n + k]) + (lift(hi[k], hi[n + k]) << 32);
  }
}

// out[k] = (x[k] - y[k]) * w mod q for k in [begin, n), a null y as zeros.
inline void sub_mul_shoup_scalar(const u64* x, const u64* y, std::size_t begin, std::size_t n,
                                 u64 w_op, u64 w_quot, u64 q, u64* out) {
  for (std::size_t k = begin; k < n; ++k) {
    const u64 d = y == nullptr ? x[k] : x[k] + q - y[k];
    out[k] = fold(shoup_mul_lazy(d, w_op, w_quot, q), q);
  }
}

// x mod q, canonical, for |x| < 2^62. Most coefficients of a Delta-scaled
// message are already below q in magnitude and skip the division.
inline u64 lift_signed_one(i64 x, u64 q) {
  const u64 a = x < 0 ? 0 - static_cast<u64>(x) : static_cast<u64>(x);
  const u64 r = a < q ? a : a % q;
  return x < 0 && r != 0 ? q - r : r;
}

inline void lift_signed_scalar(const i64* x, std::size_t begin, std::size_t n, u64 q, u64* out) {
  for (std::size_t k = begin; k < n; ++k) out[k] = lift_signed_one(x[k], q);
}

// acc[k] -= d * row[k] mod 2^64 for k in [begin, n).
inline void sub_scaled_scalar(u64* acc, const u64* row, u64 d, std::size_t begin, std::size_t n) {
  for (std::size_t k = begin; k < n; ++k) acc[k] -= d * row[k];
}

// ---------------------------------------------------------------------------
// Vector bodies.

// The lane operations of one word width, for the transforms.
template <class Lanes>
struct Words64 {
  using L = Lanes;
  using V = typename L::V;
  using Word = u64;
  static constexpr std::size_t kLanes = L::kBytes / 8;
  static V set1(u64 x) { return L::set1_64(x); }
  static V add(V a, V b) { return L::add64(a, b); }
  static V sub(V a, V b) { return L::sub64(a, b); }
  static V fold(V x, V bound) { return L::fold64(x, bound); }
};

template <class Lanes>
struct Words32 {
  using L = Lanes;
  using V = typename L::V;
  using Word = u32;
  static constexpr std::size_t kLanes = L::kBytes / 4;
  static V set1(u32 x) { return L::set1_32(x); }
  static V add(V a, V b) { return L::add32(a, b); }
  static V sub(V a, V b) { return L::sub32(a, b); }
  // The unsigned min picks x - bound exactly when x >= bound.
  static V fold(V x, V bound) { return L::min_u32(x, L::sub32(x, bound)); }
};

// High 64 bits of the lane products, from four 32x32 partials with exact
// carries: a*b = hihi<<64 + (lohi + hilo)<<32 + lolo, where
//   mid  = hilo + (lolo >> 32)          (fits: < 2^64 - 2^32)
//   mid2 = lohi + (mid & 0xffffffff)    (fits: < 2^64)
//   hi   = hihi + (mid >> 32) + (mid2 >> 32).
template <class L>
inline typename L::V mulhi64(typename L::V a, typename L::V b) {
  using V = typename L::V;
  const V a_hi = L::template shr64<32>(a), b_hi = L::template shr64<32>(b);
  const V mid = L::add64(L::mul32(a_hi, b), L::template shr64<32>(L::mul32(a, b)));
  const V mid2 = L::add64(L::mul32(a, b_hi), L::and_(mid, L::set1_64(0xffffffff)));
  return L::add64(L::mul32(a_hi, b_hi), L::add64(L::template shr64<32>(mid),
                                                 L::template shr64<32>(mid2)));
}

// The 64-bit Shoup multiply of the scalar body, per lane: op*x -
// mulhi(quot, x)*q mod 2^64, in [0, 2q).
template <class Lanes>
struct Shoup64 : Words64<Lanes> {
  using typename Words64<Lanes>::V;
  using L = Lanes;
  struct Twiddle {
    V op, quot;
  };
  V q, two_q;
  explicit Shoup64(u64 modulus) : q(L::set1_64(modulus)), two_q(L::set1_64(2 * modulus)) {}
  static Twiddle twiddle(V op, V quot) { return {op, quot}; }
  V mul_lazy(V x, const Twiddle& w) const {
    return L::sub64(L::mullo64(w.op, x), L::mullo64(mulhi64<L>(w.quot, x), q));
  }
};

// The narrow Shoup multiply per u32 lane, the high products of the even and
// odd lanes formed apart: op*x - mulhi(quot, x)*q mod 2^32, in [0, 2q).
template <class Lanes>
struct Shoup32 : Words32<Lanes> {
  using typename Words32<Lanes>::V;
  using L = Lanes;
  struct Twiddle {
    V op, quot;
  };
  V q, two_q;
  explicit Shoup32(u32 modulus) : q(L::set1_32(modulus)), two_q(L::set1_32(2 * modulus)) {}
  static Twiddle twiddle(V op, V quot) { return {op, quot}; }
  V mul_lazy(V x, const Twiddle& w) const {
    const V even = L::template shr64<32>(L::mul32(x, w.quot));
    const V odd = L::mul32(L::template shr64<32>(x), L::template shr64<32>(w.quot));
    return L::sub32(L::mullo32(x, w.op), L::mullo32(L::blend_odd32(even, odd), q));
  }
};

// The twiddles of one short-stride sweep over blocks of B bytes: the u lanes
// of each butterfly block take its group's twiddle, in interleave<B>'s order
// (u block j is group j / 2 of the first vector for even j, of the second for
// odd j).
template <class M, std::size_t B>
inline typename M::V sweep_twiddles(const typename M::Word* w) {
  using L = typename M::L;
  constexpr std::size_t kGroups = L::kBytes / B;  // per sweep
  constexpr std::size_t kWordLanes = sizeof(typename M::Word) / 4;
  struct Idx {
    u32 lane[L::kBytes / 4];
  };
  static constexpr Idx kIdx = [] {
    Idx idx{};
    for (std::size_t s = 0; s < L::kBytes / 4; ++s) {
      const std::size_t j = s / (B / 4);
      idx.lane[s] =
          static_cast<u32>(((j % 2) * (kGroups / 2) + j / 2) * kWordLanes + s % kWordLanes);
    }
    return idx;
  }();
  return L::permute32(L::template load_prefix<kGroups * sizeof(typename M::Word)>(w),
                      L::load(kIdx.lane));
}

// One stage of `groups` butterfly blocks of stride len at a + 2 * i * len,
// block i under twiddle i. Strides of a vector or more run contiguous lanes
// under a broadcast twiddle; shorter ones batch the blocks of two vectors,
// split by interleave<B> where B is the bytes of len words.
template <class M, std::size_t B = sizeof(typename M::Word), class Bf>
void stage(typename M::Word* a, const typename M::Word* w_op, const typename M::Word* w_quot,
           std::size_t groups, std::size_t len, const M& m, const Bf& bf) {
  using L = typename M::L;
  using V = typename M::V;
  constexpr std::size_t kLanes = M::kLanes;
  if constexpr (B == L::kBytes) {
    for (std::size_t i = 0; i < groups; ++i) {
      typename M::Word* p = a + 2 * i * len;
      const typename M::Twiddle w = m.twiddle(M::set1(w_op[i]), M::set1(w_quot[i]));
      // Two independent butterfly vectors per iteration where the stride
      // allows: the Shoup chain is long, and a second one keeps the
      // multipliers fed while the first drains.
      std::size_t j = 0;
      for (; j + 2 * kLanes <= len; j += 2 * kLanes) {
        V u0 = L::load(p + j), v0 = L::load(p + j + len);
        V u1 = L::load(p + j + kLanes), v1 = L::load(p + j + kLanes + len);
        bf(u0, v0, w);
        bf(u1, v1, w);
        L::store(p + j, u0);
        L::store(p + j + len, v0);
        L::store(p + j + kLanes, u1);
        L::store(p + j + kLanes + len, v1);
      }
      if (j < len) {
        V u = L::load(p + j), v = L::load(p + j + len);
        bf(u, v, w);
        L::store(p + j, u);
        L::store(p + j + len, v);
      }
    }
  } else if (len * sizeof(typename M::Word) == B) {
    for (std::size_t i = 0; i < groups; i += L::kBytes / B) {
      typename M::Word* p = a + 2 * i * len;
      V u = L::load(p), v = L::load(p + kLanes);
      L::template interleave<B>(u, v);
      bf(u, v, m.twiddle(sweep_twiddles<M, B>(w_op + i), sweep_twiddles<M, B>(w_quot + i)));
      L::template interleave<B>(u, v);
      L::store(p, u);
      L::store(p + kLanes, v);
    }
  } else {
    stage<M, 2 * B>(a, w_op, w_quot, groups, len, m, bf);
  }
}

// The vector transforms, bit-identical to the scalar ones: the arithmetic
// `M` (Shoup64, Shoup32, or the IFMA unit's 52-bit one) supplies the word
// operations and the Shoup multiply. Transforms shorter than two vectors run
// the scalar body.
template <class M, class T>
void ntt_forward(const T& t, typename M::Word* a) {
  using V = typename M::V;
  if (t.n < 2 * M::kLanes) return ntt_forward_scalar(t, a);
  const M m(t.q);
  const auto bf = [&m](V& u, V& v, const typename M::Twiddle& w) {
    u = M::fold(u, m.two_q);
    const V p = m.mul_lazy(v, w);
    v = M::sub(M::add(u, m.two_q), p);
    u = M::add(u, p);
  };
  std::size_t len = t.n;
  for (std::size_t groups = 1; groups < t.n; groups <<= 1) {
    len >>= 1;
    stage(a, t.w_op + groups, t.w_quot + groups, groups, len, m, bf);
  }
  for (std::size_t j = 0; j < t.n; j += M::kLanes) {
    M::L::store(a + j, M::fold(M::fold(M::L::load(a + j), m.two_q), m.q));
  }
}

template <class M, class T, class W = typename M::Word>
void ntt_inverse(const T& t, W* a, W ninv_op, W ninv_quot) {
  using V = typename M::V;
  if (t.n < 2 * M::kLanes) return ntt_inverse_scalar(t, a, ninv_op, ninv_quot);
  const M m(t.q);
  const auto bf = [&m](V& u, V& v, const typename M::Twiddle& w) {
    const V diff = M::sub(M::add(u, m.two_q), v);
    u = M::fold(M::add(u, v), m.two_q);
    v = m.mul_lazy(diff, w);
  };
  std::size_t len = 1;
  for (std::size_t groups = t.n >> 1; groups > 0; groups >>= 1) {
    stage(a, t.w_op + groups, t.w_quot + groups, groups, len, m, bf);
    len <<= 1;
  }
  const typename M::Twiddle ninv = m.twiddle(M::set1(ninv_op), M::set1(ninv_quot));
  for (std::size_t j = 0; j < t.n; j += M::kLanes) {
    M::L::store(a + j, M::fold(m.mul_lazy(M::L::load(a + j), ninv), m.q));
  }
}

// acc128[k] += a[k] * b[k * b_stride]: a broadcast weight (b_stride 0) is just
// another load. A carry out of the low half subtracts -1 from the high half.
template <class L>
void mul_accumulate(const u64* a, const u64* b, std::size_t b_stride, std::size_t n,
                    u64* acc_lo, u64* acc_hi) {
  using V = typename L::V;
  constexpr std::size_t kLanes = L::kBytes / 8;
  const V all_ones = L::set1_64(~u64{0});
  const auto body = [&](auto load_b) {
    std::size_t k = 0;
    for (; k + kLanes <= n; k += kLanes) {
      const V va = L::load(a + k), vb = load_b(k);
      const V plo = L::mullo64(va, vb);
      const V nlo = L::add64(L::load(acc_lo + k), plo);
      const V nhi = L::add64(L::load(acc_hi + k), mulhi64<L>(va, vb));
      L::store(acc_lo + k, nlo);
      L::store(acc_hi + k, L::sub_if_lt64(nhi, nlo, plo, all_ones));
    }
    return k;
  };
  const std::size_t k = b_stride == 0 ? body([w = L::set1_64(*b)](std::size_t) { return w; })
                                      : body([b](std::size_t i) { return L::load(b + i); });
  mul_accumulate_scalar(a, b, b_stride, k, n, acc_lo, acc_hi);
}

// A u64 sum per 64-bit lane mod q, canonical, in the low half of the lane:
// hi * (2^32 mod q) + lo with one Shoup multiply each. `q` and `two_q` hold
// the bound in the low half of every 64-bit lane.
template <class L>
inline typename L::V fold_sum64(typename L::V s, const NarrowFold& f, typename L::V q,
                                typename L::V two_q) {
  using V = typename L::V;
  const V hi = L::template shr64<32>(s);
  const V qh = L::template shr64<32>(L::mul32(hi, L::set1_64(f.r32_quot)));
  const V rh = L::sub64(L::mul32(hi, L::set1_64(f.r32)), L::mul32(qh, q));
  const V ql = L::template shr64<32>(L::mul32(s, L::set1_64(f.one_quot)));
  const V rl = L::sub64(L::and_(s, L::set1_64(0xffffffff)), L::mul32(ql, q));
  return Words32<L>::fold(Words32<L>::fold(L::add64(rh, rl), two_q), q);
}

// The narrow MAC: even and odd u32 lanes accumulate in separate 64-bit sums.
template <class L>
void mul_sum_narrow(const u32* const* a, const u32* const* b, std::size_t rows, std::size_t n,
                    u32 q, u32* out) {
  using V = typename L::V;
  const NarrowFold f(q);
  const V vq = L::set1_64(q), two_q = L::set1_64(2 * u64{q});
  std::size_t k = 0;
  for (; k + L::kBytes / 4 <= n; k += L::kBytes / 4) {
    V even = L::zero(), odd = L::zero();
    for (std::size_t t0 = 0; t0 < rows; t0 += kNarrowMacRows) {
      if (t0 > 0) {
        even = fold_sum64<L>(even, f, vq, two_q);
        odd = fold_sum64<L>(odd, f, vq, two_q);
      }
      const std::size_t t1 = rows - t0 < kNarrowMacRows ? rows : t0 + kNarrowMacRows;
      for (std::size_t t = t0; t < t1; ++t) {
        const V va = L::load(a[t] + k), vb = L::load(b[t] + k);
        even = L::add64(even, L::mul32(va, vb));
        odd = L::add64(odd, L::mul32(L::template shr64<32>(va), L::template shr64<32>(vb)));
      }
    }
    L::store(out + k, L::blend_odd32(fold_sum64<L>(even, f, vq, two_q),
                                     L::template shl64<32>(fold_sum64<L>(odd, f, vq, two_q))));
  }
  mul_sum_narrow_scalar(a, b, rows, k, n, f, out);
}

// Two vectors of source words per sweep, their digit fields packed into one
// vector of u32 lanes per level.
template <class L>
void gadget_residues_narrow(const u64* src, std::size_t n, u64 offset, int bg_bits,
                            std::size_t levels, const NarrowCrt& crt, u32* dst) {
  using V = typename L::V;
  constexpr std::size_t kLanes = L::kBytes / 4;
  const V off = L::set1_64(offset), mask = L::set1_32((u32{1} << bg_bits) - 1);
  const V half = L::set1_32(u32{1} << (bg_bits - 1));
  const V q1 = L::set1_32(crt.q1), q2 = L::set1_32(crt.q2);
  std::size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    const V s0 = L::add64(L::load(src + k), off);
    const V s1 = L::add64(L::load(src + k + kLanes / 2), off);
    for (std::size_t i = 0; i < levels; ++i) {
      const int shift = 64 - static_cast<int>((i + 1) * bg_bits);
      const V f = L::and_(L::pack_lo32(L::srl64(s0, shift), L::srl64(s1, shift)), mask);
      const V d = L::sub32(f, half);  // f, half < 2^31: a negative digit gets q added
      L::store(dst + (2 * i) * n + k, L::add_if_neg32(d, d, q1));
      L::store(dst + (2 * i + 1) * n + k, L::add_if_neg32(d, d, q2));
    }
  }
  gadget_residues_scalar(src, k, n, offset, bg_bits, levels, crt, dst);
}

// The centred lift of zero-extended residues r1 mod q1 and r2 mod q2 in
// 64-bit lanes, wrapping mod 2^64 when negative.
template <class L>
inline typename L::V crt_lift(typename L::V r1, typename L::V r2, const NarrowCrt& crt) {
  using V = typename L::V;
  const V q1 = L::set1_64(crt.q1), q2 = L::set1_64(crt.q2);
  const V d = L::sub64(L::add64(r2, q2), Words32<L>::fold(r1, q2));
  const V hi = L::template shr64<32>(L::mul32(d, L::set1_64(crt.q1_inv_quot)));
  const V t = Words32<L>::fold(
      L::sub64(L::mul32(d, L::set1_64(crt.q1_inv)), L::mul32(hi, q2)), q2);
  const V x = L::add64(r1, L::mul32(t, q1));
  return L::sub_if_lt64(x, L::set1_64(crt.q / 2), x, L::set1_64(crt.q));
}

template <class L>
void crt_lift_add_narrow(const u32* lo, const u32* hi, std::size_t n, const NarrowCrt& crt,
                         u64* dst) {
  using V = typename L::V;
  std::size_t k = 0;
  for (; k + L::kBytes / 8 <= n; k += L::kBytes / 8) {
    const V x_lo = crt_lift<L>(L::widen32(lo + k), L::widen32(lo + n + k), crt);
    const V x_hi = crt_lift<L>(L::widen32(hi + k), L::widen32(hi + n + k), crt);
    L::store(dst + k, L::add64(L::load(dst + k), L::add64(x_lo, L::template shl64<32>(x_hi))));
  }
  crt_lift_add_scalar(lo, hi, k, n, crt, dst);
}

// The Shoup pass on the arithmetic `M` (Shoup64, or the IFMA unit's 52-bit
// one): x - y + q lies in [1, 2q), a valid Shoup input for either.
template <class M>
void sub_mul_shoup(const u64* x, const u64* y, std::size_t n, u64 w_op, u64 w_quot, u64 q,
                   u64* out) {
  using L = typename M::L;
  const M m(q);
  const typename M::Twiddle w = m.twiddle(M::set1(w_op), M::set1(w_quot));
  const auto body = [&](auto load) {
    std::size_t k = 0;
    for (; k + M::kLanes <= n; k += M::kLanes) {
      L::store(out + k, M::fold(m.mul_lazy(load(k), w), m.q));
    }
    return k;
  };
  const std::size_t k =
      y == nullptr ? body([x](std::size_t i) { return L::load(x + i); })
                   : body([x, y, &m](std::size_t i) {
                       return M::sub(M::add(L::load(x + i), m.q), L::load(y + i));
                     });
  sub_mul_shoup_scalar(x, y, k, n, w_op, w_quot, q, out);
}

// For -q <= x < q the lift is x, plus q where x < 0 (as u64, above
// 2^63 - 1). A block with a lane outside [-q, q) lifts that lane by the
// scalar body.
template <class L>
void lift_signed(const i64* x, std::size_t n, u64 q, u64* out) {
  using V = typename L::V;
  constexpr std::size_t kLanes = L::kBytes / 8;
  constexpr unsigned kAll = (1u << kLanes) - 1;
  const V vq = L::set1_64(q), neg_q = L::set1_64(0 - q);
  const V max_pos = L::set1_64(~u64{0} >> 1);
  std::size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    const V u = L::load(x + k);
    const V r = L::sub_if_lt64(u, max_pos, u, neg_q);
    L::store(out + k, r);
    const unsigned ok = L::lt_mask64(r, vq);
    if (ok != kAll) {
      for (std::size_t i = 0; i < kLanes; ++i) {
        if ((ok >> i & 1) == 0) out[k + i] = lift_signed_one(x[k + i], q);
      }
    }
  }
  lift_signed_scalar(x, k, n, q, out);
}

// The low product half from three 32x32 partials, d's high half hoisted: on
// the AVX-512 host measured, vpmullq (mullo64) ran this row 2.4x slower.
template <class L>
void sub_scaled(u64* acc, const u64* row, u64 d, std::size_t n) {
  using V = typename L::V;
  constexpr std::size_t kLanes = L::kBytes / 8;
  const V d_lo = L::set1_64(d), d_hi = L::set1_64(d >> 32);
  std::size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    const V r = L::load(row + k);
    const V cross = L::add64(L::mul32(r, d_hi), L::mul32(L::template shr64<32>(r), d_lo));
    const V p = L::add64(L::mul32(r, d_lo), L::template shl64<32>(cross));
    L::store(acc + k, L::sub64(L::load(acc + k), p));
  }
  sub_scaled_scalar(acc, row, d, k, n);
}

// Every body of one ISA's lanes; the 52-bit entries stay null.
template <class L>
constexpr Kernels vector_kernels() {
  return {.ntt_forward = ntt_forward<Shoup64<L>, NttTables>,
          .ntt_inverse = ntt_inverse<Shoup64<L>, NttTables>,
          .mul_accumulate = mul_accumulate<L>,
          .ntt_forward_narrow = ntt_forward<Shoup32<L>, NttTables32>,
          .ntt_inverse_narrow = ntt_inverse<Shoup32<L>, NttTables32>,
          .mul_sum_narrow = mul_sum_narrow<L>,
          .gadget_residues_narrow = gadget_residues_narrow<L>,
          .crt_lift_add_narrow = crt_lift_add_narrow<L>,
          .sub_mul_shoup = sub_mul_shoup<Shoup64<L>>,
          .lift_signed = lift_signed<L>,
          .sub_scaled = sub_scaled<L>,
          .ntt_forward52 = nullptr,
          .ntt_inverse52 = nullptr,
          .mul_sum52 = nullptr,
          .weighted_sum52 = nullptr,
          .sub_mul_shoup52 = nullptr};
}

}  // namespace
}  // namespace alchemist::simd::detail
