#include "common/simd.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/modarith.h"

namespace alchemist::simd {

namespace {

using u32 = std::uint32_t;
using u64 = std::uint64_t;
using u128 = unsigned __int128;

// CPUID gates. __builtin_cpu_supports is a runtime check on GCC/Clang; on
// other toolchains (or non-x86 targets) the SIMD TUs are not compiled and
// everything resolves to scalar.
bool cpu_has_avx2() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // The kernels use q-word min/compare/permute (F) and vpmullq (DQ).
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512ifma() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return cpu_has_avx512() && __builtin_cpu_supports("avx512ifma") != 0;
#else
  return false;
#endif
}

// kNumIsas slots; Scalar=0 stays 0 so the enum doubles as an index.
std::atomic<int> g_active{-1};  // -1 = not yet resolved

std::atomic<std::uint64_t> g_dispatch[kNumKerns][kNumIsas] = {};

Isa resolve_from_env() {
  const char* env = std::getenv("ALCHEMIST_ISA");
  if (env == nullptr || env[0] == '\0') return best_supported_isa();
  try {
    const Isa isa = parse_isa(env);
    if (isa_supported(isa)) return isa;
    std::fprintf(stderr,
                 "warning: ALCHEMIST_ISA=%s is not supported on this host "
                 "(compiled=%d, cpuid=%s); falling back to %s\n",
                 env, isa_compiled(isa) ? 1 : 0, isa_name(isa),
                 isa_name(best_supported_isa()));
  } catch (const std::invalid_argument&) {
    std::fprintf(stderr,
                 "warning: unknown ALCHEMIST_ISA=%s (expected scalar|avx2|avx512|"
                 "avx512ifma|native); falling back to %s\n",
                 env, isa_name(best_supported_isa()));
  }
  return best_supported_isa();
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return "scalar";
    case Isa::Avx2: return "avx2";
    case Isa::Avx512: return "avx512";
    case Isa::Avx512Ifma: return "avx512ifma";
  }
  return "unknown";
}

const char* kern_name(Kern k) {
  switch (k) {
    case Kern::NttFwd: return "ntt_fwd";
    case Kern::NttInv: return "ntt_inv";
    case Kern::WeightedSum: return "weighted_sum";
    case Kern::MulAcc: return "mul_acc";
    case Kern::NttFwdNarrow: return "ntt_fwd_narrow";
    case Kern::NttInvNarrow: return "ntt_inv_narrow";
    case Kern::MulSumNarrow: return "mul_sum_narrow";
    case Kern::kCount: break;
  }
  return "unknown";
}

Isa parse_isa(const std::string& name) {
  if (name == "scalar") return Isa::Scalar;
  if (name == "avx2") return Isa::Avx2;
  if (name == "avx512") return Isa::Avx512;
  if (name == "avx512ifma") return Isa::Avx512Ifma;
  if (name == "native") return best_supported_isa();
  throw std::invalid_argument("unknown ISA \"" + name +
                              "\" (expected scalar|avx2|avx512|avx512ifma|native)");
}

bool isa_compiled(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return true;
    case Isa::Avx2:
#if ALCHEMIST_SIMD_AVX2
      return true;
#else
      return false;
#endif
    case Isa::Avx512:
#if ALCHEMIST_SIMD_AVX512
      return true;
#else
      return false;
#endif
    case Isa::Avx512Ifma:
#if ALCHEMIST_SIMD_AVX512IFMA
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool isa_supported(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return true;
    case Isa::Avx2: return isa_compiled(isa) && cpu_has_avx2();
    case Isa::Avx512: return isa_compiled(isa) && cpu_has_avx512();
    case Isa::Avx512Ifma: return isa_compiled(isa) && cpu_has_avx512ifma();
  }
  return false;
}

Isa best_supported_isa() {
  if (isa_supported(Isa::Avx512Ifma)) return Isa::Avx512Ifma;
  if (isa_supported(Isa::Avx512)) return Isa::Avx512;
  if (isa_supported(Isa::Avx2)) return Isa::Avx2;
  return Isa::Scalar;
}

Isa active_isa() {
  int cur = g_active.load(std::memory_order_relaxed);
  if (cur >= 0) return static_cast<Isa>(cur);
  // First resolution. A benign race between concurrent first callers is
  // fine: both compute the same environment-derived answer.
  const Isa resolved = resolve_from_env();
  int expected = -1;
  g_active.compare_exchange_strong(expected, static_cast<int>(resolved),
                                   std::memory_order_relaxed);
  return static_cast<Isa>(g_active.load(std::memory_order_relaxed));
}

void set_isa(Isa isa) {
  if (!isa_supported(isa)) {
    throw std::invalid_argument(std::string("ISA ") + isa_name(isa) +
                                (isa_compiled(isa)
                                     ? " is not supported by this CPU"
                                     : " is not compiled into this binary"));
  }
  g_active.store(static_cast<int>(isa), std::memory_order_relaxed);
}

std::uint64_t dispatch_count(Kern k, Isa isa) {
  return g_dispatch[static_cast<std::size_t>(k)][static_cast<std::size_t>(isa)]
      .load(std::memory_order_relaxed);
}

void note_dispatch(Kern k, Isa isa) {
  g_dispatch[static_cast<std::size_t>(k)][static_cast<std::size_t>(isa)]
      .fetch_add(1, std::memory_order_relaxed);
}

NarrowCrt::NarrowCrt(u32 prime1, u32 prime2) : q1(prime1), q2(prime2) {
  if (q2 < 2 || q2 >= q1 || q1 >= 2 * u64{q2} || q1 > kMaxNarrowModulus) {
    throw std::invalid_argument("NarrowCrt: need q2 < q1 < 2 q2 and q1 < 2^30");
  }
  q1_inv = static_cast<u32>(inv_mod(q1 - q2, q2));  // q1 mod q2 = q1 - q2
  q1_inv_quot = static_cast<u32>((u64{q1_inv} << 32) / q2);
  q = u64{q1} * q2;
}

// ---------------------------------------------------------------------------
// Scalar reference kernels. These mirror the pre-SIMD NttTable butterflies
// exactly (same operation sequence mod 2^64) and stay the pinned baseline
// the vector variants are proved against.

namespace detail {

NarrowFold::NarrowFold(u32 modulus) : q(modulus) {
  if (q < 2 || q > kMaxNarrowModulus) {
    throw std::invalid_argument("NarrowFold: modulus must be in [2, 2^30)");
  }
  r32 = static_cast<u32>((u64{1} << 32) % q);
  r32_quot = static_cast<u32>((u64{r32} << 32) / q);
  one_quot = static_cast<u32>((u64{1} << 32) / q);
}

IfmaFold::IfmaFold(u64 modulus) : q(modulus) {
  r52 = (u64{1} << 52) % q;
  r52_quot = static_cast<u64>((u128{r52} << 52) / q);
  one_quot = (u64{1} << 52) / q;
}

namespace {

// Shoup lazy multiply: result in [0, 2q) for any 64-bit x with x*w' products
// formed mod 2^64 — identical to MulModShoup::mul_lazy.
inline u64 shoup_mul_lazy(u64 x, u64 op, u64 quot, u64 q) {
  const u64 hi = static_cast<u64>((u128{quot} * x) >> 64);
  return op * x - hi * q;
}

// The narrow Shoup multiply: [0, 2q) for any 32-bit x when q < 2^30, with
// w * x and hi * q formed mod 2^32.
inline u32 shoup_mul_lazy32(u32 x, u32 op, u32 quot, u32 q) {
  const u32 hi = static_cast<u32>((u64{quot} * x) >> 32);
  return op * x - hi * q;
}

inline u32 fold32(u32 x, u32 bound) { return x - (bound & (x >= bound ? ~u32{0} : 0)); }

// A u64 sum mod q, canonical: hi * (2^32 mod q) + lo, each in [0, 2q).
inline u32 fold_sum(u64 s, const NarrowFold& f) {
  const u32 r = shoup_mul_lazy32(static_cast<u32>(s >> 32), f.r32, f.r32_quot, f.q) +
                shoup_mul_lazy32(static_cast<u32>(s), 1, f.one_quot, f.q);
  return fold32(fold32(r, 2 * f.q), f.q);
}

}  // namespace

void ntt_forward_lazy_scalar(const NttTables& t, u64* a) {
  const u64 q = t.q;
  const u64 two_q = 2 * q;
  std::size_t len = t.n;
  for (std::size_t m = 1; m < t.n; m <<= 1) {
    len >>= 1;
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t j1 = 2 * i * len;
      const u64 op = t.w_op[m + i];
      const u64 quot = t.w_quot[m + i];
      for (std::size_t j = j1; j < j1 + len; ++j) {
        u64 u = a[j];
        // Branchless fold into [0, 2q): u >= 2q half the time on lazy data.
        u -= two_q & (u >= two_q ? ~u64{0} : 0);
        const u64 v = shoup_mul_lazy(a[j + len], op, quot, q);
        a[j] = u + v;
        a[j + len] = u + two_q - v;
      }
    }
  }
  for (std::size_t j = 0; j < t.n; ++j) {
    u64 x = a[j];
    x -= two_q & (x >= two_q ? ~u64{0} : 0);
    x -= q & (x >= q ? ~u64{0} : 0);
    a[j] = x;
  }
}

void ntt_inverse_lazy_scalar(const NttTables& t, u64* a, u64 ninv_op, u64 ninv_quot) {
  const u64 q = t.q;
  const u64 two_q = 2 * q;
  std::size_t len = 1;
  for (std::size_t m = t.n; m > 1; m >>= 1) {
    const std::size_t h = m >> 1;
    std::size_t j1 = 0;
    for (std::size_t i = 0; i < h; ++i) {
      const u64 op = t.w_op[h + i];
      const u64 quot = t.w_quot[h + i];
      for (std::size_t j = j1; j < j1 + len; ++j) {
        const u64 u = a[j];
        const u64 v = a[j + len];
        u64 sum = u + v;
        sum -= two_q & (sum >= two_q ? ~u64{0} : 0);
        a[j] = sum;
        a[j + len] = shoup_mul_lazy(u + two_q - v, op, quot, q);
      }
      j1 += 2 * len;
    }
    len <<= 1;
  }
  // Canonicalizing N^{-1} multiply — full Shoup (with the final correction).
  for (std::size_t j = 0; j < t.n; ++j) {
    const u64 x = a[j];
    const u64 hi = static_cast<u64>((u128{ninv_quot} * x) >> 64);
    u64 r = ninv_op * x - hi * q;
    if (r >= q) r -= q;
    a[j] = r;
  }
}

void weighted_accumulate_scalar(const u64* x, u64 w, std::size_t n,
                                u64* acc_lo, u64* acc_hi) {
  for (std::size_t k = 0; k < n; ++k) {
    const u128 p = u128{w} * x[k];
    const u64 plo = static_cast<u64>(p);
    const u64 nlo = acc_lo[k] + plo;
    acc_hi[k] += static_cast<u64>(p >> 64) + (nlo < plo ? 1 : 0);
    acc_lo[k] = nlo;
  }
}

void mul_accumulate_scalar(const u64* a, const u64* b, std::size_t n,
                           u64* acc_lo, u64* acc_hi) {
  for (std::size_t k = 0; k < n; ++k) {
    const u128 p = u128{a[k]} * b[k];
    const u64 plo = static_cast<u64>(p);
    const u64 nlo = acc_lo[k] + plo;
    acc_hi[k] += static_cast<u64>(p >> 64) + (nlo < plo ? 1 : 0);
    acc_lo[k] = nlo;
  }
}

void ntt_forward_narrow_scalar(const NttTables32& t, u32* a) {
  const u32 q = t.q;
  const u32 two_q = 2 * q;
  std::size_t len = t.n;
  for (std::size_t m = 1; m < t.n; m <<= 1) {
    len >>= 1;
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t j1 = 2 * i * len;
      const u32 op = t.w_op[m + i];
      const u32 quot = t.w_quot[m + i];
      for (std::size_t j = j1; j < j1 + len; ++j) {
        const u32 u = fold32(a[j], two_q);
        const u32 v = shoup_mul_lazy32(a[j + len], op, quot, q);
        a[j] = u + v;
        a[j + len] = u + two_q - v;
      }
    }
  }
  for (std::size_t j = 0; j < t.n; ++j) a[j] = fold32(fold32(a[j], two_q), q);
}

void ntt_inverse_narrow_scalar(const NttTables32& t, u32* a, u32 ninv_op, u32 ninv_quot) {
  const u32 q = t.q;
  const u32 two_q = 2 * q;
  std::size_t len = 1;
  for (std::size_t m = t.n; m > 1; m >>= 1) {
    const std::size_t h = m >> 1;
    std::size_t j1 = 0;
    for (std::size_t i = 0; i < h; ++i) {
      const u32 op = t.w_op[h + i];
      const u32 quot = t.w_quot[h + i];
      for (std::size_t j = j1; j < j1 + len; ++j) {
        const u32 u = a[j];
        const u32 v = a[j + len];
        a[j] = fold32(u + v, two_q);
        a[j + len] = shoup_mul_lazy32(u + two_q - v, op, quot, q);
      }
      j1 += 2 * len;
    }
    len <<= 1;
  }
  for (std::size_t j = 0; j < t.n; ++j) {
    a[j] = fold32(shoup_mul_lazy32(a[j], ninv_op, ninv_quot, q), q);
  }
}

void mul_sum_narrow_scalar(const u32* const* a, const u32* const* b, std::size_t rows,
                           std::size_t begin, std::size_t end, const NarrowFold& f,
                           u32* out) {
  constexpr std::size_t kBlock = 256;
  u64 acc[kBlock];
  for (std::size_t base = begin; base < end; base += kBlock) {
    const std::size_t len = std::min(kBlock, end - base);
    std::fill_n(acc, len, u64{0});
    for (std::size_t t0 = 0; t0 < rows; t0 += kNarrowMacRows) {
      if (t0 > 0) {
        for (std::size_t k = 0; k < len; ++k) acc[k] = fold_sum(acc[k], f);
      }
      for (std::size_t t = t0; t < std::min(rows, t0 + kNarrowMacRows); ++t) {
        const u32* at = a[t] + base;
        const u32* bt = b[t] + base;
        for (std::size_t k = 0; k < len; ++k) acc[k] += u64{at[k]} * bt[k];
      }
    }
    for (std::size_t k = 0; k < len; ++k) out[base + k] = fold_sum(acc[k], f);
  }
}

void gadget_residues_narrow_scalar(const u64* src, std::size_t begin, std::size_t n,
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

void crt_lift_add_narrow_scalar(const u32* lo, const u32* hi, std::size_t begin,
                                std::size_t n, const NarrowCrt& crt, u64* dst) {
  const u64 half_q = crt.q / 2;
  auto lift = [&](u32 r1, u32 r2) -> u64 {
    const u32 d = r2 + crt.q2 - fold32(r1, crt.q2);  // (r2 - r1) mod q2, in (0, 2 q2)
    const u32 t = fold32(shoup_mul_lazy32(d, crt.q1_inv, crt.q1_inv_quot, crt.q2), crt.q2);
    const u64 x = r1 + u64{crt.q1} * t;  // in [0, Q)
    return x - (crt.q & (x > half_q ? ~u64{0} : 0));  // wraps to the negative value
  };
  for (std::size_t k = begin; k < n; ++k) {
    dst[k] += lift(lo[k], lo[n + k]) + (lift(hi[k], hi[n + k]) << 32);
  }
}

}  // namespace detail

bool lazy_accumulation_fits(std::size_t terms, int bits_a, int bits_b) {
  if (terms == 0) return true;
  int log_terms = 0;
  while ((std::size_t{1} << log_terms) < terms) ++log_terms;
  return bits_a + bits_b + log_terms <= 127;
}

// ---------------------------------------------------------------------------
// Dispatchers.

namespace {

// The width rule of the IFMA tier: its 52-bit multipliers hold every lazy
// NTT value (< 4q) and every MAC operand only while q < 2^50. Wider moduli
// run the AVX-512 bodies under that tier.
constexpr u64 kIfmaModulusBound = u64{1} << 50;

// Forced-ISA plumbing shared by the public overloads; `isa` has been
// validated (or is active_isa(), which only ever holds supported values).
// Every tier that has no body of its own for a kernel falls through to the
// next tier down; an IFMA-supporting host is always an AVX-512 host.
void forward_with(const NttTables& t, u64* a, Isa isa) {
  switch (isa) {
#if ALCHEMIST_SIMD_AVX512IFMA
    case Isa::Avx512Ifma:
      if (t.q < kIfmaModulusBound) {
        detail::ntt_forward_lazy_avx512ifma(t, a);
        return;
      }
      [[fallthrough]];
#endif
#if ALCHEMIST_SIMD_AVX512
    case Isa::Avx512: detail::ntt_forward_lazy_avx512(t, a); return;
#endif
#if ALCHEMIST_SIMD_AVX2
    case Isa::Avx2: detail::ntt_forward_lazy_avx2(t, a); return;
#endif
    default: detail::ntt_forward_lazy_scalar(t, a); return;
  }
}

void inverse_with(const NttTables& t, u64* a, u64 ninv_op, u64 ninv_quot, Isa isa) {
  switch (isa) {
#if ALCHEMIST_SIMD_AVX512IFMA
    case Isa::Avx512Ifma:
      if (t.q < kIfmaModulusBound) {
        detail::ntt_inverse_lazy_avx512ifma(t, a, ninv_op, ninv_quot);
        return;
      }
      [[fallthrough]];
#endif
#if ALCHEMIST_SIMD_AVX512
    case Isa::Avx512: detail::ntt_inverse_lazy_avx512(t, a, ninv_op, ninv_quot); return;
#endif
#if ALCHEMIST_SIMD_AVX2
    case Isa::Avx2: detail::ntt_inverse_lazy_avx2(t, a, ninv_op, ninv_quot); return;
#endif
    default: detail::ntt_inverse_lazy_scalar(t, a, ninv_op, ninv_quot); return;
  }
}

void weighted_with(const u64* x, u64 w, std::size_t n, u64* acc_lo, u64* acc_hi,
                   Isa isa) {
  switch (isa) {
#if ALCHEMIST_SIMD_AVX512
    case Isa::Avx512Ifma:
    case Isa::Avx512: detail::weighted_accumulate_avx512(x, w, n, acc_lo, acc_hi); return;
#endif
#if ALCHEMIST_SIMD_AVX2
    case Isa::Avx2: detail::weighted_accumulate_avx2(x, w, n, acc_lo, acc_hi); return;
#endif
    default: detail::weighted_accumulate_scalar(x, w, n, acc_lo, acc_hi); return;
  }
}

void mul_acc_with(const u64* a, const u64* b, std::size_t n, u64* acc_lo, u64* acc_hi,
                  Isa isa) {
  switch (isa) {
#if ALCHEMIST_SIMD_AVX512
    case Isa::Avx512Ifma:
    case Isa::Avx512: detail::mul_accumulate_avx512(a, b, n, acc_lo, acc_hi); return;
#endif
#if ALCHEMIST_SIMD_AVX2
    case Isa::Avx2: detail::mul_accumulate_avx2(a, b, n, acc_lo, acc_hi); return;
#endif
    default: detail::mul_accumulate_scalar(a, b, n, acc_lo, acc_hi); return;
  }
}

// The 128-bit lazy sum of the scalar, AVX2 and AVX-512 tiers: for each
// block of coefficients, acc(t, base, len, lo, hi) adds row t into SoA
// 128-bit accumulators; one Barrett reduction per coefficient at the end,
// and an early one wherever the next row could overflow 128 bits (a folded
// residue counts as one row).
template <typename Acc>
void lazy_sum128(std::size_t rows, std::size_t n, u64 q, int bits_a, int bits_b, u64* out,
                 Acc&& acc) {
  const Modulus mod(q);
  constexpr std::size_t kBlock = 256;
  u64 lo[kBlock], hi[kBlock];
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t len = std::min(kBlock, n - base);
    std::fill_n(lo, len, u64{0});
    std::fill_n(hi, len, u64{0});
    std::size_t pending = 0;
    for (std::size_t t = 0; t < rows; ++t) {
      if (!lazy_accumulation_fits(pending + 1, bits_a, bits_b)) {
        for (std::size_t k = 0; k < len; ++k) {
          lo[k] = mod.reduce((u128{hi[k]} << 64) | lo[k]);
          hi[k] = 0;
        }
        pending = 1;
      }
      acc(t, base, len, lo, hi);
      ++pending;
    }
    for (std::size_t k = 0; k < len; ++k) {
      out[base + k] = mod.reduce((u128{hi[k]} << 64) | lo[k]);
    }
  }
}

void mul_sum_with(const u64* const* a, const u64* const* b, std::size_t rows, std::size_t n,
                  u64 q, u64* out, Isa isa) {
#if ALCHEMIST_SIMD_AVX512IFMA
  if (isa == Isa::Avx512Ifma && q < kIfmaModulusBound) {
    detail::mul_sum_avx512ifma(a, b, rows, n, detail::IfmaFold(q), out);
    return;
  }
#endif
  const int bits = std::bit_width(q);
  lazy_sum128(rows, n, q, bits, bits, out,
              [&](std::size_t t, std::size_t base, std::size_t len, u64* lo, u64* hi) {
                mul_acc_with(a[t] + base, b[t] + base, len, lo, hi, isa);
              });
}

void weighted_sum_with(const u64* const* x, const u64* w, std::size_t rows, std::size_t n,
                       u64 q, u64 x_bound, u64* out, Isa isa) {
#if ALCHEMIST_SIMD_AVX512IFMA
  if (isa == Isa::Avx512Ifma && q < kIfmaModulusBound && x_bound <= kIfmaModulusBound) {
    detail::weighted_sum_avx512ifma(x, w, rows, n, detail::IfmaFold(q), out);
    return;
  }
#endif
  lazy_sum128(rows, n, q, std::bit_width(x_bound - 1), std::bit_width(q), out,
              [&](std::size_t t, std::size_t base, std::size_t len, u64* lo, u64* hi) {
                weighted_with(x[t] + base, w[t], len, lo, hi, isa);
              });
}

void forward_narrow_with(const NttTables32& t, u32* a, Isa isa) {
  switch (isa) {
#if ALCHEMIST_SIMD_AVX512
    case Isa::Avx512Ifma:
    case Isa::Avx512: detail::ntt_forward_narrow_avx512(t, a); return;
#endif
#if ALCHEMIST_SIMD_AVX2
    case Isa::Avx2: detail::ntt_forward_narrow_avx2(t, a); return;
#endif
    default: detail::ntt_forward_narrow_scalar(t, a); return;
  }
}

void inverse_narrow_with(const NttTables32& t, u32* a, u32 ninv_op, u32 ninv_quot,
                         Isa isa) {
  switch (isa) {
#if ALCHEMIST_SIMD_AVX512
    case Isa::Avx512Ifma:
    case Isa::Avx512: detail::ntt_inverse_narrow_avx512(t, a, ninv_op, ninv_quot); return;
#endif
#if ALCHEMIST_SIMD_AVX2
    case Isa::Avx2: detail::ntt_inverse_narrow_avx2(t, a, ninv_op, ninv_quot); return;
#endif
    default: detail::ntt_inverse_narrow_scalar(t, a, ninv_op, ninv_quot); return;
  }
}

void mul_sum_narrow_with(const u32* const* a, const u32* const* b, std::size_t rows,
                         std::size_t n, u32 q, u32* out, Isa isa) {
  const detail::NarrowFold f(q);
  switch (isa) {
#if ALCHEMIST_SIMD_AVX512
    case Isa::Avx512Ifma:
    case Isa::Avx512: detail::mul_sum_narrow_avx512(a, b, rows, n, f, out); return;
#endif
#if ALCHEMIST_SIMD_AVX2
    case Isa::Avx2: detail::mul_sum_narrow_avx2(a, b, rows, n, f, out); return;
#endif
    default: detail::mul_sum_narrow_scalar(a, b, rows, 0, n, f, out); return;
  }
}

void gadget_residues_with(const u64* src, std::size_t n, u64 offset, int bg_bits,
                          std::size_t levels, const NarrowCrt& crt, u32* dst, Isa isa) {
  switch (isa) {
#if ALCHEMIST_SIMD_AVX512
    case Isa::Avx512Ifma:
    case Isa::Avx512:
      detail::gadget_residues_narrow_avx512(src, n, offset, bg_bits, levels, crt, dst);
      return;
#endif
#if ALCHEMIST_SIMD_AVX2
    case Isa::Avx2:
      detail::gadget_residues_narrow_avx2(src, n, offset, bg_bits, levels, crt, dst);
      return;
#endif
    default:
      detail::gadget_residues_narrow_scalar(src, 0, n, offset, bg_bits, levels, crt, dst);
      return;
  }
}

void crt_lift_with(const u32* lo, const u32* hi, std::size_t n, const NarrowCrt& crt,
                   u64* dst, Isa isa) {
  switch (isa) {
#if ALCHEMIST_SIMD_AVX512
    case Isa::Avx512Ifma:
    case Isa::Avx512: detail::crt_lift_add_narrow_avx512(lo, hi, n, crt, dst); return;
#endif
#if ALCHEMIST_SIMD_AVX2
    case Isa::Avx2: detail::crt_lift_add_narrow_avx2(lo, hi, n, crt, dst); return;
#endif
    default: detail::crt_lift_add_narrow_scalar(lo, hi, 0, n, crt, dst); return;
  }
}

Isa checked(Isa isa) {
  if (!isa_supported(isa)) {
    throw std::invalid_argument(std::string("forced ISA ") + isa_name(isa) +
                                " is not supported on this host");
  }
  return isa;
}

}  // namespace

void ntt_forward_lazy(const NttTables& t, u64* a) {
  const Isa isa = active_isa();
  note_dispatch(Kern::NttFwd, isa);
  forward_with(t, a, isa);
}

void ntt_forward_lazy(const NttTables& t, u64* a, Isa isa) {
  note_dispatch(Kern::NttFwd, checked(isa));
  forward_with(t, a, isa);
}

void ntt_inverse_lazy(const NttTables& t, u64* a, u64 ninv_op, u64 ninv_quot) {
  const Isa isa = active_isa();
  note_dispatch(Kern::NttInv, isa);
  inverse_with(t, a, ninv_op, ninv_quot, isa);
}

void ntt_inverse_lazy(const NttTables& t, u64* a, u64 ninv_op, u64 ninv_quot, Isa isa) {
  note_dispatch(Kern::NttInv, checked(isa));
  inverse_with(t, a, ninv_op, ninv_quot, isa);
}

void weighted_accumulate(const u64* x, u64 w, std::size_t n, u64* acc_lo, u64* acc_hi,
                         Isa isa) {
  weighted_with(x, w, n, acc_lo, acc_hi, checked(isa));
}

void mul_accumulate(const u64* a, const u64* b, std::size_t n, u64* acc_lo, u64* acc_hi,
                    Isa isa) {
  mul_acc_with(a, b, n, acc_lo, acc_hi, checked(isa));
}

void mul_sum(const u64* const* a, const u64* const* b, std::size_t rows, std::size_t n, u64 q,
             u64* out) {
  const Isa isa = active_isa();
  note_dispatch(Kern::MulAcc, isa);
  mul_sum_with(a, b, rows, n, q, out, isa);
}

void mul_sum(const u64* const* a, const u64* const* b, std::size_t rows, std::size_t n, u64 q,
             u64* out, Isa isa) {
  note_dispatch(Kern::MulAcc, checked(isa));
  mul_sum_with(a, b, rows, n, q, out, isa);
}

void weighted_sum(const u64* const* x, const u64* w, std::size_t rows, std::size_t n, u64 q,
                  u64 x_bound, u64* out) {
  const Isa isa = active_isa();
  note_dispatch(Kern::WeightedSum, isa);
  weighted_sum_with(x, w, rows, n, q, x_bound, out, isa);
}

void weighted_sum(const u64* const* x, const u64* w, std::size_t rows, std::size_t n, u64 q,
                  u64 x_bound, u64* out, Isa isa) {
  note_dispatch(Kern::WeightedSum, checked(isa));
  weighted_sum_with(x, w, rows, n, q, x_bound, out, isa);
}

void ntt_forward_narrow(const NttTables32& t, u32* a) {
  const Isa isa = active_isa();
  note_dispatch(Kern::NttFwdNarrow, isa);
  forward_narrow_with(t, a, isa);
}

void ntt_forward_narrow(const NttTables32& t, u32* a, Isa isa) {
  note_dispatch(Kern::NttFwdNarrow, checked(isa));
  forward_narrow_with(t, a, isa);
}

void ntt_inverse_narrow(const NttTables32& t, u32* a, u32 ninv_op, u32 ninv_quot) {
  const Isa isa = active_isa();
  note_dispatch(Kern::NttInvNarrow, isa);
  inverse_narrow_with(t, a, ninv_op, ninv_quot, isa);
}

void ntt_inverse_narrow(const NttTables32& t, u32* a, u32 ninv_op, u32 ninv_quot, Isa isa) {
  note_dispatch(Kern::NttInvNarrow, checked(isa));
  inverse_narrow_with(t, a, ninv_op, ninv_quot, isa);
}

void mul_sum_narrow(const u32* const* a, const u32* const* b, std::size_t rows,
                    std::size_t n, u32 q, u32* out) {
  const Isa isa = active_isa();
  note_dispatch(Kern::MulSumNarrow, isa);
  mul_sum_narrow_with(a, b, rows, n, q, out, isa);
}

void mul_sum_narrow(const u32* const* a, const u32* const* b, std::size_t rows,
                    std::size_t n, u32 q, u32* out, Isa isa) {
  note_dispatch(Kern::MulSumNarrow, checked(isa));
  mul_sum_narrow_with(a, b, rows, n, q, out, isa);
}

void gadget_residues_narrow(const u64* src, std::size_t n, u64 offset, int bg_bits,
                            std::size_t levels, const NarrowCrt& crt, u32* dst) {
  gadget_residues_with(src, n, offset, bg_bits, levels, crt, dst, active_isa());
}

void gadget_residues_narrow(const u64* src, std::size_t n, u64 offset, int bg_bits,
                            std::size_t levels, const NarrowCrt& crt, u32* dst, Isa isa) {
  gadget_residues_with(src, n, offset, bg_bits, levels, crt, dst, checked(isa));
}

void crt_lift_add_narrow(const u32* lo, const u32* hi, std::size_t n, const NarrowCrt& crt,
                         u64* dst) {
  crt_lift_with(lo, hi, n, crt, dst, active_isa());
}

void crt_lift_add_narrow(const u32* lo, const u32* hi, std::size_t n, const NarrowCrt& crt,
                         u64* dst, Isa isa) {
  crt_lift_with(lo, hi, n, crt, dst, checked(isa));
}

}  // namespace alchemist::simd
