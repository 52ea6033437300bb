#include "common/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace alchemist::simd {

namespace {

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
                 "native); falling back to %s\n",
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
  }
  return "unknown";
}

const char* kern_name(Kern k) {
  switch (k) {
    case Kern::NttFwd: return "ntt_fwd";
    case Kern::NttInv: return "ntt_inv";
    case Kern::WeightedSum: return "weighted_sum";
    case Kern::MulAcc: return "mul_acc";
    case Kern::kCount: break;
  }
  return "unknown";
}

Isa parse_isa(const std::string& name) {
  if (name == "scalar") return Isa::Scalar;
  if (name == "avx2") return Isa::Avx2;
  if (name == "avx512") return Isa::Avx512;
  if (name == "native") return best_supported_isa();
  throw std::invalid_argument("unknown ISA \"" + name +
                              "\" (expected scalar|avx2|avx512|native)");
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
  }
  return false;
}

bool isa_supported(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return true;
    case Isa::Avx2: return isa_compiled(isa) && cpu_has_avx2();
    case Isa::Avx512: return isa_compiled(isa) && cpu_has_avx512();
  }
  return false;
}

Isa best_supported_isa() {
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

// ---------------------------------------------------------------------------
// Scalar reference kernels. These mirror the pre-SIMD NttTable butterflies
// exactly (same operation sequence mod 2^64) and stay the pinned baseline
// the vector variants are proved against.

namespace detail {

namespace {

// Shoup lazy multiply: result in [0, 2q) for any 64-bit x with x*w' products
// formed mod 2^64 — identical to MulModShoup::mul_lazy.
inline u64 shoup_mul_lazy(u64 x, u64 op, u64 quot, u64 q) {
  const u64 hi = static_cast<u64>((u128{quot} * x) >> 64);
  return op * x - hi * q;
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

}  // namespace detail

// ---------------------------------------------------------------------------
// Dispatchers.

namespace {

// Forced-ISA plumbing shared by the public overloads; `isa` has been
// validated (or is active_isa(), which only ever holds supported values).
void forward_with(const NttTables& t, u64* a, Isa isa) {
  switch (isa) {
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
    case Isa::Avx512: detail::mul_accumulate_avx512(a, b, n, acc_lo, acc_hi); return;
#endif
#if ALCHEMIST_SIMD_AVX2
    case Isa::Avx2: detail::mul_accumulate_avx2(a, b, n, acc_lo, acc_hi); return;
#endif
    default: detail::mul_accumulate_scalar(a, b, n, acc_lo, acc_hi); return;
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

void weighted_accumulate(const u64* x, u64 w, std::size_t n, u64* acc_lo, u64* acc_hi) {
  weighted_with(x, w, n, acc_lo, acc_hi, active_isa());
}

void weighted_accumulate(const u64* x, u64 w, std::size_t n, u64* acc_lo, u64* acc_hi,
                         Isa isa) {
  weighted_with(x, w, n, acc_lo, acc_hi, checked(isa));
}

void mul_accumulate(const u64* a, const u64* b, std::size_t n, u64* acc_lo, u64* acc_hi) {
  mul_acc_with(a, b, n, acc_lo, acc_hi, active_isa());
}

void mul_accumulate(const u64* a, const u64* b, std::size_t n, u64* acc_lo, u64* acc_hi,
                    Isa isa) {
  mul_acc_with(a, b, n, acc_lo, acc_hi, checked(isa));
}

}  // namespace alchemist::simd
