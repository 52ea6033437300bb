#include "common/simd.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/modarith.h"
#include "common/simd_kernels.h"

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

// One dispatch of kernel `k` under the selected tier, whichever body the
// modulus width routes it to.
void note_dispatch(Kern k, Isa isa) {
  g_dispatch[static_cast<std::size_t>(k)][static_cast<std::size_t>(isa)]
      .fetch_add(1, std::memory_order_relaxed);
}

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
    case Isa::kCount: break;
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
    case Kern::SubMulShoup: return "sub_mul_shoup";
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
    case Isa::kCount: break;
  }
  return false;
}

bool isa_supported(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return true;
    case Isa::Avx2: return isa_compiled(isa) && cpu_has_avx2();
    case Isa::Avx512: return isa_compiled(isa) && cpu_has_avx512();
    case Isa::Avx512Ifma: return isa_compiled(isa) && cpu_has_avx512ifma();
    case Isa::kCount: break;
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

NarrowCrt::NarrowCrt(u32 prime1, u32 prime2) : q1(prime1), q2(prime2) {
  if (q2 < 2 || q2 >= q1 || q1 >= 2 * u64{q2} || q1 > kMaxNarrowModulus) {
    throw std::invalid_argument("NarrowCrt: need q2 < q1 < 2 q2 and q1 < 2^30");
  }
  q1_inv = static_cast<u32>(inv_mod(q1 - q2, q2));  // q1 mod q2 = q1 - q2
  q1_inv_quot = static_cast<u32>((u64{q1_inv} << 32) / q2);
  q = u64{q1} * q2;
}

bool lazy_accumulation_fits(std::size_t terms, int bits_a, int bits_b) {
  if (terms == 0) return true;
  int log_terms = 0;
  while ((std::size_t{1} << log_terms) < terms) ++log_terms;
  return bits_a + bits_b + log_terms <= 127;
}

// The scalar tier: the scalar bodies of simd_kernels.h, the pinned baseline
// the vector tiers are proved against.
constinit const detail::Kernels detail::kScalarKernels = {
    .ntt_forward = ntt_forward_scalar<NttTables, u64>,
    .ntt_inverse = ntt_inverse_scalar<NttTables, u64>,
    .mul_accumulate = [](const u64* a, const u64* b, std::size_t b_stride, std::size_t n,
                         u64* acc_lo, u64* acc_hi) {
      mul_accumulate_scalar(a, b, b_stride, 0, n, acc_lo, acc_hi);
    },
    .ntt_forward_narrow = ntt_forward_scalar<NttTables32, u32>,
    .ntt_inverse_narrow = ntt_inverse_scalar<NttTables32, u32>,
    .mul_sum_narrow = [](const u32* const* a, const u32* const* b, std::size_t rows,
                         std::size_t n, u32 q, u32* out) {
      mul_sum_narrow_scalar(a, b, rows, 0, n, detail::NarrowFold(q), out);
    },
    .gadget_residues_narrow = [](const u64* src, std::size_t n, u64 offset, int bg_bits,
                                 std::size_t levels, const NarrowCrt& crt, u32* dst) {
      gadget_residues_scalar(src, 0, n, offset, bg_bits, levels, crt, dst);
    },
    .crt_lift_add_narrow = [](const u32* lo, const u32* hi, std::size_t n, const NarrowCrt& crt,
                              u64* dst) { crt_lift_add_scalar(lo, hi, 0, n, crt, dst); },
    .sub_mul_shoup = [](const u64* x, const u64* y, std::size_t n, u64 w_op, u64 w_quot, u64 q,
                        u64* out) { sub_mul_shoup_scalar(x, y, 0, n, w_op, w_quot, q, out); },
    .lift_signed = [](const std::int64_t* x, std::size_t n, u64 q,
                      u64* out) { lift_signed_scalar(x, 0, n, q, out); },
    .sub_scaled = [](u64* acc, const u64* row, u64 d,
                     std::size_t n) { sub_scaled_scalar(acc, row, d, 0, n); },
    .ntt_forward52 = nullptr,
    .ntt_inverse52 = nullptr,
    .mul_sum52 = nullptr,
    .weighted_sum52 = nullptr,
    .sub_mul_shoup52 = nullptr};

// ---------------------------------------------------------------------------
// Dispatchers.

namespace {

// The width rule of the IFMA tier: its 52-bit multipliers hold every lazy
// NTT value (< 4q) and every MAC operand only while q < 2^50. Wider moduli
// run the tier's 64-bit bodies, those of AVX-512.
constexpr u64 kIfmaModulusBound = u64{1} << 50;

// The bodies of tier `isa`. Throws std::invalid_argument if this host cannot
// run it; active_isa() only ever holds tiers it can.
const detail::Kernels& kernels(Isa isa) {
  static const std::array<const detail::Kernels*, kNumIsas> tiers = [] {
    std::array<const detail::Kernels*, kNumIsas> t{&detail::kScalarKernels};
#if ALCHEMIST_SIMD_AVX2
    t[static_cast<std::size_t>(Isa::Avx2)] = &detail::kAvx2Kernels;
#endif
#if ALCHEMIST_SIMD_AVX512
    t[static_cast<std::size_t>(Isa::Avx512)] = &detail::kAvx512Kernels;
#endif
#if ALCHEMIST_SIMD_AVX512IFMA
    t[static_cast<std::size_t>(Isa::Avx512Ifma)] = &detail::kAvx512IfmaKernels;
#endif
    for (std::size_t i = 0; i < kNumIsas; ++i) {
      if (!isa_supported(static_cast<Isa>(i))) t[i] = nullptr;
    }
    return t;
  }();
  const auto i = static_cast<std::size_t>(isa);
  if (i >= kNumIsas || tiers[i] == nullptr) {
    throw std::invalid_argument(std::string("forced ISA ") + isa_name(isa) +
                                " is not supported on this host");
  }
  return *tiers[i];
}

// The 128-bit lazy sum of every tier but IFMA's 52-bit bodies: for each
// block of coefficients, add(t, base, len, lo, hi) adds row t into SoA
// 128-bit accumulators; one Barrett reduction per coefficient at the end,
// and an early one wherever the next row could overflow 128 bits (a folded
// residue counts as one row).
template <typename Add>
void lazy_sum128(std::size_t rows, std::size_t n, u64 q, int bits_a, int bits_b, u64* out,
                 Add&& add) {
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
      add(t, base, len, lo, hi);
      ++pending;
    }
    for (std::size_t k = 0; k < len; ++k) {
      out[base + k] = mod.reduce((u128{hi[k]} << 64) | lo[k]);
    }
  }
}

}  // namespace

void ntt_forward_lazy(const NttTables& t, u64* a, Isa isa) {
  const detail::Kernels& k = kernels(isa);
  note_dispatch(Kern::NttFwd, isa);
  (k.ntt_forward52 != nullptr && t.q < kIfmaModulusBound ? k.ntt_forward52 : k.ntt_forward)(t, a);
}

void ntt_inverse_lazy(const NttTables& t, u64* a, u64 ninv_op, u64 ninv_quot, Isa isa) {
  const detail::Kernels& k = kernels(isa);
  note_dispatch(Kern::NttInv, isa);
  (k.ntt_inverse52 != nullptr && t.q < kIfmaModulusBound ? k.ntt_inverse52 : k.ntt_inverse)(
      t, a, ninv_op, ninv_quot);
}

void mul_sum(const u64* const* a, const u64* const* b, std::size_t rows, std::size_t n, u64 q,
             u64* out, Isa isa) {
  const detail::Kernels& k = kernels(isa);
  note_dispatch(Kern::MulAcc, isa);
  if (k.mul_sum52 != nullptr && q < kIfmaModulusBound) return k.mul_sum52(a, b, rows, n, q, out);
  const int bits = std::bit_width(q);
  lazy_sum128(rows, n, q, bits, bits, out,
              [&](std::size_t t, std::size_t base, std::size_t len, u64* lo, u64* hi) {
                k.mul_accumulate(a[t] + base, b[t] + base, 1, len, lo, hi);
              });
}

void weighted_sum(const u64* const* x, const u64* w, std::size_t rows, std::size_t n, u64 q,
                  u64 x_bound, u64* out, Isa isa) {
  const detail::Kernels& k = kernels(isa);
  note_dispatch(Kern::WeightedSum, isa);
  if (k.weighted_sum52 != nullptr && q < kIfmaModulusBound && x_bound <= kIfmaModulusBound) {
    return k.weighted_sum52(x, w, rows, n, q, out);
  }
  lazy_sum128(rows, n, q, std::bit_width(x_bound - 1), std::bit_width(q), out,
              [&](std::size_t t, std::size_t base, std::size_t len, u64* lo, u64* hi) {
                k.mul_accumulate(x[t] + base, w + t, 0, len, lo, hi);
              });
}

void sub_mul_shoup(const u64* x, const u64* y, std::size_t n, u64 w_op, u64 w_quot, u64 q,
                   u64* out, Isa isa) {
  const detail::Kernels& k = kernels(isa);
  note_dispatch(Kern::SubMulShoup, isa);
  (k.sub_mul_shoup52 != nullptr && q < kIfmaModulusBound ? k.sub_mul_shoup52 : k.sub_mul_shoup)(
      x, y, n, w_op, w_quot, q, out);
}

void lift_signed(const std::int64_t* x, std::size_t n, u64 q, u64* out, Isa isa) {
  kernels(isa).lift_signed(x, n, q, out);
}

void sub_scaled(u64* acc, const u64* row, u64 d, std::size_t n, Isa isa) {
  kernels(isa).sub_scaled(acc, row, d, n);
}

void ntt_forward_narrow(const NttTables32& t, u32* a, Isa isa) {
  const detail::Kernels& k = kernels(isa);
  note_dispatch(Kern::NttFwdNarrow, isa);
  k.ntt_forward_narrow(t, a);
}

void ntt_inverse_narrow(const NttTables32& t, u32* a, u32 ninv_op, u32 ninv_quot, Isa isa) {
  const detail::Kernels& k = kernels(isa);
  note_dispatch(Kern::NttInvNarrow, isa);
  k.ntt_inverse_narrow(t, a, ninv_op, ninv_quot);
}

void mul_sum_narrow(const u32* const* a, const u32* const* b, std::size_t rows, std::size_t n,
                    u32 q, u32* out, Isa isa) {
  const detail::Kernels& k = kernels(isa);
  note_dispatch(Kern::MulSumNarrow, isa);
  if (q < 2 || q > kMaxNarrowModulus) {
    throw std::invalid_argument("mul_sum_narrow: modulus must be in [2, 2^30)");
  }
  k.mul_sum_narrow(a, b, rows, n, q, out);
}

void gadget_residues_narrow(const u64* src, std::size_t n, u64 offset, int bg_bits,
                            std::size_t levels, const NarrowCrt& crt, u32* dst, Isa isa) {
  kernels(isa).gadget_residues_narrow(src, n, offset, bg_bits, levels, crt, dst);
}

void crt_lift_add_narrow(const u32* lo, const u32* hi, std::size_t n, const NarrowCrt& crt,
                         u64* dst, Isa isa) {
  kernels(isa).crt_lift_add_narrow(lo, hi, n, crt, dst);
}

void detail::mul_accumulate(const u64* a, const u64* b, std::size_t b_stride, std::size_t n,
                            u64* acc_lo, u64* acc_hi, Isa isa) {
  kernels(isa).mul_accumulate(a, b, b_stride, n, acc_lo, acc_hi);
}

}  // namespace alchemist::simd
