// SIMD substrate for the modular-arithmetic hot path.
//
// Every kernel here exists in three variants — portable scalar, AVX2 and
// AVX-512 — that are *bit-identical*: the lazy Harvey butterfly over
// [0, 4q)/[0, 2q), the Shoup twiddle multiply (64x64 high/low products in
// lanes), and the 128-bit lazy accumulators behind weighted_sum (BConv) and
// mul_sum (DecompPolyMult, poly/lazy_kernels.h).
// All SIMD arithmetic replays the exact scalar operation sequence modulo
// 2^64, so the eager and scalar-lazy paths remain pinned references that
// every vector variant is provable against (tests sweep the (q, N) matrix
// up to near-kMaxModulus moduli).
//
// Dispatch is runtime CPU-feature based and resolved once per process:
// explicit set_isa() (the --isa flag) takes precedence, then the
// ALCHEMIST_ISA environment variable, then the best CPUID-supported variant
// compiled into the binary. An unsupported ISA can never be selected:
// set_isa() throws, and an unsupported/unknown ALCHEMIST_ISA falls back to
// the best supported one with a warning. Per-kernel dispatch counts are
// exported as substrate.isa* telemetry (obs/substrate_metrics.h).
//
// This header is deliberately dependency-free (no modarith.h, no STL
// containers in the API): the AVX2/AVX-512 translation units are compiled
// with per-file -m flags, and must not instantiate header inlines that the
// linker could then pick for non-SIMD hosts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace alchemist::simd {

enum class Isa : std::uint8_t { Scalar = 0, Avx2 = 1, Avx512 = 2 };
inline constexpr std::size_t kNumIsas = 3;

// Kernel families with per-(kernel, isa) dispatch counters.
enum class Kern : std::uint8_t { NttFwd = 0, NttInv, WeightedSum, MulAcc, kCount };
inline constexpr std::size_t kNumKerns = 4;

const char* isa_name(Isa isa);    // "scalar" | "avx2" | "avx512"
// "ntt_fwd" | "ntt_inv" | "weighted_sum" | "mul_acc"
const char* kern_name(Kern k);

// Parse "scalar" / "avx2" / "avx512" / "native" (= best supported).
// Throws std::invalid_argument on anything else.
Isa parse_isa(const std::string& name);

bool isa_compiled(Isa isa);   // variant built into this binary
bool isa_supported(Isa isa);  // compiled AND allowed by CPUID
Isa best_supported_isa();     // highest supported variant (>= Scalar)

// The process-wide selection. First call resolves ALCHEMIST_ISA (or CPUID);
// later calls are a relaxed atomic load.
Isa active_isa();
// Override the selection (CLI --isa). Throws std::invalid_argument if the
// variant is not compiled in or not supported by this CPU.
void set_isa(Isa isa);

// Cumulative dispatches of kernel `k` through ISA `isa` since process start.
std::uint64_t dispatch_count(Kern k, Isa isa);
// Record one dispatch (public so composite kernels like weighted_sum count
// once per call, not once per inner accumulation).
void note_dispatch(Kern k, Isa isa);

// SoA view of a Shoup twiddle table in bit-reversed order (index m + i),
// shared by every ISA variant of the transforms. `q` must satisfy
// q <= kMaxModulus < 2^62 so lazy values below 4q never wrap.
struct NttTables {
  const std::uint64_t* w_op;    // twiddle operands
  const std::uint64_t* w_quot;  // floor(w << 64 / q) Shoup quotients
  std::uint64_t q;
  std::size_t n;                // power of two
};

// In-place Harvey lazy forward negacyclic NTT (Cooley-Tukey, natural in,
// bit-reversed out): coefficients in [0, q) in, canonical [0, q) out.
// The dispatching overload records a NttFwd dispatch; the forced-ISA
// overload (tests, per-ISA benches) throws if `isa` is unsupported.
void ntt_forward_lazy(const NttTables& t, std::uint64_t* a);
void ntt_forward_lazy(const NttTables& t, std::uint64_t* a, Isa isa);

// In-place lazy inverse (Gentleman-Sande, bit-reversed in, natural out).
// `t` holds the inverse twiddles; (ninv_op, ninv_quot) is the Shoup pair of
// N^{-1} applied in the canonicalizing final pass.
void ntt_inverse_lazy(const NttTables& t, std::uint64_t* a,
                      std::uint64_t ninv_op, std::uint64_t ninv_quot);
void ntt_inverse_lazy(const NttTables& t, std::uint64_t* a,
                      std::uint64_t ninv_op, std::uint64_t ninv_quot, Isa isa);

// acc128[k] += w * x[k] for k in [0, n), accumulators split SoA as
// (acc_hi[k], acc_lo[k]). One Bconv input channel folded into a blocked
// accumulator; never records a dispatch itself (weighted_sum counts once per
// kernel call).
void weighted_accumulate(const std::uint64_t* x, std::uint64_t w, std::size_t n,
                         std::uint64_t* acc_lo, std::uint64_t* acc_hi);
void weighted_accumulate(const std::uint64_t* x, std::uint64_t w, std::size_t n,
                         std::uint64_t* acc_lo, std::uint64_t* acc_hi, Isa isa);

// acc128[k] += a[k] * b[k] for k in [0, n), same SoA accumulators: one
// term of an NTT-domain sum of pointwise products, reduced once per
// coefficient after the last term (DecompPolyMult). Never records a dispatch
// itself; mul_sum counts MulAcc once per call.
void mul_accumulate(const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
                    std::uint64_t* acc_lo, std::uint64_t* acc_hi);
void mul_accumulate(const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
                    std::uint64_t* acc_lo, std::uint64_t* acc_hi, Isa isa);

namespace detail {
// Per-ISA entry points. The scalar ones always exist; the AVX ones are
// compiled only when the toolchain supports the per-file flags
// (ALCHEMIST_SIMD_AVX2 / ALCHEMIST_SIMD_AVX512) and must only be called
// behind an isa_supported() check.
void ntt_forward_lazy_scalar(const NttTables& t, std::uint64_t* a);
void ntt_inverse_lazy_scalar(const NttTables& t, std::uint64_t* a,
                             std::uint64_t ninv_op, std::uint64_t ninv_quot);
void weighted_accumulate_scalar(const std::uint64_t* x, std::uint64_t w, std::size_t n,
                                std::uint64_t* acc_lo, std::uint64_t* acc_hi);
void mul_accumulate_scalar(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n, std::uint64_t* acc_lo, std::uint64_t* acc_hi);

void ntt_forward_lazy_avx2(const NttTables& t, std::uint64_t* a);
void ntt_inverse_lazy_avx2(const NttTables& t, std::uint64_t* a,
                           std::uint64_t ninv_op, std::uint64_t ninv_quot);
void weighted_accumulate_avx2(const std::uint64_t* x, std::uint64_t w, std::size_t n,
                              std::uint64_t* acc_lo, std::uint64_t* acc_hi);
void mul_accumulate_avx2(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n, std::uint64_t* acc_lo, std::uint64_t* acc_hi);

void ntt_forward_lazy_avx512(const NttTables& t, std::uint64_t* a);
void ntt_inverse_lazy_avx512(const NttTables& t, std::uint64_t* a,
                             std::uint64_t ninv_op, std::uint64_t ninv_quot);
void weighted_accumulate_avx512(const std::uint64_t* x, std::uint64_t w, std::size_t n,
                                std::uint64_t* acc_lo, std::uint64_t* acc_hi);
void mul_accumulate_avx512(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n, std::uint64_t* acc_lo, std::uint64_t* acc_hi);
}  // namespace detail

}  // namespace alchemist::simd
