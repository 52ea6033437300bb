// SIMD substrate for the modular-arithmetic hot path.
//
// Every kernel here exists in up to four tiers — portable scalar, AVX2,
// AVX-512 and AVX-512 IFMA — that give *bit-identical* outputs: the lazy
// Harvey butterfly over [0, 4q)/[0, 2q), the Shoup twiddle multiply, and
// the lazily reduced sums behind weighted_sum (BConv) and mul_sum (CKKS
// DecompPolyMult, poly/lazy_kernels.h).
//
// The scalar, AVX2 and AVX-512 bodies replay the exact scalar operation
// sequence modulo 2^64 (64x64 high/low products in lanes, 128-bit
// accumulators), so their lazy intermediates match too. The IFMA tier runs
// the same algorithms on 52-bit words with vpmadd52lo/hi: Shoup quotients
// floor(w << 52 / q) (the 64-bit table quotient shifted right by 12), and a
// multiply-accumulate whose split low/high 52-bit halves fold every 15 rows
// as hi * (2^52 mod q) + lo. Its lazy intermediates differ from the 64-bit
// ones, but every output is the same canonical residue. It needs every lazy
// value (< 4q) and every MAC operand below 2^52, so the dispatcher runs it
// only for moduli below 2^50; larger moduli (and the narrow and 128-bit
// accumulate kernels, which it does not replace) run the AVX-512 bodies
// under the IFMA tier. The eager and scalar-lazy paths stay the pinned
// references every tier is provable against (tests sweep the (q, N) matrix
// up to near-kMaxModulus moduli and across the 2^50 boundary).
//
// The narrow kernels run the same lazy transforms on 32-bit words for
// primes q < 2^30, so every lazy value (< 4q) and every Shoup quotient fits
// one 32x32->64 multiply (vpmuludq), twice as many lanes per vector as the
// 64-bit words. With them comes a narrow multiply-accumulate: products of
// two residues are below 2^60, so up to 15 of them are summed in a u64 and
// folded mod q, without 128-bit accumulators. Two more cut signed gadget
// digits straight into residues mod two such primes and lift residue pairs
// back by CRT. Together they serve the TFHE external product
// (tfhe/torus_poly.h), which works mod two such primes.
//
// Three element-wise passes round them out: the Shoup multiply-and-subtract of
// BConv's x·q̂⁻¹ and Moddown's (x − conv)·P⁻¹ passes, the signed lift of
// rounded CKKS coefficients into a channel, and the LWE keyswitch's wrapping
// row update.
//
// Dispatch is runtime CPU-feature based and resolved once per process:
// explicit set_isa() (the --isa flag) takes precedence, then the
// ALCHEMIST_ISA environment variable, then the best CPUID-supported variant
// compiled into the binary. An unsupported ISA can never be selected:
// set_isa() throws, and an unsupported/unknown ALCHEMIST_ISA falls back to
// the best supported one with a warning. Every kernel has one entry point
// whose last argument names the tier, active_isa() by default; forcing one
// this host cannot run throws std::invalid_argument. Per-kernel dispatch
// counts are exported as substrate.isa* telemetry (obs/substrate_metrics.h);
// they record the selected tier, whichever body the modulus width routes to.
//
// Each kernel is written once, in the private header simd_kernels.h: a scalar
// body, and a vector body over a lane-traits type that each ISA translation
// unit supplies and instantiates into a table of function pointers.
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

enum class Isa : std::uint8_t { Scalar = 0, Avx2, Avx512, Avx512Ifma, kCount };
inline constexpr std::size_t kNumIsas = static_cast<std::size_t>(Isa::kCount);

// Kernel families with per-(kernel, isa) dispatch counters.
// The narrow kernels count apart from the 64-bit ones.
enum class Kern : std::uint8_t {
  NttFwd = 0,
  NttInv,
  WeightedSum,
  MulAcc,
  NttFwdNarrow,
  NttInvNarrow,
  MulSumNarrow,
  SubMulShoup,
  kCount
};
inline constexpr std::size_t kNumKerns = static_cast<std::size_t>(Kern::kCount);

const char* isa_name(Isa isa);    // "scalar" | "avx2" | "avx512" | "avx512ifma"
// "ntt_fwd" | "ntt_inv" | "weighted_sum" | "mul_acc" | "ntt_fwd_narrow" |
// "ntt_inv_narrow" | "mul_sum_narrow" | "sub_mul_shoup"
const char* kern_name(Kern k);

// Parse "scalar" / "avx2" / "avx512" / "avx512ifma" / "native" (= best
// supported).
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
// Records a NttFwd dispatch.
void ntt_forward_lazy(const NttTables& t, std::uint64_t* a, Isa isa = active_isa());

// In-place lazy inverse (Gentleman-Sande, bit-reversed in, natural out).
// `t` holds the inverse twiddles; (ninv_op, ninv_quot) is the Shoup pair of
// N^{-1} applied in the canonicalizing final pass. Records a NttInv dispatch.
void ntt_inverse_lazy(const NttTables& t, std::uint64_t* a, std::uint64_t ninv_op,
                      std::uint64_t ninv_quot, Isa isa = active_isa());

// True iff `terms` products of values below 2^bits_a * 2^bits_b can be
// accumulated in 128 bits without overflow: the headroom rule of the
// 128-bit sums below.
bool lazy_accumulation_fits(std::size_t terms, int bits_a, int bits_b);

// out[k] = sum_t a[t][k] * b[t][k] mod q, canonical, for k in [0, n) and
// t in [0, rows): the DecompPolyMult accumulation, and with one row the
// pointwise product. Every a[t][k], b[t][k] is below q <= kMaxModulus.
// Reduces once per coefficient, folding early only where the accumulator's
// headroom is spent. `out` may alias a[t] or b[t] (same coefficient in,
// same coefficient out). Records one MulAcc dispatch per call.
void mul_sum(const std::uint64_t* const* a, const std::uint64_t* const* b, std::size_t rows,
             std::size_t n, std::uint64_t q, std::uint64_t* out, Isa isa = active_isa());

// out[k] = sum_t w[t] * x[t][k] mod q, canonical: one BConv output channel,
// or one channel of a linear combination of ciphertexts. Every w[t] is
// below q <= kMaxModulus and every x[t][k] below x_bound <= kMaxModulus + 1
// (BConv's inputs are residues mod the source primes, not mod q). Records
// one WeightedSum dispatch per call.
void weighted_sum(const std::uint64_t* const* x, const std::uint64_t* w, std::size_t rows,
                  std::size_t n, std::uint64_t q, std::uint64_t x_bound, std::uint64_t* out,
                  Isa isa = active_isa());

// out[k] = (x[k] - y[k]) * w mod q, canonical, for k in [0, n), a null y
// read as zeros: BConv's x·q̂⁻¹ pass (no y) and Moddown's (x − conv)·P⁻¹.
// Every x[k], y[k] is below q <= kMaxModulus, and (w_op, w_quot) is the
// Shoup pair of some w < q (MulModShoup's operand and quotient), so a call
// divides nothing. `out` may alias x or y. Records one SubMulShoup dispatch
// per call.
void sub_mul_shoup(const std::uint64_t* x, const std::uint64_t* y, std::size_t n,
                   std::uint64_t w_op, std::uint64_t w_quot, std::uint64_t q, std::uint64_t* out,
                   Isa isa = active_isa());

// out[k] = x[k] mod q, canonical, for k in [0, n): signed coefficients with
// |x[k]| < 2^62 lifted into one channel of modulus q <= kMaxModulus. `out`
// must not overlap x. Records no dispatch.
void lift_signed(const std::int64_t* x, std::size_t n, std::uint64_t q, std::uint64_t* out,
                 Isa isa = active_isa());

// acc[k] -= d * row[k] mod 2^64 for k in [0, n): one row update of the LWE
// keyswitch on torus words. Records no dispatch.
void sub_scaled(std::uint64_t* acc, const std::uint64_t* row, std::uint64_t d, std::size_t n,
                Isa isa = active_isa());

// Narrow words. A Shoup twiddle table for a prime q < 2^30 in the layout of
// NttTables; quotients are floor(w << 32 / q).
inline constexpr std::uint32_t kMaxNarrowModulus = (std::uint32_t{1} << 30) - 1;

struct NttTables32 {
  const std::uint32_t* w_op;
  const std::uint32_t* w_quot;
  std::uint32_t q;
  std::size_t n;  // power of two
};

// The transforms of ntt_forward_lazy / ntt_inverse_lazy on 32-bit words,
// lazy values below 4q < 2^32 in between. The forward transform takes any
// input below 4q (its first butterflies fold it), the inverse canonical
// input; both give canonical [0, q) output. Each call records one
// NttFwdNarrow / NttInvNarrow dispatch.
void ntt_forward_narrow(const NttTables32& t, std::uint32_t* a, Isa isa = active_isa());
void ntt_inverse_narrow(const NttTables32& t, std::uint32_t* a, std::uint32_t ninv_op,
                        std::uint32_t ninv_quot, Isa isa = active_isa());

// out[k] = sum_t a[t][k] * b[t][k] mod q, canonical, for k in [0, n) and
// t in [0, rows): the narrow DecompPolyMult. Every a[t][k], b[t][k] is below
// q <= kMaxNarrowModulus. Records one MulSumNarrow dispatch per call.
void mul_sum_narrow(const std::uint32_t* const* a, const std::uint32_t* const* b,
                    std::size_t rows, std::size_t n, std::uint32_t q, std::uint32_t* out,
                    Isa isa = active_isa());

// Two narrow primes q1 > q2 with q1 < 2 q2, and the constants of the
// centred Garner lift mod Q = q1 * q2: the integer x with |x| < Q/2 and
// residues (r1, r2) is r1 + q1 * ((r2 - r1) * q1^-1 mod q2), less Q when
// that exceeds Q/2.
struct NarrowCrt {
  std::uint32_t q1, q2;
  std::uint32_t q1_inv, q1_inv_quot;  // q1^-1 mod q2 and its Shoup quotient
  std::uint64_t q;                    // q1 * q2
  // Throws std::invalid_argument unless q2 < q1 < 2 q2, q1 <= kMaxNarrowModulus
  // and q1, q2 are coprime.
  NarrowCrt(std::uint32_t q1, std::uint32_t q2);
};

// Signed base-2^bg_bits digits of 64-bit words as residues mod q1 and q2:
// with s = src[k] + offset, digit i in [0, levels) is
// ((s >> (64 - (i+1) * bg_bits)) mod 2^bg_bits) - 2^(bg_bits-1), and its
// residue mod q_j goes to dst[(2 * i + j) * n + k], j = 0 for q1. Needs
// levels * bg_bits <= 63 and 2^(bg_bits-1) < q2. Records no dispatch.
void gadget_residues_narrow(const std::uint64_t* src, std::size_t n, std::uint64_t offset,
                            int bg_bits, std::size_t levels, const NarrowCrt& crt,
                            std::uint32_t* dst, Isa isa = active_isa());

// dst[k] += x_lo + 2^32 * x_hi mod 2^64 for k in [0, n), where x_lo is the
// centred lift of the canonical residues (lo[k] mod q1, lo[n + k] mod q2),
// and x_hi likewise from hi. Records no dispatch.
void crt_lift_add_narrow(const std::uint32_t* lo, const std::uint32_t* hi, std::size_t n,
                         const NarrowCrt& crt, std::uint64_t* dst, Isa isa = active_isa());

namespace detail {
// acc128[k] += a[k] * b[k * b_stride] for k in [0, n), accumulators split SoA
// as (acc_hi[k], acc_lo[k]): one row of the 128-bit lazy sums behind mul_sum
// (b_stride 1) and weighted_sum (b_stride 0, one weight per row). Records no
// dispatch. Every tier from AVX-512 up runs the AVX-512 body.
void mul_accumulate(const std::uint64_t* a, const std::uint64_t* b, std::size_t b_stride,
                    std::size_t n, std::uint64_t* acc_lo, std::uint64_t* acc_hi, Isa isa);
}  // namespace detail

}  // namespace alchemist::simd
