// Homomorphic evaluation for RNS-CKKS.
//
// The operator set matches the paper's basic-op benchmark (Table 7):
//   Hadd      -> add / sub
//   Pmult     -> mul_plain (+ rescale)
//   Cmult     -> multiply + relinearize (+ rescale)
//   Keyswitch -> the hybrid keyswitch core (decompose, Modup, DecompPolyMult,
//                Moddown) — Eqs. (1)-(3) and the DecompPolyMult of §2.2
//   Rotation  -> rotate (automorphism + keyswitch)
#pragma once

#include "ckks/ciphertext.h"
#include "ckks/encoder.h"
#include "ckks/keys.h"
#include "ckks/params.h"

namespace alchemist::ckks {

class Evaluator {
 public:
  explicit Evaluator(ContextPtr ctx);

  Ciphertext add(const Ciphertext& a, const Ciphertext& b) const;
  Ciphertext sub(const Ciphertext& a, const Ciphertext& b) const;
  Ciphertext negate(const Ciphertext& a) const;

  Ciphertext add_plain(const Ciphertext& a, const Plaintext& pt) const;
  // Result scale = ct.scale * pt.scale; rescale afterwards.
  Ciphertext mul_plain(const Ciphertext& a, const Plaintext& pt) const;

  // Full ciphertext multiplication with relinearization; result scale is the
  // product of the operand scales. Rescale afterwards.
  Ciphertext multiply(const Ciphertext& a, const Ciphertext& b,
                      const RelinKeys& rk) const;

  // Exact RNS rescale: divide by the last prime of the current basis and drop
  // it. Scale is divided by that prime. A Moddown with P = q_{l-1}: only the
  // dropped channel leaves the NTT domain.
  Ciphertext rescale(const Ciphertext& a) const;

  // Drop to `level` without dividing (modulus switch for level alignment).
  // Copies only the kept channels.
  Ciphertext mod_drop(const Ciphertext& a, std::size_t level) const;

  // Scalar ops. add_scalar keeps the ciphertext scale; mul_scalar multiplies
  // scales. A real value is a per-channel residue op on the NTT-form
  // polynomials (CkksEncoder::constant_residues): no plaintext, no NTT. A
  // non-real value is encoded with encode_constant and applied as a
  // plaintext.
  Ciphertext add_scalar(const Ciphertext& a, std::complex<double> value,
                        const CkksEncoder& encoder) const;
  Ciphertext mul_scalar(const Ciphertext& a, std::complex<double> value,
                        const CkksEncoder& encoder, double scalar_scale) const;

  // Override a scale that drifted from the nominal ladder value. CKKS primes
  // track the scale to within ~2^-20, so forcing the bookkeeping value only
  // injects a relative error of that order; throws if the relative gap
  // exceeds `tolerance` (protecting against real mistakes).
  Ciphertext normalize_scale(const Ciphertext& a, double target,
                             double tolerance = 1e-3) const;
  // The check normalize_scale runs: throws std::invalid_argument unless
  // `scale` and `target` are positive and finite and within `tolerance` of
  // each other, relative to `target`.
  static void check_scale_near(double scale, double target, double tolerance = 1e-3);

  // Bring both operands to the lower of the two levels, normalize scales to
  // match, then multiply + relinearize + rescale. The workhorse of
  // polynomial evaluation and linear transforms.
  Ciphertext mul_aligned(const Ciphertext& a, const Ciphertext& b,
                         const RelinKeys& rk) const;
  // Level-aligned addition (scales must already agree up to normalize).
  Ciphertext add_aligned(const Ciphertext& a, const Ciphertext& b) const;

  // Cyclic left-rotation of the slot vector by `steps`.
  Ciphertext rotate(const Ciphertext& a, int steps, const GaloisKeys& gk) const;
  // Many rotations of the same ciphertext with ONE shared decomposition +
  // Modup (the paper's "Modup hoisting", BSP-L=n+): the per-rotation cost
  // drops to slot permutations + DecompPolyMult + Moddown.
  std::vector<Ciphertext> rotate_hoisted(const Ciphertext& a,
                                         std::span<const int> steps,
                                         const GaloisKeys& gk) const;
  // Complex conjugation of every slot.
  Ciphertext conjugate(const Ciphertext& a, const GaloisKeys& gk) const;

  // Hybrid keyswitch core: given a polynomial d (NTT form, basis of `level`)
  // encrypted under s_from, return the (ks0, ks1) pair under s such that
  // ks0 + ks1*s ≈ d*s_from, in NTT form. Exposed publicly because it *is*
  // the paper's benchmark operator. Throws std::invalid_argument unless d
  // is in NTT form over exactly basis_at(level). At level l with d digits
  // and K special primes it runs d(l+K)+l forward and l+2K inverse NTTs.
  std::pair<RnsPoly, RnsPoly> keyswitch(const RnsPoly& d, std::size_t level,
                                        const KSwitchKey& key) const;

 private:
  void check_compatible(const Ciphertext& a, const Ciphertext& b,
                        const char* op) const;
  Ciphertext apply_galois(const Ciphertext& a, u64 galois_elt,
                          const KSwitchKey& key) const;

  // The hybrid keyswitch pipeline behind keyswitch, apply_galois and
  // rotate_hoisted, in two stages so rotations can share the first.
  // Modup: every digit group of d extended to the keyswitch basis Q·P, in
  // NTT form. Throws std::invalid_argument unless d is in NTT form over
  // exactly basis_at(level).
  std::vector<RnsPoly> modup_digits(const RnsPoly& d, std::size_t level) const;
  // DecompPolyMult of the extended digits (NTT form) with `key`, then
  // Moddown back to the basis of `level`. Throws std::invalid_argument if
  // the key has too few digits or a digit does not span the key basis.
  std::pair<RnsPoly, RnsPoly> mult_moddown(const std::vector<RnsPoly>& digits,
                                           std::size_t level,
                                           const KSwitchKey& key) const;

  ContextPtr ctx_;
};

}  // namespace alchemist::ckks
