// Residue number system (RNS) polynomials and base conversion.
//
// Arithmetic FHE splits a big-modulus polynomial ring R_Q (Q hundreds to
// thousands of bits) into parallel channels modulo word-sized primes q_i.
// This file provides:
//   * RnsPoly      — a polynomial held as per-channel residue vectors, with a
//                    coefficient/NTT form flag;
//   * BConv        — fast RNS basis conversion (Eq. 1 of the paper),
//                    coefficient form in, NTT form out;
//   * modup        — extend one digit group to a larger basis (Eq. 2);
//   * moddown      — divide-and-round back from Q·P to Q (Eq. 3).
// modup and moddown take and return NTT form: only the channels BConv
// reads leave the NTT domain, and each converted channel is NTT'd as soon
// as BConv has summed it.
//
// The Bconv here is the standard fast (HPS-style) conversion without the
// gamma-correction: the output can carry a small multiple of Q. CKKS absorbs
// that as keyswitching noise, which is exactly how the accelerator treats it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/modarith.h"

namespace alchemist {

class RnsPoly {
 public:
  enum class Form { Coeff, Ntt };

  RnsPoly() = default;
  RnsPoly(std::size_t n, std::vector<u64> moduli, Form form = Form::Coeff);

  std::size_t degree() const { return n_; }
  std::size_t num_channels() const { return channels_.size(); }
  Form form() const { return form_; }
  bool is_ntt() const { return form_ == Form::Ntt; }

  const std::vector<u64>& moduli() const { return moduli_values_; }
  const Modulus& channel_modulus(std::size_t i) const { return moduli_[i]; }
  std::span<u64> channel(std::size_t i) { return channels_[i]; }
  std::span<const u64> channel(std::size_t i) const { return channels_[i]; }

  // Form conversions run one (inverse) NTT per channel.
  void to_ntt();
  void to_coeff();

  // Elementwise ring arithmetic. Operands must share degree, basis and form;
  // multiplication additionally requires NTT form.
  RnsPoly& operator+=(const RnsPoly& other);
  RnsPoly& operator-=(const RnsPoly& other);
  RnsPoly& operator*=(const RnsPoly& other);
  friend RnsPoly operator+(RnsPoly a, const RnsPoly& b) { return a += b; }
  friend RnsPoly operator-(RnsPoly a, const RnsPoly& b) { return a -= b; }
  friend RnsPoly operator*(RnsPoly a, const RnsPoly& b) { return a *= b; }
  RnsPoly& negate();

  // Multiply channel i by scalar[i] (one scalar per channel).
  RnsPoly& mul_scalar(std::span<const u64> scalar_per_channel);
  // Multiply every channel by the same small integer (reduced per channel).
  RnsPoly& mul_scalar(u64 scalar);
  // Add the constant polynomial with residue scalar[i] in channel i, which in
  // NTT form is that residue in every slot. Requires NTT form.
  RnsPoly& add_scalar(std::span<const u64> scalar_per_channel);

  // Keep only the first `count` channels (level drop / rescale tail).
  void drop_channels_to(std::size_t count);
  // Extract a sub-poly holding channels [first, first+count).
  RnsPoly extract_channels(std::size_t first, std::size_t count) const;
  // Insert the channels of `other` (same degree and form) before channel
  // `pos`; pos = num_channels() appends.
  void insert_channels(std::size_t pos, const RnsPoly& other);

  // Galois automorphism X -> X^g (g odd). Coefficient form folds indices
  // with a sign; NTT form is a slot permutation (get_ntt_automorphism in
  // poly/ntt.h) and runs no transform.
  RnsPoly automorphism(u64 galois_elt) const;

  bool operator==(const RnsPoly& other) const;

 private:
  void check_compatible(const RnsPoly& other, const char* op) const;

  std::size_t n_ = 0;
  Form form_ = Form::Coeff;
  std::vector<Modulus> moduli_;
  std::vector<u64> moduli_values_;
  std::vector<std::vector<u64>> channels_;
};

// Fast RNS base conversion from a source basis to a target basis (Eq. 1):
//   [x]_{p_j} ≈ sum_i [[x]_{q_i} · q̂_i^{-1}]_{q_i} · q̂_i  (mod p_j)
// where q̂_i = (prod_k q_k) / q_i. Output may exceed the exact value by a
// small multiple of Q (fast conversion, no correction). Both callers need
// the result in NTT form, so each output channel is forward-NTT'd right
// after its weighted sum, while it is still in cache.
class BConv {
 public:
  BConv(std::vector<u64> source_moduli, std::vector<u64> target_moduli);

  const std::vector<u64>& source() const { return source_; }
  const std::vector<u64>& target() const { return target_; }

  // x must be in coefficient form over exactly the source basis; the
  // result is in NTT form over the target basis.
  RnsPoly apply(const RnsPoly& x) const;

 private:
  std::vector<u64> source_;
  std::vector<u64> target_;
  std::vector<MulModShoup> qhat_inv_mod_qi_;   // [L]
  std::vector<std::vector<u64>> qhat_mod_pj_;  // [K][L]
};

// Eq. 2: extend x (NTT form), whose basis is the run
// basis[first, first + x.num_channels()), to every channel of `basis`, in
// NTT form. x's own channels are copied unchanged; the others come from one
// BConv of x's inverse NTT. With first = 0 and basis = Q ∪ P this is the
// classic [x]_Q -> [x]_{Q·P}; the hybrid keyswitch calls it once per digit
// group of the extended basis. A call runs count inverse and
// basis.size() − count forward NTTs. Throws std::invalid_argument on
// coefficient-form input or if x's basis is not that run.
RnsPoly modup(const RnsPoly& x, const std::vector<u64>& basis, std::size_t first);

// Eq. 3: given [x]_{Q·P} (NTT form, with the K special channels last),
// return ([x] - Bconv([x]_P)) · P^{-1} over Q in NTT form — i.e.
// round(x / P) up to the fast-conversion error. Only the K channels of P
// leave the NTT domain: they are inverse-NTT'd and BConv'd to Q, and the
// converted (NTT-form) channels are subtracted in the NTT domain, so one
// call runs K inverse and L forward NTTs. A rescale is this with K = 1 and
// P = q_{l-1}. Throws std::invalid_argument on coefficient-form input.
RnsPoly moddown(const RnsPoly& x, std::size_t num_special);

}  // namespace alchemist
