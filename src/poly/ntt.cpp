#include "poly/ntt.h"

#include <stdexcept>
#include <utility>

#include "common/keyed_cache.h"
#include "common/primes.h"

namespace alchemist {

namespace {

int log2_exact(std::size_t n) {
  int log = 0;
  while ((std::size_t{1} << log) < n) ++log;
  if ((std::size_t{1} << log) != n) throw std::invalid_argument("NTT size must be a power of two");
  return log;
}

}  // namespace

NttTable::NttTable(u64 q, std::size_t n)
    : mod_(q), n_(n), log_n_(log2_exact(n)), n_inv_() {
  psi_ = primitive_root_2n(q, n);
  const u64 psi_inv = inv_mod(psi_, q);

  root_powers_.resize(n);
  inv_root_powers_.resize(n);
  w_op_.resize(n);
  w_quot_.resize(n);
  inv_w_op_.resize(n);
  inv_w_quot_.resize(n);
  u64 power = 1;
  u64 inv_power = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t rev = bit_reverse(i, log_n_);
    root_powers_[rev] = MulModShoup(power, q);
    inv_root_powers_[rev] = MulModShoup(inv_power, q);
    w_op_[rev] = root_powers_[rev].operand();
    w_quot_[rev] = root_powers_[rev].quotient();
    inv_w_op_[rev] = inv_root_powers_[rev].operand();
    inv_w_quot_[rev] = inv_root_powers_[rev].quotient();
    power = mul_mod(power, psi_, q);
    inv_power = mul_mod(inv_power, psi_inv, q);
  }
  n_inv_ = MulModShoup(inv_mod(static_cast<u64>(n), q), q);
}

NarrowNttTable::NarrowNttTable(std::uint32_t q, std::size_t n) : q_(q), n_(n) {
  if (q > simd::kMaxNarrowModulus) {
    throw std::invalid_argument("NarrowNttTable: modulus must be below 2^30");
  }
  const int log_n = log2_exact(n);
  const u64 psi = primitive_root_2n(q, n);
  const u64 psi_inv = inv_mod(psi, q);
  // Shoup pair of w < q on 32-bit words: (w, floor(w * 2^32 / q)).
  auto quot = [q](u64 w) { return static_cast<std::uint32_t>((w << 32) / q); };
  w_op_.resize(n);
  w_quot_.resize(n);
  inv_w_op_.resize(n);
  inv_w_quot_.resize(n);
  u64 power = 1;
  u64 inv_power = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t rev = bit_reverse(i, log_n);
    w_op_[rev] = static_cast<std::uint32_t>(power);
    w_quot_[rev] = quot(power);
    inv_w_op_[rev] = static_cast<std::uint32_t>(inv_power);
    inv_w_quot_[rev] = quot(inv_power);
    power = mul_mod(power, psi, q);
    inv_power = mul_mod(inv_power, psi_inv, q);
  }
  const u64 n_inv = inv_mod(static_cast<u64>(n), q);
  n_inv_op_ = static_cast<std::uint32_t>(n_inv);
  n_inv_quot_ = quot(n_inv);
}

void NarrowNttTable::forward(std::span<std::uint32_t> a, simd::Isa isa) const {
  if (a.size() != n_) throw std::invalid_argument("NarrowNttTable::forward: size mismatch");
  simd::ntt_forward_narrow(fwd_view(), a.data(), isa);
}

void NarrowNttTable::inverse(std::span<std::uint32_t> a, simd::Isa isa) const {
  if (a.size() != n_) throw std::invalid_argument("NarrowNttTable::inverse: size mismatch");
  simd::ntt_inverse_narrow(inv_view(), a.data(), n_inv_op_, n_inv_quot_, isa);
}

void NttTable::forward(std::span<u64> a, simd::Isa isa) const {
  if (a.size() != n_) throw std::invalid_argument("NttTable::forward: size mismatch");
  // Harvey lazy butterflies: values live in [0, 4q) through the stages with
  // one canonicalizing pass at the end. The kernel itself lives in
  // common/simd.* (scalar / AVX2 / AVX-512 / IFMA, bit-identical); this
  // wrapper only validates and hands over the SoA view.
  simd::ntt_forward_lazy(fwd_view(), a.data(), isa);
}

void NttTable::inverse(std::span<u64> a, simd::Isa isa) const {
  if (a.size() != n_) throw std::invalid_argument("NttTable::inverse: size mismatch");
  // Gentleman-Sande with lazy values in [0, 2q); the final N^{-1} Shoup
  // multiply canonicalizes to [0, q).
  simd::ntt_inverse_lazy(inv_view(), a.data(), n_inv_.operand(), n_inv_.quotient(), isa);
}

void NttTable::forward_eager(std::span<u64> a) const {
  if (a.size() != n_) throw std::invalid_argument("NttTable::forward: size mismatch");
  const u64 q = mod_.value();
  std::size_t t = n_;
  for (std::size_t m = 1; m < n_; m <<= 1) {
    t >>= 1;
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t j1 = 2 * i * t;
      const MulModShoup& s = root_powers_[m + i];
      for (std::size_t j = j1; j < j1 + t; ++j) {
        const u64 u = a[j];
        const u64 v = s.mul(a[j + t]);
        a[j] = add_mod(u, v, q);
        a[j + t] = sub_mod(u, v, q);
      }
    }
  }
}

void NttTable::inverse_eager(std::span<u64> a) const {
  if (a.size() != n_) throw std::invalid_argument("NttTable::inverse: size mismatch");
  const u64 q = mod_.value();
  std::size_t t = 1;
  for (std::size_t m = n_; m > 1; m >>= 1) {
    const std::size_t h = m >> 1;
    std::size_t j1 = 0;
    for (std::size_t i = 0; i < h; ++i) {
      const MulModShoup& s = inv_root_powers_[h + i];
      for (std::size_t j = j1; j < j1 + t; ++j) {
        const u64 u = a[j];
        const u64 v = a[j + t];
        a[j] = add_mod(u, v, q);
        a[j + t] = s.mul(sub_mod(u, v, q));
      }
      j1 += 2 * t;
    }
    t <<= 1;
  }
  for (u64& x : a) x = n_inv_.mul(x);
}

NttAutomorphism::NttAutomorphism(std::size_t n, u64 galois_elt) : index(n) {
  const int log_n = log2_exact(n);
  if ((galois_elt & 1) == 0) {
    throw std::invalid_argument("NttAutomorphism: element must be odd");
  }
  const u64 mask = 2 * static_cast<u64>(n) - 1;
  const u64 g = galois_elt & mask;
  for (std::size_t j = 0; j < n; ++j) {
    const u64 point = ((2 * static_cast<u64>(bit_reverse(j, log_n)) + 1) * g) & mask;
    index[j] = static_cast<std::uint32_t>(bit_reverse(point >> 1, log_n));
  }
}

const NttAutomorphism& get_ntt_automorphism(std::size_t n, u64 galois_elt) {
  static KeyedCache<std::pair<std::size_t, u64>, NttAutomorphism> cache;
  return cache.get({n, galois_elt & (2 * static_cast<u64>(n) - 1)}, n, galois_elt);
}

const NttTable& get_ntt_table(u64 q, std::size_t n) {
  // Reachable from concurrent pool workers and svc::JobRunner jobs.
  static KeyedCache<std::pair<u64, std::size_t>, NttTable> cache;
  return cache.get({q, n}, q, n);
}

}  // namespace alchemist
