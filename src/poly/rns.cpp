#include "poly/rns.h"

#include <algorithm>
#include <stdexcept>

#include "common/biguint.h"
#include "common/keyed_cache.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "poly/lazy_kernels.h"
#include "poly/ntt.h"

namespace alchemist {

namespace {

// Fan one flattened [begin, end) range over per-channel contiguous segments:
// f(channel, i_begin, i_end). Keeps the parallel_for chunking on a single
// (channels * n)-sized axis while the inner loops stay tight per channel.
template <typename F>
void for_channel_segments(std::size_t begin, std::size_t end, std::size_t n, F&& f) {
  std::size_t c = begin / n;
  std::size_t i = begin % n;
  while (begin < end) {
    const std::size_t len = std::min(end - begin, n - i);
    f(c, i, i + len);
    begin += len;
    ++c;
    i = 0;
  }
}

using BasisPair = std::pair<std::vector<u64>, std::vector<u64>>;

// A keyswitch converts between the same few bases every call, so the
// BigUInt q̂ tables behind each conversion are built once per
// (source, target) pair.
const BConv& cached_bconv(const std::vector<u64>& source, const std::vector<u64>& target) {
  static KeyedCache<BasisPair, BConv> cache;
  return cache.get(BasisPair{source, target}, source, target);
}

// Moddown from Q·P to Q: the BConv P -> Q and P^{-1} mod each q_i.
struct ModdownTables {
  BConv conv;
  std::vector<MulModShoup> p_inv;

  ModdownTables(const std::vector<u64>& p_moduli, const std::vector<u64>& q_moduli)
      : conv(p_moduli, q_moduli) {
    const BigUInt big_p = BigUInt::product(p_moduli);
    for (u64 q : q_moduli) p_inv.emplace_back(inv_mod(big_p.mod_u64(q), q), q);
  }
};

const ModdownTables& cached_moddown(const std::vector<u64>& p_moduli,
                                    const std::vector<u64>& q_moduli) {
  static KeyedCache<BasisPair, ModdownTables> cache;
  return cache.get(BasisPair{p_moduli, q_moduli}, p_moduli, q_moduli);
}

}  // namespace

RnsPoly::RnsPoly(std::size_t n, std::vector<u64> moduli, Form form)
    : n_(n), form_(form), moduli_values_(std::move(moduli)) {
  if (!is_power_of_two(n)) throw std::invalid_argument("RnsPoly: N must be a power of two");
  if (moduli_values_.empty()) throw std::invalid_argument("RnsPoly: empty basis");
  moduli_.reserve(moduli_values_.size());
  channels_.reserve(moduli_values_.size());
  for (u64 q : moduli_values_) {
    moduli_.emplace_back(q);
    channels_.emplace_back(n, 0);
  }
}

void RnsPoly::to_ntt() {
  if (form_ == Form::Ntt) return;
  // One NTT per RNS channel — the paper's embarrassingly-parallel axis. Each
  // lane times its own chunk, as BConv's fused NTTs do.
  parallel_for(channels_.size(), channel_grain(n_), [&](std::size_t b, std::size_t e) {
    KernelTimer timer(Kernel::NttFwd);
    for (std::size_t i = b; i < e; ++i) {
      get_ntt_table(moduli_values_[i], n_).forward(channels_[i]);
    }
  });
  form_ = Form::Ntt;
}

void RnsPoly::to_coeff() {
  if (form_ == Form::Coeff) return;
  parallel_for(channels_.size(), channel_grain(n_), [&](std::size_t b, std::size_t e) {
    KernelTimer timer(Kernel::NttInv);
    for (std::size_t i = b; i < e; ++i) {
      get_ntt_table(moduli_values_[i], n_).inverse(channels_[i]);
    }
  });
  form_ = Form::Coeff;
}

void RnsPoly::check_compatible(const RnsPoly& other, const char* op) const {
  if (n_ != other.n_ || moduli_values_ != other.moduli_values_ || form_ != other.form_) {
    throw std::invalid_argument(std::string("RnsPoly::") + op +
                                ": degree/basis/form mismatch");
  }
}

RnsPoly& RnsPoly::operator+=(const RnsPoly& other) {
  check_compatible(other, "+=");
  KernelTimer timer(Kernel::Elementwise);
  parallel_for(channels_.size() * n_, kMinChunkCoeffs,
               [&](std::size_t b, std::size_t e) {
    for_channel_segments(b, e, n_, [&](std::size_t c, std::size_t i0, std::size_t i1) {
      const u64 q = moduli_values_[c];
      for (std::size_t i = i0; i < i1; ++i) {
        channels_[c][i] = add_mod(channels_[c][i], other.channels_[c][i], q);
      }
    });
  });
  return *this;
}

RnsPoly& RnsPoly::operator-=(const RnsPoly& other) {
  check_compatible(other, "-=");
  KernelTimer timer(Kernel::Elementwise);
  parallel_for(channels_.size() * n_, kMinChunkCoeffs,
               [&](std::size_t b, std::size_t e) {
    for_channel_segments(b, e, n_, [&](std::size_t c, std::size_t i0, std::size_t i1) {
      const u64 q = moduli_values_[c];
      for (std::size_t i = i0; i < i1; ++i) {
        channels_[c][i] = sub_mod(channels_[c][i], other.channels_[c][i], q);
      }
    });
  });
  return *this;
}

RnsPoly& RnsPoly::operator*=(const RnsPoly& other) {
  check_compatible(other, "*=");
  if (form_ != Form::Ntt) {
    throw std::invalid_argument("RnsPoly::*=: operands must be in NTT form");
  }
  KernelTimer timer(Kernel::Elementwise);
  parallel_for(channels_.size() * n_, kMinChunkCoeffs,
               [&](std::size_t b, std::size_t e) {
    for_channel_segments(b, e, n_, [&](std::size_t c, std::size_t i0, std::size_t i1) {
      // A one-row mul_sum, written back in place.
      u64* x = channels_[c].data() + i0;
      const u64* row_a = x;
      const u64* row_b = other.channels_[c].data() + i0;
      simd::mul_sum(&row_a, &row_b, 1, i1 - i0, moduli_values_[c], x);
    });
  });
  return *this;
}

RnsPoly& RnsPoly::negate() {
  KernelTimer timer(Kernel::Elementwise);
  parallel_for(channels_.size() * n_, kMinChunkCoeffs,
               [&](std::size_t b, std::size_t e) {
    for_channel_segments(b, e, n_, [&](std::size_t c, std::size_t i0, std::size_t i1) {
      const u64 q = moduli_values_[c];
      for (std::size_t i = i0; i < i1; ++i) {
        channels_[c][i] = neg_mod(channels_[c][i], q);
      }
    });
  });
  return *this;
}

RnsPoly& RnsPoly::mul_scalar(std::span<const u64> scalar_per_channel) {
  if (scalar_per_channel.size() != channels_.size()) {
    throw std::invalid_argument("RnsPoly::mul_scalar: scalar count mismatch");
  }
  KernelTimer timer(Kernel::Elementwise);
  parallel_for(channels_.size() * n_, kMinChunkCoeffs,
               [&](std::size_t b, std::size_t e) {
    for_channel_segments(b, e, n_, [&](std::size_t c, std::size_t i0, std::size_t i1) {
      const MulModShoup s(moduli_[c].reduce(scalar_per_channel[c]), moduli_values_[c]);
      for (std::size_t i = i0; i < i1; ++i) channels_[c][i] = s.mul(channels_[c][i]);
    });
  });
  return *this;
}

RnsPoly& RnsPoly::mul_scalar(u64 scalar) {
  KernelTimer timer(Kernel::Elementwise);
  parallel_for(channels_.size() * n_, kMinChunkCoeffs,
               [&](std::size_t b, std::size_t e) {
    for_channel_segments(b, e, n_, [&](std::size_t c, std::size_t i0, std::size_t i1) {
      const MulModShoup s(moduli_[c].reduce(scalar), moduli_values_[c]);
      for (std::size_t i = i0; i < i1; ++i) channels_[c][i] = s.mul(channels_[c][i]);
    });
  });
  return *this;
}

RnsPoly& RnsPoly::add_scalar(std::span<const u64> scalar_per_channel) {
  if (scalar_per_channel.size() != channels_.size()) {
    throw std::invalid_argument("RnsPoly::add_scalar: scalar count mismatch");
  }
  if (form_ != Form::Ntt) {
    throw std::invalid_argument("RnsPoly::add_scalar: operand must be in NTT form");
  }
  KernelTimer timer(Kernel::Elementwise);
  parallel_for(channels_.size() * n_, kMinChunkCoeffs,
               [&](std::size_t b, std::size_t e) {
    for_channel_segments(b, e, n_, [&](std::size_t c, std::size_t i0, std::size_t i1) {
      const u64 q = moduli_values_[c];
      const u64 s = moduli_[c].reduce(scalar_per_channel[c]);
      for (std::size_t i = i0; i < i1; ++i) {
        channels_[c][i] = add_mod(channels_[c][i], s, q);
      }
    });
  });
  return *this;
}

void RnsPoly::drop_channels_to(std::size_t count) {
  if (count == 0 || count > channels_.size()) {
    throw std::invalid_argument("RnsPoly::drop_channels_to: bad count");
  }
  channels_.resize(count);
  moduli_.resize(count);
  moduli_values_.resize(count);
}

RnsPoly RnsPoly::extract_channels(std::size_t first, std::size_t count) const {
  if (count == 0 || first + count > channels_.size()) {
    throw std::invalid_argument("RnsPoly::extract_channels: out of range");
  }
  RnsPoly out;
  out.n_ = n_;
  out.form_ = form_;
  out.moduli_.assign(moduli_.begin() + first, moduli_.begin() + first + count);
  out.moduli_values_.assign(moduli_values_.begin() + first,
                            moduli_values_.begin() + first + count);
  out.channels_.assign(channels_.begin() + first, channels_.begin() + first + count);
  return out;
}

void RnsPoly::insert_channels(std::size_t pos, const RnsPoly& other) {
  if (other.n_ != n_ || other.form_ != form_) {
    throw std::invalid_argument("RnsPoly::insert_channels: degree/form mismatch");
  }
  if (pos > channels_.size()) {
    throw std::invalid_argument("RnsPoly::insert_channels: position out of range");
  }
  moduli_.insert(moduli_.begin() + pos, other.moduli_.begin(), other.moduli_.end());
  moduli_values_.insert(moduli_values_.begin() + pos, other.moduli_values_.begin(),
                        other.moduli_values_.end());
  channels_.insert(channels_.begin() + pos, other.channels_.begin(), other.channels_.end());
}

RnsPoly RnsPoly::automorphism(u64 galois_elt) const {
  if ((galois_elt & 1) == 0) throw std::invalid_argument("automorphism: element must be odd");
  RnsPoly out(n_, moduli_values_, form_);
  if (form_ == Form::Ntt) {
    // A slot permutation, exact mod every q: the evaluation at ψ^(2k+1)
    // moves to the slot of ψ^((2k+1)·g).
    const std::vector<std::uint32_t>& index = get_ntt_automorphism(n_, galois_elt).index;
    KernelTimer timer(Kernel::Elementwise);
    parallel_for(channels_.size() * n_, kMinChunkCoeffs,
                 [&](std::size_t b, std::size_t e) {
      for_channel_segments(b, e, n_, [&](std::size_t c, std::size_t i0, std::size_t i1) {
        const u64* in = channels_[c].data();
        u64* dst = out.channels_[c].data();
        for (std::size_t i = i0; i < i1; ++i) dst[i] = in[index[i]];
      });
    });
    return out;
  }
  const u64 two_n = 2 * static_cast<u64>(n_);
  // Scatter indices hit every output slot of a channel, so the parallel axis
  // is whole channels only.
  parallel_for(channels_.size(), channel_grain(n_), [&](std::size_t b, std::size_t e) {
    for (std::size_t c = b; c < e; ++c) {
      const u64 q = moduli_values_[c];
      for (std::size_t i = 0; i < n_; ++i) {
        const u64 idx = (static_cast<u64>(i) * galois_elt) % two_n;
        const u64 v = channels_[c][i];
        if (idx < n_) {
          out.channels_[c][idx] = add_mod(out.channels_[c][idx], v, q);
        } else {
          out.channels_[c][idx - n_] = sub_mod(out.channels_[c][idx - n_], v, q);
        }
      }
    }
  });
  return out;
}

bool RnsPoly::operator==(const RnsPoly& other) const {
  return n_ == other.n_ && form_ == other.form_ &&
         moduli_values_ == other.moduli_values_ && channels_ == other.channels_;
}

BConv::BConv(std::vector<u64> source_moduli, std::vector<u64> target_moduli)
    : source_(std::move(source_moduli)), target_(std::move(target_moduli)) {
  if (source_.empty() || target_.empty()) {
    throw std::invalid_argument("BConv: empty basis");
  }
  const BigUInt big_q = BigUInt::product(source_);
  qhat_inv_mod_qi_.resize(source_.size());
  qhat_mod_pj_.assign(target_.size(), std::vector<u64>(source_.size()));
  for (std::size_t i = 0; i < source_.size(); ++i) {
    const BigUInt qhat = big_q.div_u64(source_[i], /*require_exact=*/true);
    qhat_inv_mod_qi_[i] =
        MulModShoup(inv_mod(qhat.mod_u64(source_[i]), source_[i]), source_[i]);
    for (std::size_t j = 0; j < target_.size(); ++j) {
      qhat_mod_pj_[j][i] = qhat.mod_u64(target_[j]);
    }
  }
}

RnsPoly BConv::apply(const RnsPoly& x) const {
  if (x.is_ntt()) throw std::invalid_argument("BConv: input must be in coefficient form");
  if (x.moduli() != source_) throw std::invalid_argument("BConv: basis mismatch");
  const std::size_t n = x.degree();
  const std::size_t src_count = source_.size();
  const u64 src_bound = *std::max_element(source_.begin(), source_.end());

  // v_i = [x_i * q̂_i^{-1}]_{q_i}, shared across all target channels; each
  // source channel is independent, and q̂_i^{-1} is a Shoup constant.
  std::vector<std::vector<u64>> v(src_count, std::vector<u64>(n));
  std::vector<const u64*> v_ptrs(src_count);
  for (std::size_t i = 0; i < src_count; ++i) v_ptrs[i] = v[i].data();
  parallel_for(src_count, channel_grain(n), [&](std::size_t b, std::size_t e) {
    KernelTimer timer(Kernel::BConv);
    for (std::size_t i = b; i < e; ++i) {
      const MulModShoup& w = qhat_inv_mod_qi_[i];
      simd::sub_mul_shoup(x.channel(i).data(), nullptr, n, w.operand(), w.quotient(), source_[i],
                          v[i].data());
    }
  });

  // The paper's lazy reduction (Table 3): accumulate the L weighted channels
  // in a wide accumulator and reduce once per output coefficient, instead
  // of reducing every product. Where a long chain of 62-bit primes would
  // overflow 128 bits, the kernel folds the partial sum early and stays
  // lazy. Target channels fan out in parallel. Each chunk sums its channels
  // and forward-NTTs them on the same lane while they are still in cache (a
  // chunk is a few channels); the two phases keep their own kernel timers,
  // one each per chunk rather than per channel. The weighted sum's own
  // coefficient split only runs when apply is not already fanned out.
  RnsPoly out(n, target_, RnsPoly::Form::Ntt);
  parallel_for(target_.size(), channel_grain(n), [&](std::size_t b, std::size_t e) {
    {
      KernelTimer timer(Kernel::BConv);
      for (std::size_t j = b; j < e; ++j) {
        weighted_sum_lazy(v_ptrs, qhat_mod_pj_[j], out.channel_modulus(j), out.channel(j),
                          src_bound);
      }
    }
    KernelTimer timer(Kernel::NttFwd);
    for (std::size_t j = b; j < e; ++j) get_ntt_table(target_[j], n).forward(out.channel(j));
  });
  return out;
}

RnsPoly modup(const RnsPoly& x, const std::vector<u64>& basis, std::size_t first) {
  if (!x.is_ntt()) throw std::invalid_argument("modup: input must be in NTT form");
  const std::size_t count = x.num_channels();
  if (first + count > basis.size() ||
      !std::equal(x.moduli().begin(), x.moduli().end(), basis.begin() + first)) {
    throw std::invalid_argument("modup: x's basis is not a run of the target basis");
  }
  std::vector<u64> others(basis.begin(), basis.begin() + first);
  others.insert(others.end(), basis.begin() + first + count, basis.end());
  // Only x's own channels leave the NTT domain, as BConv's input. The
  // converted channels come back in NTT form and x's go in unchanged.
  RnsPoly x_coeff = x;
  x_coeff.to_coeff();
  RnsPoly out = cached_bconv(x.moduli(), others).apply(x_coeff);
  out.insert_channels(first, x);
  return out;
}

RnsPoly moddown(const RnsPoly& x, std::size_t num_special) {
  if (!x.is_ntt()) throw std::invalid_argument("moddown: input must be in NTT form");
  if (num_special == 0 || num_special >= x.num_channels()) {
    throw std::invalid_argument("moddown: bad special count");
  }
  const std::size_t num_q = x.num_channels() - num_special;
  std::vector<u64> q_moduli(x.moduli().begin(), x.moduli().begin() + num_q);
  std::vector<u64> p_moduli(x.moduli().begin() + num_q, x.moduli().end());

  // Only the P channels leave the NTT domain: BConv needs their
  // coefficients, and its output comes back NTT'd channel by channel under
  // each q_i. The NTT is linear mod q_i, so the correction is exact there too.
  RnsPoly p_part = x.extract_channels(num_q, num_special);
  p_part.to_coeff();
  const ModdownTables& tables = cached_moddown(p_moduli, q_moduli);
  RnsPoly out = tables.conv.apply(p_part);

  // out_i = (x_i - Bconv(x_P)_i) * P^{-1} mod q_i, in place over the
  // converted channels.
  parallel_for(num_q, channel_grain(x.degree()), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const MulModShoup& p_inv = tables.p_inv[i];
      u64* oi = out.channel(i).data();
      simd::sub_mul_shoup(x.channel(i).data(), oi, x.degree(), p_inv.operand(), p_inv.quotient(),
                          q_moduli[i], oi);
    }
  });
  return out;
}

}  // namespace alchemist
