#include "tfhe/bootstrap.h"

#include <stdexcept>

#include "common/simd.h"

namespace alchemist::tfhe {

KeySwitchKey make_keyswitch_key(const LweKey& from, const LweKey& to,
                                int base_bits, std::size_t length, double sigma,
                                Rng& rng) {
  KeySwitchKey out;
  out.base_bits = base_bits;
  out.length = length;
  const auto scales = gadget_scales(base_bits, length);
  out.ks.resize(from.s.size());
  for (std::size_t i = 0; i < from.s.size(); ++i) {
    out.ks[i].reserve(length);
    for (std::size_t j = 0; j < length; ++j) {
      // Signed source bits (ternary CKKS secrets) flip the payload sign.
      const Torus payload =
          static_cast<u64>(static_cast<i64>(from.s[i])) * scales[j];
      out.ks[i].push_back(lwe_encrypt(payload, to, sigma, rng));
    }
  }
  return out;
}

LweSample keyswitch(const LweSample& in, const KeySwitchKey& ksk) {
  if (in.dimension() != ksk.ks.size()) {
    throw std::invalid_argument("keyswitch: dimension mismatch");
  }
  if (ksk.ks.empty() || ksk.length == 0) throw std::invalid_argument("keyswitch: empty key");
  for (const auto& rows : ksk.ks) {
    if (rows.size() < ksk.length) throw std::invalid_argument("keyswitch: short key row");
  }
  const std::size_t target_dim = ksk.ks[0][0].dimension();
  const Gadget gadget(ksk.base_bits, ksk.length);
  LweSample out = lwe_trivial(target_dim, in.b);
  std::vector<i64> digits(ksk.length);
  for (std::size_t i = 0; i < in.dimension(); ++i) {
    gadget.decompose(in.a[i], digits.data());
    for (std::size_t j = 0; j < ksk.length; ++j) {
      if (digits[j] == 0) continue;
      // out -= digit * ks[i][j], fused: no scaled copy of the key row.
      const LweSample& row = ksk.ks[i][j];
      const u64 d = static_cast<u64>(digits[j]);
      simd::sub_scaled(out.a.data(), row.a.data(), d, target_dim);
      out.b -= d * row.b;
    }
  }
  return out;
}

BootstrapContext make_bootstrap_context(const TfheParams& params,
                                        const LweKey& lwe_key,
                                        const TrlweKey& trlwe_key, Rng& rng) {
  BootstrapContext ctx;
  ctx.params = params;
  ctx.bk.reserve(params.n_lwe);
  for (std::size_t i = 0; i < params.n_lwe; ++i) {
    ctx.bk.push_back(tgsw_encrypt(params, trlwe_key, lwe_key.s[i], rng));
  }
  ctx.ksk = make_keyswitch_key(extract_key(trlwe_key), lwe_key, params.ks_base_bits,
                               params.ks_length, params.lwe_sigma, rng);
  return ctx;
}

TrlweSample blind_rotate(const TrlweSample& test_vector,
                         const std::vector<u64>& bara, u64 barb,
                         const std::vector<TgswNtt>& bk) {
  if (bara.size() != bk.size()) {
    throw std::invalid_argument("blind_rotate: one key per mask coefficient");
  }
  const u64 two_n = 2 * static_cast<u64>(test_vector.degree());
  TrlweSample acc = test_vector.rotate((two_n - barb % two_n) % two_n);
  for (std::size_t i = 0; i < bara.size(); ++i) {
    const u64 shift = bara[i] % two_n;
    if (shift == 0) continue;
    acc = cmux(bk[i], acc, acc.rotate(shift));
  }
  return acc;
}

LweSample programmable_bootstrap(const LweSample& in, const TorusPoly& test_poly,
                                 const BootstrapContext& ctx) {
  const std::size_t n = ctx.params.degree;
  if (in.dimension() != ctx.params.n_lwe) {
    throw std::invalid_argument("programmable_bootstrap: dimension mismatch");
  }
  // Modulus switch to Z_2N.
  std::vector<u64> bara(in.dimension());
  for (std::size_t i = 0; i < in.dimension(); ++i) bara[i] = torus_to_z2n(in.a[i], n);
  const u64 barb = torus_to_z2n(in.b, n);

  const TrlweSample rotated =
      blind_rotate(trlwe_trivial(ctx.params, test_poly), bara, barb, ctx.bk);
  return keyswitch(sample_extract(rotated), ctx.ksk);
}

TorusPoly make_constant_test_poly(std::size_t degree, Torus mu) {
  TorusPoly v(degree);
  for (std::size_t i = 0; i < degree; ++i) v[i] = mu;
  return v;
}

TorusPoly make_lut_test_poly(std::size_t degree, u64 space,
                             const std::function<Torus(u64)>& f) {
  TorusPoly v(degree);
  for (std::size_t j = 0; j < degree; ++j) {
    // Slot j covers phases around j; map to the message whose switched phase
    // lands here: m ≈ j * space / 2N.
    const u64 m = (j * space + degree) / (2 * degree);  // rounded
    v[j] = f(m % space);
  }
  return v;
}

namespace {

constexpr u64 kEighth = u64{1} << 61;  // 1/8 on the torus

LweSample bool_bootstrap(LweSample linear, const BootstrapContext& ctx) {
  const TorusPoly tv = make_constant_test_poly(ctx.params.degree, kEighth);
  return programmable_bootstrap(linear, tv, ctx);
}

}  // namespace

LweSample encrypt_bit(bool bit, const LweKey& key, double sigma, Rng& rng) {
  return lwe_encrypt(bit ? kEighth : ~kEighth + 1, key, sigma, rng);
}

bool decrypt_bit(const LweSample& sample, const LweKey& key) {
  return static_cast<i64>(lwe_phase(sample, key)) > 0;
}

LweSample gate_nand(const LweSample& a, const LweSample& b, const BootstrapContext& ctx) {
  LweSample linear = lwe_trivial(a.dimension(), kEighth);
  linear -= a;
  linear -= b;
  return bool_bootstrap(std::move(linear), ctx);
}

LweSample gate_and(const LweSample& a, const LweSample& b, const BootstrapContext& ctx) {
  LweSample linear = lwe_trivial(a.dimension(), ~kEighth + 1);
  linear += a;
  linear += b;
  return bool_bootstrap(std::move(linear), ctx);
}

LweSample gate_or(const LweSample& a, const LweSample& b, const BootstrapContext& ctx) {
  LweSample linear = lwe_trivial(a.dimension(), kEighth);
  linear += a;
  linear += b;
  return bool_bootstrap(std::move(linear), ctx);
}

LweSample gate_nor(const LweSample& a, const LweSample& b, const BootstrapContext& ctx) {
  LweSample linear = lwe_trivial(a.dimension(), ~kEighth + 1);
  linear -= a;
  linear -= b;
  return bool_bootstrap(std::move(linear), ctx);
}

LweSample gate_xor(const LweSample& a, const LweSample& b, const BootstrapContext& ctx) {
  LweSample linear = lwe_trivial(a.dimension(), u64{1} << 62);  // 1/4
  LweSample sum = a;
  sum += b;
  sum.mul_int(2);
  linear += sum;
  return bool_bootstrap(std::move(linear), ctx);
}

LweSample gate_xnor(const LweSample& a, const LweSample& b, const BootstrapContext& ctx) {
  LweSample linear = lwe_trivial(a.dimension(), ~(u64{1} << 62) + 1);  // -1/4
  LweSample sum = a;
  sum += b;
  sum.mul_int(2);
  linear -= sum;  // -2(a+b) - 1/4
  return bool_bootstrap(std::move(linear), ctx);
}

LweSample gate_not(const LweSample& a) {
  LweSample out = a;
  out.negate();
  return out;
}

LweSample gate_mux(const LweSample& sel, const LweSample& t, const LweSample& f,
                   const BootstrapContext& ctx) {
  const LweSample picked_t = gate_and(sel, t, ctx);
  const LweSample picked_f = gate_and(gate_not(sel), f, ctx);
  return gate_or(picked_t, picked_f, ctx);
}

}  // namespace alchemist::tfhe
