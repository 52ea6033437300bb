// Bit-exactness of the CKKS host evaluator.
//
// RNS arithmetic is exact, so any rewrite of the keyswitch (Modup,
// DecompPolyMult, Moddown) or of the ops built on it must reproduce earlier
// outputs bit for bit. The pinned FNV-1a digests below come from the
// straightforward implementation (eager per-digit products folded term by
// term). Every input is a seeded uniform RnsPoly, keys included: no encoder
// and no Gaussian sampler, so the digests do not depend on the math library.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "ckks/evaluator.h"
#include "common/rng.h"

namespace alchemist::ckks {
namespace {

class Digest {
 public:
  Digest& add(const RnsPoly& p) {
    for (std::size_t c = 0; c < p.num_channels(); ++c) {
      for (u64 w : p.channel(c)) {
        for (int i = 0; i < 8; ++i) {
          h_ ^= (w >> (8 * i)) & 0xff;
          h_ *= 0x100000001b3ull;
        }
      }
    }
    return *this;
  }
  Digest& add(const Ciphertext& ct) { return add(ct.c0).add(ct.c1); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

RnsPoly random_poly(std::size_t n, const std::vector<u64>& basis, Rng& rng) {
  RnsPoly p(n, basis, RnsPoly::Form::Ntt);
  for (std::size_t c = 0; c < p.num_channels(); ++c) {
    for (u64& v : p.channel(c)) v = rng.uniform(basis[c]);
  }
  return p;
}

// A keyswitching key of uniform digit polynomials over the key basis.
KSwitchKey random_key(const CkksContext& ctx, Rng& rng) {
  KSwitchKey key;
  for (std::size_t j = 0; j < ctx.params().dnum; ++j) {
    RnsPoly b = random_poly(ctx.degree(), ctx.key_basis(), rng);
    key.digits.emplace_back(std::move(b), random_poly(ctx.degree(), ctx.key_basis(), rng));
  }
  return key;
}

Ciphertext random_ct(const CkksContext& ctx, std::size_t level, Rng& rng) {
  RnsPoly c0 = random_poly(ctx.degree(), ctx.basis_at(level), rng);
  RnsPoly c1 = random_poly(ctx.degree(), ctx.basis_at(level), rng);
  return Ciphertext{std::move(c0), std::move(c1), level, 0x1.0p40};
}

std::uint64_t keyswitch_digest(const CkksParams& params, std::size_t level, u64 seed) {
  const auto ctx = std::make_shared<CkksContext>(params);
  Rng rng(seed);
  const KSwitchKey key = random_key(*ctx, rng);
  const RnsPoly d = random_poly(params.n, ctx->basis_at(level), rng);
  const auto [ks0, ks1] = Evaluator(ctx).keyswitch(d, level, key);
  return Digest().add(ks0).add(ks1).value();
}

TEST(CkksExact, KeyswitchPinned) {
  EXPECT_EQ(keyswitch_digest(CkksParams::toy(256, 4, 2), 4, 1), 0xb6b62979529c0ebdull)
      << "L=4 dnum=2";
  EXPECT_EQ(keyswitch_digest(CkksParams::toy(256, 6, 3), 5, 2), 0xd7679aaf339dfa6cull)
      << "L=6 dnum=3 at level 5";
  EXPECT_EQ(keyswitch_digest(CkksParams::toy(256, 5, 5), 3, 3), 0x1b24ccaeea42d27cull)
      << "L=5 dnum=5 at level 3";
}

TEST(CkksExact, MultiplyRescalePinned) {
  const CkksParams params = CkksParams::toy(256, 4, 2);
  const auto ctx = std::make_shared<CkksContext>(params);
  Rng rng(4);
  const RelinKeys rk{random_key(*ctx, rng)};
  const Ciphertext a = random_ct(*ctx, 4, rng);
  const Ciphertext b = random_ct(*ctx, 4, rng);
  const Evaluator eval(ctx);
  const Ciphertext prod = eval.multiply(a, b, rk);
  EXPECT_EQ(Digest().add(prod).value(), 0x2114a6ff28fe168full) << "multiply";
  EXPECT_EQ(Digest().add(eval.rescale(prod)).value(), 0x59545fa53c5cdd65ull) << "rescale";
}

struct RotationDigests {
  std::uint64_t rotate, hoisted, conjugate;
};

// rotate, rotate_hoisted (one of the steps is the identity) and conjugate
// of one ciphertext at `level`.
RotationDigests rotation_digests(std::size_t level, u64 seed) {
  const CkksParams params = CkksParams::toy(256, 5, 2);
  const auto ctx = std::make_shared<CkksContext>(params);
  Rng rng(seed);
  const std::vector<int> steps = {1, -3, 0, 7};
  GaloisKeys gk;
  for (int s : steps) {
    if (s != 0) gk.keys.emplace(ctx->galois_elt_for_rotation(s), random_key(*ctx, rng));
  }
  gk.keys.emplace(ctx->galois_elt_conjugate(), random_key(*ctx, rng));
  const Ciphertext ct = random_ct(*ctx, level, rng);
  const Evaluator eval(ctx);

  Digest single, hoisted;
  for (int s : steps) single.add(eval.rotate(ct, s, gk));
  for (const Ciphertext& r : eval.rotate_hoisted(ct, steps, gk)) hoisted.add(r);
  return {single.value(), hoisted.value(), Digest().add(eval.conjugate(ct, gk)).value()};
}

TEST(CkksExact, RotationsPinned) {
  const RotationDigests top = rotation_digests(5, 5);
  EXPECT_EQ(top.rotate, 0x59fdf698c534065bull) << "rotate";
  EXPECT_EQ(top.hoisted, 0xf40b304b1a59488dull) << "rotate_hoisted";
  EXPECT_EQ(top.conjugate, 0x8e0a9b2dd28185c2ull) << "conjugate";
  const RotationDigests low = rotation_digests(2, 6);
  EXPECT_EQ(low.rotate, 0x0e5c8540d6716b8aull) << "rotate, level 2";
  EXPECT_EQ(low.hoisted, 0xb120031e2b759becull) << "rotate_hoisted, level 2";
  EXPECT_EQ(low.conjugate, 0xd9f59597f923296cull) << "conjugate, level 2";
}

}  // namespace
}  // namespace alchemist::ckks
