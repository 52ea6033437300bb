#include "poly/rns.h"

#include <gtest/gtest.h>

#include "common/biguint.h"
#include "common/primes.h"
#include "common/rng.h"
#include "poly/ntt.h"
#include "poly/polynomial.h"

namespace alchemist {
namespace {

RnsPoly random_rns(std::size_t n, const std::vector<u64>& moduli, u64 seed) {
  RnsPoly p(n, moduli);
  Rng rng(seed);
  for (std::size_t c = 0; c < moduli.size(); ++c) {
    auto ch = p.channel(c);
    for (std::size_t i = 0; i < n; ++i) ch[i] = rng.uniform(moduli[c]);
  }
  return p;
}

// Residues of a common value x (< all moduli products) in every channel.
RnsPoly constant_rns(std::size_t n, const std::vector<u64>& moduli,
                     const std::vector<BigUInt>& values) {
  RnsPoly p(n, moduli);
  for (std::size_t c = 0; c < moduli.size(); ++c) {
    auto ch = p.channel(c);
    for (std::size_t i = 0; i < n; ++i) ch[i] = values[i].mod_u64(moduli[c]);
  }
  return p;
}

// The coefficient-form Moddown: every channel leaves the NTT domain. Kept as
// the reference the NTT-domain moddown must match once its output is NTT'd.
RnsPoly moddown_coeff_reference(const RnsPoly& x, std::size_t num_special) {
  const std::size_t num_q = x.num_channels() - num_special;
  const std::vector<u64> q_moduli(x.moduli().begin(), x.moduli().begin() + num_q);
  const std::vector<u64> p_moduli(x.moduli().begin() + num_q, x.moduli().end());
  RnsPoly converted = BConv(p_moduli, q_moduli).apply(x.extract_channels(num_q, num_special));
  converted.to_coeff();
  const BigUInt big_p = BigUInt::product(p_moduli);
  RnsPoly out = x.extract_channels(0, num_q);
  for (std::size_t i = 0; i < num_q; ++i) {
    const Modulus& qi = out.channel_modulus(i);
    const u64 p_inv = qi.inv(big_p.mod_u64(qi.value()));
    for (std::size_t k = 0; k < out.degree(); ++k) {
      out.channel(i)[k] = qi.mul(qi.sub(out.channel(i)[k], converted.channel(i)[k]), p_inv);
    }
  }
  return out;
}

// The coefficient-form Modup: x's residues stay in place and every other
// channel of `basis` comes from BConv, all in coefficient form. Kept as the
// reference the NTT-domain modup must match once its output is NTT'd.
RnsPoly modup_coeff_reference(const RnsPoly& x, const std::vector<u64>& basis,
                              std::size_t first) {
  std::vector<u64> others(basis.begin(), basis.begin() + first);
  others.insert(others.end(), basis.begin() + first + x.num_channels(), basis.end());
  RnsPoly out = BConv(x.moduli(), others).apply(x);
  out.to_coeff();
  out.insert_channels(first, x);
  return out;
}

RnsPoly ntt_of(RnsPoly p) {
  p.to_ntt();
  return p;
}

TEST(RnsPoly, ConstructionAndAccessors) {
  const auto moduli = generate_ntt_primes(30, 64, 3);
  RnsPoly p(64, moduli);
  EXPECT_EQ(p.degree(), 64u);
  EXPECT_EQ(p.num_channels(), 3u);
  EXPECT_FALSE(p.is_ntt());
  EXPECT_EQ(p.moduli(), moduli);
  EXPECT_THROW(RnsPoly(63, moduli), std::invalid_argument);
  EXPECT_THROW(RnsPoly(64, std::vector<u64>{}), std::invalid_argument);
}

TEST(RnsPoly, NttRoundTrip) {
  const auto moduli = generate_ntt_primes(36, 256, 4);
  RnsPoly p = random_rns(256, moduli, 1);
  const RnsPoly original = p;
  p.to_ntt();
  EXPECT_TRUE(p.is_ntt());
  EXPECT_NE(p, original);
  p.to_coeff();
  EXPECT_EQ(p, original);
}

TEST(RnsPoly, AddSubNegateElementwise) {
  const auto moduli = generate_ntt_primes(30, 32, 2);
  RnsPoly a = random_rns(32, moduli, 2);
  RnsPoly b = random_rns(32, moduli, 3);
  RnsPoly sum = a + b;
  RnsPoly back = sum - b;
  EXPECT_EQ(back, a);
  RnsPoly neg = a;
  neg.negate();
  RnsPoly zero = a + neg;
  for (std::size_t c = 0; c < zero.num_channels(); ++c) {
    for (u64 x : zero.channel(c)) EXPECT_EQ(x, 0u);
  }
}

TEST(RnsPoly, NttMulMatchesPerChannelSchoolbook) {
  const std::size_t n = 64;
  const auto moduli = generate_ntt_primes(40, n, 3);
  RnsPoly a = random_rns(n, moduli, 4);
  RnsPoly b = random_rns(n, moduli, 5);

  // Per-channel reference products.
  std::vector<Polynomial> expected;
  for (std::size_t c = 0; c < moduli.size(); ++c) {
    Polynomial pa(std::vector<u64>(a.channel(c).begin(), a.channel(c).end()), moduli[c]);
    Polynomial pb(std::vector<u64>(b.channel(c).begin(), b.channel(c).end()), moduli[c]);
    expected.push_back(pa.mul_schoolbook(pb));
  }

  a.to_ntt();
  b.to_ntt();
  RnsPoly prod = a * b;
  prod.to_coeff();
  for (std::size_t c = 0; c < moduli.size(); ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(prod.channel(c)[i], expected[c][i]) << "channel " << c;
    }
  }
}

TEST(RnsPoly, MulRequiresNttForm) {
  const auto moduli = generate_ntt_primes(30, 16, 2);
  RnsPoly a = random_rns(16, moduli, 6);
  RnsPoly b = random_rns(16, moduli, 7);
  EXPECT_THROW(a *= b, std::invalid_argument);
}

TEST(RnsPoly, ScalarMulPerChannelAndUniform) {
  const auto moduli = generate_ntt_primes(30, 16, 2);
  RnsPoly a = random_rns(16, moduli, 8);
  RnsPoly b = a;
  std::vector<u64> scalars = {5, 5};
  a.mul_scalar(std::span<const u64>(scalars));
  b.mul_scalar(u64{5});
  EXPECT_EQ(a, b);
}

TEST(RnsPoly, ChannelSurgeryPreservesData) {
  const auto moduli = generate_ntt_primes(30, 16, 4);
  RnsPoly a = random_rns(16, moduli, 9);
  RnsPoly head = a.extract_channels(0, 2);
  RnsPoly tail = a.extract_channels(2, 2);
  head.insert_channels(2, tail);
  EXPECT_EQ(head, a);
  RnsPoly outer = a.extract_channels(0, 1);
  outer.insert_channels(1, a.extract_channels(3, 1));
  outer.insert_channels(1, a.extract_channels(1, 2));
  EXPECT_EQ(outer, a);
  EXPECT_THROW(outer.insert_channels(5, tail), std::invalid_argument);
  EXPECT_THROW(outer.insert_channels(0, ntt_of(tail)), std::invalid_argument);
  RnsPoly dropped = a;
  dropped.drop_channels_to(2);
  EXPECT_EQ(dropped, a.extract_channels(0, 2));
  EXPECT_THROW(a.extract_channels(3, 2), std::invalid_argument);
  EXPECT_THROW(dropped.drop_channels_to(0), std::invalid_argument);
}

TEST(RnsPoly, AutomorphismMatchesSingleChannel) {
  const std::size_t n = 32;
  const auto moduli = generate_ntt_primes(30, n, 2);
  RnsPoly a = random_rns(n, moduli, 10);
  const u64 g = 5;
  RnsPoly rotated = a.automorphism(g);
  for (std::size_t c = 0; c < moduli.size(); ++c) {
    Polynomial pc(std::vector<u64>(a.channel(c).begin(), a.channel(c).end()), moduli[c]);
    Polynomial expected = pc.automorphism(g);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(rotated.channel(c)[i], expected[i]);
  }
}

TEST(RnsPoly, AutomorphismNttFormConsistent) {
  // The NTT-form automorphism is a slot permutation; it must equal the
  // coefficient-form one followed by a forward NTT, for rotations (5^k),
  // conjugation (2N - 1), elements above 2N and random odd elements.
  Rng rng(11);
  for (std::size_t n : {2u, 8u, 256u, 2048u}) {
    const auto moduli = generate_ntt_primes(30, n, 2);
    const RnsPoly a = random_rns(n, moduli, n);
    const RnsPoly a_ntt = ntt_of(a);
    const u64 two_n = 2 * n;
    std::vector<u64> elements = {5, 25 % two_n, pow_mod(5, 7, two_n), two_n - 1,
                                 two_n + 3, 5 * two_n + two_n - 1, 2 * rng.uniform(n) + 1,
                                 2 * rng.uniform(u64{1} << 40) + 1};
    for (u64 g : elements) {
      EXPECT_EQ(a_ntt.automorphism(g), ntt_of(a.automorphism(g))) << "N=" << n << " g=" << g;
    }
  }
}

TEST(RnsPoly, AutomorphismsCompose) {
  // sigma_g(sigma_h(a)) = a(X^{gh}) = sigma_{gh}(a), in both forms.
  const std::size_t n = 256;
  const auto moduli = generate_ntt_primes(30, n, 2);
  const RnsPoly a = random_rns(n, moduli, 22);
  const RnsPoly a_ntt = ntt_of(a);
  for (auto [g, h] : {std::pair<u64, u64>{5, 25}, {511, 5}, {3, 129}, {513, 511}}) {
    const u64 gh = g * h % (2 * n);
    EXPECT_EQ(a_ntt.automorphism(h).automorphism(g), a_ntt.automorphism(gh)) << g << "," << h;
    EXPECT_EQ(a.automorphism(h).automorphism(g), a.automorphism(gh)) << g << "," << h;
  }
}

TEST(RnsPoly, AutomorphismRejectsEvenElement) {
  const auto moduli = generate_ntt_primes(30, 16, 2);
  const RnsPoly a = random_rns(16, moduli, 23);
  EXPECT_THROW(a.automorphism(4), std::invalid_argument);
  EXPECT_THROW(ntt_of(a).automorphism(32), std::invalid_argument);
  EXPECT_THROW(get_ntt_automorphism(16, 6), std::invalid_argument);
}

TEST(BConvTest, MatchesExactFormula) {
  // The fast base conversion must compute Eq. (1) *exactly as written*:
  //   out_j = (sum_i [x_i q̂_i^{-1}]_{q_i} q̂_i) mod p_j  (no rounding).
  // Source primes wider than the target ones (60 -> 45 bits) feed the
  // target's weighted sum residues above 2^50.
  const std::size_t n = 8;
  for (const auto& [source_bits, target_bits] :
       {std::pair{30, 31}, std::pair{60, 45}, std::pair{45, 50}}) {
    const auto source = generate_ntt_primes(source_bits, n, 3);
    const auto target = generate_ntt_primes(target_bits, n, 2);
    const RnsPoly x = random_rns(n, source, 12);
    BConv conv(source, target);
    RnsPoly out = conv.apply(x);
    ASSERT_TRUE(out.is_ntt());
    out.to_coeff();

    const BigUInt big_q = BigUInt::product(source);
    for (std::size_t k = 0; k < n; ++k) {
      BigUInt acc(0);
      for (std::size_t i = 0; i < source.size(); ++i) {
        const BigUInt qhat = big_q.div_u64(source[i], true);
        const u64 qhat_inv = inv_mod(qhat.mod_u64(source[i]), source[i]);
        const u64 v = mul_mod(x.channel(i)[k], qhat_inv, source[i]);
        BigUInt term = qhat;
        term.mul_u64(v);
        acc += term;
      }
      for (std::size_t j = 0; j < target.size(); ++j) {
        EXPECT_EQ(out.channel(j)[k], acc.mod_u64(target[j]))
            << source_bits << " -> " << target_bits << " bits, k=" << k;
      }
    }
  }
}

TEST(BConvTest, OutputIsValuePlusSmallMultipleOfQ) {
  // Fast conversion's only error is an additive alpha*Q with alpha < L.
  const std::size_t n = 4;
  const auto source = generate_ntt_primes(28, n, 4);
  const auto target = generate_ntt_primes(29, n, 1);
  const BigUInt big_q = BigUInt::product(source);

  Rng rng(13);
  std::vector<BigUInt> values;
  for (std::size_t i = 0; i < n; ++i) {
    // Random x < Q via CRT of random residues.
    std::vector<u64> residues;
    for (u64 q : source) residues.push_back(rng.uniform(q));
    values.push_back(crt_compose(residues, source));
  }
  const RnsPoly x = constant_rns(n, source, values);
  BConv conv(source, target);
  RnsPoly out = conv.apply(x);
  out.to_coeff();

  const u64 p = target[0];
  for (std::size_t k = 0; k < n; ++k) {
    bool matched = false;
    for (std::size_t alpha = 0; alpha < source.size() && !matched; ++alpha) {
      BigUInt shifted = values[k];
      for (std::size_t a = 0; a < alpha; ++a) shifted += big_q;
      matched = out.channel(0)[k] == shifted.mod_u64(p);
    }
    EXPECT_TRUE(matched) << "k=" << k;
  }
}

TEST(BConvTest, RejectsBadInput) {
  const auto source = generate_ntt_primes(28, 8, 2);
  const auto target = generate_ntt_primes(29, 8, 1);
  BConv conv(source, target);
  RnsPoly wrong_basis = random_rns(8, target, 14);
  EXPECT_THROW(conv.apply(wrong_basis), std::invalid_argument);
  RnsPoly ntt_form = random_rns(8, source, 15);
  ntt_form.to_ntt();
  EXPECT_THROW(conv.apply(ntt_form), std::invalid_argument);
}

TEST(RnsPoly, AddScalarAddsAConstantPolynomial) {
  // Adding residue s_c to every NTT slot of channel c adds the constant
  // polynomial s: coefficient 0 moves, the others stay.
  const std::size_t n = 32;
  const auto moduli = generate_ntt_primes(30, n, 3);
  const RnsPoly a = random_rns(n, moduli, 21);
  const std::vector<u64> s = {moduli[0] - 1, 0, 12345};

  RnsPoly got = a;
  got.to_ntt();
  got.add_scalar(s);
  got.to_coeff();
  for (std::size_t c = 0; c < moduli.size(); ++c) {
    EXPECT_EQ(got.channel(c)[0], add_mod(a.channel(c)[0], s[c], moduli[c]));
    for (std::size_t i = 1; i < n; ++i) EXPECT_EQ(got.channel(c)[i], a.channel(c)[i]);
  }
  got.to_ntt();
  EXPECT_THROW(got.add_scalar(std::vector<u64>{1, 2}), std::invalid_argument);
  RnsPoly coeff = a;
  EXPECT_THROW(coeff.add_scalar(s), std::invalid_argument);  // coefficient form
}

TEST(ModUpDown, ModupPreservesOriginalChannels) {
  const std::size_t n = 16;
  const auto q_moduli = generate_ntt_primes(30, n, 3);
  const auto p_moduli = generate_ntt_primes(32, n, 2);
  const RnsPoly x = ntt_of(random_rns(n, q_moduli, 16));
  std::vector<u64> qp = q_moduli;
  qp.insert(qp.end(), p_moduli.begin(), p_moduli.end());
  const RnsPoly up = modup(x, qp, 0);
  ASSERT_EQ(up.num_channels(), 5u);
  ASSERT_TRUE(up.is_ntt());
  EXPECT_EQ(up.extract_channels(0, 3), x);
}

TEST(ModUpDown, ModupPlacesDigitInsideBasis) {
  // A digit group in the middle of the basis keeps its own residues in place
  // and gets every other channel, in basis order, from one BConv.
  const std::size_t n = 16;
  const auto basis = generate_ntt_primes(30, n, 5);
  const std::vector<u64> group(basis.begin() + 1, basis.begin() + 3);
  const std::vector<u64> others = {basis[0], basis[3], basis[4]};
  const RnsPoly x = random_rns(n, group, 17);
  const RnsPoly up = modup(ntt_of(x), basis, 1);
  const RnsPoly converted = BConv(group, others).apply(x);
  ASSERT_EQ(up.moduli(), basis);
  EXPECT_EQ(up.extract_channels(0, 1), converted.extract_channels(0, 1));
  EXPECT_EQ(up.extract_channels(1, 2), ntt_of(x));
  EXPECT_EQ(up.extract_channels(3, 2), converted.extract_channels(1, 2));
  EXPECT_THROW(modup(ntt_of(x), basis, 2), std::invalid_argument);  // not where x's basis sits
  EXPECT_THROW(modup(ntt_of(x), basis, 4), std::invalid_argument);  // runs past the end
  EXPECT_THROW(modup(x, basis, 1), std::invalid_argument);          // coefficient form
}

TEST(ModUpDown, ModupMatchesCoefficientReference) {
  // The keyswitch digits of a 7-prime level with alpha = K = 3: the first,
  // a middle and a partial last digit group.
  const std::size_t n = 64;
  std::vector<u64> basis = generate_ntt_primes(40, n, 7);
  const auto p_moduli = generate_ntt_primes(50, n, 3, basis);
  basis.insert(basis.end(), p_moduli.begin(), p_moduli.end());
  for (auto [first, count] : {std::pair<std::size_t, std::size_t>{0, 3}, {3, 3}, {6, 1}}) {
    const std::vector<u64> group(basis.begin() + first, basis.begin() + first + count);
    const RnsPoly x = random_rns(n, group, 40 + first);
    EXPECT_EQ(modup(ntt_of(x), basis, first), ntt_of(modup_coeff_reference(x, basis, first)))
        << "digit at " << first;
  }
}

TEST(ModUpDown, ModdownExactWhenDivisible) {
  // y = P * z with z < Q: moddown must return exactly z (Bconv of 0 is 0).
  const std::size_t n = 8;
  const auto q_moduli = generate_ntt_primes(30, n, 3);
  const auto p_moduli = generate_ntt_primes(32, n, 2);
  const BigUInt big_p = BigUInt::product(p_moduli);

  Rng rng(17);
  std::vector<BigUInt> z_values, y_values;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<u64> residues;
    for (u64 q : q_moduli) residues.push_back(rng.uniform(q));
    BigUInt z = crt_compose(residues, q_moduli);
    y_values.push_back(z * big_p);
    z_values.push_back(std::move(z));
  }

  std::vector<u64> all_moduli = q_moduli;
  all_moduli.insert(all_moduli.end(), p_moduli.begin(), p_moduli.end());
  RnsPoly y = constant_rns(n, all_moduli, y_values);
  y.to_ntt();
  RnsPoly z = moddown(y, p_moduli.size());
  ASSERT_TRUE(z.is_ntt());
  z.to_coeff();

  ASSERT_EQ(z.num_channels(), q_moduli.size());
  for (std::size_t c = 0; c < q_moduli.size(); ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(z.channel(c)[i], z_values[i].mod_u64(q_moduli[c]));
    }
  }
}

TEST(ModUpDown, ModdownApproximatesDivisionByP) {
  // For arbitrary y, moddown returns floor-ish(y/P) - alpha for a small alpha
  // in [0, K): the fast-conversion error that CKKS absorbs as noise.
  const std::size_t n = 4;
  const auto q_moduli = generate_ntt_primes(30, n, 2);
  const auto p_moduli = generate_ntt_primes(32, n, 2);
  const std::size_t num_special = p_moduli.size();
  const BigUInt big_p = BigUInt::product(p_moduli);

  std::vector<u64> all_moduli = q_moduli;
  all_moduli.insert(all_moduli.end(), p_moduli.begin(), p_moduli.end());
  const BigUInt big_qp = BigUInt::product(all_moduli);

  Rng rng(18);
  std::vector<BigUInt> y_values;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<u64> residues;
    for (u64 q : all_moduli) residues.push_back(rng.uniform(q));
    y_values.push_back(crt_compose(residues, all_moduli));
  }

  RnsPoly y = constant_rns(n, all_moduli, y_values);
  y.to_ntt();
  RnsPoly z = moddown(y, num_special);
  z.to_coeff();

  for (std::size_t i = 0; i < n; ++i) {
    // exact quotient (y - (y mod P)) / P
    const BigUInt y_mod_p = crt_compose(
        {y_values[i].mod_u64(p_moduli[0]), y_values[i].mod_u64(p_moduli[1])}, p_moduli);
    const BigUInt quotient = (y_values[i] - y_mod_p).div_u64(p_moduli[0], true)
                                 .div_u64(p_moduli[1], true);
    for (std::size_t c = 0; c < q_moduli.size(); ++c) {
      bool matched = false;
      for (std::size_t alpha = 0; alpha <= num_special && !matched; ++alpha) {
        // candidate = quotient - alpha (mod q_c)
        u64 cand = quotient.mod_u64(q_moduli[c]);
        cand = sub_mod(cand, alpha % q_moduli[c], q_moduli[c]);
        matched = z.channel(c)[i] == cand;
      }
      EXPECT_TRUE(matched) << "i=" << i << " c=" << c;
    }
  }
}

TEST(ModUpDown, ModdownMatchesCoefficientReference) {
  // K = 1 is a rescale (P = q_{l-1}); K > 1 is a keyswitch Moddown. Several
  // Q sizes per K, with the P primes wider than the Q primes as in CKKS.
  const std::size_t n = 64;
  for (std::size_t k : {1u, 2u, 3u}) {
    for (std::size_t num_q : {1u, 3u, 6u}) {
      std::vector<u64> basis = generate_ntt_primes(40, n, num_q);
      const auto p_moduli = generate_ntt_primes(50, n, k, basis);
      basis.insert(basis.end(), p_moduli.begin(), p_moduli.end());
      const RnsPoly x = random_rns(n, basis, 100 * k + num_q);

      RnsPoly want = moddown_coeff_reference(x, k);
      want.to_ntt();
      RnsPoly x_ntt = x;
      x_ntt.to_ntt();
      const RnsPoly got = moddown(x_ntt, k);
      EXPECT_EQ(got, want) << "K=" << k << " L=" << num_q;
    }
  }
}

TEST(ModUpDown, ModdownArgumentChecks) {
  const auto moduli = generate_ntt_primes(30, 8, 3);
  const RnsPoly coeff = random_rns(8, moduli, 19);
  RnsPoly x = coeff;
  x.to_ntt();
  EXPECT_THROW(moddown(x, 0), std::invalid_argument);
  EXPECT_THROW(moddown(x, 3), std::invalid_argument);
  EXPECT_THROW(moddown(coeff, 1), std::invalid_argument);  // coefficient form
}

}  // namespace
}  // namespace alchemist
