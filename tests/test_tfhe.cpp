#include <gtest/gtest.h>

#include <thread>

#include "common/rng.h"
#include "tfhe/bootstrap.h"
#include "tfhe/lwe.h"
#include "tfhe/trlwe.h"

namespace alchemist::tfhe {
namespace {

TEST(Lwe, EncryptDecryptAllMessages) {
  Rng rng(1);
  const LweKey key = lwe_keygen(64, rng);
  const u64 space = 8;
  for (u64 m = 0; m < space; ++m) {
    const LweSample ct = lwe_encrypt(torus_from_message(m, space), key, 1e-10, rng);
    EXPECT_EQ(lwe_decrypt(ct, key, space), m);
  }
}

TEST(Lwe, HomomorphicAddSub) {
  Rng rng(2);
  const LweKey key = lwe_keygen(64, rng);
  const u64 space = 16;
  const LweSample c3 = lwe_encrypt(torus_from_message(3, space), key, 1e-12, rng);
  const LweSample c5 = lwe_encrypt(torus_from_message(5, space), key, 1e-12, rng);
  EXPECT_EQ(lwe_decrypt(c3 + c5, key, space), 8u);
  EXPECT_EQ(lwe_decrypt(c5 - c3, key, space), 2u);
  LweSample neg = c3;
  neg.negate();
  EXPECT_EQ(lwe_decrypt(neg, key, space), space - 3);
  LweSample doubled = c3;
  doubled.mul_int(2);
  EXPECT_EQ(lwe_decrypt(doubled, key, space), 6u);
}

TEST(Lwe, TrivialSampleDecryptsUnderAnyKey) {
  Rng rng(3);
  const LweKey key = lwe_keygen(32, rng);
  const LweSample triv = lwe_trivial(32, torus_from_message(2, 4));
  EXPECT_EQ(lwe_decrypt(triv, key, 4), 2u);
}

TEST(Lwe, DimensionChecks) {
  Rng rng(4);
  const LweKey key = lwe_keygen(32, rng);
  LweSample a = lwe_trivial(32, 0), b = lwe_trivial(16, 0);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(lwe_phase(b, key), std::invalid_argument);
}

TEST(LweKeyswitch, PreservesMessage) {
  Rng rng(5);
  const LweKey from = lwe_keygen(128, rng);
  const LweKey to = lwe_keygen(64, rng);
  const KeySwitchKey ksk = make_keyswitch_key(from, to, 4, 8, 1e-12, rng);
  const u64 space = 8;
  for (u64 m = 0; m < space; ++m) {
    const LweSample ct = lwe_encrypt(torus_from_message(m, space), from, 1e-12, rng);
    const LweSample switched = keyswitch(ct, ksk);
    EXPECT_EQ(switched.dimension(), 64u);
    EXPECT_EQ(lwe_decrypt(switched, to, space), m);
  }
}

TEST(Trlwe, EncryptPhaseRoundTrip) {
  Rng rng(6);
  const TfheParams params = TfheParams::toy();
  const TrlweKey key = trlwe_keygen(params, rng);
  TorusPoly msg(params.degree);
  for (std::size_t i = 0; i < params.degree; ++i) {
    msg[i] = torus_from_message(rng.uniform(4), 4);
  }
  const TrlweSample ct = trlwe_encrypt(params, key, msg, rng);
  const TorusPoly phase = trlwe_phase(ct, key);
  for (std::size_t i = 0; i < params.degree; ++i) {
    EXPECT_EQ(torus_to_message(phase[i], 4), torus_to_message(msg[i], 4)) << i;
  }
}

TEST(Trlwe, TrivialAndLinearity) {
  Rng rng(7);
  const TfheParams params = TfheParams::toy();
  const TrlweKey key = trlwe_keygen(params, rng);
  TorusPoly m1(params.degree), m2(params.degree);
  m1[0] = torus_from_message(1, 4);
  m2[3] = torus_from_message(3, 8);
  const TrlweSample t1 = trlwe_trivial(params, m1);
  TrlweSample sum = trlwe_encrypt(params, key, m2, rng);
  sum += t1;
  const TorusPoly phase = trlwe_phase(sum, key);
  EXPECT_EQ(torus_to_message(phase[0], 4), 1u);
  EXPECT_EQ(torus_to_message(phase[3], 8), 3u);
}

TEST(Tgsw, ExternalProductByBit) {
  Rng rng(8);
  const TfheParams params = TfheParams::toy();
  const TrlweKey key = trlwe_keygen(params, rng);
  TorusPoly msg(params.degree);
  for (std::size_t i = 0; i < params.degree; ++i) {
    msg[i] = torus_from_message(rng.uniform(8), 8);
  }
  const TrlweSample ct = trlwe_encrypt(params, key, msg, rng);

  // TGSW(0): product decrypts to 0. TGSW(1): product preserves the message.
  const TgswNtt g0 = tgsw_encrypt(params, key, 0, rng);
  const TgswNtt g1 = tgsw_encrypt(params, key, 1, rng);
  const TorusPoly p0 = trlwe_phase(external_product(g0, ct), key);
  const TorusPoly p1 = trlwe_phase(external_product(g1, ct), key);
  for (std::size_t i = 0; i < params.degree; ++i) {
    EXPECT_EQ(torus_to_message(p0[i], 8), 0u) << i;
    EXPECT_EQ(torus_to_message(p1[i], 8), torus_to_message(msg[i], 8)) << i;
  }
}

TEST(Tgsw, CmuxSelects) {
  Rng rng(9);
  const TfheParams params = TfheParams::toy();
  const TrlweKey key = trlwe_keygen(params, rng);
  TorusPoly m0(params.degree), m1(params.degree);
  m0[0] = torus_from_message(2, 8);
  m1[0] = torus_from_message(5, 8);
  const TrlweSample c0 = trlwe_encrypt(params, key, m0, rng);
  const TrlweSample c1 = trlwe_encrypt(params, key, m1, rng);
  const TgswNtt sel0 = tgsw_encrypt(params, key, 0, rng);
  const TgswNtt sel1 = tgsw_encrypt(params, key, 1, rng);
  EXPECT_EQ(torus_to_message(trlwe_phase(cmux(sel0, c0, c1), key)[0], 8), 2u);
  EXPECT_EQ(torus_to_message(trlwe_phase(cmux(sel1, c0, c1), key)[0], 8), 5u);
}

TEST(Trlwe, SampleExtractMatchesPhase) {
  Rng rng(10);
  const TfheParams params = TfheParams::toy();
  const TrlweKey key = trlwe_keygen(params, rng);
  TorusPoly msg(params.degree);
  for (std::size_t i = 0; i < params.degree; ++i) msg[i] = rng.next();
  const TrlweSample ct = trlwe_encrypt(params, key, msg, rng);
  const LweSample extracted = sample_extract(ct);
  const LweKey ext_key = extract_key(key);
  EXPECT_EQ(extracted.dimension(), params.k * params.degree);
  // Extracted phase == constant coefficient of the polynomial phase.
  const Torus poly_phase0 = trlwe_phase(ct, key)[0];
  const Torus lwe_phase0 = lwe_phase(extracted, ext_key);
  EXPECT_EQ(lwe_phase0, poly_phase0);
}

TEST(BlindRotate, TrivialInputRotatesTestVector) {
  Rng rng(11);
  const TfheParams params = TfheParams::toy();
  const TrlweKey key = trlwe_keygen(params, rng);
  // LWE key of all zeros: rotation amount is exactly -barb.
  LweKey zero_key;
  zero_key.s.assign(params.n_lwe, 0);
  std::vector<TgswNtt> bk;
  for (std::size_t i = 0; i < params.n_lwe; ++i) {
    bk.push_back(tgsw_encrypt(params, key, 0, rng));
  }
  TorusPoly tv(params.degree);
  for (std::size_t i = 0; i < params.degree; ++i) tv[i] = torus_from_message(i % 4, 8);
  const u64 barb = 5;
  const std::vector<u64> bara(params.n_lwe, 3);  // ignored: all s_i = 0
  const TrlweSample rotated = blind_rotate(trlwe_trivial(params, tv), bara, barb, bk);
  const TorusPoly phase = trlwe_phase(rotated, key);
  // Coefficient 0 of X^{-5} * tv is tv[5].
  EXPECT_EQ(torus_to_message(phase[0], 8), torus_to_message(tv[barb], 8));
}

// One key per mask coefficient: a short mask would skip key bits and
// return a wrong rotation, a long one would read past the key.
TEST(BlindRotate, RejectsMaskOfOtherLength) {
  Rng rng(13);
  const TfheParams params = TfheParams::toy();
  const TrlweKey key = trlwe_keygen(params, rng);
  const std::vector<TgswNtt> bk(3, tgsw_encrypt(params, key, 1, rng));
  const TrlweSample tv = trlwe_trivial(params, TorusPoly(params.degree));
  EXPECT_THROW(blind_rotate(tv, std::vector<u64>(2, 1), 0, bk), std::invalid_argument);
  EXPECT_THROW(blind_rotate(tv, std::vector<u64>(4, 1), 0, bk), std::invalid_argument);
  EXPECT_NO_THROW(blind_rotate(tv, std::vector<u64>(3, 1), 0, bk));
}

TEST(LweKeyswitch, RejectsEmptyOrShortKey) {
  Rng rng(14);
  const LweKey from = lwe_keygen(4, rng);
  const LweKey to = lwe_keygen(8, rng);
  KeySwitchKey empty;
  EXPECT_THROW(keyswitch(lwe_trivial(0, 0), empty), std::invalid_argument);
  KeySwitchKey short_row = make_keyswitch_key(from, to, 2, 8, 1e-12, rng);
  short_row.ks[2].pop_back();
  EXPECT_THROW(keyswitch(lwe_trivial(4, 0), short_row), std::invalid_argument);
}

TEST(Pbs, SignExtractionToyParams) {
  Rng rng(12);
  const TfheParams params = TfheParams::toy();
  const LweKey lwe_key = lwe_keygen(params.n_lwe, rng);
  const TrlweKey trlwe_key = trlwe_keygen(params, rng);
  const BootstrapContext ctx = make_bootstrap_context(params, lwe_key, trlwe_key, rng);

  const Torus eighth = u64{1} << 61;
  const TorusPoly tv = make_constant_test_poly(params.degree, eighth);
  // Positive phase -> +1/8; negative phase -> -1/8.
  for (double x : {0.1, 0.3, -0.1, -0.3, 0.05, -0.05}) {
    const LweSample in = lwe_encrypt(torus_from_double(x), lwe_key, 1e-12, rng);
    const LweSample out = programmable_bootstrap(in, tv, ctx);
    const double result = torus_to_double(lwe_phase(out, lwe_key));
    EXPECT_NEAR(result, x > 0 ? 0.125 : -0.125, 0.02) << "x=" << x;
  }
}

TEST(Pbs, LutEvaluationToyParams) {
  Rng rng(13);
  const TfheParams params = TfheParams::toy();
  const LweKey lwe_key = lwe_keygen(params.n_lwe, rng);
  const TrlweKey trlwe_key = trlwe_keygen(params, rng);
  const BootstrapContext ctx = make_bootstrap_context(params, lwe_key, trlwe_key, rng);

  // f(m) = 3*m mod 8 over the first half of a space of 16 messages.
  const u64 space = 16;
  const TorusPoly tv = make_lut_test_poly(params.degree, space, [](u64 m) {
    return torus_from_message((3 * m) % 8, 8);
  });
  for (u64 m = 1; m < space / 2; ++m) {
    const LweSample in = lwe_encrypt(torus_from_message(m, space), lwe_key, 1e-12, rng);
    const LweSample out = programmable_bootstrap(in, tv, ctx);
    EXPECT_EQ(lwe_decrypt(out, lwe_key, 8), (3 * m) % 8) << "m=" << m;
  }
}

class GateTruthTables : public ::testing::Test {
 protected:
  GateTruthTables() : rng_(14), params_(TfheParams::toy()) {
    lwe_key_ = lwe_keygen(params_.n_lwe, rng_);
    trlwe_key_ = trlwe_keygen(params_, rng_);
    ctx_ = make_bootstrap_context(params_, lwe_key_, trlwe_key_, rng_);
  }

  LweSample enc(bool b) { return encrypt_bit(b, lwe_key_, 1e-12, rng_); }
  bool dec(const LweSample& c) { return decrypt_bit(c, lwe_key_); }

  Rng rng_;
  TfheParams params_;
  LweKey lwe_key_;
  TrlweKey trlwe_key_;
  BootstrapContext ctx_;
};

TEST_F(GateTruthTables, AllBinaryGates) {
  for (bool a : {false, true}) {
    for (bool b : {false, true}) {
      EXPECT_EQ(dec(gate_nand(enc(a), enc(b), ctx_)), !(a && b)) << a << b;
      EXPECT_EQ(dec(gate_and(enc(a), enc(b), ctx_)), a && b) << a << b;
      EXPECT_EQ(dec(gate_or(enc(a), enc(b), ctx_)), a || b) << a << b;
      EXPECT_EQ(dec(gate_nor(enc(a), enc(b), ctx_)), !(a || b)) << a << b;
      EXPECT_EQ(dec(gate_xor(enc(a), enc(b), ctx_)), a != b) << a << b;
      EXPECT_EQ(dec(gate_xnor(enc(a), enc(b), ctx_)), a == b) << a << b;
    }
  }
}

TEST_F(GateTruthTables, NotAndMux) {
  for (bool a : {false, true}) {
    EXPECT_EQ(dec(gate_not(enc(a))), !a);
  }
  for (bool sel : {false, true}) {
    for (bool t : {false, true}) {
      for (bool f : {false, true}) {
        EXPECT_EQ(dec(gate_mux(enc(sel), enc(t), enc(f), ctx_)), sel ? t : f)
            << sel << t << f;
      }
    }
  }
}

TEST(Pbs, GateBootstrapRealParamsSingleNand) {
  // One NAND with the full 128-bit-security parameter set: exercises N=1024,
  // n=630 blind rotation end to end (the paper's TFHE-PBS workload).
  Rng rng(15);
  const TfheParams params = TfheParams::set_i();
  const LweKey lwe_key = lwe_keygen(params.n_lwe, rng);
  const TrlweKey trlwe_key = trlwe_keygen(params, rng);
  const BootstrapContext ctx = make_bootstrap_context(params, lwe_key, trlwe_key, rng);
  const LweSample a = encrypt_bit(true, lwe_key, params.lwe_sigma, rng);
  const LweSample b = encrypt_bit(true, lwe_key, params.lwe_sigma, rng);
  EXPECT_FALSE(decrypt_bit(gate_nand(a, b, ctx), lwe_key));
  const LweSample c = encrypt_bit(false, lwe_key, params.lwe_sigma, rng);
  EXPECT_TRUE(decrypt_bit(gate_nand(a, c, ctx), lwe_key));
}

// The external product's workspace is per thread, and the bootstrapping key
// is shared read-only: threads that run products of two shapes (re-sizing
// their own workspace each time) and bootstrapped gates on one shared
// context match the sequential results.
TEST(TfheConcurrency, SharedKeyMatchesSequential) {
  Rng rng(16);
  const TfheParams params = TfheParams::toy();
  const LweKey lwe_key = lwe_keygen(params.n_lwe, rng);
  const TrlweKey trlwe_key = trlwe_keygen(params, rng);
  const BootstrapContext ctx = make_bootstrap_context(params, lwe_key, trlwe_key, rng);
  const TfheParams big = TfheParams::set_i();
  const TrlweKey big_key = trlwe_keygen(big, rng);
  const TgswNtt big_g = tgsw_encrypt(big, big_key, 1, rng);
  const TrlweSample big_c = trlwe_encrypt_zero(big, big_key, rng);

  constexpr int kThreads = 4;
  std::vector<LweSample> x, y, want_gate;
  std::vector<TrlweSample> c, want_small;
  for (int t = 0; t < kThreads; ++t) {
    x.push_back(encrypt_bit(t & 1, lwe_key, 1e-12, rng));
    y.push_back(encrypt_bit(t & 2, lwe_key, 1e-12, rng));
    c.push_back(trlwe_encrypt_zero(params, trlwe_key, rng));
    want_gate.push_back(gate_nand(x[t], y[t], ctx));
    want_small.push_back(external_product(ctx.bk[t], c[t]));
  }
  const TrlweSample want_big = external_product(big_g, big_c);

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 2; ++round) {
        const TrlweSample small = external_product(ctx.bk[t], c[t]);
        const TrlweSample large = external_product(big_g, big_c);
        const LweSample gate = gate_nand(x[t], y[t], ctx);
        mismatches[t] += !(small.a == want_small[t].a && small.b == want_small[t].b);
        mismatches[t] += !(large.a == want_big.a && large.b == want_big.b);
        mismatches[t] += !(gate.a == want_gate[t].a && gate.b == want_gate[t].b);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace alchemist::tfhe
