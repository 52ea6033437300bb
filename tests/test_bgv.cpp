#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>

#include "bfv/bgv.h"
#include "common/rng.h"

namespace alchemist::bgv {
namespace {

struct BgvFixture {
  BgvContextPtr ctx;
  std::unique_ptr<BgvKeyGenerator> keygen;
  std::unique_ptr<BgvEncryptor> encryptor;
  std::unique_ptr<BgvDecryptor> decryptor;
  std::unique_ptr<BgvEvaluator> evaluator;
  BgvRelinKey rk;

  BgvFixture() {
    ctx = std::make_shared<BgvContext>(BfvParams::toy(1024));
    keygen = std::make_unique<BgvKeyGenerator>(ctx, 9);
    encryptor = std::make_unique<BgvEncryptor>(ctx, keygen->make_public_key());
    decryptor = std::make_unique<BgvDecryptor>(ctx, keygen->secret_key());
    evaluator = std::make_unique<BgvEvaluator>(ctx);
    rk = keygen->make_relin_key();
  }

  std::vector<u64> random_message(u64 seed) const {
    Rng rng(seed);
    return rng.uniform_vector(ctx->degree(), ctx->t());
  }
};

BgvFixture& fx() {
  static BgvFixture f;
  return f;
}

TEST(Bgv, EncryptDecryptExact) {
  BgvFixture& f = fx();
  const auto values = f.random_message(1);
  const auto ct = f.encryptor->encrypt(bgv_encode(*f.ctx, values));
  EXPECT_EQ(bgv_decode(*f.ctx, f.decryptor->decrypt(ct)), values);
}

TEST(Bgv, AddSubPlainOps) {
  BgvFixture& f = fx();
  const auto a = f.random_message(2);
  const auto b = f.random_message(3);
  const auto ca = f.encryptor->encrypt(bgv_encode(*f.ctx, a));
  const auto cb = f.encryptor->encrypt(bgv_encode(*f.ctx, b));
  const u64 t = f.ctx->t();

  const auto sum = bgv_decode(*f.ctx, f.decryptor->decrypt(f.evaluator->add(ca, cb)));
  const auto diff = bgv_decode(*f.ctx, f.decryptor->decrypt(f.evaluator->sub(ca, cb)));
  const auto psum = bgv_decode(
      *f.ctx, f.decryptor->decrypt(f.evaluator->add_plain(ca, bgv_encode(*f.ctx, b))));
  const auto pprod = bgv_decode(
      *f.ctx, f.decryptor->decrypt(f.evaluator->mul_plain(ca, bgv_encode(*f.ctx, b))));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(sum[i], (a[i] + b[i]) % t) << i;
    EXPECT_EQ(diff[i], (a[i] + t - b[i]) % t) << i;
    EXPECT_EQ(psum[i], (a[i] + b[i]) % t) << i;
    EXPECT_EQ(pprod[i], static_cast<u64>((u128{a[i]} * b[i]) % t)) << i;
  }
}

TEST(Bgv, CiphertextMultiplyExact) {
  BgvFixture& f = fx();
  const auto a = f.random_message(4);
  const auto b = f.random_message(5);
  const auto ca = f.encryptor->encrypt(bgv_encode(*f.ctx, a));
  const auto cb = f.encryptor->encrypt(bgv_encode(*f.ctx, b));
  const auto prod =
      bgv_decode(*f.ctx, f.decryptor->decrypt(f.evaluator->multiply(ca, cb, f.rk)));
  const u64 t = f.ctx->t();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(prod[i], static_cast<u64>((u128{a[i]} * b[i]) % t)) << i;
  }
}

TEST(Bgv, MultiplyThenLinearOps) {
  BgvFixture& f = fx();
  const auto a = f.random_message(6);
  const auto b = f.random_message(7);
  const auto c = f.random_message(8);
  const auto ca = f.encryptor->encrypt(bgv_encode(*f.ctx, a));
  const auto cb = f.encryptor->encrypt(bgv_encode(*f.ctx, b));
  const auto cc = f.encryptor->encrypt(bgv_encode(*f.ctx, c));
  const auto res = bgv_decode(*f.ctx, f.decryptor->decrypt(f.evaluator->add(
                                          f.evaluator->multiply(ca, cb, f.rk), cc)));
  const u64 t = f.ctx->t();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(res[i], static_cast<u64>((u128{a[i]} * b[i] + c[i]) % t)) << i;
  }
}

TEST(Bgv, AgreesWithBfvSemantics) {
  // BGV and BFV realize the same plaintext algebra Z_t^N; the same program
  // must give the same answers under both schemes.
  BgvFixture& f = fx();
  auto bfv_ctx = std::make_shared<bfv::BfvContext>(BfvParams::toy(1024));
  bfv::BfvEncoder bfv_encoder(bfv_ctx);
  bfv::BfvKeyGenerator bfv_keygen(bfv_ctx, 10);
  bfv::BfvEncryptor bfv_encryptor(bfv_ctx, bfv_keygen.make_public_key());
  bfv::BfvDecryptor bfv_decryptor(bfv_ctx, bfv_keygen.secret_key());
  bfv::BfvEvaluator bfv_evaluator(bfv_ctx);
  const bfv::BfvRelinKey bfv_rk = bfv_keygen.make_relin_key();

  const auto a = f.random_message(11);
  const auto b = f.random_message(12);

  const auto bgv_result = bgv_decode(
      *f.ctx, f.decryptor->decrypt(f.evaluator->multiply(
                  f.encryptor->encrypt(bgv_encode(*f.ctx, a)),
                  f.encryptor->encrypt(bgv_encode(*f.ctx, b)), f.rk)));
  const auto bfv_result = bfv_encoder.decode(bfv_decryptor.decrypt(
      bfv_evaluator.multiply(bfv_encryptor.encrypt(bfv_encoder.encode(a)),
                             bfv_encryptor.encrypt(bfv_encoder.encode(b)), bfv_rk)));
  EXPECT_EQ(bgv_result, bfv_result);
}

TEST(Bgv, ArgumentChecks) {
  BgvFixture& f = fx();
  std::vector<u64> wrong(f.ctx->degree() / 2, 0);
  EXPECT_THROW(f.encryptor->encrypt(wrong), std::invalid_argument);
  BfvParams bad;
  bad.t = 65536;
  EXPECT_THROW(BgvContext{bad}, std::invalid_argument);

  const auto ct = f.encryptor->encrypt(bgv_encode(*f.ctx, f.random_message(13)));
  EXPECT_THROW(f.evaluator->add_plain(ct, wrong), std::invalid_argument);
  EXPECT_THROW(f.evaluator->mul_plain(ct, wrong), std::invalid_argument);
  EXPECT_THROW(f.evaluator->multiply(ct, ct, BgvRelinKey{}), std::invalid_argument);
  BgvRelinKey short_rk = f.rk;
  short_rk.digits.pop_back();
  EXPECT_THROW(f.evaluator->multiply(ct, ct, short_rk), std::invalid_argument);
  // A ciphertext of another ring degree.
  auto small = std::make_shared<BgvContext>(BfvParams::toy(256));
  BgvKeyGenerator small_keygen(small, 14);
  BgvEncryptor small_encryptor(small, small_keygen.make_public_key());
  const auto odd = small_encryptor.encrypt(std::vector<u64>(small->degree(), 1));
  EXPECT_THROW(f.evaluator->add(ct, odd), std::invalid_argument);
  EXPECT_THROW(f.evaluator->sub(odd, ct), std::invalid_argument);
}

TEST(Bgv, RejectsBadRingParameters) {
  BfvParams p = BfvParams::toy(1024);
  p.relin_window = 0;  // would divide by zero
  EXPECT_THROW(BgvContext{p}, std::invalid_argument);
  p.relin_window = p.q_bits + 1;
  EXPECT_THROW(BgvContext{p}, std::invalid_argument);
  p = BfvParams::toy(1024);
  for (int bits : {63, 64, 70}) {  // outside the prime search's [3, 62]
    p.q_bits = bits;
    EXPECT_THROW(BgvContext{p}, std::invalid_argument) << bits;
  }
}

TEST(Bgv, MultiplyExactAtWideModulus) {
  // BGV needs the tensor product only mod q. At q_bits = 60, N*(q/2)^2
  // exceeds what a two-prime 62-bit CRT can hold exactly.
  BfvParams params = BfvParams::toy(1024);
  params.q_bits = 60;
  auto ctx = std::make_shared<BgvContext>(params);
  BgvKeyGenerator keygen(ctx, 15);
  BgvEncryptor encryptor(ctx, keygen.make_public_key());
  BgvDecryptor decryptor(ctx, keygen.secret_key());
  BgvEvaluator evaluator(ctx);
  Rng rng(16);
  const auto a = rng.uniform_vector(ctx->degree(), ctx->t());
  const auto b = rng.uniform_vector(ctx->degree(), ctx->t());
  const auto prod = bgv_decode(
      *ctx, decryptor.decrypt(evaluator.multiply(encryptor.encrypt(bgv_encode(*ctx, a)),
                                                 encryptor.encrypt(bgv_encode(*ctx, b)),
                                                 keygen.make_relin_key())));
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    wrong += prod[i] != static_cast<u64>((u128{a[i]} * b[i]) % ctx->t());
  }
  EXPECT_EQ(wrong, 0u) << "of " << a.size() << " slots";
}

// FNV-1a over every key, ciphertext and evaluator output. Residue arithmetic
// mod q is exact and the RNG draw order is fixed, so any rewrite of the ring
// code must reproduce these bit for bit. (Error draws pass through libm's log
// and cos before rounding to integers, so a different libm could move them.)
class Digest {
 public:
  Digest& add(std::span<const u64> words) {
    for (u64 w : words) {
      for (int i = 0; i < 8; ++i) {
        h_ ^= (w >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ull;
      }
    }
    return *this;
  }
  Digest& add(const Polynomial& p) { return add(p.coeffs()); }
  Digest& add(const BgvCiphertext& ct) { return add(ct.c0).add(ct.c1); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t scheme_digest(const BfvParams& params, u64 seed) {
  const auto ctx = std::make_shared<BgvContext>(params);
  BgvKeyGenerator keygen(ctx, seed);
  const BgvPublicKey pk = keygen.make_public_key();
  const BgvRelinKey rk = keygen.make_relin_key();
  BgvEncryptor encryptor(ctx, pk, seed + 1);
  const BgvDecryptor decryptor(ctx, keygen.secret_key());
  const BgvEvaluator ev(ctx);
  Rng rng(seed + 2);
  const auto a = bgv_encode(*ctx, rng.uniform_vector(ctx->degree(), ctx->t()));
  const auto b = bgv_encode(*ctx, rng.uniform_vector(ctx->degree(), ctx->t()));
  const BgvCiphertext ca = encryptor.encrypt(a);
  const BgvCiphertext cb = encryptor.encrypt(b);
  const BgvCiphertext prod = ev.multiply(ca, cb, rk);

  Digest d;
  d.add(keygen.secret_key().s).add(pk.b).add(pk.a);
  for (const auto& [rb, ra] : rk.digits) d.add(rb).add(ra);
  d.add(ca).add(cb).add(ev.add(ca, cb)).add(ev.sub(ca, cb));
  d.add(ev.add_plain(ca, b)).add(ev.mul_plain(ca, b)).add(prod);
  return d.add(decryptor.decrypt(prod)).value();
}

TEST(Bgv, DigestsArePinned) {
  EXPECT_EQ(scheme_digest(BfvParams::toy(1024), 23), 0x1c8c9cb52ab7a7e9ull) << "toy(1024)";
  BfvParams small = BfvParams::toy(16);
  small.t = 97;
  EXPECT_EQ(scheme_digest(small, 24), 0x79ad1df04e648ec0ull) << "N=16 t=97";
}

}  // namespace
}  // namespace alchemist::bgv
