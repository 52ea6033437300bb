#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>

#include "bfv/bfv.h"
#include "common/primes.h"
#include "common/rng.h"

namespace alchemist::bfv {
namespace {

struct BfvFixture {
  BfvContextPtr ctx;
  std::unique_ptr<BfvEncoder> encoder;
  std::unique_ptr<BfvKeyGenerator> keygen;
  std::unique_ptr<BfvEncryptor> encryptor;
  std::unique_ptr<BfvDecryptor> decryptor;
  std::unique_ptr<BfvEvaluator> evaluator;
  BfvRelinKey rk;

  explicit BfvFixture(std::size_t n = 1024) {
    ctx = std::make_shared<BfvContext>(BfvParams::toy(n));
    encoder = std::make_unique<BfvEncoder>(ctx);
    keygen = std::make_unique<BfvKeyGenerator>(ctx, 7);
    encryptor = std::make_unique<BfvEncryptor>(ctx, keygen->make_public_key());
    decryptor = std::make_unique<BfvDecryptor>(ctx, keygen->secret_key());
    evaluator = std::make_unique<BfvEvaluator>(ctx);
    rk = keygen->make_relin_key();
  }

  std::vector<u64> random_message(u64 seed) const {
    Rng rng(seed);
    return rng.uniform_vector(ctx->degree(), ctx->t());
  }
};

BfvFixture& fx() {
  static BfvFixture f;
  return f;
}

TEST(Bfv, ContextDerivation) {
  const BfvContext& ctx = *fx().ctx;
  EXPECT_TRUE(is_prime(ctx.q()));
  EXPECT_EQ((ctx.q() - 1) % (2 * ctx.degree()), 0u);
  EXPECT_EQ(ctx.t(), 65537u);
  EXPECT_GT(ctx.delta(), u64{1} << 37);
  EXPECT_EQ(ctx.relin_digits(), 4u);  // ceil(55 / 16)
  BfvParams bad;
  bad.t = 65536;  // not prime
  EXPECT_THROW(BfvContext{bad}, std::invalid_argument);
  bad = BfvParams::toy(1000);  // not a power of two
  EXPECT_THROW(BfvContext{bad}, std::invalid_argument);
}

TEST(Bfv, EncoderRoundTripAndSimdStructure) {
  BfvFixture& f = fx();
  const auto values = f.random_message(1);
  const auto plain = f.encoder->encode(values);
  EXPECT_EQ(f.encoder->decode(plain), values);
  // Adding plaintexts adds slots (mod t).
  const auto values2 = f.random_message(2);
  const auto plain2 = f.encoder->encode(values2);
  std::vector<u64> sum(plain.size());
  for (std::size_t i = 0; i < sum.size(); ++i) {
    sum[i] = add_mod(plain[i], plain2[i], f.ctx->t());
  }
  const auto decoded = f.encoder->decode(sum);
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i], (values[i] + values2[i]) % f.ctx->t()) << i;
  }
}

TEST(Bfv, EncryptDecryptExact) {
  BfvFixture& f = fx();
  const auto values = f.random_message(3);
  const auto ct = f.encryptor->encrypt(f.encoder->encode(values));
  EXPECT_EQ(f.encoder->decode(f.decryptor->decrypt(ct)), values);
}

TEST(Bfv, FreshNoiseIsSmall) {
  BfvFixture& f = fx();
  const auto values = f.random_message(4);
  const auto plain = f.encoder->encode(values);
  const auto ct = f.encryptor->encrypt(plain);
  // Fresh noise ~ N * sigma * ||u|| — far below Delta/2 (~2^38).
  EXPECT_LT(f.decryptor->noise_bits(ct, plain), 20.0);
}

TEST(Bfv, HomomorphicAddSubExact) {
  BfvFixture& f = fx();
  const auto a = f.random_message(5);
  const auto b = f.random_message(6);
  const auto ca = f.encryptor->encrypt(f.encoder->encode(a));
  const auto cb = f.encryptor->encrypt(f.encoder->encode(b));
  const auto sum = f.encoder->decode(f.decryptor->decrypt(f.evaluator->add(ca, cb)));
  const auto diff = f.encoder->decode(f.decryptor->decrypt(f.evaluator->sub(ca, cb)));
  const u64 t = f.ctx->t();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(sum[i], (a[i] + b[i]) % t) << i;
    EXPECT_EQ(diff[i], (a[i] + t - b[i]) % t) << i;
  }
}

TEST(Bfv, AddAndMulPlainExact) {
  BfvFixture& f = fx();
  const auto a = f.random_message(7);
  const auto p = f.random_message(8);
  const auto ct = f.encryptor->encrypt(f.encoder->encode(a));
  const auto ep = f.encoder->encode(p);
  const auto sum = f.encoder->decode(f.decryptor->decrypt(f.evaluator->add_plain(ct, ep)));
  const auto prod = f.encoder->decode(f.decryptor->decrypt(f.evaluator->mul_plain(ct, ep)));
  const u64 t = f.ctx->t();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(sum[i], (a[i] + p[i]) % t) << i;
    EXPECT_EQ(prod[i], static_cast<u64>((u128{a[i]} * p[i]) % t)) << i;
  }
}

TEST(Bfv, CiphertextMultiplyExact) {
  // The headline BFV property: exact modular integer products, slotwise.
  BfvFixture& f = fx();
  const auto a = f.random_message(9);
  const auto b = f.random_message(10);
  const auto ca = f.encryptor->encrypt(f.encoder->encode(a));
  const auto cb = f.encryptor->encrypt(f.encoder->encode(b));
  const auto prod =
      f.encoder->decode(f.decryptor->decrypt(f.evaluator->multiply(ca, cb, f.rk)));
  const u64 t = f.ctx->t();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(prod[i], static_cast<u64>((u128{a[i]} * b[i]) % t)) << i;
  }
}

TEST(Bfv, MultiplyThenAddComposition) {
  BfvFixture& f = fx();
  const auto a = f.random_message(11);
  const auto b = f.random_message(12);
  const auto c = f.random_message(13);
  const auto ca = f.encryptor->encrypt(f.encoder->encode(a));
  const auto cb = f.encryptor->encrypt(f.encoder->encode(b));
  const auto cc = f.encryptor->encrypt(f.encoder->encode(c));
  // a*b + c
  const auto res = f.encoder->decode(f.decryptor->decrypt(
      f.evaluator->add(f.evaluator->multiply(ca, cb, f.rk), cc)));
  const u64 t = f.ctx->t();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(res[i], static_cast<u64>((u128{a[i]} * b[i] + c[i]) % t)) << i;
  }
}

TEST(Bfv, SmallRingWorksToo) {
  BfvFixture small(256);
  const auto a = small.random_message(14);
  const auto b = small.random_message(15);
  const auto ca = small.encryptor->encrypt(small.encoder->encode(a));
  const auto cb = small.encryptor->encrypt(small.encoder->encode(b));
  const auto prod = small.encoder->decode(
      small.decryptor->decrypt(small.evaluator->multiply(ca, cb, small.rk)));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(prod[i], static_cast<u64>((u128{a[i]} * b[i]) % small.ctx->t())) << i;
  }
}

TEST(Bfv, ArgumentChecks) {
  BfvFixture& f = fx();
  std::vector<u64> wrong(f.ctx->degree() / 2, 0);
  EXPECT_THROW(f.encryptor->encrypt(wrong), std::invalid_argument);
  EXPECT_THROW(f.encoder->decode(wrong), std::invalid_argument);
  std::vector<u64> too_many(f.ctx->degree() + 1, 0);
  EXPECT_THROW(f.encoder->encode(too_many), std::invalid_argument);

  const auto ct = f.encryptor->encrypt(f.encoder->encode(f.random_message(16)));
  EXPECT_THROW(f.evaluator->add_plain(ct, wrong), std::invalid_argument);
  EXPECT_THROW(f.evaluator->mul_plain(ct, wrong), std::invalid_argument);
  EXPECT_THROW(f.decryptor->noise_bits(ct, wrong), std::invalid_argument);
  EXPECT_THROW(f.evaluator->multiply(ct, ct, BfvRelinKey{}), std::invalid_argument);
  BfvRelinKey short_rk = f.rk;
  short_rk.digits.pop_back();
  EXPECT_THROW(f.evaluator->multiply(ct, ct, short_rk), std::invalid_argument);
  // A ciphertext of another ring degree.
  BfvFixture small(256);
  const auto odd = small.encryptor->encrypt(small.encoder->encode(small.random_message(17)));
  EXPECT_THROW(f.evaluator->add(ct, odd), std::invalid_argument);
  EXPECT_THROW(f.evaluator->sub(odd, ct), std::invalid_argument);
}

TEST(Bfv, RejectsBadRingParameters) {
  BfvParams p = BfvParams::toy(1024);
  p.relin_window = 0;  // would divide by zero
  EXPECT_THROW(BfvContext{p}, std::invalid_argument);
  p.relin_window = p.q_bits + 1;
  EXPECT_THROW(BfvContext{p}, std::invalid_argument);
  p.relin_window = p.q_bits;  // one digit
  EXPECT_EQ(BfvContext{p}.relin_digits(), 1u);
  p = BfvParams::toy(1024);
  for (int bits : {30, 56, 64, 70}) {
    p.q_bits = bits;
    EXPECT_THROW(BfvContext{p}, std::invalid_argument) << bits;
  }
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
  Digest& add(const BfvCiphertext& ct) { return add(ct.c0).add(ct.c1); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t scheme_digest(const BfvParams& params, u64 seed) {
  const auto ctx = std::make_shared<BfvContext>(params);
  const BfvEncoder encoder(ctx);
  BfvKeyGenerator keygen(ctx, seed);
  const BfvPublicKey pk = keygen.make_public_key();
  const BfvRelinKey rk = keygen.make_relin_key();
  BfvEncryptor encryptor(ctx, pk, seed + 1);
  const BfvDecryptor decryptor(ctx, keygen.secret_key());
  const BfvEvaluator ev(ctx);
  Rng rng(seed + 2);
  const auto a = encoder.encode(rng.uniform_vector(ctx->degree(), ctx->t()));
  const auto b = encoder.encode(rng.uniform_vector(ctx->degree(), ctx->t()));
  const BfvCiphertext ca = encryptor.encrypt(a);
  const BfvCiphertext cb = encryptor.encrypt(b);
  const BfvCiphertext prod = ev.multiply(ca, cb, rk);

  Digest d;
  d.add(keygen.secret_key().s).add(pk.b).add(pk.a);
  for (const auto& [rb, ra] : rk.digits) d.add(rb).add(ra);
  d.add(ca).add(cb).add(ev.add(ca, cb)).add(ev.sub(ca, cb)).add(ev.negate(ca));
  d.add(ev.add_plain(ca, b)).add(ev.mul_plain(ca, b)).add(prod);
  return d.add(decryptor.decrypt(prod)).value();
}

TEST(Bfv, DigestsArePinned) {
  EXPECT_EQ(scheme_digest(BfvParams::toy(1024), 21), 0x47714c1632070c77ull) << "toy(1024)";
  BfvParams small = BfvParams::toy(16);
  small.t = 97;
  EXPECT_EQ(scheme_digest(small, 22), 0x82165fd1ceac5df4ull) << "N=16 t=97";
}

}  // namespace
}  // namespace alchemist::bfv
