// Bit-exactness of the CKKS host evaluator.
//
// RNS arithmetic is exact, so any rewrite of the keyswitch (Modup,
// DecompPolyMult, Moddown) or of the ops built on it must reproduce earlier
// outputs bit for bit. The pinned FNV-1a digests below come from the
// straightforward implementation (eager per-digit products folded term by
// term, scalars encoded as constant plaintexts). Every input is a seeded
// uniform RnsPoly, keys included, and every coefficient list is written out:
// no Gaussian sampler and no libm call feeds a digest.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <memory>
#include <ostream>

#include "ckks/bootstrap.h"
#include "ckks/evaluator.h"
#include "ckks/linear_transform.h"
#include "ckks/poly_eval.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"

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

constexpr std::uint64_t kKeyswitchL4 = 0xb6b62979529c0ebdull;

TEST(CkksExact, KeyswitchPinned) {
  EXPECT_EQ(keyswitch_digest(CkksParams::toy(256, 4, 2), 4, 1), kKeyswitchL4)
      << "L=4 dnum=2";
  EXPECT_EQ(keyswitch_digest(CkksParams::toy(256, 6, 3), 5, 2), 0xd7679aaf339dfa6cull)
      << "L=6 dnum=3 at level 5";
  EXPECT_EQ(keyswitch_digest(CkksParams::toy(256, 5, 5), 3, 3), 0x1b24ccaeea42d27cull)
      << "L=5 dnum=5 at level 3";
}

struct MultiplyDigests {
  std::uint64_t multiply, rescale;
};

MultiplyDigests multiply_digests() {
  const CkksParams params = CkksParams::toy(256, 4, 2);
  const auto ctx = std::make_shared<CkksContext>(params);
  Rng rng(4);
  const RelinKeys rk{random_key(*ctx, rng)};
  const Ciphertext a = random_ct(*ctx, 4, rng);
  const Ciphertext b = random_ct(*ctx, 4, rng);
  const Evaluator eval(ctx);
  const Ciphertext prod = eval.multiply(a, b, rk);
  return {Digest().add(prod).value(), Digest().add(eval.rescale(prod)).value()};
}

constexpr MultiplyDigests kMultiply = {0x2114a6ff28fe168full, 0x59545fa53c5cdd65ull};

TEST(CkksExact, MultiplyRescalePinned) {
  const MultiplyDigests d = multiply_digests();
  EXPECT_EQ(d.multiply, kMultiply.multiply) << "multiply";
  EXPECT_EQ(d.rescale, kMultiply.rescale) << "rescale";
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

constexpr RotationDigests kRotationsTop = {0x59fdf698c534065bull, 0xf40b304b1a59488dull,
                                           0x8e0a9b2dd28185c2ull};

TEST(CkksExact, RotationsPinned) {
  const RotationDigests top = rotation_digests(5, 5);
  EXPECT_EQ(top.rotate, kRotationsTop.rotate) << "rotate";
  EXPECT_EQ(top.hoisted, kRotationsTop.hoisted) << "rotate_hoisted";
  EXPECT_EQ(top.conjugate, kRotationsTop.conjugate) << "conjugate";
  const RotationDigests low = rotation_digests(2, 6);
  EXPECT_EQ(low.rotate, 0x0e5c8540d6716b8aull) << "rotate, level 2";
  EXPECT_EQ(low.hoisted, 0xb120031e2b759becull) << "rotate_hoisted, level 2";
  EXPECT_EQ(low.conjugate, 0xd9f59597f923296cull) << "conjugate, level 2";
}

// The ckks_helr shape of bench/e2e: N = 2048, L = 18, dnum = 3, so
// alpha = K = 6. At level 13 the last of the 3 digits holds one prime.
// Uniform keys for every power-of-two rotation below the slot count, for
// conjugation and for relinearization.
struct HelrShape {
  ContextPtr ctx = std::make_shared<CkksContext>(CkksParams::toy(2048, 18, 3));
  std::vector<int> steps;
  GaloisKeys gk;
  RelinKeys rk;

  explicit HelrShape(u64 seed) {
    Rng rng(seed);
    for (std::size_t s = 1; s < ctx->params().slots(); s <<= 1) {
      steps.push_back(static_cast<int>(s));
    }
    for (int s : steps) gk.keys.emplace(ctx->galois_elt_for_rotation(s), random_key(*ctx, rng));
    gk.keys.emplace(ctx->galois_elt_conjugate(), random_key(*ctx, rng));
    rk.key = random_key(*ctx, rng);
  }
};

const HelrShape& helr_shape() {
  static const HelrShape shape(14);
  return shape;
}

struct HelrDigests {
  std::uint64_t rotate, conjugate, multiply;
};

// Every power-of-two rotation, conjugate and multiply at `level`.
HelrDigests helr_digests(std::size_t level, u64 seed) {
  const HelrShape& h = helr_shape();
  Rng rng(seed);
  const Ciphertext a = random_ct(*h.ctx, level, rng);
  const Ciphertext b = random_ct(*h.ctx, level, rng);
  const Evaluator eval(h.ctx);
  Digest rotate;
  for (int s : h.steps) rotate.add(eval.rotate(a, s, h.gk));
  return {rotate.value(), Digest().add(eval.conjugate(a, h.gk)).value(),
          Digest().add(eval.multiply(a, b, h.rk)).value()};
}

constexpr HelrDigests kHelrPartial = {0xaf8590a7000424ffull, 0x41d3dcfe9a86b19dull,
                                      0x71f6a123a4afc584ull};

TEST(CkksExact, HelrShapePinned) {
  const HelrDigests partial = helr_digests(13, 15);
  EXPECT_EQ(partial.rotate, kHelrPartial.rotate) << "rotate, level 13";
  EXPECT_EQ(partial.conjugate, kHelrPartial.conjugate) << "conjugate, level 13";
  EXPECT_EQ(partial.multiply, kHelrPartial.multiply) << "multiply, level 13";
  const HelrDigests top = helr_digests(18, 16);
  EXPECT_EQ(top.rotate, 0x947eb64b3dacd12full) << "rotate, level 18";
  EXPECT_EQ(top.conjugate, 0x1a9a7fc12462b26dull) << "conjugate, level 18";
  EXPECT_EQ(top.multiply, 0x51710e800aef6e7bull) << "multiply, level 18";
}

// Ten hoisted steps, the identity first, over the partial last digit.
std::uint64_t helr_hoisted_digest() {
  const HelrShape& h = helr_shape();
  std::vector<int> steps = {0};
  steps.insert(steps.end(), h.steps.begin(), h.steps.begin() + 9);
  Rng rng(17);
  const Ciphertext ct = random_ct(*h.ctx, 13, rng);
  Digest d;
  for (const Ciphertext& r : Evaluator(h.ctx).rotate_hoisted(ct, steps, h.gk)) d.add(r);
  return d.value();
}

constexpr std::uint64_t kHelrHoisted = 0x07b2cd1bbafce3eeull;

TEST(CkksExact, HelrShapeHoistedPinned) { EXPECT_EQ(helr_hoisted_digest(), kHelrHoisted); }

// The ckks_boot shape of bench/e2e: N = 256, L = 20, dnum = 4 (so
// alpha = K = 5), 45-bit primes, Delta = 2^45, h = 32. Uniform keys for
// relinearization, conjugation and every rotation of the dense 128-slot
// CoeffToSlot matrix, so one key set serves its plain and BSGS schedules
// and the bootstrap. Unlike the digests above, these go through libm (the
// transform matrices and the sine fit) and the encoder's floating-point
// IFFT: they are pinned for one libm, not derived from residues alone.
struct BootShape {
  ContextPtr ctx;
  CkksEncoder encoder;
  Evaluator eval;
  RelinKeys rk;
  GaloisKeys gk;
  LinearTransform cts;
  std::unique_ptr<Bootstrapper> boot;

  static CkksParams params() {
    CkksParams p = CkksParams::toy(256, 20, 4);
    p.prime_bits = 45;
    p.log_scale = 45;
    p.secret_hamming_weight = 32;
    return p;
  }

  explicit BootShape(u64 seed)
      : ctx(std::make_shared<CkksContext>(params())),
        encoder(ctx),
        eval(ctx),
        cts(ctx, coeff_to_slot_matrix(*ctx)) {
    Rng rng(seed);
    rk.key = random_key(*ctx, rng);
    for (int s : cts.required_rotations(/*bsgs=*/false)) {
      gk.keys.emplace(ctx->galois_elt_for_rotation(s), random_key(*ctx, rng));
    }
    gk.keys.emplace(ctx->galois_elt_conjugate(), random_key(*ctx, rng));
    BootstrapConfig config;
    config.i_bound = 9.0;
    config.sine_degree = 140;
    boot = std::make_unique<Bootstrapper>(ctx, encoder, eval, rk, gk, config);
  }
};

const BootShape& boot_shape() {
  static const BootShape shape(19);
  return shape;
}

struct BootDigests {
  std::uint64_t bsgs, plain, bootstrap;
};

// The dense CoeffToSlot transform, BSGS and plain, on a top-level
// ciphertext, and one whole bootstrap of a level-1 ciphertext.
BootDigests boot_digests() {
  const BootShape& b = boot_shape();
  const double delta = b.ctx->params().scale();
  Rng rng(20);
  Ciphertext top = random_ct(*b.ctx, b.ctx->params().num_levels, rng);
  top.scale = delta;
  Ciphertext low = random_ct(*b.ctx, 1, rng);
  low.scale = delta;
  auto transform = [&](bool bsgs) {
    return Digest().add(b.cts.apply(b.eval, b.encoder, top, b.gk, delta, bsgs)).value();
  };
  return {transform(true), transform(false), Digest().add(b.boot->bootstrap(low)).value()};
}

constexpr BootDigests kBoot = {0x352d5f6816f00229ull, 0x0163d83a8051b349ull,
                                0x35f49674b706bfcbull};

TEST(CkksExact, BootShapePinned) {
  const BootDigests d = boot_digests();
  EXPECT_EQ(d.bsgs, kBoot.bsgs) << "LinearTransform::apply, BSGS";
  EXPECT_EQ(d.plain, kBoot.plain) << "LinearTransform::apply, plain";
  EXPECT_EQ(d.bootstrap, kBoot.bootstrap) << "Bootstrapper::bootstrap";
}

// Restores the process-wide ISA selection on scope exit.
class IsaGuard {
 public:
  IsaGuard() : saved_(simd::active_isa()) {}
  ~IsaGuard() { simd::set_isa(saved_); }

 private:
  simd::Isa saved_;
};

// Every tier gives the same canonical residues, whatever its lazy
// intermediates, so the pinned keyswitch, rotate, hoisted-rotate and
// multiply digests hold under each ISA this host supports, at the toy shape,
// at the ckks_helr shape (N = 2048, primes below 2^50) and, for the linear
// transforms and the bootstrap, at the ckks_boot shape (45-bit primes).
TEST(CkksExact, DigestsUnderEveryIsa) {
  IsaGuard guard;
  for (std::size_t i = 0; i < simd::kNumIsas; ++i) {
    const auto isa = static_cast<simd::Isa>(i);
    if (!simd::isa_supported(isa)) continue;
    simd::set_isa(isa);
    SCOPED_TRACE(simd::isa_name(isa));
    EXPECT_EQ(keyswitch_digest(CkksParams::toy(256, 4, 2), 4, 1), kKeyswitchL4) << "keyswitch";
    const RotationDigests rot = rotation_digests(5, 5);
    EXPECT_EQ(rot.rotate, kRotationsTop.rotate) << "rotate";
    EXPECT_EQ(rot.hoisted, kRotationsTop.hoisted) << "rotate_hoisted";
    EXPECT_EQ(multiply_digests().multiply, kMultiply.multiply) << "multiply";
    const HelrDigests helr = helr_digests(13, 15);
    EXPECT_EQ(helr.rotate, kHelrPartial.rotate) << "rotate, ckks_helr shape";
    EXPECT_EQ(helr.multiply, kHelrPartial.multiply) << "multiply, ckks_helr shape";
    EXPECT_EQ(helr_hoisted_digest(), kHelrHoisted) << "rotate_hoisted, ckks_helr shape";
    const BootDigests boot = boot_digests();
    EXPECT_EQ(boot.bsgs, kBoot.bsgs) << "LinearTransform::apply BSGS, ckks_boot shape";
    EXPECT_EQ(boot.plain, kBoot.plain) << "LinearTransform::apply plain, ckks_boot shape";
    EXPECT_EQ(boot.bootstrap, kBoot.bootstrap) << "bootstrap, ckks_boot shape";
  }
}

struct NttCount {
  std::uint64_t fwd = 0, inv = 0;
  bool operator==(const NttCount&) const = default;
};

std::ostream& operator<<(std::ostream& os, const NttCount& c) {
  return os << c.fwd << " forward / " << c.inv << " inverse";
}

// Forward and inverse NTTs that `op` runs, from the SIMD dispatch counters.
template <typename Op>
NttCount count_ntts(Op&& op) {
  auto total = [](simd::Kern k) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < simd::kNumIsas; ++i) {
      sum += simd::dispatch_count(k, static_cast<simd::Isa>(i));
    }
    return sum;
  };
  const NttCount before{total(simd::Kern::NttFwd), total(simd::Kern::NttInv)};
  op();
  return {total(simd::Kern::NttFwd) - before.fwd, total(simd::Kern::NttInv) - before.inv};
}

TEST(CkksExact, KeyswitchNttCounts) {
  // At level l with d digits and K special primes, Modup inverse-NTTs the l
  // digit channels and NTTs the d(l+K) - l channels BConv fills; each
  // Moddown inverse-NTTs K channels and NTTs l. Automorphisms are slot
  // permutations, so a rotation costs what a multiply does, and each
  // further hoisted rotation only its two Moddowns. The identity step is
  // free.
  const HelrShape& h = helr_shape();
  const Evaluator eval(h.ctx);
  const std::uint64_t k = h.ctx->params().num_special();
  for (std::size_t level : {13u, 18u}) {
    Rng rng(18 + level);
    const Ciphertext a = random_ct(*h.ctx, level, rng);
    const Ciphertext b = random_ct(*h.ctx, level, rng);
    const std::uint64_t l = level, d = h.ctx->num_digits_at(level);
    const NttCount one{d * (l + k) + l, l + 2 * k};
    EXPECT_EQ(count_ntts([&] { eval.rotate(a, 1, h.gk); }), one) << "rotate, level " << l;
    EXPECT_EQ(count_ntts([&] { eval.conjugate(a, h.gk); }), one) << "conjugate, level " << l;
    EXPECT_EQ(count_ntts([&] { eval.multiply(a, b, h.rk); }), one) << "multiply, level " << l;
    const std::vector<int> steps = {0, 1, 2, 4, 8};
    const std::uint64_t rotations = steps.size() - 1;
    EXPECT_EQ(count_ntts([&] { eval.rotate_hoisted(a, steps, h.gk); }),
              (NttCount{d * (l + k) - l + 2 * l * rotations, l + 2 * k * rotations}))
        << "rotate_hoisted, level " << l;
  }
  // The ckks_helr step rotates at level 13: 70 / 25, down from 109 / 51
  // when automorphisms ran an NTT round trip and Modup worked in
  // coefficient form.
  Rng rng(31);
  const Ciphertext a = random_ct(*h.ctx, 13, rng);
  EXPECT_EQ(count_ntts([&] { eval.rotate(a, 1, h.gk); }), (NttCount{70, 25}));
}

struct FanOuts {
  std::uint64_t parallel_fors = 0, inline_runs = 0;
  bool operator==(const FanOuts&) const = default;
};

std::ostream& operator<<(std::ostream& os, const FanOuts& f) {
  return os << f.parallel_fors << " fan-outs / " << f.inline_runs << " inline runs";
}

// Pool calls that `op` makes on a 2-wide pool, from ThreadPool::stats().
// Chunk boundaries and the nested-calls-run-inline rule depend only on the
// pool width, never on scheduling, so these counts are exact.
template <typename Op>
FanOuts count_fan_outs(Op&& op) {
  const std::size_t prev = ThreadPool::instance().num_threads();
  ThreadPool::set_threads(2);
  const SubstrateStats before = ThreadPool::instance().stats();
  op();
  const SubstrateStats after = ThreadPool::instance().stats();
  ThreadPool::set_threads(prev);
  return {after.parallel_fors - before.parallel_fors, after.inline_runs - before.inline_runs};
}

TEST(CkksExact, FanOutCountsPinned) {
  // On the N = 256 rings of ckks_boot every channel loop runs inline under
  // the grain rule, and only the keyswitch digits fan out. The N = 2048
  // rings of ckks_helr still fan their channel loops out.
  const BootShape& b = boot_shape();
  const std::size_t top = b.ctx->params().num_levels;
  Rng rng(32);
  Ciphertext x = random_ct(*b.ctx, top, rng);
  Ciphertext y = random_ct(*b.ctx, top, rng);
  Ciphertext low = random_ct(*b.ctx, 1, rng);
  low.scale = x.scale = y.scale = b.ctx->params().scale();
  EXPECT_EQ(count_fan_outs([&] { b.eval.rotate(x, 1, b.gk); }), (FanOuts{1, 144}))
      << "rotate, N = 256";
  EXPECT_EQ(count_fan_outs([&] { b.eval.multiply(x, y, b.rk); }), (FanOuts{1, 148}))
      << "multiply, N = 256";
  EXPECT_EQ(count_fan_outs([&] { b.boot->bootstrap(low); }), (FanOuts{62, 10309}))
      << "bootstrap, N = 256";

  const HelrShape& h = helr_shape();
  const Ciphertext a = random_ct(*h.ctx, 13, rng);
  const Ciphertext c = random_ct(*h.ctx, 13, rng);
  const Evaluator eval(h.ctx);
  EXPECT_EQ(count_fan_outs([&] { eval.rotate(a, 1, h.gk); }), (FanOuts{13, 79}))
      << "rotate, N = 2048";
  EXPECT_EQ(count_fan_outs([&] { eval.multiply(a, c, h.rk); }), (FanOuts{17, 79}))
      << "multiply, N = 2048";
}

struct ScalarDigests {
  std::uint64_t mul, add;
};

// Real mul_scalar (by a scalar at `scale`) and add_scalar of one ciphertext
// at `level` and `scale`, over positive, negative and zero values.
ScalarDigests scalar_digests(std::size_t level, double scale, u64 seed) {
  const auto ctx = std::make_shared<CkksContext>(CkksParams::toy(256, 5, 2));
  Rng rng(seed);
  Ciphertext ct = random_ct(*ctx, level, rng);
  ct.scale = scale;
  const CkksEncoder encoder(ctx);
  const Evaluator eval(ctx);
  Digest mul, add;
  for (double v : {0.8125, -3.3, 0.0, -0.0, 1e-3, -12345.5}) {
    mul.add(eval.mul_scalar(ct, v, encoder, scale));
    add.add(eval.add_scalar(ct, v, encoder));
  }
  return {mul.value(), add.value()};
}

TEST(CkksExact, ScalarOpsPinned) {
  const double delta = 0x1.0p40;
  const ScalarDigests top = scalar_digests(5, delta, 7);
  EXPECT_EQ(top.mul, 0x6146868e25e49989ull) << "mul_scalar, Delta, top level";
  EXPECT_EQ(top.add, 0x12e8e2e01e19f903ull) << "add_scalar, Delta, top level";
  const ScalarDigests top_sq = scalar_digests(5, delta * delta, 8);
  EXPECT_EQ(top_sq.mul, 0x8040ed54c8955f07ull) << "mul_scalar, Delta^2, top level";
  EXPECT_EQ(top_sq.add, 0xb6a38b02f344a937ull) << "add_scalar, Delta^2, top level";
  const ScalarDigests low = scalar_digests(2, delta, 9);
  EXPECT_EQ(low.mul, 0x39d54bc0bfd46b31ull) << "mul_scalar, Delta, level 2";
  EXPECT_EQ(low.add, 0x08e552e56bdbb4e1ull) << "add_scalar, Delta, level 2";
  const ScalarDigests low_sq = scalar_digests(2, delta * delta, 10);
  EXPECT_EQ(low_sq.mul, 0x844bc655aebbe566ull) << "mul_scalar, Delta^2, level 2";
  EXPECT_EQ(low_sq.add, 0x19ab3aa1dcd6db28ull) << "add_scalar, Delta^2, level 2";
}

TEST(CkksExact, MulScalarByIPinned) {
  const auto ctx = std::make_shared<CkksContext>(CkksParams::toy(256, 5, 2));
  Rng rng(11);
  const Ciphertext ct = random_ct(*ctx, 4, rng);
  const CkksEncoder encoder(ctx);
  const Evaluator eval(ctx);
  Digest d;
  d.add(eval.mul_scalar(ct, std::complex<double>{0.0, 1.0}, encoder, ct.scale));
  d.add(eval.mul_scalar(ct, std::complex<double>{0.5, -2.25}, encoder, ct.scale));
  EXPECT_EQ(d.value(), 0xf32e6bef228dcdb5ull);
}

// PolyEvaluator over a uniform ciphertext with a uniform relinearization key.
class PolyEvalDigest {
 public:
  PolyEvalDigest(CkksParams params, u64 seed)
      : ctx_(std::make_shared<CkksContext>(params)),
        rng_(seed),
        rk_{random_key(*ctx_, rng_)},
        ct_(random_ct(*ctx_, params.num_levels, rng_)),
        encoder_(ctx_),
        eval_(ctx_),
        poly_(ctx_, encoder_, eval_, rk_) {}

  std::uint64_t evaluate(std::vector<double> coeffs) const {
    return Digest().add(poly_.evaluate(ct_, coeffs)).value();
  }
  std::uint64_t chebyshev(std::vector<double> coeffs, double a, double b) const {
    return Digest().add(poly_.evaluate_chebyshev_stable(ct_, coeffs, a, b)).value();
  }

 private:
  ContextPtr ctx_;
  Rng rng_;
  RelinKeys rk_;
  Ciphertext ct_;
  CkksEncoder encoder_;
  Evaluator eval_;
  PolyEvaluator poly_;
};

TEST(CkksExact, PolyEvaluatePinned) {
  const PolyEvalDigest p(CkksParams::toy(256, 6, 3), 12);
  EXPECT_EQ(p.evaluate({0.5}), 0xd4c8c24325ed5d25ull) << "degree 0";
  EXPECT_EQ(p.evaluate({0.25, -1.5}), 0x070c254be714962cull) << "degree 1";
  EXPECT_EQ(p.evaluate({0.125, -0.75, 0.0625, 1.375}), 0x5a78b5ef578df660ull) << "degree 3";
}

TEST(CkksExact, ChebyshevPinned) {
  // Degree 8 splits into babies T_1..T_3 and giants T_3, T_6, and recurses
  // twice; the zero coefficients exercise the skipped terms.
  const PolyEvalDigest p(CkksParams::toy(256, 8, 4), 13);
  EXPECT_EQ(p.chebyshev({0.3, -1.25, 0.0, 0.5, -0.125, 0.0, 0.75, -0.0625, 0.4375},
                        -1.5, 2.5),
            0xa55868f8832851f9ull);
}

}  // namespace
}  // namespace alchemist::ckks
