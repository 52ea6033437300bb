// Bit-exactness of the TFHE host library.
//
// Torus arithmetic is exact, so any rewrite of the external product, blind
// rotation or keyswitch must reproduce earlier outputs bit for bit. The
// pinned FNV-1a digests below come from the straightforward implementation
// (per-call table lookups, eager reductions, per-layer allocations); a fast
// path that changes a single output word fails here. The fast path is also
// checked against a schoolbook reference, for the shapes it must refuse, and
// for heap allocations.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "common/simd.h"
#include "tfhe/bootstrap.h"
#include "tfhe/trlwe.h"

// Counting replacements of the global allocation functions, per thread.
namespace {
thread_local std::size_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace alchemist::tfhe {
namespace {

class Digest {
 public:
  Digest& add(u64 w) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (w >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
    return *this;
  }
  Digest& add(const TorusPoly& p) {
    for (Torus c : p.coeffs()) add(c);
    return *this;
  }
  Digest& add(const TrlweSample& s) {
    for (const TorusPoly& a : s.a) add(a);
    return add(s.b);
  }
  Digest& add(const LweSample& s) {
    for (Torus c : s.a) add(c);
    return add(s.b);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

TorusPoly random_poly(std::size_t n, Rng& rng) {
  TorusPoly p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = rng.next();
  return p;
}

TrlweSample random_sample(std::size_t k, std::size_t n, Rng& rng) {
  TrlweSample s;
  for (std::size_t j = 0; j < k; ++j) s.a.push_back(random_poly(n, rng));
  s.b = random_poly(n, rng);
  return s;
}

// Encryption, phase and external product on one parameter shape: TGSW of
// 0, 1 and -1 applied to a uniformly random TRLWE sample, and a CMux.
std::uint64_t trlwe_digest(const TfheParams& params, u64 seed) {
  Rng rng(seed);
  const TrlweKey key = trlwe_keygen(params, rng);
  TorusPoly msg(params.degree);
  for (std::size_t i = 0; i < params.degree; ++i) msg[i] = torus_from_message(i % 8, 8);
  const TrlweSample ct = trlwe_encrypt(params, key, msg, rng);
  Digest d;
  d.add(ct).add(trlwe_phase(ct, key));
  const TrlweSample c = random_sample(params.k, params.degree, rng);
  for (i64 m : {i64{0}, i64{1}, i64{-1}}) {
    d.add(external_product(tgsw_encrypt(params, key, m, rng), c));
  }
  const TrlweSample c1 = random_sample(params.k, params.degree, rng);
  d.add(cmux(tgsw_encrypt(params, key, 1, rng), c, c1));
  return d.value();
}

TEST(TfheExact, TrlwePinned) {
  TfheParams set_ii_k2 = TfheParams::set_ii();
  set_ii_k2.k = 2;
  EXPECT_EQ(trlwe_digest(TfheParams::toy(), 1), 0x08d8198c424975bcull) << "toy";
  EXPECT_EQ(trlwe_digest(TfheParams::set_i(), 2), 0x8ebbc0ea9ffa0052ull) << "set I";
  EXPECT_EQ(trlwe_digest(TfheParams::set_ii(), 3), 0x0e84ee7727b639a3ull) << "set II";
  EXPECT_EQ(trlwe_digest(set_ii_k2, 4), 0xcc821a831693526full) << "set II, k=2";
}

// Blind rotation, PBS, keyswitch and every bootstrapped gate at the set I
// shape (N=1024, Bg=2^7, l=3), with a short LWE key so key generation stays
// fast.
TEST(TfheExact, BootstrapPinned) {
  TfheParams params = TfheParams::set_i();
  params.n_lwe = 24;
  Rng rng(5);
  const LweKey lwe_key = lwe_keygen(params.n_lwe, rng);
  const TrlweKey trlwe_key = trlwe_keygen(params, rng);
  const BootstrapContext ctx = make_bootstrap_context(params, lwe_key, trlwe_key, rng);

  Digest rotate;
  TrlweSample tv = trlwe_trivial(params, random_poly(params.degree, rng));
  std::vector<u64> bara(params.n_lwe);
  for (u64& a : bara) a = rng.uniform(2 * params.degree);
  bara[3] = 0;  // a skipped CMux
  rotate.add(blind_rotate(tv, bara, rng.uniform(2 * params.degree), ctx.bk));
  EXPECT_EQ(rotate.value(), 0x1394b0a72adda293ull) << "blind_rotate";

  Digest pbs;
  const TorusPoly lut = make_lut_test_poly(params.degree, 8, [](u64 m) {
    return torus_from_message((5 * m) % 8, 8);
  });
  for (u64 m = 0; m < 4; ++m) {
    const LweSample in = lwe_encrypt(torus_from_message(m, 8), lwe_key, params.lwe_sigma, rng);
    pbs.add(programmable_bootstrap(in, lut, ctx));
  }
  EXPECT_EQ(pbs.value(), 0xfaf29d2ca0940b67ull) << "programmable_bootstrap";

  Digest ks;
  const LweSample extracted = sample_extract(random_sample(params.k, params.degree, rng));
  ks.add(keyswitch(extracted, ctx.ksk));
  EXPECT_EQ(ks.value(), 0x769edf4575a58322ull) << "keyswitch";

  Digest gates;
  for (bool a : {false, true}) {
    for (bool b : {false, true}) {
      const LweSample x = encrypt_bit(a, lwe_key, params.lwe_sigma, rng);
      const LweSample y = encrypt_bit(b, lwe_key, params.lwe_sigma, rng);
      gates.add(gate_nand(x, y, ctx)).add(gate_and(x, y, ctx)).add(gate_or(x, y, ctx));
      gates.add(gate_nor(x, y, ctx)).add(gate_xor(x, y, ctx)).add(gate_xnor(x, y, ctx));
    }
  }
  EXPECT_EQ(gates.value(), 0x7f02d2cc352144f7ull) << "gates";
}

// TGSW(m) rows in the coefficient domain, drawn exactly as tgsw_encrypt
// draws them from the same generator state.
std::vector<TrlweSample> tgsw_rows(const TfheParams& params, const TrlweKey& key, i64 m,
                                   Rng& rng) {
  const auto scales = gadget_scales(params.bg_bits, params.l);
  std::vector<TrlweSample> rows;
  for (std::size_t p = 0; p <= params.k; ++p) {
    for (std::size_t i = 0; i < params.l; ++i) {
      TrlweSample row = trlwe_encrypt_zero(params, key, rng);
      (p < params.k ? row.a[p] : row.b)[0] += static_cast<u64>(m) * scales[i];
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

// sum over rows (p, i) of decomp_i(c_p) * row, by O(N^2) schoolbook products.
TrlweSample schoolbook_external_product(const TfheParams& params,
                                        const std::vector<TrlweSample>& rows,
                                        const TrlweSample& c) {
  const std::size_t n = params.degree;
  const Gadget gadget(params.bg_bits, params.l);
  TrlweSample out = trlwe_trivial(params, TorusPoly(n));
  std::vector<i64> digits(params.l);
  for (std::size_t p = 0; p <= params.k; ++p) {
    const TorusPoly& comp = p < params.k ? c.a[p] : c.b;
    std::vector<std::vector<i64>> layers(params.l, std::vector<i64>(n));
    for (std::size_t t = 0; t < n; ++t) {
      gadget.decompose(comp[t], digits.data());
      for (std::size_t i = 0; i < params.l; ++i) layers[i][t] = digits[i];
    }
    for (std::size_t i = 0; i < params.l; ++i) {
      const TrlweSample& row = rows[p * params.l + i];
      for (std::size_t j = 0; j < params.k; ++j) {
        out.a[j] += negacyclic_mul_schoolbook(layers[i], row.a[j]);
      }
      out.b += negacyclic_mul_schoolbook(layers[i], row.b);
    }
  }
  return out;
}

TEST(TfheExact, ExternalProductMatchesSchoolbook) {
  TfheParams toy_k2 = TfheParams::toy();  // N=64, l=4
  toy_k2.k = 2;
  TfheParams set_ii_small = TfheParams::set_ii();  // Bg=2^8, l=2 at a small N
  set_ii_small.degree = 256;
  // 80 rows: random partial sums would overflow 128 bits without the
  // mid-way folds.
  TfheParams long_gadget = TfheParams::toy();
  long_gadget.bg_bits = 1;
  long_gadget.l = 40;
  for (const TfheParams& params :
       {TfheParams::toy(), toy_k2, TfheParams::set_i(), set_ii_small, long_gadget}) {
    Rng rng(21);
    const TrlweKey key = trlwe_keygen(params, rng);
    const TrlweSample c = random_sample(params.k, params.degree, rng);
    for (i64 m : {i64{1}, i64{-3}}) {
      Rng a(100 + m), b(100 + m);
      const TgswNtt g = tgsw_encrypt(params, key, m, a);
      const std::vector<TrlweSample> rows = tgsw_rows(params, key, m, b);
      const TrlweSample fast = external_product(g, c);
      const TrlweSample ref = schoolbook_external_product(params, rows, c);
      EXPECT_TRUE(fast.a == ref.a && fast.b == ref.b)
          << "N=" << params.degree << " k=" << params.k << " l=" << params.l << " m=" << m;
    }
  }
}

TEST(TfheExact, RejectsBadShapes) {
  TfheParams params = TfheParams::toy();
  Rng rng(23);
  const TrlweKey key = trlwe_keygen(params, rng);
  const TgswNtt g = tgsw_encrypt(params, key, 1, rng);
  const TrlweSample acc = random_sample(params.k, params.degree, rng);
  EXPECT_THROW(external_product(g, random_sample(params.k, 2 * params.degree, rng)),
               std::invalid_argument);
  EXPECT_THROW(cmux(g, acc, random_sample(params.k + 1, params.degree, rng)),
               std::invalid_argument);
  // Bg = 2^60 with l = 1 passes the gadget's own check (60 <= 63), but
  // 2 * 64 * 2^59 * 2^64 exceeds any exact lift: the product must refuse the
  // shape rather than return a wrong sample.
  TfheParams wide = TfheParams::toy();
  wide.bg_bits = 60;
  wide.l = 1;
  const TgswNtt wide_g = tgsw_encrypt(wide, key, 1, rng);
  EXPECT_THROW(external_product(wide_g, acc), std::invalid_argument);
  EXPECT_THROW(cmux(wide_g, acc, acc), std::invalid_argument);
  // Bg = 2^20 with l = 3 at N = 1024: (k+1) * l * N * Bg/2 * 2^32 > P/2, so
  // a 32-bit half of the product could not be lifted exactly.
  TfheParams set_i_wide = TfheParams::set_i();
  set_i_wide.bg_bits = 20;
  const TrlweKey set_i_key = trlwe_keygen(set_i_wide, rng);
  const TgswNtt set_i_g = tgsw_encrypt(set_i_wide, set_i_key, 1, rng);
  EXPECT_THROW(external_product(set_i_g, random_sample(1, set_i_wide.degree, rng)),
               std::invalid_argument);

  // The limit (k+1) * l * N * Bg/2 * 2^32 < P/2, with P = p1 * p2 just
  // below 2^60 at N = 1024. Bg = 2^15 with l = 3 sits at 0.75 of it and must
  // be exact, also on an operand whose digits are all -Bg/2: the last
  // coefficient of each half then sums N * (k+1) * l products of one sign,
  // about half the bound.
  TfheParams inside = TfheParams::set_i();
  inside.bg_bits = 15;
  const TrlweKey inside_key = trlwe_keygen(inside, rng);
  TrlweSample extreme = random_sample(inside.k, inside.degree, rng);
  const Torus all_low_digits = ~Gadget(inside.bg_bits, inside.l).offset() + 1;
  for (TorusPoly* poly : {&extreme.a[0], &extreme.b}) {
    for (std::size_t i = 0; i < inside.degree; ++i) (*poly)[i] = all_low_digits;
  }
  for (const TrlweSample& c : {random_sample(inside.k, inside.degree, rng), extreme}) {
    Rng a(31), b(31);
    const TgswNtt inside_g = tgsw_encrypt(inside, inside_key, -1, a);
    const TrlweSample fast = external_product(inside_g, c);
    const TrlweSample ref =
        schoolbook_external_product(inside, tgsw_rows(inside, inside_key, -1, b), c);
    EXPECT_TRUE(fast.a == ref.a && fast.b == ref.b) << "Bg=2^15, l=3 at N=1024";
  }
  // l = 4 puts the bound at exactly 2^27 * 2^32 > P/2: one step outside.
  TfheParams outside = inside;
  outside.l = 4;
  const TgswNtt outside_g = tgsw_encrypt(outside, inside_key, 1, rng);
  const TrlweSample c = random_sample(outside.k, outside.degree, rng);
  EXPECT_THROW(external_product(outside_g, c), std::invalid_argument);
  EXPECT_THROW(cmux(outside_g, c, c), std::invalid_argument);
}

// Narrow forward and inverse NTTs one product runs, from the SIMD dispatch
// counters: 2 * (k+1) * l forward (every digit polynomial mod both primes)
// and 4 * (k+1) inverse (each output half mod both primes), and no 64-bit
// transform at all.
TEST(TfheExact, ExternalProductNttCounts) {
  auto total = [](simd::Kern kern) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < simd::kNumIsas; ++i) {
      sum += simd::dispatch_count(kern, static_cast<simd::Isa>(i));
    }
    return sum;
  };
  const simd::Kern kerns[] = {simd::Kern::NttFwdNarrow, simd::Kern::NttInvNarrow,
                              simd::Kern::NttFwd, simd::Kern::NttInv};
  for (const TfheParams& params : {TfheParams::set_i(), TfheParams::set_ii()}) {
    Rng rng(25);
    const TrlweKey key = trlwe_keygen(params, rng);
    const TgswNtt g = tgsw_encrypt(params, key, 1, rng);
    const TrlweSample c0 = random_sample(params.k, params.degree, rng);
    const TrlweSample c1 = random_sample(params.k, params.degree, rng);
    const std::uint64_t rows = (params.k + 1) * params.l;
    const std::uint64_t want[] = {2 * rows, 4 * (params.k + 1), 0, 0};
    for (int op = 0; op < 2; ++op) {
      std::uint64_t before[4];
      for (int i = 0; i < 4; ++i) before[i] = total(kerns[i]);
      (void)(op == 0 ? external_product(g, c0) : cmux(g, c0, c1));
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(total(kerns[i]) - before[i], want[i])
            << simd::kern_name(kerns[i]) << (op == 0 ? " external_product" : " cmux")
            << " N=" << params.degree;
      }
    }
  }
}

// The product's scratch lives in a per-thread workspace: once it is sized,
// a call allocates only the sample it returns (k + 1 polynomials, the mask
// vector and one temporary polynomial), whatever the gadget length.
TEST(TfheExact, ExternalProductAllocatesOnlyItsOutput) {
  for (const TfheParams& params : {TfheParams::toy(), TfheParams::set_i()}) {
    Rng rng(24);
    const TrlweKey key = trlwe_keygen(params, rng);
    const TgswNtt g = tgsw_encrypt(params, key, 1, rng);
    const TrlweSample c = random_sample(params.k, params.degree, rng);
    (void)external_product(g, c);  // sizes the workspace
    const std::size_t before = t_allocations;
    (void)external_product(g, c);
    EXPECT_LE(t_allocations - before, params.k + 3) << "N=" << params.degree;
    EXPECT_GT(t_allocations - before, 0u);  // the counter does see allocations
  }
}

}  // namespace
}  // namespace alchemist::tfhe
