#include "tfhe/trlwe.h"

#include <algorithm>
#include <stdexcept>

#include "common/simd.h"

namespace alchemist::tfhe {

TrlweSample& TrlweSample::operator+=(const TrlweSample& other) {
  if (other.k() != k() || other.degree() != degree()) {
    throw std::invalid_argument("TrlweSample::+=: shape mismatch");
  }
  for (std::size_t j = 0; j < a.size(); ++j) a[j] += other.a[j];
  b += other.b;
  return *this;
}

TrlweSample& TrlweSample::operator-=(const TrlweSample& other) {
  if (other.k() != k() || other.degree() != degree()) {
    throw std::invalid_argument("TrlweSample::-=: shape mismatch");
  }
  for (std::size_t j = 0; j < a.size(); ++j) a[j] -= other.a[j];
  b -= other.b;
  return *this;
}

TrlweSample TrlweSample::rotate(u64 e) const {
  TrlweSample out;
  out.a.reserve(a.size());
  for (const TorusPoly& aj : a) out.a.push_back(aj.rotate(e));
  out.b = b.rotate(e);
  return out;
}

TrlweKey trlwe_keygen(const TfheParams& params, Rng& rng) {
  TrlweKey key;
  key.s.resize(params.k);
  for (auto& poly : key.s) {
    poly.resize(params.degree);
    for (i64& bit : poly) bit = static_cast<i64>(rng.next() & 1);
  }
  return key;
}

TrlweSample trlwe_trivial(const TfheParams& params, TorusPoly message) {
  TrlweSample out;
  out.a.assign(params.k, TorusPoly(params.degree));
  out.b = std::move(message);
  return out;
}

namespace {

// The key polynomials in the NTT domain, once per encryption call.
std::vector<std::vector<u32>> key_domain(const TorusNttContext& ctx, const TrlweKey& key) {
  std::vector<std::vector<u32>> out;
  out.reserve(key.s.size());
  for (const auto& s : key.s) out.push_back(ctx.forward_int(s));
  return out;
}

// TRLWE(0) with every mask's NTT-domain form also written to a_dom[j], so a
// TGSW row can keep it instead of transforming the mask again.
TrlweSample encrypt_zero(const TfheParams& params, const TorusNttContext& ctx,
                         const std::vector<std::vector<u32>>& key_dom, Rng& rng,
                         std::vector<TorusNttContext::DomainPoly>& a_dom) {
  const std::size_t n = params.degree;
  TrlweSample out;
  out.a.resize(params.k);
  a_dom.resize(params.k);
  TorusNttContext::DomainPoly acc = ctx.zero();
  for (std::size_t j = 0; j < params.k; ++j) {
    out.a[j] = TorusPoly(n);
    for (std::size_t i = 0; i < n; ++i) out.a[j][i] = rng.next();
    a_dom[j] = ctx.forward_torus(out.a[j]);
    ctx.mul_accumulate(acc, key_dom[j], a_dom[j]);
  }
  out.b = ctx.inverse(acc);
  for (std::size_t i = 0; i < n; ++i) {
    out.b[i] += static_cast<u64>(rng.gaussian_signed(params.trlwe_sigma * 0x1.0p64));
  }
  return out;
}

}  // namespace

TrlweSample trlwe_encrypt_zero(const TfheParams& params, const TrlweKey& key,
                               Rng& rng) {
  const TorusNttContext& ctx = TorusNttContext::get(params.degree);
  std::vector<TorusNttContext::DomainPoly> a_dom;
  return encrypt_zero(params, ctx, key_domain(ctx, key), rng, a_dom);
}

TrlweSample trlwe_encrypt(const TfheParams& params, const TrlweKey& key,
                          const TorusPoly& message, Rng& rng) {
  TrlweSample out = trlwe_encrypt_zero(params, key, rng);
  out.b += message;
  return out;
}

TorusPoly trlwe_phase(const TrlweSample& sample, const TrlweKey& key) {
  const std::size_t n = sample.degree();
  if (key.degree() != n || key.s.size() != sample.k()) {
    throw std::invalid_argument("trlwe_phase: shape mismatch");
  }
  const TorusNttContext& ctx = TorusNttContext::get(n);
  TorusPoly phase = sample.b;
  for (std::size_t j = 0; j < sample.k(); ++j) {
    auto dom = ctx.zero();
    ctx.mul_accumulate(dom, ctx.forward_int(key.s[j]), ctx.forward_torus(sample.a[j]));
    phase -= ctx.inverse(dom);
  }
  return phase;
}

TgswNtt tgsw_encrypt(const TfheParams& params, const TrlweKey& key, i64 message,
                     Rng& rng) {
  const std::size_t n = params.degree;
  const TorusNttContext& ctx = TorusNttContext::get(n);
  const auto scales = gadget_scales(params.bg_bits, params.l);

  TgswNtt out;
  out.k = params.k;
  out.l = params.l;
  out.bg_bits = params.bg_bits;
  out.degree = n;
  const std::size_t poly_words = 2 * TorusNttContext::kPrimes * n;  // one component
  out.residues.resize((params.k + 1) * params.l * (params.k + 1) * poly_words);

  const std::vector<std::vector<u32>> key_dom = key_domain(ctx, key);
  std::vector<TorusNttContext::DomainPoly> a_dom;
  u32* dst = out.residues.data();
  for (std::size_t p = 0; p <= params.k; ++p) {
    for (std::size_t i = 0; i < params.l; ++i) {
      TrlweSample row = encrypt_zero(params, ctx, key_dom, rng, a_dom);
      const Torus payload = static_cast<u64>(message) * scales[i];
      if (p < params.k) {
        row.a[p][0] += payload;
        a_dom[p] = ctx.forward_torus(row.a[p]);
      } else {
        row.b[0] += payload;
      }
      for (std::size_t c = 0; c < params.k; ++c, dst += poly_words) {
        std::copy(a_dom[c].residues.begin(), a_dom[c].residues.end(), dst);
      }
      ctx.forward_torus(row.b, dst);
      dst += poly_words;
    }
  }
  return out;
}

namespace {

// Per-thread scratch of the external product, sized for one (k, l, N) shape
// and reused while the shape stays the same, so a product allocates only
// the sample it returns.
class ExtProductScratch {
 public:
  static constexpr std::size_t kPrimes = TorusNttContext::kPrimes;

  // Re-sizes for g's shape (and checks it) only when the shape changes.
  void fit(const TgswNtt& g) {
    if (g.k == k_ && g.l == l_ && g.bg_bits == bg_bits_ && g.degree == n_) return;
    const TorusNttContext& ctx = TorusNttContext::get(g.degree);
    const Gadget gadget(g.bg_bits, g.l);
    // The product is exact while each half's true coefficients, at most
    // (k+1) * l * N * Bg/2 * 2^32 in magnitude, stay below P/2.
    const u128 bound = u128{(g.k + 1) * g.l * g.degree} * gadget.half_base();
    if (bound > ((ctx.modulus() / 2) >> 32)) {
      throw std::invalid_argument("external_product: lift not exact for this shape");
    }
    rows_ = (g.k + 1) * g.l;
    digits_.assign(rows_ * kPrimes * g.degree, 0);
    acc_.assign((g.k + 1) * 2 * kPrimes * g.degree, 0);
    operand_.assign((g.k + 1) * g.degree, 0);
    digit_rows_.resize(rows_);
    key_rows_.resize(rows_);
    ctx_ = &ctx;
    gadget_ = gadget;
    k_ = g.k;
    l_ = g.l;
    bg_bits_ = g.bg_bits;
    n_ = g.degree;
  }

  // Component c of the TRLWE operand, written before accumulate().
  Torus* operand(std::size_t c) { return operand_.data() + c * n_; }

  // out[c] += (g ⊡ operand)[c] for c in [0, k].
  void accumulate(const TgswNtt& g, TrlweSample& out) {
    const TorusNttContext& ctx = *ctx_;
    // 1. Gadget-decompose every input coefficient once, writing each digit
    //    as its canonical residues mod p1 and p2 (|digit| <= Bg/2 < p2).
    for (std::size_t comp = 0; comp <= k_; ++comp) {
      ctx.digit_residues(operand(comp), gadget_, digits(comp * l_, 0));
    }
    // 2. Forward NTT of every digit polynomial mod each prime.
    for (std::size_t row = 0; row < rows_; ++row) {
      for (std::size_t j = 0; j < kPrimes; ++j) ctx.table(j).forward({digits(row, j), n_});
    }
    // 3. DecompPolyMult per prime, output component and key half: sum the
    //    rows' pointwise products with one fold per coefficient, then
    //    transform back.
    for (std::size_t j = 0; j < kPrimes; ++j) {
      const NarrowNttTable& table = ctx.table(j);
      for (std::size_t row = 0; row < rows_; ++row) digit_rows_[row] = digits(row, j);
      for (std::size_t c = 0; c <= k_; ++c) {
        for (std::size_t h = 0; h < 2; ++h) {
          for (std::size_t row = 0; row < rows_; ++row) key_rows_[row] = g.poly(row, c, h, j);
          u32* sum = acc(c, h, j);
          simd::mul_sum_narrow(digit_rows_.data(), key_rows_.data(), rows_, n_,
                               table.modulus(), sum);
          table.inverse({sum, n_});
        }
      }
    }
    // 4. Lift both halves of each coefficient and add them to the output.
    for (std::size_t c = 0; c <= k_; ++c) {
      ctx.lift_add(acc(c, 0, 0), acc(c, 1, 0), c < k_ ? out.a[c].data() : out.b.data());
    }
  }

 private:
  u32* digits(std::size_t row, std::size_t prime) {
    return digits_.data() + (row * kPrimes + prime) * n_;
  }
  u32* acc(std::size_t c, std::size_t h, std::size_t prime) {
    return acc_.data() + ((c * 2 + h) * kPrimes + prime) * n_;
  }

  std::size_t k_ = 0, l_ = 0, n_ = 0;
  int bg_bits_ = 0;
  std::size_t rows_ = 0;
  const TorusNttContext* ctx_ = nullptr;
  Gadget gadget_{1, 1};
  std::vector<u32> digits_;              // [row][prime][N]: digit residues, then their NTTs
  std::vector<u32> acc_;                 // [component][half][prime][N]: sums, then inverse NTTs
  std::vector<Torus> operand_;           // [component][N]
  std::vector<const u32*> digit_rows_;   // [row]: one prime's digit NTTs
  std::vector<const u32*> key_rows_;     // [row]: one half of one TGSW component mod one prime
};

ExtProductScratch& scratch_for(const TgswNtt& g, std::size_t k, std::size_t n) {
  if (g.degree != n || g.k != k) {
    throw std::invalid_argument("external_product: shape mismatch");
  }
  thread_local ExtProductScratch scratch;
  scratch.fit(g);
  return scratch;
}

}  // namespace

TrlweSample external_product(const TgswNtt& g, const TrlweSample& c) {
  ExtProductScratch& s = scratch_for(g, c.k(), c.degree());
  for (std::size_t j = 0; j <= g.k; ++j) {
    const TorusPoly& x = j < g.k ? c.a[j] : c.b;
    std::copy(x.data(), x.data() + g.degree, s.operand(j));
  }
  TrlweSample out;
  out.a.assign(g.k, TorusPoly(g.degree));
  out.b = TorusPoly(g.degree);
  s.accumulate(g, out);
  return out;
}

TrlweSample cmux(const TgswNtt& bit, const TrlweSample& c0, const TrlweSample& c1) {
  if (c1.k() != c0.k() || c1.degree() != c0.degree()) {
    throw std::invalid_argument("cmux: shape mismatch");
  }
  ExtProductScratch& s = scratch_for(bit, c0.k(), c0.degree());
  for (std::size_t j = 0; j <= bit.k; ++j) {
    const Torus* x0 = (j < bit.k ? c0.a[j] : c0.b).data();
    const Torus* x1 = (j < bit.k ? c1.a[j] : c1.b).data();
    Torus* d = s.operand(j);
    for (std::size_t t = 0; t < bit.degree; ++t) d[t] = x1[t] - x0[t];
  }
  TrlweSample out = c0;
  s.accumulate(bit, out);
  return out;
}

LweSample sample_extract(const TrlweSample& c) {
  const std::size_t n = c.degree();
  LweSample out;
  out.a.resize(c.k() * n);
  for (std::size_t j = 0; j < c.k(); ++j) {
    out.a[j * n] = c.a[j][0];
    for (std::size_t i = 1; i < n; ++i) {
      out.a[j * n + i] = ~c.a[j][n - i] + 1;  // -a_j[N-i] mod 2^64
    }
  }
  out.b = c.b[0];
  return out;
}

LweKey extract_key(const TrlweKey& key) {
  LweKey out;
  out.s.reserve(key.s.size() * key.degree());
  for (const auto& poly : key.s) {
    for (i64 bit : poly) out.s.push_back(static_cast<int>(bit));
  }
  return out;
}

}  // namespace alchemist::tfhe
