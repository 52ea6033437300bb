#include "tfhe/trlwe.h"

#include <algorithm>
#include <stdexcept>

#include "poly/lazy_kernels.h"

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

TrlweSample trlwe_encrypt_zero(const TfheParams& params, const TrlweKey& key,
                               Rng& rng) {
  const std::size_t n = params.degree;
  const TorusNttContext& ctx = TorusNttContext::get(n);
  TrlweSample out;
  out.a.resize(params.k);
  TorusPoly acc(n);
  for (std::size_t j = 0; j < params.k; ++j) {
    out.a[j] = TorusPoly(n);
    for (std::size_t i = 0; i < n; ++i) out.a[j][i] = rng.next();
    auto dom = ctx.zero();
    ctx.mul_accumulate(dom, ctx.forward_int(key.s[j]), ctx.forward_torus(out.a[j]));
    acc += ctx.inverse(dom);
  }
  out.b = TorusPoly(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.b[i] = acc[i] + static_cast<u64>(rng.gaussian_signed(params.trlwe_sigma * 0x1.0p64));
  }
  return out;
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
  out.rows.resize((params.k + 1) * params.l);

  for (std::size_t p = 0; p <= params.k; ++p) {
    for (std::size_t i = 0; i < params.l; ++i) {
      TrlweSample row = trlwe_encrypt_zero(params, key, rng);
      const Torus payload = static_cast<u64>(message) * scales[i];
      if (p < params.k) {
        row.a[p][0] += payload;
      } else {
        row.b[0] += payload;
      }
      auto& domain_row = out.rows[p * params.l + i];
      domain_row.reserve(params.k + 1);
      for (std::size_t c = 0; c < params.k; ++c) {
        domain_row.push_back(ctx.forward_torus(row.a[c]));
      }
      domain_row.push_back(ctx.forward_torus(row.b));
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
  // Re-sizes for g's shape (and checks it) only when the shape changes.
  void fit(const TgswNtt& g) {
    if (g.k == k_ && g.l == l_ && g.bg_bits == bg_bits_ && g.degree == n_) return;
    const TorusNttContext& ctx = TorusNttContext::get(g.degree);
    const Gadget gadget(g.bg_bits, g.l);
    // The product is exact while each half's true coefficients, at most
    // (k+1) * l * N * Bg/2 * 2^32 in magnitude, stay below p/2.
    const u64 p = ctx.table().modulus();
    const u128 bound = u128{(g.k + 1) * g.l * g.degree} * gadget.half_base();
    if (bound > ((p / 2) >> 32)) {
      throw std::invalid_argument("external_product: lift not exact for this shape");
    }
    rows_ = (g.k + 1) * g.l;
    digits_.assign(rows_ * g.degree, 0);
    layers_.resize(rows_);
    for (std::size_t row = 0; row < rows_; ++row) {
      layers_[row] = digits_.data() + row * g.degree;
    }
    keys_.resize(rows_);
    acc_.assign((g.k + 1) * 2 * g.degree, 0);
    operand_.assign((g.k + 1) * g.degree, 0);
    table_ = &ctx.table();
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
    // 1. Gadget-decompose every input coefficient once, writing each digit as
    //    its canonical residue mod p (|digit| <= Bg/2 < p).
    const NttTable& table = *table_;
    const u64 p = table.modulus();
    for (std::size_t comp = 0; comp <= k_; ++comp) {
      for (std::size_t i = 0; i < l_; ++i) {
        const Torus* src = operand(comp);
        u64* dst = layer(comp * l_ + i);
        for (std::size_t t = 0; t < n_; ++t) {
          const i64 d = gadget_.digit(src[t], i);
          dst[t] = static_cast<u64>(d) + (p & static_cast<u64>(d >> 63));  // d < 0: d + p
        }
      }
    }
    // 2. Forward NTT of every digit polynomial.
    for (std::size_t row = 0; row < rows_; ++row) table.forward({layer(row), n_});
    // 3. DecompPolyMult per output component and key half: sum the rows'
    //    pointwise products with one reduction per coefficient, then
    //    transform back.
    for (std::size_t c = 0; c <= k_; ++c) {
      for (std::size_t h = 0; h < 2; ++h) {
        for (std::size_t row = 0; row < rows_; ++row) {
          keys_[row] = g.rows[row][c].halves[h].data();
        }
        u64* acc = acc_.data() + (c * 2 + h) * n_;
        mul_sum_lazy(layers_, keys_, table.mod(), {acc, n_});
        table.inverse({acc, n_});
      }
    }
    // 4. Lift both halves of each coefficient and add them to the output.
    for (std::size_t c = 0; c <= k_; ++c) {
      Torus* dst = c < k_ ? out.a[c].data() : out.b.data();
      const u64* lo_half = acc_.data() + (c * 2) * n_;
      const u64* hi_half = lo_half + n_;
      for (std::size_t t = 0; t < n_; ++t) {
        dst[t] += TorusNttContext::lift_split(lo_half[t], hi_half[t], p);
      }
    }
  }

 private:
  u64* layer(std::size_t row) { return digits_.data() + row * n_; }

  std::size_t k_ = 0, l_ = 0, n_ = 0;
  int bg_bits_ = 0;
  std::size_t rows_ = 0;
  const NttTable* table_ = nullptr;
  Gadget gadget_{1, 1};
  std::vector<u64> digits_;         // [row][N]: digit polynomials, then their NTTs
  std::vector<const u64*> layers_;  // [row]: mul_sum's table of the rows of digits_
  std::vector<const u64*> keys_;    // [row]: one component half of each TGSW row
  std::vector<u64> acc_;            // [component][half][N]: reduced sums, then inverse NTTs
  std::vector<Torus> operand_;      // [component][N]
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
