#include "ckks/poly_eval.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/thread_pool.h"
#include "poly/lazy_kernels.h"

namespace alchemist::ckks {

namespace {

// Smallest k with 2^k >= x.
std::size_t ceil_log2(std::size_t x) {
  std::size_t k = 0;
  while ((std::size_t{1} << k) < x) ++k;
  return k;
}

}  // namespace

PolyEvaluator::PolyEvaluator(ContextPtr ctx, const CkksEncoder& encoder,
                             const Evaluator& evaluator, const RelinKeys& relin)
    : ctx_(std::move(ctx)), encoder_(encoder), evaluator_(evaluator), relin_(relin) {}

std::size_t PolyEvaluator::depth_for_degree(std::size_t degree) {
  if (degree <= 1) return 1;
  return ceil_log2(degree) + 2;  // powers + inner rescale + giant combine
}

std::vector<Ciphertext> PolyEvaluator::build_powers(const Ciphertext& x,
                                                    std::size_t count) const {
  // powers[j-1] holds x^j. x^j = x^(j/2) * x^(j - j/2): log-depth, each power
  // ends at scale ~Delta after its rescale chain.
  std::vector<Ciphertext> powers;
  powers.reserve(count);
  powers.push_back(x);
  for (std::size_t j = 2; j <= count; ++j) {
    const Ciphertext& lo = powers[j / 2 - 1];
    const Ciphertext& hi = powers[j - j / 2 - 1];
    powers.push_back(evaluator_.mul_aligned(lo, hi, relin_));
  }
  return powers;
}

Ciphertext PolyEvaluator::evaluate(const Ciphertext& x,
                                   std::span<const double> coeffs) const {
  if (coeffs.empty()) throw std::invalid_argument("PolyEvaluator: empty coefficients");
  std::size_t degree = coeffs.size() - 1;
  while (degree > 0 && coeffs[degree] == 0.0) --degree;
  if (degree == 0) {
    // Constant polynomial: c0 * 1 at the input's level and scale.
    Ciphertext out = evaluator_.mul_scalar(x, 0.0, encoder_, x.scale);
    out = evaluator_.rescale(out);
    return evaluator_.add_scalar(out, coeffs[0], encoder_);
  }
  if (degree == 1) {
    Ciphertext out = evaluator_.rescale(
        evaluator_.mul_scalar(x, coeffs[1], encoder_, x.scale));
    return evaluator_.add_scalar(out, coeffs[0], encoder_);
  }

  // Baby-step/giant-step split: i = g*k + j, 0 <= j < k.
  const std::size_t k =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(degree + 1))));
  const std::size_t m = (degree + k) / k;  // number of giant groups

  const std::vector<Ciphertext> baby = build_powers(x, k);
  // Giants: x^k, x^2k, ..., x^(m-1)k built log-depth from x^k.
  std::vector<Ciphertext> giants;
  if (m > 1) {
    giants.reserve(m - 1);
    giants.push_back(baby[k - 1]);  // x^k
    for (std::size_t i = 2; i < m; ++i) {
      const Ciphertext& lo = giants[i / 2 - 1];
      const Ciphertext& hi = giants[i - i / 2 - 1];
      giants.push_back(evaluator_.mul_aligned(lo, hi, relin_));
    }
  }

  // Common working level: the deepest of all precomputed powers.
  std::size_t work_level = baby[0].level;
  for (const Ciphertext& c : baby) work_level = std::min(work_level, c.level);
  for (const Ciphertext& c : giants) work_level = std::min(work_level, c.level);

  // Inner sums: s_g(x) = sum_{j<k} c_{gk+j} x^j at work_level, rescaled
  // once to scale ~Delta.
  auto inner_sum = [&](std::size_t g) -> Ciphertext {
    const std::size_t first = g * k;
    return weighted_sum(coeffs.subspan(first, std::min(k, degree + 1 - first)), baby,
                        work_level);
  };

  Ciphertext result = inner_sum(0);
  for (std::size_t g = 1; g < m; ++g) {
    // Skip empty groups entirely.
    bool any = false;
    for (std::size_t j = 0; j < k && g * k + j <= degree; ++j) {
      any |= coeffs[g * k + j] != 0.0;
    }
    if (!any) continue;
    const Ciphertext product = evaluator_.mul_aligned(inner_sum(g), giants[g - 1], relin_);
    result = evaluator_.add_aligned(result, product);
  }
  return result;
}

Ciphertext PolyEvaluator::weighted_sum(std::span<const double> coeffs,
                                       const std::vector<Ciphertext>& babies,
                                       std::size_t level) const {
  const double delta = babies[0].scale;
  // The nonzero terms, each checked against Delta and read in place, with
  // the residues of c_i at scale Delta.
  std::vector<const Ciphertext*> terms;
  std::vector<std::vector<u64>> residues;
  for (std::size_t i = 1; i < coeffs.size(); ++i) {
    if (coeffs[i] == 0.0) continue;
    const Ciphertext& term = babies[i - 1];
    if (term.level < level) {
      throw std::invalid_argument("PolyEvaluator: a power sits below the working level");
    }
    Evaluator::check_scale_near(term.scale, delta);
    terms.push_back(&term);
    residues.push_back(encoder_.constant_residues(coeffs[i], level, delta));
  }

  // The paper's Meta-OP (M_j A_j)_n R_j: per channel of c0 and of c1,
  // out[k] = sum_t r_t * term_t[k] accumulated in 128 bits and reduced once.
  const std::vector<u64> basis = ctx_->basis_at(level);
  Ciphertext out{RnsPoly(ctx_->degree(), basis, RnsPoly::Form::Ntt),
                 RnsPoly(ctx_->degree(), basis, RnsPoly::Form::Ntt), level, delta * delta};
  if (!terms.empty()) {
    parallel_for(2 * level, channel_grain(ctx_->degree()), [&](std::size_t b, std::size_t e) {
      std::vector<const u64*> x(terms.size());
      std::vector<u64> w(terms.size());
      for (std::size_t j = b; j < e; ++j) {
        const bool is_c1 = j >= level;
        const std::size_t c = is_c1 ? j - level : j;
        for (std::size_t t = 0; t < terms.size(); ++t) {
          x[t] = (is_c1 ? terms[t]->c1 : terms[t]->c0).channel(c).data();
          w[t] = residues[t][c];
        }
        RnsPoly& dst = is_c1 ? out.c1 : out.c0;
        weighted_sum_lazy(x, w, dst.channel_modulus(c), dst.channel(c));
      }
    });
  }
  // The constant rides at the accumulated Delta^2 scale.
  if (!coeffs.empty() && coeffs[0] != 0.0) {
    out.c0.add_scalar(encoder_.constant_residues(coeffs[0], level, out.scale));
  }
  return evaluator_.rescale(out);  // scale ~Delta, level - 1
}

Ciphertext PolyEvaluator::eval_cheb_recursive(std::vector<double> coeffs,
                                              const std::vector<Ciphertext>& babies,
                                              const std::vector<Ciphertext>& giants,
                                              std::size_t baby_count,
                                              std::size_t common_level) const {
  std::size_t degree = coeffs.empty() ? 0 : coeffs.size() - 1;
  while (degree > 0 && coeffs[degree] == 0.0) --degree;
  coeffs.resize(degree + 1);
  if (degree < baby_count) {
    return weighted_sum(coeffs, babies, common_level);
  }

  // Split at the largest giant m = 2^r * baby_count with m <= degree < 2m:
  //   sum_{i>=m} c_i T_i = T_m * q(T) + s(T)
  // with q_{i-m} = 2 c_i (i > m), q_0 = c_m, and s_j = -c_{2m-j} folded into
  // the low part (T_a T_b = (T_{a+b} + T_{|a-b|}) / 2).
  std::size_t giant_idx = 0;
  std::size_t m = baby_count;
  while (2 * m <= degree) {
    m *= 2;
    ++giant_idx;
  }
  if (giant_idx >= giants.size()) {
    throw std::logic_error("eval_cheb_recursive: missing giant step");
  }

  std::vector<double> quotient(degree - m + 1, 0.0);
  quotient[0] = coeffs[m];
  for (std::size_t i = m + 1; i <= degree; ++i) quotient[i - m] = 2.0 * coeffs[i];

  std::vector<double> remainder(coeffs.begin(), coeffs.begin() + m);
  for (std::size_t i = m + 1; i <= degree; ++i) {
    remainder[2 * m - i] -= coeffs[i];
  }

  const Ciphertext q_ct =
      eval_cheb_recursive(std::move(quotient), babies, giants, baby_count, common_level);
  const Ciphertext r_ct =
      eval_cheb_recursive(std::move(remainder), babies, giants, baby_count, common_level);
  const Ciphertext product = evaluator_.mul_aligned(q_ct, giants[giant_idx], relin_);
  return evaluator_.add_aligned(product, r_ct);
}

Ciphertext PolyEvaluator::evaluate_chebyshev_stable(const Ciphertext& x,
                                                    std::span<const double> cheb_coeffs,
                                                    double a, double b) const {
  if (cheb_coeffs.empty()) {
    throw std::invalid_argument("evaluate_chebyshev_stable: empty coefficients");
  }
  std::size_t degree = cheb_coeffs.size() - 1;
  while (degree > 0 && cheb_coeffs[degree] == 0.0) --degree;

  // y = 2(x - a)/(b - a) - 1 in [-1, 1].
  const double alpha = 2.0 / (b - a);
  const double beta = -2.0 * a / (b - a) - 1.0;
  Ciphertext y = evaluator_.rescale(evaluator_.mul_scalar(x, alpha, encoder_, x.scale));
  y = evaluator_.add_scalar(y, beta, encoder_);

  if (degree <= 1) {
    Ciphertext out = evaluator_.rescale(evaluator_.mul_scalar(
        y, degree == 1 ? cheb_coeffs[1] : 0.0, encoder_, y.scale));
    return evaluator_.add_scalar(out, cheb_coeffs[0], encoder_);
  }

  // Babies T_1..T_k with k ~ sqrt(degree); T_j = 2 T_ceil T_floor - T_{0|1}.
  const std::size_t k = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(degree + 1)))));
  std::vector<Ciphertext> babies;
  babies.reserve(k);
  babies.push_back(y);  // T_1
  for (std::size_t j = 2; j <= k; ++j) {
    const std::size_t hi = (j + 1) / 2, lo = j / 2;
    Ciphertext prod = evaluator_.mul_aligned(babies[hi - 1], babies[lo - 1], relin_);
    prod = evaluator_.add_aligned(prod, prod);  // 2 T_hi T_lo
    if (hi == lo) {
      prod = evaluator_.add_scalar(prod, -1.0, encoder_);  // - T_0
    } else {
      Ciphertext t1 = evaluator_.mod_drop(babies[0], prod.level);
      t1 = evaluator_.normalize_scale(t1, prod.scale);
      prod = evaluator_.sub(prod, t1);  // - T_1
    }
    babies.push_back(std::move(prod));
  }

  // Giants T_k, T_2k, T_4k, ... up to degree (T_2m = 2 T_m^2 - 1).
  std::vector<Ciphertext> giants;
  giants.push_back(babies[k - 1]);
  for (std::size_t m = k; 2 * m <= degree; m *= 2) {
    Ciphertext sq = evaluator_.mul_aligned(giants.back(), giants.back(), relin_);
    sq = evaluator_.add_aligned(sq, sq);
    sq = evaluator_.add_scalar(sq, -1.0, encoder_);
    giants.push_back(std::move(sq));
  }

  std::size_t common_level = babies[0].level;
  for (const Ciphertext& c : babies) common_level = std::min(common_level, c.level);
  for (const Ciphertext& c : giants) common_level = std::min(common_level, c.level);

  std::vector<double> coeffs(cheb_coeffs.begin(), cheb_coeffs.begin() + degree + 1);
  return eval_cheb_recursive(std::move(coeffs), babies, giants, k, common_level);
}

std::vector<double> chebyshev_fit(const std::function<double(double)>& f, double a,
                                  double b, std::size_t degree) {
  const std::size_t nodes = degree + 1;
  std::vector<double> fx(nodes);
  for (std::size_t m = 0; m < nodes; ++m) {
    const double theta = M_PI * (static_cast<double>(m) + 0.5) / nodes;
    const double y = std::cos(theta);
    fx[m] = f(0.5 * (b - a) * y + 0.5 * (a + b));
  }
  std::vector<double> coeffs(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    double sum = 0;
    for (std::size_t m = 0; m < nodes; ++m) {
      const double theta = M_PI * (static_cast<double>(m) + 0.5) / nodes;
      sum += fx[m] * std::cos(n * theta);
    }
    coeffs[n] = (n == 0 ? 1.0 : 2.0) * sum / nodes;
  }
  return coeffs;
}

}  // namespace alchemist::ckks
