// Homomorphic polynomial evaluation (baby-step/giant-step power basis).
//
// Evaluates p(x) = sum_i c_i x^i on a CKKS ciphertext in O(sqrt(deg))
// ciphertext multiplications and O(log deg) multiplicative depth. This is the
// engine behind the EvalMod stage of CKKS bootstrapping and any non-linear
// approximation (sigmoid, exp, sine, ...).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "ckks/encoder.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"
#include "ckks/params.h"

namespace alchemist::ckks {

class PolyEvaluator {
 public:
  PolyEvaluator(ContextPtr ctx, const CkksEncoder& encoder,
                const Evaluator& evaluator, const RelinKeys& relin);

  // p(x) with real coefficients coeffs[0..deg]. Consumes roughly
  // 2 + ceil(log2(deg)) levels; throws if the ciphertext is too shallow.
  Ciphertext evaluate(const Ciphertext& x, std::span<const double> coeffs) const;

  // Multiplicative depth evaluate() will consume for a given degree.
  static std::size_t depth_for_degree(std::size_t degree);

  // Chebyshev-basis Paterson-Stockmeyer evaluation: sum_i c_i T_i(y) with
  // y = 2(x-a)/(b-a) - 1, computed directly in the Chebyshev basis with
  // T_{a+b} = 2 T_a T_b - T_{|a-b|}. Coefficients stay O(1), so this is
  // numerically stable at the high degrees of EvalMod, where a conversion to
  // the power basis would overflow beyond degree ~30.
  Ciphertext evaluate_chebyshev_stable(const Ciphertext& x,
                                       std::span<const double> cheb_coeffs,
                                       double a, double b) const;

 private:
  // Recursive Paterson-Stockmeyer over the Chebyshev basis.
  Ciphertext eval_cheb_recursive(std::vector<double> coeffs,
                                 const std::vector<Ciphertext>& babies,
                                 const std::vector<Ciphertext>& giants,
                                 std::size_t baby_count,
                                 std::size_t common_level) const;
  // sum_{i>=1} c_i * babies[i-1] + c_0 at `level`, then one rescale to
  // ~Delta at level - 1 (Delta = babies[0].scale): the direct Chebyshev sum
  // for degree < baby_count and the power-basis inner sums. Each used baby
  // must sit within normalize_scale's tolerance of Delta; its first `level`
  // channels are read in place by one lazy weighted sum per channel.
  Ciphertext weighted_sum(std::span<const double> coeffs,
                          const std::vector<Ciphertext>& babies,
                          std::size_t level) const;
  // x^1..x^count, each at scale ~Delta; built with log-depth squaring.
  std::vector<Ciphertext> build_powers(const Ciphertext& x,
                                       std::size_t count) const;

  ContextPtr ctx_;
  const CkksEncoder& encoder_;
  const Evaluator& evaluator_;
  const RelinKeys& relin_;
};

// Chebyshev interpolation of f on [a, b] at `degree`+1 Chebyshev-Gauss nodes;
// returns the Chebyshev-basis coefficients c_0..c_degree.
std::vector<double> chebyshev_fit(const std::function<double(double)>& f, double a,
                                  double b, std::size_t degree);

}  // namespace alchemist::ckks
