#include "ckks/linear_transform.h"

#include <cmath>
#include <span>
#include <stdexcept>

#include "common/thread_pool.h"
#include "poly/lazy_kernels.h"
#include "poly/ntt.h"

namespace alchemist::ckks {

namespace {

using Complex = std::complex<double>;

bool diagonal_is_zero(const std::vector<Complex>& diag) {
  for (const Complex& v : diag) {
    if (std::abs(v) > 1e-300) return false;
  }
  return true;
}

// sum_t pt_t ⊙ in_t for plaintexts given as rounded coefficients (one
// CkksEncoder::encode_coefficients each), as one DecompPolyMult fan-out over
// the channels of the inputs' level. Per channel, a lane lifts and NTTs
// every plaintext, then runs one lazy mul_sum per ciphertext component. The
// inputs share a level and scale; the result's scale is theirs times
// pt_scale.
Ciphertext mul_sum_plain(std::span<const Ciphertext* const> inputs,
                         std::span<const std::vector<i64>> coeffs, double pt_scale) {
  const Ciphertext& first = *inputs.front();
  const std::size_t n = first.c0.degree();
  const std::size_t terms = inputs.size();
  Ciphertext out{RnsPoly(n, first.c0.moduli(), RnsPoly::Form::Ntt),
                 RnsPoly(n, first.c0.moduli(), RnsPoly::Form::Ntt), first.level,
                 first.scale * pt_scale};
  parallel_for(out.c0.num_channels(), channel_grain(n), [&](std::size_t b, std::size_t e) {
    std::vector<u64> plain(terms * n);
    std::vector<const u64*> pt(terms), x0(terms), x1(terms);
    for (std::size_t c = b; c < e; ++c) {
      const Modulus& mod = out.c0.channel_modulus(c);
      {
        KernelTimer timer(Kernel::NttFwd);
        const NttTable& table = get_ntt_table(mod.value(), n);
        for (std::size_t t = 0; t < terms; ++t) {
          const std::span<u64> row(plain.data() + t * n, n);
          lift_signed(coeffs[t], mod, row);
          table.forward(row);
          pt[t] = row.data();
        }
      }
      for (std::size_t t = 0; t < terms; ++t) {
        x0[t] = inputs[t]->c0.channel(c).data();
        x1[t] = inputs[t]->c1.channel(c).data();
      }
      mul_sum_lazy(pt, x0, mod, out.c0.channel(c));
      mul_sum_lazy(pt, x1, mod, out.c1.channel(c));
    }
  });
  return out;
}

}  // namespace

LinearTransform::LinearTransform(ContextPtr ctx, Matrix matrix)
    : ctx_(std::move(ctx)), slots_(ctx_->params().slots()) {
  if (matrix.size() != slots_) {
    throw std::invalid_argument("LinearTransform: matrix must be slots x slots");
  }
  for (const auto& row : matrix) {
    if (row.size() != slots_) {
      throw std::invalid_argument("LinearTransform: matrix must be slots x slots");
    }
  }
  for (std::size_t d = 0; d < slots_; ++d) {
    std::vector<Complex> diag(slots_);
    for (std::size_t k = 0; k < slots_; ++k) {
      diag[k] = matrix[k][(k + d) % slots_];
    }
    if (!diagonal_is_zero(diag)) diagonals_.emplace(d, std::move(diag));
  }
}

std::size_t LinearTransform::giant_step() const {
  return static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(std::max<std::size_t>(diagonals_.size(), 1)))));
}

std::vector<int> LinearTransform::required_rotations(bool bsgs) const {
  std::vector<int> steps;
  if (!bsgs) {
    for (const auto& [d, diag] : diagonals_) {
      if (d != 0) steps.push_back(static_cast<int>(d));
    }
    return steps;
  }
  const std::size_t g = giant_step();
  // Baby rotations j in [0, g) and giant rotations g*i that actually occur.
  std::vector<bool> baby(g, false), giant(slots_ / g + 2, false);
  for (const auto& [d, diag] : diagonals_) {
    baby[d % g] = true;
    giant[d / g] = true;
  }
  for (std::size_t j = 1; j < g; ++j) {
    if (baby[j]) steps.push_back(static_cast<int>(j));
  }
  for (std::size_t i = 1; i < giant.size(); ++i) {
    if (giant[i]) steps.push_back(static_cast<int>(i * g));
  }
  return steps;
}

Ciphertext LinearTransform::apply(const Evaluator& evaluator,
                                  const CkksEncoder& encoder, const Ciphertext& x,
                                  const GaloisKeys& gk, double pt_scale,
                                  bool bsgs) const {
  if (diagonals_.empty()) {
    throw std::invalid_argument("LinearTransform: zero matrix");
  }
  auto encode_diag = [&](const std::vector<Complex>& diag) {
    return encoder.encode_coefficients(std::span<const Complex>(diag), pt_scale);
  };

  if (!bsgs) {
    // One group: every diagonal against its own rotation of x.
    std::vector<Ciphertext> rotated;
    std::vector<std::vector<i64>> coeffs;
    rotated.reserve(diagonals_.size());
    for (const auto& [d, diag] : diagonals_) {
      rotated.push_back(d == 0 ? x : evaluator.rotate(x, static_cast<int>(d), gk));
      coeffs.push_back(encode_diag(diag));
    }
    std::vector<const Ciphertext*> inputs;
    for (const Ciphertext& r : rotated) inputs.push_back(&r);
    return mul_sum_plain(inputs, coeffs, pt_scale);
  }

  // BSGS: d = g*i + j. M z = sum_i rot( sum_j diag'_{gi+j} ⊙ rot(z, j), g*i )
  // with diag'_{gi+j} = rot(diag_{gi+j}, -g*i) folded into the plaintext.
  // All baby rotations share one decomposition + Modup (the paper's hoisting).
  const std::size_t g = giant_step();
  std::vector<bool> baby_needed(g, false);
  for (const auto& [d, diag] : diagonals_) baby_needed[d % g] = true;
  std::vector<int> baby_steps;
  for (std::size_t j = 1; j < g; ++j) {
    if (baby_needed[j]) baby_steps.push_back(static_cast<int>(j));
  }
  const std::vector<Ciphertext> hoisted =
      evaluator.rotate_hoisted(x, baby_steps, gk);
  std::vector<const Ciphertext*> baby(g, &x);
  for (std::size_t i = 0; i < baby_steps.size(); ++i) baby[baby_steps[i]] = &hoisted[i];

  bool first_total = true;
  Ciphertext total;
  for (std::size_t i = 0; i * g < slots_; ++i) {
    std::vector<const Ciphertext*> inputs;
    std::vector<std::vector<i64>> coeffs;
    for (std::size_t j = 0; j < g; ++j) {
      const auto it = diagonals_.find(i * g + j);
      if (it == diagonals_.end()) continue;
      // Pre-rotate the diagonal by -g*i so the single giant rotation at the
      // end lands every term correctly.
      std::vector<Complex> shifted(slots_);
      for (std::size_t k = 0; k < slots_; ++k) {
        shifted[k] = it->second[(k + slots_ - (i * g) % slots_) % slots_];
      }
      inputs.push_back(baby[j]);
      coeffs.push_back(encode_diag(shifted));
    }
    if (inputs.empty()) continue;  // no diagonals in this giant group
    Ciphertext inner = mul_sum_plain(inputs, coeffs, pt_scale);
    if (i != 0) {
      inner = evaluator.rotate(inner, static_cast<int>(i * g), gk);
    }
    if (first_total) {
      total = std::move(inner);
      first_total = false;
    } else {
      total = evaluator.add(total, inner);
    }
  }
  return total;
}

LinearTransform::Matrix slot_to_coeff_matrix(const CkksContext& ctx) {
  // A[j][k] = zeta_j^k with zeta_j = omega^(5^j mod 2N), k < N/2: the square
  // matrix with z = A (u + i v) for coefficient halves u, v.
  const std::size_t n = ctx.degree();
  const std::size_t slots = ctx.params().slots();
  LinearTransform::Matrix m(slots, std::vector<Complex>(slots));
  std::size_t sigma = 1;
  for (std::size_t j = 0; j < slots; ++j) {
    for (std::size_t k = 0; k < slots; ++k) {
      const double angle =
          M_PI * static_cast<double>((sigma * k) % (2 * n)) / static_cast<double>(n);
      m[j][k] = {std::cos(angle), std::sin(angle)};
    }
    sigma = (sigma * 5) % (2 * n);
  }
  return m;
}

LinearTransform::Matrix coeff_to_slot_matrix(const CkksContext& ctx) {
  // Inverse of slot_to_coeff_matrix. A is a scaled-unitary Vandermonde-like
  // matrix over the rotation group: A^{-1} = (1/slots) * conj(A)^T.
  const std::size_t slots = ctx.params().slots();
  const LinearTransform::Matrix a = slot_to_coeff_matrix(ctx);
  LinearTransform::Matrix inv(slots, std::vector<Complex>(slots));
  for (std::size_t r = 0; r < slots; ++r) {
    for (std::size_t c = 0; c < slots; ++c) {
      inv[r][c] = std::conj(a[c][r]) / static_cast<double>(slots);
    }
  }
  return inv;
}

}  // namespace alchemist::ckks
