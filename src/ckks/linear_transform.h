// Homomorphic linear transforms (matrix-vector products over the slots).
//
// A slots x slots complex matrix M is applied to an encrypted vector with the
// diagonal method:  M z = sum_d diag_d ⊙ rot(z, d),  where diag_d[k] =
// M[k][(k+d) mod slots]. Only nonzero diagonals cost work. With the
// baby-step/giant-step split d = g*i + j the rotation count drops from
// #diagonals to ~2*sqrt(#diagonals) — the structure of the CoeffToSlot /
// SlotToCoeff stages of bootstrapping and of the dense layers in LoLa.
//
// Each giant group sum_j diag'_{gi+j} ⊙ rot(z, j) runs as one instance of
// the paper's DecompPolyMult Meta-OP (M_j A_j)_n R_j: the diagonals are the
// plaintext operands M_j and the baby rotations the A_j. The group is one
// fan-out over the RNS channels of the level. For its channels, a lane
// lifts the group's rounded, pre-shifted diagonal coefficients into the
// channel, NTTs them and accumulates each ciphertext component with one
// lazy mul_sum whose rows are the baby rotations. No Plaintext and no
// per-term ciphertext is built. The plain schedule is a single group over
// individually rotated inputs.
//
// The diagonals are not cached. Every apply re-encodes them (a slots-point
// special IFFT and a rounding each), as ARK regenerates plaintext data on
// chip instead of storing it: at the bootstrap shape (N = 256, L = 20) a
// cache of the rounded coefficients saved no time and added 0.5–0.9 MB to
// a 16 MB peak RSS.
#pragma once

#include <complex>
#include <map>
#include <vector>

#include "ckks/encoder.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"
#include "ckks/params.h"

namespace alchemist::ckks {

class LinearTransform {
 public:
  using Matrix = std::vector<std::vector<std::complex<double>>>;

  // Build from a dense slots x slots matrix; zero diagonals are skipped.
  LinearTransform(ContextPtr ctx, Matrix matrix);

  std::size_t num_diagonals() const { return diagonals_.size(); }
  // Rotation steps needed by apply() (generate Galois keys for these).
  std::vector<int> required_rotations(bool bsgs) const;

  // y = M x. The result's scale is x.scale * pt_scale; the caller rescales.
  // With bsgs=true, uses the baby-step/giant-step schedule.
  Ciphertext apply(const Evaluator& evaluator, const CkksEncoder& encoder,
                   const Ciphertext& x, const GaloisKeys& gk, double pt_scale,
                   bool bsgs = true) const;

 private:
  std::size_t giant_step() const;

  ContextPtr ctx_;
  std::size_t slots_;
  std::map<std::size_t, std::vector<std::complex<double>>> diagonals_;
};

// The slots x slots DFT-like matrices of CKKS bootstrapping: encode_matrix
// (SlotToCoeff direction, entries zeta_j^k restricted to the slot group) and
// its inverse decode_matrix (CoeffToSlot). Exposed for tests and the
// bootstrap pipeline.
LinearTransform::Matrix slot_to_coeff_matrix(const CkksContext& ctx);
LinearTransform::Matrix coeff_to_slot_matrix(const CkksContext& ctx);

}  // namespace alchemist::ckks
