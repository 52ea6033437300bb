// Deterministic randomness for key generation, encryption noise and test
// workload synthesis. xoshiro256** core with helpers for the samplers every
// lattice scheme needs: uniform mod q, ternary secrets, centered-binomial and
// rounded-Gaussian errors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/modarith.h"

namespace alchemist {

// splitmix64: advances `state` by the golden-ratio increment and returns the
// finalized word.
u64 splitmix64(u64& state);

// Output `index` (0-based) of the splitmix64 stream that starts at `seed`,
// computed directly: a draw that must be a pure function of (seed, index).
u64 splitmix64_at(u64 seed, u64 index);

class Rng {
 public:
  explicit Rng(u64 seed = 0x5eed'a1c4'e815'7ULL);

  u64 next();

  // Uniform in [0, bound) by rejection (bound > 0).
  u64 uniform(u64 bound);

  // Uniform double in [0, 1).
  double uniform_real();

  // Ternary value in {-1, 0, 1} represented mod q.
  u64 ternary(u64 q);

  // Centered binomial with parameter `eta` (variance eta/2), mod q.
  u64 cbd(int eta, u64 q);

  // Rounded Gaussian with standard deviation sigma, mod q.
  u64 gaussian(double sigma, u64 q);

  // Signed rounded Gaussian (for torus schemes), as a plain integer.
  i64 gaussian_signed(double sigma);

  std::vector<u64> uniform_vector(std::size_t count, u64 bound);

 private:
  u64 state_[4];
};

}  // namespace alchemist
