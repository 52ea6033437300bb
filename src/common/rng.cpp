#include "common/rng.h"

#include <cmath>

namespace alchemist {

namespace {

constexpr u64 kSplitmixGamma = 0x9e3779b97f4a7c15ULL;

constexpr u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

u64 splitmix64(u64& state) {
  state += kSplitmixGamma;
  u64 z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

u64 splitmix64_at(u64 seed, u64 index) {
  u64 state = seed + kSplitmixGamma * index;
  return splitmix64(state);
}

// splitmix64 expands the single seed word into the xoshiro state.
Rng::Rng(u64 seed) {
  u64 sm = seed;
  for (u64& s : state_) s = splitmix64(sm);
}

u64 Rng::next() {
  const u64 result = rotl(state_[1] * 5, 7) * 9;
  const u64 t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

u64 Rng::uniform(u64 bound) {
  // Rejection sampling keeps the distribution exactly uniform.
  const u64 threshold = -bound % bound;  // 2^64 mod bound
  for (;;) {
    const u64 r = next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::uniform_real() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

u64 Rng::ternary(u64 q) {
  switch (uniform(3)) {
    case 0: return 0;
    case 1: return 1;
    default: return q - 1;
  }
}

u64 Rng::cbd(int eta, u64 q) {
  int acc = 0;
  for (int i = 0; i < eta; ++i) {
    acc += static_cast<int>(next() & 1);
    acc -= static_cast<int>(next() & 1);
  }
  return acc >= 0 ? static_cast<u64>(acc) : q - static_cast<u64>(-acc);
}

i64 Rng::gaussian_signed(double sigma) {
  // Box-Muller, rounded to the nearest integer. Not constant-time — this is a
  // research reproduction, not a hardened crypto library.
  double u1 = uniform_real();
  while (u1 <= 0.0) u1 = uniform_real();
  const double u2 = uniform_real();
  const double g = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return static_cast<i64>(std::llround(g * sigma));
}

u64 Rng::gaussian(double sigma, u64 q) {
  const i64 g = gaussian_signed(sigma);
  return g >= 0 ? static_cast<u64>(g) % q : q - (static_cast<u64>(-g) % q);
}

std::vector<u64> Rng::uniform_vector(std::size_t count, u64 bound) {
  std::vector<u64> v(count);
  for (u64& x : v) x = uniform(bound);
  return v;
}

}  // namespace alchemist
