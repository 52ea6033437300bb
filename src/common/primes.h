// NTT-friendly prime generation and roots of unity.
//
// Negacyclic NTT over Z_q[X]/(X^N + 1) requires q ≡ 1 (mod 2N) so that a
// primitive 2N-th root of unity psi exists in Z_q. RNS moduli chains for CKKS
// are built from such primes at a requested bit width.
#pragma once

#include <cstddef>
#include <vector>

#include "common/modarith.h"

namespace alchemist {

// Deterministic Miller-Rabin for 64-bit integers.
bool is_prime(u64 n);

// Largest prime p < 2^bits with p ≡ 1 (mod step), bits in [3, 62]. Throws if
// none exists.
u64 max_prime_1mod(int bits, u64 step);

// Largest prime p < 2^bits with p ≡ 1 (mod 2N): max_prime_1mod(bits, 2N).
u64 max_ntt_prime(int bits, std::size_t n);

// `count` distinct primes, each ≡ 1 (mod 2N), descending from just below
// 2^bits. Used to build RNS moduli chains (Q = prod q_i, P = prod p_j).
std::vector<u64> generate_ntt_primes(int bits, std::size_t n, std::size_t count);

// As above but skipping any prime present in `exclude` — lets callers draw the
// special moduli P disjoint from the ciphertext moduli Q.
std::vector<u64> generate_ntt_primes(int bits, std::size_t n, std::size_t count,
                                     const std::vector<u64>& exclude);

// A primitive 2N-th root of unity modulo q (q ≡ 1 mod 2N, N a power of two).
// Deterministic for a given q.
u64 primitive_root_2n(u64 q, std::size_t n);

}  // namespace alchemist
