// TFHE programmable bootstrapping (PBS) and the boolean gate library.
//
// The PBS pipeline is the paper's logic-FHE benchmark (§6.2.2):
//   modulus switch -> blind rotation (n_lwe CMux external products)
//   -> sample extract -> LWE keyswitch.
#pragma once

#include <functional>

#include "tfhe/trlwe.h"

namespace alchemist::tfhe {

// LWE keyswitch key from the extracted (k*N)-dim key back to the n_lwe key.
struct KeySwitchKey {
  // ks[i][j] = LWE_target( src_bit_i * 2^(64 - (j+1)*base_bits) )
  std::vector<std::vector<LweSample>> ks;
  int base_bits = 2;
  std::size_t length = 8;
};

KeySwitchKey make_keyswitch_key(const LweKey& from, const LweKey& to,
                                int base_bits, std::size_t length, double sigma,
                                Rng& rng);
// Throws std::invalid_argument unless the key has one row per input
// coefficient (at least one) and every row has `length` samples.
LweSample keyswitch(const LweSample& in, const KeySwitchKey& ksk);

// Everything the evaluator needs: bootstrapping key (TGSW of each LWE secret
// bit) and the keyswitch key.
struct BootstrapContext {
  TfheParams params;
  std::vector<TgswNtt> bk;  // n_lwe entries
  KeySwitchKey ksk;
};

BootstrapContext make_bootstrap_context(const TfheParams& params,
                                        const LweKey& lwe_key,
                                        const TrlweKey& trlwe_key, Rng& rng);

// Blind rotation: returns TRLWE(X^-(barb - sum bara_i s_i) * v). Throws
// std::invalid_argument unless bara has one entry per key in bk.
TrlweSample blind_rotate(const TrlweSample& test_vector,
                         const std::vector<u64>& bara, u64 barb,
                         const std::vector<TgswNtt>& bk);

// Full PBS: the result encrypts test_poly[phase] (negacyclically signed)
// under the original n_lwe key.
LweSample programmable_bootstrap(const LweSample& in, const TorusPoly& test_poly,
                                 const BootstrapContext& ctx);

// Constant test polynomial (gate bootstrapping): every slot = mu.
TorusPoly make_constant_test_poly(std::size_t degree, Torus mu);

// Test polynomial from a lookup table over `space` message points. Only the
// first half of the message space maps to slots directly; the second half is
// the negacyclic mirror (-f), the standard PBS constraint.
TorusPoly make_lut_test_poly(std::size_t degree, u64 space,
                             const std::function<Torus(u64)>& f);

// --- Gate bootstrapping (binary API; true = +1/8, false = -1/8) ---

LweSample encrypt_bit(bool bit, const LweKey& key, double sigma, Rng& rng);
bool decrypt_bit(const LweSample& sample, const LweKey& key);

LweSample gate_nand(const LweSample& a, const LweSample& b, const BootstrapContext& ctx);
LweSample gate_and(const LweSample& a, const LweSample& b, const BootstrapContext& ctx);
LweSample gate_or(const LweSample& a, const LweSample& b, const BootstrapContext& ctx);
LweSample gate_nor(const LweSample& a, const LweSample& b, const BootstrapContext& ctx);
LweSample gate_xor(const LweSample& a, const LweSample& b, const BootstrapContext& ctx);
LweSample gate_xnor(const LweSample& a, const LweSample& b, const BootstrapContext& ctx);
// NOT is noise-free (no bootstrap).
LweSample gate_not(const LweSample& a);
// MUX(sel, t, f): composed from AND/OR gates (3 bootstraps).
LweSample gate_mux(const LweSample& sel, const LweSample& t, const LweSample& f,
                   const BootstrapContext& ctx);

}  // namespace alchemist::tfhe
