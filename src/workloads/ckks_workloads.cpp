#include "workloads/ckks_workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "workloads/ckks_subgraphs.h"

namespace alchemist::workloads {

namespace {

using metaop::IndexList;
using metaop::OpGraph;
using metaop::OpKind;

using Deps = std::vector<std::size_t>;
using Builder = GraphBuilder;

}  // namespace

std::uint64_t evk_stream_bytes(const CkksWl& w, std::size_t digits) {
  const std::size_t ext = w.level + w.num_special();
  const double bytes = static_cast<double>(digits) * 2.0 * ext * w.n *
                       (w.word_bits / 8.0) * w.hbm_stream_fraction;
  return static_cast<std::uint64_t>(bytes);
}

// Hybrid keyswitch core of one polynomial already in NTT form; the returned
// node leaves the switched pair in *coefficient* form over Q (callers fuse a
// rescale or append the final NTT).
std::size_t append_keyswitch_coeff(Builder& b, const CkksWl& w, IndexList input,
                                   std::uint64_t key_id,
                                   metaop::OperandClass key_class) {
  const std::size_t l = w.level;
  const std::size_t a = w.alpha();
  const std::size_t K = w.num_special();
  const std::size_t digits = w.active_digits();

  // Decompose: back to coefficient form.
  const std::size_t intt = b.add(OpKind::Intt, w.n, l, input);

  // Per digit: fast base conversion (Modup) to the missing channels of Q·P,
  // then NTT of those channels.
  Deps digit_ntts;
  for (std::size_t j = 0; j < digits; ++j) {
    const std::size_t gj = std::min(a, l - j * a);
    const std::size_t conv = b.add(OpKind::Bconv, w.n, 1, {intt}, gj, l - gj + K);
    digit_ntts.push_back(b.add(OpKind::Ntt, w.n, l - gj + K, {conv}));
  }

  // DecompPolyMult: accumulate digit * evk over both output components; the
  // evaluation key streams from HBM (double-buffered by the simulator). The
  // descriptor attributes the full stream to the key so the MemProfiler can
  // split key traffic from limb traffic and track per-key reuse.
  const std::uint64_t evk_bytes = evk_stream_bytes(w, digits);
  const std::size_t dpm = b.add(OpKind::DecompPolyMult, w.n, 2 * (l + K),
                                digit_ntts, digits, 0, evk_bytes,
                                {{key_class, key_id, evk_bytes}});

  // Moddown both components: INTT, Bconv P->Q, subtract + scale, NTT.
  const std::size_t intt2 = b.add(OpKind::Intt, w.n, 2 * (l + K), {dpm});
  const std::size_t conv0 = b.add(OpKind::Bconv, w.n, 1, {intt2}, K, l);
  const std::size_t conv1 = b.add(OpKind::Bconv, w.n, 1, {intt2}, K, l);
  return b.add(OpKind::PointwiseMult, w.n, 2 * l, {conv0, conv1});
}

std::size_t append_keyswitch(Builder& b, const CkksWl& w, IndexList input,
                             std::uint64_t key_id,
                             metaop::OperandClass key_class) {
  const std::size_t fix =
      append_keyswitch_coeff(b, w, input, key_id, key_class);
  return b.add(OpKind::Ntt, w.n, 2 * w.level, {fix});
}

// Rescale of a ciphertext (2 polys): exact RNS divide by the last prime.
std::size_t append_rescale(Builder& b, const CkksWl& w, IndexList input) {
  const std::size_t l = w.level;
  const std::size_t intt = b.add(OpKind::Intt, w.n, 2 * l, input);
  const std::size_t conv = b.add(OpKind::Bconv, w.n, 2, {intt}, 1, l - 1);
  const std::size_t fix = b.add(OpKind::PointwiseMult, w.n, 2 * (l - 1), {conv});
  return b.add(OpKind::Ntt, w.n, 2 * (l - 1), {fix});
}

// Full ciphertext multiply with fused rescale: tensor + relinearize, combine
// in coefficient form, divide by the last prime, one final NTT. Fusing avoids
// the redundant NTT/INTT pair at the keyswitch/rescale boundary (the double-
// domain-residency trick of the SOTA accelerators).
std::size_t append_cmult_rescale(Builder& b, const CkksWl& w, IndexList input) {
  const std::size_t l = w.level;
  const std::size_t tensor =
      b.add(OpKind::PointwiseMult, w.n, 4 * l, input);
  const std::size_t ks = append_keyswitch_coeff(b, w, {tensor});
  const std::size_t d01 = b.add(OpKind::Intt, w.n, 2 * l, {tensor});
  const std::size_t sum = b.add(OpKind::PointwiseAdd, w.n, 2 * l, {ks, d01});
  const std::size_t conv = b.add(OpKind::Bconv, w.n, 2, {sum}, 1, l - 1);
  const std::size_t fix = b.add(OpKind::PointwiseMult, w.n, 2 * (l - 1), {conv});
  return b.add(OpKind::Ntt, w.n, 2 * (l - 1), {fix});
}

std::size_t append_rotation(Builder& b, const CkksWl& w, IndexList input,
                            std::uint64_t rot_key_id) {
  const std::size_t l = w.level;
  const std::size_t rot = b.add(OpKind::Automorphism, w.n, 2 * l, input);
  const std::size_t ks = append_keyswitch(b, w, {rot}, rot_key_id,
                                          metaop::OperandClass::RotationKey);
  return b.add(OpKind::PointwiseAdd, w.n, l, {rot, ks});
}

// `count` rotations sharing a single decomposition + Modup (hoisting).
std::size_t append_hoisted_rotations(Builder& b, const CkksWl& w, std::size_t count,
                                     IndexList input, std::uint64_t rot_key_base) {
  const std::size_t l = w.level;
  const std::size_t a = w.alpha();
  const std::size_t K = w.num_special();
  const std::size_t digits = w.active_digits();

  const std::size_t intt = b.add(OpKind::Intt, w.n, l, input);
  Deps digit_ntts;
  for (std::size_t j = 0; j < digits; ++j) {
    const std::size_t gj = std::min(a, l - j * a);
    const std::size_t conv = b.add(OpKind::Bconv, w.n, 1, {intt}, gj, l - gj + K);
    digit_ntts.push_back(b.add(OpKind::Ntt, w.n, l - gj + K, {conv}));
  }
  // Per rotation: permute the shared decomposition and run DecompPolyMult
  // with the rotation's key — the Modup above is paid once, and the rotated
  // results are accumulated *in the extended basis* so the Moddown below is
  // also paid once (lazy hoisting, as in the BSGS linear transforms of
  // ARK/SHARP bootstrapping).
  Deps rot_outputs;
  const std::uint64_t evk_bytes = evk_stream_bytes(w, digits);
  for (std::size_t r = 0; r < count; ++r) {
    const std::size_t perm =
        b.add(OpKind::Automorphism, w.n, digits * (l + K), digit_ntts);
    rot_outputs.push_back(
        b.add(OpKind::DecompPolyMult, w.n, 2 * (l + K), {perm}, digits, 0,
              evk_bytes,
              {{metaop::OperandClass::RotationKey, rot_key_base + r, evk_bytes}}));
  }
  const std::size_t sum =
      b.add(OpKind::PointwiseAdd, w.n, 2 * (l + K), rot_outputs);
  const std::size_t intt2 = b.add(OpKind::Intt, w.n, 2 * (l + K), {sum});
  const std::size_t conv = b.add(OpKind::Bconv, w.n, 2, {intt2}, K, l);
  const std::size_t fix = b.add(OpKind::PointwiseMult, w.n, 2 * l, {conv});
  return b.add(OpKind::Ntt, w.n, 2 * l, {fix});
}

// One BSGS linear-transform level of CoeffToSlot/SlotToCoeff over `slots`
// slots: ~2*sqrt(slots) rotations and sqrt(slots) plaintext multiplies.
std::size_t append_linear_transform(Builder& b, const CkksWl& w, std::size_t slots,
                                    bool hoisting, IndexList input) {
  const auto root = static_cast<std::size_t>(std::ceil(std::sqrt(
      static_cast<double>(slots))));
  // BSGS rotation keys are per-step and shared by every linear-transform
  // stage of a schedule (baby steps at kRotationKeyBase + r, giant steps at
  // kRotationKeyBase + 64 + i), so the later CoeffToSlot/SlotToCoeff stages
  // re-fetch them — the reuse headroom the ledger is meant to expose.
  if (hoisting) {
    const std::size_t baby =
        append_hoisted_rotations(b, w, root, input, kRotationKeyBase);
    std::size_t last = b.add(OpKind::PointwiseMult, w.n, 2 * w.level, {baby});
    // Giant steps stay un-hoisted (different decompositions).
    for (std::size_t i = 0; i < root; ++i) {
      last = append_rotation(b, w, {last}, kRotationKeyBase + 64 + i);
    }
    return last;
  }
  Deps cur(input.begin(), input.end());
  for (std::size_t i = 0; i < 2 * root; ++i) {
    cur = {append_rotation(b, w, cur, kRotationKeyBase + i)};
  }
  return b.add(OpKind::PointwiseMult, w.n, 2 * w.level, cur);
}

OpGraph build_hadd(const CkksWl& w) {
  return build_graph("Hadd", [&](Builder& b) {
    b.add(OpKind::PointwiseAdd, w.n, 2 * w.level, {});
  });
}

OpGraph build_pmult(const CkksWl& w) {
  return build_graph("Pmult", [&](Builder& b) {
    b.add(OpKind::PointwiseMult, w.n, 2 * w.level, {});
  });
}

OpGraph build_rescale(const CkksWl& w) {
  return build_graph("Rescale", [&](Builder& b) {
    append_rescale(b, w, {});
  });
}

OpGraph build_keyswitch(const CkksWl& w) {
  return build_graph("Keyswitch", [&](Builder& b) {
    append_keyswitch(b, w, {});
  });
}

OpGraph build_cmult(const CkksWl& w) {
  return build_graph("Cmult", [&](Builder& b) {
    append_cmult_rescale(b, w, {});
  });
}

OpGraph build_rotation(const CkksWl& w) {
  return build_graph("Rotation", [&](Builder& b) {
    append_rotation(b, w, {});
  });
}

OpGraph build_hoisted_rotations(const CkksWl& w, std::size_t count) {
  return build_graph("HoistedRotations", [&](Builder& b) {
    append_hoisted_rotations(b, w, count, {});
  });
}

OpGraph build_bootstrapping(const CkksWl& w, bool hoisting) {
  return build_graph(hoisting ? "Bootstrapping(hoisted)" : "Bootstrapping", [&](Builder& b) {
    CkksWl cur = w;
    const std::size_t slots = w.n / 2;

    // ModRaise: base conversion of both polynomials up to the full chain.
    Deps last = {b.add(OpKind::Bconv, w.n, 2, {}, 1, cur.level)};

    // CoeffToSlot: 3 BSGS linear-transform levels, each consuming one level.
    for (int stage = 0; stage < 3; ++stage) {
      last = {append_linear_transform(b, cur, slots, hoisting, last)};
      last = {append_rescale(b, cur, last)};
      cur.level -= 1;
    }

    // EvalMod: degree-63 polynomial of the modular-reduction approximation via
    // BSGS — ~16 ciphertext multiplies over ~8 levels.
    for (int depth = 0; depth < 8 && cur.level > 4; ++depth) {
      last = {append_cmult_rescale(b, cur, last)};
      cur.level -= 1;
      last = {append_cmult_rescale(b, cur, last)};
      cur.level -= 1;
    }

    // SlotToCoeff: 3 more linear-transform levels.
    for (int stage = 0; stage < 3 && cur.level > 1; ++stage) {
      last = {append_linear_transform(b, cur, slots, hoisting, last)};
      last = {append_rescale(b, cur, last)};
      cur.level -= 1;
    }
  });
}

OpGraph build_helr_iteration(const CkksWl& w, std::size_t /*iters_per_bootstrap*/) {
  return build_graph("HELR-iteration", [&](Builder& b) {
    CkksWl cur = w;

    // Batched dot product: one plaintext multiply plus a rotate-and-add tree
    // over the 256 features packed per ciphertext.
    Deps last = {b.add(OpKind::PointwiseMult, w.n, 2 * cur.level, {})};
    for (int step = 0; step < 8; ++step) {
      // Power-of-two rotation tree: one distinct key per step.
      last = {append_rotation(b, cur, last,
                              kRotationKeyBase + static_cast<std::uint64_t>(step))};
      last = {b.add(OpKind::PointwiseAdd, w.n, 2 * cur.level, last)};
    }
    // Degree-3 sigmoid approximation: two multiplies and rescales.
    for (int m = 0; m < 2 && cur.level > 2; ++m) {
      last = {append_cmult_rescale(b, cur, last)};
      cur.level -= 1;
    }
    // Gradient update: weighted accumulation into the model ciphertext.
    last = {append_cmult_rescale(b, cur, last)};
    cur.level -= 1;
    b.add(OpKind::PointwiseAdd, w.n, 2 * cur.level, last);
  });
}

OpGraph build_lola_mnist(bool encrypted_weights) {
  return build_graph(encrypted_weights ? "LoLa-MNIST(enc-weights)" : "LoLa-MNIST", [&](Builder& b) {
    CkksWl wl;
    wl.n = 16384;
    wl.level = 6;
    wl.max_level = 6;
    wl.dnum = 3;

    // Weighted taps: plaintext weights multiply elementwise; encrypted weights
    // need a full relinearizing multiply (rescale handled by the layer).
    auto weight_mult = [&](CkksWl& cur, IndexList deps) -> std::size_t {
      if (encrypted_weights) {
        const std::size_t l = cur.level;
        const std::size_t tensor =
            b.add(OpKind::PointwiseMult, wl.n, 4 * l, deps);
        const std::size_t ks = append_keyswitch(b, cur, {tensor});
        return b.add(OpKind::PointwiseAdd, wl.n, 2 * l, {tensor, ks});
      }
      return b.add(OpKind::PointwiseMult, wl.n, 2 * cur.level, deps);
    };

    CkksWl cur = wl;
    // Conv 5x5 (stride 2): 25 rotated weighted taps accumulated. Tap rotations
    // use distinct per-layer key ranges (conv at base, dense1 at base+32,
    // dense2 at base+64).
    Deps taps;
    for (int t = 0; t < 25; ++t) {
      const std::size_t rot = append_rotation(
          b, cur, {}, kRotationKeyBase + static_cast<std::uint64_t>(t));
      taps.push_back(weight_mult(cur, {rot}));
    }
    Deps last = {b.add(OpKind::PointwiseAdd, wl.n, 2 * cur.level, taps)};
    last = {append_rescale(b, cur, last)};
    cur.level -= 1;

    // Square activation.
    last = {append_cmult_rescale(b, cur, last)};
    cur.level -= 1;

    // Dense 100: BSGS-style rotations + weighted sums.
    Deps dense1;
    for (int t = 0; t < 12; ++t) {
      const std::size_t rot = append_rotation(
          b, cur, last, kRotationKeyBase + 32 + static_cast<std::uint64_t>(t));
      dense1.push_back(weight_mult(cur, {rot}));
    }
    last = {b.add(OpKind::PointwiseAdd, wl.n, 2 * cur.level, dense1)};
    last = {append_rescale(b, cur, last)};
    cur.level -= 1;

    // Square activation.
    last = {append_cmult_rescale(b, cur, last)};
    cur.level -= 1;

    // Final dense 10.
    Deps dense2;
    for (int t = 0; t < 4; ++t) {
      const std::size_t rot = append_rotation(
          b, cur, last, kRotationKeyBase + 64 + static_cast<std::uint64_t>(t));
      dense2.push_back(weight_mult(cur, {rot}));
    }
    b.add(OpKind::PointwiseAdd, wl.n, 2 * cur.level, dense2);
  });
}

}  // namespace alchemist::workloads
