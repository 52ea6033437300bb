#include "workloads/bfv_workloads.h"

#include "workloads/ckks_subgraphs.h"

namespace alchemist::workloads {

namespace {

using metaop::OpGraph;
using metaop::OpKind;

// BFV relinearization key id: one key per scheme instance (cf. the CKKS
// generators' kRelinKeyId).
constexpr std::uint64_t kBfvRelinKeyId = 1;

}  // namespace

OpGraph build_bfv_cmult(const BfvWl& w) {
  return build_graph("BFV-Cmult", [&](GraphBuilder& b) {
    const std::size_t total = w.level + w.ext;

    // Base extension of both ciphertexts (4 polynomials) to q ∪ B.
    std::vector<std::size_t> extended;
    for (int poly = 0; poly < 4; ++poly) {
      extended.push_back(b.add(OpKind::Bconv, w.n, 1, {}, w.level, w.ext));
    }
    // Tensor in the NTT domain: 4 forward NTTs over all channels, 4 pointwise
    // products (d0, 2x d1, d2), 3 inverse NTTs.
    std::vector<std::size_t> ntts;
    for (int poly = 0; poly < 4; ++poly) {
      ntts.push_back(b.add(OpKind::Ntt, w.n, total, {extended[static_cast<std::size_t>(poly)]}));
    }
    const std::size_t tensor = b.add(OpKind::PointwiseMult, w.n, 4 * total, ntts);
    const std::size_t intt = b.add(OpKind::Intt, w.n, 3 * total, {tensor});

    // Scale-and-round t/q back to the q basis (Bconv + elementwise fix).
    const std::size_t down0 = b.add(OpKind::Bconv, w.n, 3, {intt}, w.ext, w.level);
    const std::size_t fix = b.add(OpKind::PointwiseMult, w.n, 3 * w.level, {down0});

    // Relinearize d2: digit decomposition + key inner product + NTTs.
    const std::size_t evk_bytes = static_cast<std::size_t>(
        static_cast<double>(w.dnum) * 2 * w.level * w.n * (w.word_bits / 8.0) *
        w.hbm_stream_fraction);
    std::vector<std::size_t> digit_ntts;
    for (std::size_t d = 0; d < w.dnum; ++d) {
      digit_ntts.push_back(b.add(OpKind::Ntt, w.n, w.level, {fix}));
    }
    const std::size_t dpm =
        b.add(OpKind::DecompPolyMult, w.n, 2 * w.level, digit_ntts, w.dnum, 0, evk_bytes,
              {{metaop::OperandClass::Evk, kBfvRelinKeyId, static_cast<std::uint64_t>(evk_bytes)}});
    b.add(OpKind::Intt, w.n, 2 * w.level, {dpm});
  });
}

}  // namespace alchemist::workloads
