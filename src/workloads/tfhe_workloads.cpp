#include "workloads/tfhe_workloads.h"

#include "workloads/ckks_subgraphs.h"

namespace alchemist::workloads {

using metaop::OpGraph;
using metaop::OpKind;

OpGraph build_pbs(const TfheWl& w) {
  return build_graph("TFHE-PBS", [&](GraphBuilder& b) {
    const std::size_t rows = (w.k + 1) * w.l;   // decomposed digit polynomials
    const std::size_t comps = w.k + 1;          // TRLWE components
    // Per-step bootstrapping-key slice that must stream from off-chip.
    const auto bk_step_bytes = static_cast<std::uint64_t>(
        w.bk_bytes() / static_cast<double>(w.n_lwe) * w.hbm_stream_fraction);

    std::size_t prev = 0;
    for (std::size_t step = 0; step < w.n_lwe; ++step) {
      // Gadget decomposition of the accumulator (elementwise digit extraction)
      // for the whole batch; shifts and masks, no multiplies. Every step but
      // the first waits for the previous one.
      const std::size_t d = b.add(OpKind::PointwiseAdd, w.degree, rows * w.batch,
                                  std::span<const std::size_t>(&prev, step == 0 ? 0 : 1));

      // Forward NTT of the digit polynomials.
      const std::size_t f = b.add(OpKind::Ntt, w.degree, rows * w.batch, {d});

      // DecompPolyMult: each output component accumulates rows products with
      // the TGSW row polynomials (this is where the BK streams in). Each step
      // uses its own bootstrapping-key slice, so key ids are per-step and the
      // reuse ledger correctly shows no re-fetches within one PBS.
      const std::size_t m =
          b.add(OpKind::DecompPolyMult, w.degree, comps * w.batch, {f}, rows, 0, bk_step_bytes,
                {{metaop::OperandClass::Evk, kTfheBkKeyBase + static_cast<std::uint64_t>(step),
                  bk_step_bytes}});

      // Inverse NTT back to the torus accumulator.
      prev = b.add(OpKind::Intt, w.degree, comps * w.batch, {m});
    }

    // Sample extract is free (indexing); the LWE keyswitch is an elementwise
    // multiply-accumulate over N * ks_length digits per output coefficient —
    // model as one DecompPolyMult-like accumulation over the LWE dimension.
    b.add(OpKind::PointwiseMult, w.degree, 8 * w.batch, {prev});  // ks_length digits
  });
}

}  // namespace alchemist::workloads
