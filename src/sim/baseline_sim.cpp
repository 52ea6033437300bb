#include "sim/baseline_sim.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "metaop/metaop.h"
#include "metaop/mult_count.h"

namespace alchemist::sim {

namespace {

using metaop::class_of;
using metaop::class_tag;
using metaop::HighOp;
using metaop::kNumOpClasses;
using metaop::OpClass;
using metaop::OpGraph;
using metaop::OpKind;

// Engine index: 0 = NTTU, 1 = BconvU, 2 = element-wise/MAC engine.
int engine_of(OpKind kind) {
  switch (kind) {
    case OpKind::Ntt:
    case OpKind::Intt: return 0;
    case OpKind::Bconv: return 1;
    default: return 2;  // DecompPolyMult and elementwise run on the MAC engine
  }
}

}  // namespace

SimResult simulate_modular(const OpGraph& graph, const arch::AcceleratorSpec& spec) {
  SimResult result;
  result.workload = graph.name;
  result.accelerator = spec.name;
  obs::Registry& reg = result.registry;

  const double engine_peaks[3] = {
      spec.peak_mults_per_cycle * spec.fu_ntt_frac,
      spec.peak_mults_per_cycle * spec.fu_bconv_frac,
      spec.peak_mults_per_cycle * spec.fu_mac_frac,
  };
  for (double p : engine_peaks) {
    if (p < 0) throw std::invalid_argument("simulate_modular: bad FU fractions");
  }
  const double hbm_bpc = spec.offchip_bw_gb_s * 1e9 / (spec.freq_ghz * 1e9);

  double total_hbm_bytes = 0;
  double engine_mults[3] = {0, 0, 0};
  std::array<double, kNumOpClasses> class_mult_totals{};
  double total_mults = 0;

  // In ASAP level order, the order the floating-point sums were pinned in.
  for (std::size_t idx : metaop::asap_levels(graph).order) {
    const HighOp& op = graph.ops()[idx];
    // Baselines run the eagerly-reduced (origin) multiplication counts.
    const std::uint64_t mults = metaop::count(op).origin;
    const int engine = engine_of(op.kind);
    if (mults > 0 && engine_peaks[engine] <= 0) {
      throw std::invalid_argument("simulate_modular: " + spec.name +
                                  " has no engine for a required operator class");
    }
    engine_mults[engine] += static_cast<double>(mults);
    class_mult_totals[static_cast<std::size_t>(class_of(op.kind))] +=
        static_cast<double>(mults);
    total_hbm_bytes += static_cast<double>(op.hbm_bytes);
    reg.add(metrics::kMults, mults, {{"lazy", "false"}});
    reg.add(metrics::kOps, 1);
    reg.add(metrics::kOps, 1, {{"class", class_tag(class_of(op.kind))}});
    reg.add(metrics::kHbmBytes, op.hbm_bytes);
    total_mults += static_cast<double>(mults);
  }

  // Steady-state pipelined execution: each dedicated engine streams its own
  // operator class, so wall time is set by the busiest engine (and off-chip
  // streaming). The other engines idle — this *is* the utilization mismatch
  // of Fig. 1 / Fig. 7(b).
  double total_cycles = 0;
  for (int e = 0; e < 3; ++e) {
    if (engine_mults[e] > 0) {
      total_cycles = std::max(total_cycles, engine_mults[e] / engine_peaks[e]);
    }
  }
  const double hbm_cycles = total_hbm_bytes / hbm_bpc;
  std::uint64_t stall_cycles = 0;
  if (hbm_cycles > total_cycles) {
    stall_cycles = static_cast<std::uint64_t>(hbm_cycles - total_cycles);
    total_cycles = hbm_cycles;
  }

  reg.add(metrics::kCycles, static_cast<std::uint64_t>(std::ceil(total_cycles)));
  reg.add(metrics::kStall, stall_cycles, {{"cause", "hbm"}});
  reg.set_gauge(metrics::kTimeUs, total_cycles / (spec.freq_ghz * 1e3));
  reg.set_gauge(metrics::kUtilization,
                total_cycles == 0
                    ? 0.0
                    : total_mults / (spec.peak_mults_per_cycle * total_cycles));
  // Per-class engine utilization over the whole run — the same quantity the
  // paper quotes for SHARP's NTTU / BconvU / element-wise engine.
  const std::array<double, kNumOpClasses> class_engine_peak = {
      engine_peaks[0], engine_peaks[1], engine_peaks[2], engine_peaks[2]};
  for (std::size_t c = 0; c < kNumOpClasses; ++c) {
    const char* tag = class_tag(static_cast<OpClass>(c));
    reg.add(metrics::kCycles, static_cast<std::uint64_t>(total_cycles),
            {{"class", tag}});
    reg.set_gauge(metrics::kUtilization,
                  total_cycles == 0 || class_engine_peak[c] == 0
                      ? 0.0
                      : class_mult_totals[c] / (class_engine_peak[c] * total_cycles),
                  {{"class", tag}});
  }
  result.finalize();
  return result;
}

}  // namespace alchemist::sim
