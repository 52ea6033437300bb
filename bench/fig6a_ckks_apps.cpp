// Reproduces Figure 6(a): CKKS application performance — LoLa-MNIST
// (encrypted & unencrypted weights), fully-packed bootstrapping and
// 1024-batch HELR — Alchemist vs modeled SHARP/CraterLake and the paper's
// published reference points (F1, BTS, ARK, CraterLake+, SHARP).
//
// Observability: `--trace-out boot.json` records the bootstrapping run as a
// Chrome trace (open at https://ui.perfetto.dev); `--metrics-out m.json`
// dumps every run's counter registry (schema alchemist.metrics.v1).
#include <cstdio>

#include "arch/area_model.h"
#include "arch/energy_model.h"
#include "arch/baselines.h"
#include "arch/config.h"
#include "bench_util.h"
#include "sim/alchemist_sim.h"
#include "sim/baseline_sim.h"
#include "workloads/ckks_workloads.h"

namespace {

using namespace alchemist;

workloads::CkksWl resident(std::size_t level) {
  workloads::CkksWl w = workloads::CkksWl::paper(level);
  w.hbm_stream_fraction = 0.05;  // application steady state
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsArgs obs(argc, argv, "fig6a_ckks_apps");
  const auto cfg = arch::ArchConfig::alchemist();
  bench::print_header("Figure 6(a) - CKKS applications");

  // --- Shallow: LoLa-MNIST ---
  {
    const auto plain = workloads::build_lola_mnist(false);
    const auto enc = workloads::build_lola_mnist(true);
    const auto r_plain = sim::simulate_alchemist(plain, cfg);
    const auto r_enc = sim::simulate_alchemist(enc, cfg);
    std::printf("LoLa-MNIST (unencrypted weights): %8.3f ms   (paper: >3x vs F1's 0.247 ms)\n",
                r_plain.time_us / 1e3);
    std::printf("LoLa-MNIST (encrypted weights):   %8.3f ms   (paper: 0.11 ms)\n",
                r_enc.time_us / 1e3);
    obs.add(r_plain);
    obs.add(r_enc);
  }

  // --- Deep: bootstrapping and HELR-1024 ---
  const auto boot = workloads::build_bootstrapping(resident(44), true);
  const auto helr = workloads::build_helr_iteration(resident(30));
  // The bootstrapping run is the one recorded as a Perfetto timeline.
  const auto r_boot = sim::simulate_alchemist(boot, cfg, obs.timeline());
  const auto r_helr = sim::simulate_alchemist(helr, cfg);
  obs.add(r_boot);
  obs.add(r_helr);
  const auto s_boot = sim::simulate_modular(boot, arch::spec_by_name("SHARP"));
  const auto s_helr = sim::simulate_modular(helr, arch::spec_by_name("SHARP"));
  const auto c_boot = sim::simulate_modular(boot, arch::spec_by_name("CraterLake"));
  const auto c_helr = sim::simulate_modular(helr, arch::spec_by_name("CraterLake"));
  for (const auto* r : {&s_boot, &s_helr, &c_boot, &c_helr}) obs.add(*r);

  const auto e_boot = arch::energy_model(cfg, r_boot);
  const auto e_helr = arch::energy_model(cfg, r_helr);
  std::printf("\nEnergy (Alchemist model): bootstrap %.2f mJ (%.1f W avg), "
              "HELR iter %.3f mJ\n",
              e_boot.total_joules * 1e3, e_boot.average_watts,
              e_helr.total_joules * 1e3);
  std::printf("\n%-26s %-12s %-12s %-12s\n", "Workload", "Alchemist", "SHARP(model)",
              "CLake(model)");
  std::printf("%-26s %-9.3f ms %-9.3f ms %-9.3f ms\n", "Bootstrapping (L=44,+)",
              r_boot.time_us / 1e3, s_boot.time_us / 1e3, c_boot.time_us / 1e3);
  std::printf("%-26s %-9.3f ms %-9.3f ms %-9.3f ms\n", "HELR-1024 (per iter)",
              r_helr.time_us / 1e3, s_helr.time_us / 1e3, c_helr.time_us / 1e3);

  const double sp_sharp = 0.5 * (s_boot.time_us / r_boot.time_us +
                                 s_helr.time_us / r_helr.time_us);
  const double sp_clake = 0.5 * (c_boot.time_us / r_boot.time_us +
                                 c_helr.time_us / r_helr.time_us);
  std::printf("\nAverage speedup vs SHARP model:      %.2fx  (paper: 2.0x)\n", sp_sharp);
  std::printf("Average speedup vs CraterLake model: %.2fx  (paper: 3.7x)\n", sp_clake);
  std::printf("Paper reference speedups: 18.4x vs BTS, 6.1x vs ARK\n");

  // Performance per area (14nm-scaled).
  const double alch_area = arch::area_model(cfg).total_mm2;
  const double ppa_sharp = sp_sharp * arch::spec_by_name("SHARP").area_14nm_mm2 / alch_area;
  const double ppa_clake = sp_clake * arch::spec_by_name("CraterLake").area_14nm_mm2 / alch_area;
  std::printf("\nPerf/area vs SHARP model:      %.2fx  (paper: 3.79x)\n", ppa_sharp);
  std::printf("Perf/area vs CraterLake model: %.2fx  (paper: 9.4x)\n", ppa_clake);
  std::printf("Paper reference perf/area: 76.1x vs BTS, 28.4x vs ARK (avg 29.4x)\n");

  bench::print_footnote(
      "BTS/ARK are published reference points (no public FU-level spec to model)");
  return 0;
}
