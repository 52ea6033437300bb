// Architecture exploration with the cycle simulator.
//
// Demonstrates the simulator's public API: build a workload graph, sweep
// configurations (units, frequency, bandwidth), and read back cycles,
// utilization and stall breakdowns — the workflow behind §5.4's DSE.
#include <cstdio>

#include "arch/area_model.h"
#include "arch/config.h"
#include "sim/alchemist_sim.h"
#include "sim/cpu_model.h"
#include "workloads/ckks_workloads.h"
#include "workloads/tfhe_workloads.h"

int main() {
  using namespace alchemist;

  workloads::CkksWl w = workloads::CkksWl::paper(44);
  w.hbm_stream_fraction = 0.05;
  const auto boot = workloads::build_bootstrapping(w, /*hoisting=*/true);
  const auto pbs = workloads::build_pbs(workloads::TfheWl::set_i());

  std::printf("Workload: %s (%zu ops), %s (%zu ops)\n\n", boot.name.c_str(),
              boot.ops().size(), pbs.name.c_str(), pbs.ops().size());

  std::printf("--- Sweep: computing units (bootstrapping) ---\n");
  std::printf("%-8s %-10s %-10s %-12s %-12s\n", "units", "ms", "util",
              "area mm^2", "perf/area");
  for (std::size_t units : {64, 128, 256}) {
    arch::ArchConfig cfg = arch::ArchConfig::alchemist();
    cfg.num_units = units;
    const auto r = sim::simulate_alchemist(boot, cfg);
    const double area = arch::area_model(cfg).total_mm2;
    std::printf("%-8zu %-10.2f %-10.2f %-12.1f %-12.4f\n", units, r.time_us / 1e3,
                r.utilization, area, 1e3 / r.time_us / area);
  }

  std::printf("\n--- Sweep: HBM bandwidth (bootstrapping, fresh keys) ---\n");
  std::printf("%-12s %-10s %-14s\n", "GB/s", "ms", "stall kcycles");
  workloads::CkksWl fresh = workloads::CkksWl::paper(44);
  const auto boot_fresh = workloads::build_bootstrapping(fresh, true);
  for (double bw : {250.0, 500.0, 1000.0, 2000.0}) {
    arch::ArchConfig cfg = arch::ArchConfig::alchemist();
    cfg.hbm_bw_gb_s = bw;
    const auto r = sim::simulate_alchemist(boot_fresh, cfg);
    std::printf("%-12.0f %-10.2f %-14llu\n", bw, r.time_us / 1e3,
                static_cast<unsigned long long>(r.mem_stall_cycles / 1000));
  }

  std::printf("\n--- Cross-scheme check: one config, both schemes ---\n");
  const auto cfg = arch::ArchConfig::alchemist();
  for (const auto* g : {&boot, &pbs}) {
    const auto r = sim::simulate_alchemist(*g, cfg);
    std::printf("%-24s %10.1f us   util %.2f   transpose %llu kcyc\n",
                g->name.c_str(), r.time_us, r.utilization,
                static_cast<unsigned long long>(r.transpose_cycles / 1000));
  }

  std::printf("\n--- CPU reference (cost model) ---\n");
  std::printf("bootstrapping on one CPU thread: ~%.1f s (model; %.2f ns/mult)\n",
              sim::cpu_time_us(boot) / 1e6, sim::cpu_ns_per_modmul());
  return 0;
}
