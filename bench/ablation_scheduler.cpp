// Ablation for §5.4's time-sharing scheduling, and a comparison of the one
// engine core's two scheduling policies (ASAP level barriers vs ready list).
#include <cstdio>

#include "arch/config.h"
#include "bench_util.h"
#include "sim/alchemist_sim.h"
#include "sim/event_sim.h"
#include "workloads/ckks_workloads.h"
#include "workloads/tfhe_workloads.h"

int main() {
  using namespace alchemist;
  const auto cfg = arch::ArchConfig::alchemist();

  bench::print_header("Ablation - analytical vs discrete-event simulator");
  std::printf("%-28s %12s %12s %8s\n", "Workload", "level (cyc)", "event (cyc)",
              "ratio");
  workloads::CkksWl w = workloads::CkksWl::paper(44);
  w.hbm_stream_fraction = 0.05;
  struct Case {
    const char* name;
    metaop::OpGraph graph;
  };
  Case cases[] = {
      {"Keyswitch (L=44)", workloads::build_keyswitch(w)},
      {"Cmult (L=44)", workloads::build_cmult(w)},
      {"Rotation (L=44)", workloads::build_rotation(w)},
      {"TFHE PBS (set I)", workloads::build_pbs(workloads::TfheWl::set_i())},
      {"HELR iteration", workloads::build_helr_iteration(w)},
  };
  for (auto& c : cases) {
    const auto level = sim::simulate_alchemist(c.graph, cfg);
    const auto event = sim::simulate_alchemist_events(c.graph, cfg);
    std::printf("%-28s %12llu %12llu %8.3f\n", c.name,
                static_cast<unsigned long long>(level.cycles),
                static_cast<unsigned long long>(event.cycles),
                static_cast<double>(event.cycles) / level.cycles);
  }
  bench::print_footnote(
      "one engine core, two scheduling policies: same op pricing, level barriers vs "
      "ready list");

  bench::print_header("Ablation (Sec. 5.4) - time-sharing scheduling");
  // HBM-bound CKKS keyswitches co-scheduled with compute-bound TFHE PBS:
  // only a unified accelerator can overlap the two schemes.
  workloads::CkksWl fresh = workloads::CkksWl::paper(44);  // streams full keys
  const auto ks = workloads::build_keyswitch(fresh);
  workloads::TfheWl tw = workloads::TfheWl::set_i();
  tw.hbm_stream_fraction = 0.0;
  const auto pbs = workloads::build_pbs(tw);

  const double t_ks = sim::simulate_alchemist_events(ks, cfg).time_us;
  const double t_pbs = sim::simulate_alchemist_events(pbs, cfg).time_us;
  const double t_shared =
      sim::simulate_alchemist_events(sim::merge_graphs({ks, pbs}, "shared"), cfg)
          .time_us;
  std::printf("CKKS keyswitch alone (HBM-bound):   %10.1f us\n", t_ks);
  std::printf("TFHE PBS alone (compute-bound):     %10.1f us\n", t_pbs);
  std::printf("back-to-back:                       %10.1f us\n", t_ks + t_pbs);
  std::printf("time-shared (interleaved streams):  %10.1f us  (%.0f%% saved)\n",
              t_shared, 100.0 * (1.0 - t_shared / (t_ks + t_pbs)));

  // Same-scheme batching: four keyswitches time-shared.
  const auto batch4 =
      sim::merge_graphs({ks, ks, ks, ks}, "4x keyswitch");
  const double t_batch = sim::simulate_alchemist_events(batch4, cfg).time_us;
  std::printf("\n4x keyswitch sequential: %10.1f us\n", 4 * t_ks);
  std::printf("4x keyswitch time-shared:%10.1f us  (%.0f%% saved)\n", t_batch,
              100.0 * (1.0 - t_batch / (4 * t_ks)));
  bench::print_footnote(
      "cross-scheme co-scheduling overlaps one scheme's key streaming with "
      "the other's compute - impossible on single-scheme ASICs");
  return 0;
}
