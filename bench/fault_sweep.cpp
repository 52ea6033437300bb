// Robustness sweep: yield and slowdown versus transient fault rate, and
// graceful degradation versus permanently-masked computing units.
//
// Three tables (fixed seed 0xfa117, so every row is exactly reproducible):
//   1. fault-rate sweep under each mitigation policy on the keyswitch
//      workload — slowdown vs the fault-free run, Meta-OP yield (fraction of
//      ops whose output survives uncorrupted), retries charged;
//   2. the same sweep on hoisted bootstrapping (the long workload, where the
//      exponential retry window matters);
//   3. masked-unit sweep: 0..64 of 128 units failed, slot layouts
//      re-partitioned over the survivors — cycles grow monotonically with
//      the mask while the schedule stays valid.
#include <cstdio>

#include "bench_util.h"
#include "fault/fault_model.h"
#include "sim/alchemist_sim.h"
#include "workloads/ckks_workloads.h"

namespace {

using namespace alchemist;

struct Row {
  std::uint64_t cycles = 0;
  double slowdown = 1.0;
  double yield = 1.0;
  std::uint64_t injected = 0;
  std::uint64_t retries = 0;
  std::uint64_t corrupted = 0;
};

Row run(const metaop::OpGraph& graph, double rate, fault::Policy policy,
        std::uint64_t baseline_cycles, bench::ObsArgs* obs = nullptr) {
  arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  fault::FaultConfig fc;
  fc.compute_fault_rate = fc.sram_fault_rate = fc.hbm_fault_rate = rate;
  fc.policy = policy;
  fault::FaultModel model(fc, cfg.num_units);
  const auto r = sim::simulate_alchemist(graph, cfg, nullptr, &model);
  if (obs) obs->add(r);
  Row row;
  row.cycles = r.cycles;
  row.slowdown = baseline_cycles > 0
                     ? static_cast<double>(r.cycles) / static_cast<double>(baseline_cycles)
                     : 1.0;
  row.injected = r.registry.counter(fault::metrics::kInjected);
  row.retries = r.registry.counter(fault::metrics::kRetries);
  row.corrupted = r.registry.counter(fault::metrics::kCorruptedOps);
  const std::uint64_t ops = r.registry.counter(sim::metrics::kOps);
  row.yield = ops > 0 ? 1.0 - static_cast<double>(row.corrupted) / static_cast<double>(ops)
                      : 1.0;
  return row;
}

void rate_sweep(const char* title, const metaop::OpGraph& graph, bench::ObsArgs& obs) {
  bench::print_header(title);
  const auto base = sim::simulate_alchemist(graph, arch::ArchConfig::alchemist());
  std::printf("fault-free baseline: %llu cycles (%zu ops)\n\n",
              static_cast<unsigned long long>(base.cycles), graph.ops().size());
  std::printf("%-12s %-14s %-12s %-10s %-9s %-9s %-9s\n", "policy", "rate",
              "cycles", "slowdown", "yield", "injected", "retries");
  for (fault::Policy policy :
       {fault::Policy::None, fault::Policy::DetectRetry, fault::Policy::Dmr}) {
    for (double rate : {0.0, 1e-10, 1e-9, 1e-8, 1e-7}) {
      const Row row = run(graph, rate, policy, base.cycles, &obs);
      std::printf("%-12s %-14g %-12llu %-10.3f %-9.4f %-9llu %-9llu\n",
                  fault::to_string(policy), rate,
                  static_cast<unsigned long long>(row.cycles), row.slowdown, row.yield,
                  static_cast<unsigned long long>(row.injected),
                  static_cast<unsigned long long>(row.retries));
    }
  }
  bench::print_footnote(
      "`none` keeps the fault-free schedule but loses yield; detect-retry and "
      "dmr buy the yield back with cycles (dmr also halves effective cores)");
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsArgs obs(argc, argv, "fault_sweep");

  workloads::CkksWl w = workloads::CkksWl::paper(44);
  const auto ks = workloads::build_keyswitch(w);
  rate_sweep("Robustness - fault-rate sweep on keyswitch (L=44, seed 0xfa117)", ks, obs);

  workloads::CkksWl wb = workloads::CkksWl::paper(44);
  wb.hbm_stream_fraction = 0.05;
  const auto boot = workloads::build_bootstrapping(wb, true);
  rate_sweep("Robustness - fault-rate sweep on hoisted bootstrapping", boot, obs);

  bench::print_header("Robustness - graceful degradation vs masked units (keyswitch)");
  const auto base = sim::simulate_alchemist(ks, arch::ArchConfig::alchemist());
  std::printf("%-10s %-10s %-12s %-10s %-10s\n", "masked", "healthy", "cycles",
              "slowdown", "padding");
  for (std::size_t masked : {0, 8, 16, 32, 64}) {
    arch::ArchConfig cfg = arch::ArchConfig::alchemist();
    fault::FaultConfig fc;
    fc.masked_units.clear();
    for (std::size_t u = 0; u < masked; ++u) fc.masked_units.push_back(u);
    fault::FaultModel model(fc, cfg.num_units);
    const auto r = sim::simulate_alchemist(ks, cfg, nullptr, &model);
    obs.add(r);
    std::printf("%-10zu %-10zu %-12llu %-10.3f %-10.3f\n", masked,
                model.healthy_units(), static_cast<unsigned long long>(r.cycles),
                static_cast<double>(r.cycles) / static_cast<double>(base.cycles),
                model.slot_padding_factor(1u << 16));
    }
  bench::print_footnote(
      "the slot layout re-stripes N=2^16 over the healthy units; cycles are "
      "monotone in the mask and the schedule stays valid down to 64 survivors");
  return 0;
}
