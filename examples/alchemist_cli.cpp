// Command-line front end to the Alchemist simulator.
//
//   alchemist_cli <workload> [options]
//
// Workloads: pmult hadd keyswitch cmult rotation rescale
//            bootstrap bootstrap-hoisted helr mnist mnist-enc
//            pbs-i pbs-ii bfv-cmult
// Options:
//   --accelerator <Alchemist|SHARP|CraterLake|Matcha|Strix>   (default Alchemist)
//   --units <n>            computing units (Alchemist only, default 128)
//   --hbm <GB/s>           off-chip bandwidth (Alchemist only, default 1000)
//   --stream-fraction <f>  fraction of key traffic streamed from HBM (default 1.0)
//   --level <L>            CKKS level (default 44)
//   --batch <B>            TFHE PBS batch (default 16)
//   --event                use the discrete-event simulator
//   --profile              attach the per-unit UnitProfiler and print the
//                          utilization.v1 cycle-bucket breakdown (busy /
//                          reduction / scratchpad stall / dependency stall /
//                          idle); with --trace-out, per-unit counter tracks
//                          ride along in the trace; Alchemist only
//   --mem-profile          attach the MemProfiler and print the memory.v1
//                          summary (HBM bytes attributed by operand class,
//                          key-fetch ledger, scratchpad high-water mark);
//                          with --trace-out, HBM-bandwidth and scratchpad
//                          counter tracks ride along; Alchemist only
//   --trace-out <path>     write a Chrome trace_event JSON of the run
//                          (open at https://ui.perfetto.dev); Alchemist only
//   --metrics-out <path>   write the run's counter registry as JSON
//                          (schema alchemist.metrics.v1)
//   --threads <n>          width of the shared compute pool functional
//                          kernels fan out on (default ALCHEMIST_THREADS or
//                          hardware concurrency; 1 = sequential)
//   --isa <i>              force the SIMD dispatch of the NTT/accumulator
//                          kernels: scalar | avx2 | avx512 | avx512ifma |
//                          native
//                          (default ALCHEMIST_ISA or best CPUID-supported;
//                          unsupported values exit 2)
// Fault modeling (Alchemist only; see src/fault/fault_model.h):
//   --fault-seed <s>       RNG seed for transient fault sampling (default 0xfa117)
//   --fault-rate <r>       transient fault rate applied to all three domains
//                          (compute per core-cycle, SRAM per word access,
//                          HBM per byte streamed; default 0 = no faults)
//   --fault-policy <p>     none | detect-retry | dmr  (default none)
//   --mask-units <list>    comma-separated permanently-failed unit ids, e.g.
//                          "0,5,17"; slot layouts re-partition over the rest
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "obs/report.h"
#include "obs/timeline.h"

#include "arch/baselines.h"
#include "arch/config.h"
#include "arch/energy_model.h"
#include "fault/fault_model.h"
#include "sim/alchemist_sim.h"
#include "sim/baseline_sim.h"
#include "sim/event_sim.h"
#include "sim/unit_profiler.h"
#include "workloads/bfv_workloads.h"
#include "workloads/ckks_workloads.h"
#include "workloads/tfhe_workloads.h"

namespace {

using namespace alchemist;

int usage() {
  std::fprintf(stderr,
               "usage: alchemist_cli <workload> [--accelerator A] [--units N]\n"
               "       [--hbm GB/s] [--stream-fraction f] [--level L]\n"
               "       [--batch B] [--event] [--profile] [--mem-profile]\n"
               "       [--trace-out T.json] [--metrics-out M.json]\n"
               "       [--fault-seed S] [--fault-rate R] [--fault-policy none|detect-retry|dmr]\n"
               "       [--mask-units i,j,...] [--threads N]\n"
               "       [--isa scalar|avx2|avx512|avx512ifma|native]\n"
               "workloads: pmult hadd keyswitch cmult rotation rescale bootstrap\n"
               "           bootstrap-hoisted helr mnist mnist-enc pbs-i pbs-ii bfv-cmult\n");
  return 2;
}

// Strict numeric parsing: the whole token must be a positive decimal integer.
std::size_t parse_count(const char* flag, const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || std::strchr(s, '-') != nullptr ||
      v == 0) {
    std::fprintf(stderr, "invalid %s value \"%s\": expected a positive integer\n",
                 flag, s);
    std::exit(2);
  }
  return static_cast<std::size_t>(v);
}

double parse_real(const char* flag, const char* s, double lo, double hi) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v >= lo && v <= hi)) {
    std::fprintf(stderr, "invalid %s value \"%s\": expected a number in [%g, %g]\n",
                 flag, s, lo, hi);
    std::exit(2);
  }
  return v;
}

u64 parse_seed(const char* flag, const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (errno != 0 || end == s || *end != '\0' || std::strchr(s, '-') != nullptr) {
    std::fprintf(stderr, "invalid %s value \"%s\": expected an unsigned integer\n",
                 flag, s);
    std::exit(2);
  }
  return static_cast<u64>(v);
}

std::vector<std::size_t> parse_unit_list(const char* s) {
  std::vector<std::size_t> units;
  const std::string list = s;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t next = list.find(',', pos);
    if (next == std::string::npos) next = list.size();
    const std::string item = list.substr(pos, next - pos);
    if (item.empty() || item.find_first_not_of("0123456789") != std::string::npos) {
      std::fprintf(stderr,
                   "invalid --mask-units entry \"%s\": expected comma-separated "
                   "non-negative unit ids like \"0,5,17\"\n",
                   item.c_str());
      std::exit(2);
    }
    units.push_back(
        static_cast<std::size_t>(std::strtoull(item.c_str(), nullptr, 10)));
    pos = next + 1;
  }
  return units;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string workload = argv[1];

  std::string accelerator = "Alchemist";
  std::string trace_out, metrics_out;
  std::size_t units = 128, batch = 16, level = 44;
  double hbm = 1000.0, stream_fraction = 1.0;
  bool use_event = false;
  bool profile = false;
  bool mem_profile = false;
  fault::FaultConfig fault_cfg;
  bool fault_requested = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--accelerator") accelerator = next();
    else if (arg == "--units") units = parse_count("--units", next());
    else if (arg == "--hbm") hbm = parse_real("--hbm", next(), 1e-3, 1e9);
    else if (arg == "--stream-fraction") stream_fraction = parse_real("--stream-fraction", next(), 0.0, 1.0);
    else if (arg == "--level") level = parse_count("--level", next());
    else if (arg == "--batch") batch = parse_count("--batch", next());
    else if (arg == "--event") use_event = true;
    else if (arg == "--profile") profile = true;
    else if (arg == "--mem-profile") mem_profile = true;
    else if (arg == "--trace-out") trace_out = next();
    else if (arg == "--metrics-out") metrics_out = next();
    else if (arg == "--threads") ThreadPool::set_threads(parse_count("--threads", next()));
    else if (arg == "--isa") {
      const char* value = next();
      try {
        simd::set_isa(simd::parse_isa(value));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "invalid --isa value \"%s\": %s\n", value, e.what());
        return 2;
      }
    }
    else if (arg == "--fault-seed") {
      fault_cfg.seed = parse_seed("--fault-seed", next());
      fault_requested = true;
    } else if (arg == "--fault-rate") {
      const double rate = parse_real("--fault-rate", next(), 0.0, 1.0);
      fault_cfg.compute_fault_rate = fault_cfg.sram_fault_rate =
          fault_cfg.hbm_fault_rate = rate;
      fault_requested = true;
    } else if (arg == "--fault-policy") {
      const char* policy = next();
      try {
        fault_cfg.policy = fault::policy_from_string(policy);
      } catch (const std::exception&) {
        std::fprintf(stderr,
                     "unknown fault policy \"%s\": expected none, detect-retry or dmr\n",
                     policy);
        return 2;
      }
      fault_requested = true;
    } else if (arg == "--mask-units") {
      fault_cfg.masked_units = parse_unit_list(next());
      fault_requested = true;
    }
    else return usage();
  }

  // Build the requested op graph.
  workloads::CkksWl cw = workloads::CkksWl::paper(level);
  cw.hbm_stream_fraction = stream_fraction;
  workloads::TfheWl ti = workloads::TfheWl::set_i();
  workloads::TfheWl tii = workloads::TfheWl::set_ii();
  ti.batch = tii.batch = batch;
  ti.hbm_stream_fraction = tii.hbm_stream_fraction = stream_fraction;
  workloads::BfvWl bw;
  bw.hbm_stream_fraction = stream_fraction;

  metaop::OpGraph graph;
  double ops_in_graph = 1.0;
  if (workload == "pmult") graph = workloads::build_pmult(cw);
  else if (workload == "hadd") graph = workloads::build_hadd(cw);
  else if (workload == "keyswitch") graph = workloads::build_keyswitch(cw);
  else if (workload == "cmult") graph = workloads::build_cmult(cw);
  else if (workload == "rotation") graph = workloads::build_rotation(cw);
  else if (workload == "rescale") graph = workloads::build_rescale(cw);
  else if (workload == "bootstrap") graph = workloads::build_bootstrapping(cw, false);
  else if (workload == "bootstrap-hoisted") graph = workloads::build_bootstrapping(cw, true);
  else if (workload == "helr") graph = workloads::build_helr_iteration(cw);
  else if (workload == "mnist") graph = workloads::build_lola_mnist(false);
  else if (workload == "mnist-enc") graph = workloads::build_lola_mnist(true);
  else if (workload == "pbs-i") { graph = workloads::build_pbs(ti); ops_in_graph = static_cast<double>(batch); }
  else if (workload == "pbs-ii") { graph = workloads::build_pbs(tii); ops_in_graph = static_cast<double>(batch); }
  else if (workload == "bfv-cmult") graph = workloads::build_bfv_cmult(bw);
  else return usage();

  // Simulate.
  sim::SimResult result;
  obs::Timeline timeline;
  if (accelerator == "Alchemist") {
    arch::ArchConfig cfg = arch::ArchConfig::alchemist();
    cfg.num_units = units;
    cfg.hbm_bw_gb_s = hbm;
    std::unique_ptr<fault::FaultModel> fault_model;
    try {
      fault_model = std::make_unique<fault::FaultModel>(fault_cfg, cfg.num_units);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad fault configuration: %s\n", e.what());
      return 2;
    }
    const fault::FaultModel* fault = fault_requested ? fault_model.get() : nullptr;
    obs::Timeline* trace = trace_out.empty() ? nullptr : &timeline;
    sim::UnitProfiler prof;
    sim::UnitProfiler* profiler = profile ? &prof : nullptr;
    sim::MemProfiler mem_prof;
    sim::MemProfiler* mem = mem_profile ? &mem_prof : nullptr;
    result = use_event ? sim::simulate_alchemist_events(graph, cfg, trace, fault, nullptr,
                                                        profiler, mem)
                       : sim::simulate_alchemist(graph, cfg, trace, fault, nullptr,
                                                 profiler, mem);
    const auto energy = arch::energy_model(cfg, result);
    std::printf("workload:      %s (%zu ops)\n", graph.name.c_str(), graph.ops().size());
    std::printf("accelerator:   Alchemist, %zu units, %.0f GB/s HBM%s\n", units, hbm,
                use_event ? " (event-driven model)" : "");
    if (fault && fault->enabled()) {
      std::printf("fault model:   policy=%s rate=%g seed=0x%llx masked=%zu/%zu units\n",
                  fault::to_string(fault_cfg.policy), fault_cfg.compute_fault_rate,
                  static_cast<unsigned long long>(fault_cfg.seed),
                  fault->masked_count(), cfg.num_units);
    }
    std::printf("cycles:        %llu\n", static_cast<unsigned long long>(result.cycles));
    std::printf("time:          %.3f us  (%.1f ops/s)\n", result.time_us,
                ops_in_graph * 1e6 / result.time_us);
    std::printf("utilization:   %.3f\n", result.utilization);
    std::printf("mem stalls:    %llu cycles, transpose: %llu cycles\n",
                static_cast<unsigned long long>(result.mem_stall_cycles),
                static_cast<unsigned long long>(result.transpose_cycles));
    std::printf("word mults:    %llu\n",
                static_cast<unsigned long long>(result.total_mults));
    std::printf("energy:        %.3f mJ (%.1f W average)\n",
                energy.total_joules * 1e3, energy.average_watts);
    if (profile && result.profile.enabled()) {
      const obs::UnitCycles agg = result.profile.aggregate();
      const double denom = static_cast<double>(result.profile.total_cycles) *
                           static_cast<double>(result.profile.units.size());
      auto pct = [&](u64 c) { return 100.0 * static_cast<double>(c) / denom; };
      std::printf("profile:       utilization.v1, %zu units x %llu cycles\n",
                  result.profile.units.size(),
                  static_cast<unsigned long long>(result.profile.total_cycles));
      std::printf("  busy             %6.2f %%\n", pct(agg.busy));
      std::printf("  reduction        %6.2f %%\n", pct(agg.reduction));
      std::printf("  stall:scratchpad %6.2f %%\n", pct(agg.stall_scratchpad));
      std::printf("  stall:dependency %6.2f %%\n", pct(agg.stall_dependency));
      std::printf("  idle             %6.2f %%\n", pct(agg.idle));
      std::printf("  occupancy        %6.3f  (sim utilization %.3f)\n",
                  result.profile.occupancy(), result.utilization);
      for (const auto& [cls, cycles] : agg.class_occupied) {
        std::printf("  class %-10s %6.2f %% of occupied core time\n", cls.c_str(),
                    100.0 * static_cast<double>(cycles) /
                        static_cast<double>(agg.occupied() ? agg.occupied() : 1));
      }
    }
    if (mem_profile && result.mem_profile.enabled()) {
      const obs::MemoryProfile& m = result.mem_profile;
      const double hbm_peak = cfg.hbm_bytes_per_cycle() *
                              static_cast<double>(m.total_cycles);
      std::printf("memory:        memory.v1, %llu HBM bytes (%.1f %% of peak over the run)\n",
                  static_cast<unsigned long long>(m.total_bytes),
                  hbm_peak > 0 ? 100.0 * static_cast<double>(m.total_bytes) / hbm_peak
                               : 0.0);
      for (const auto& [operand, classes] : m.attributed) {
        u64 operand_bytes = 0;
        for (const auto& [cls, bytes] : classes) operand_bytes += bytes;
        std::printf("  %-14s %12llu bytes (%5.1f %%)\n", operand.c_str(),
                    static_cast<unsigned long long>(operand_bytes),
                    m.total_bytes > 0
                        ? 100.0 * static_cast<double>(operand_bytes) /
                              static_cast<double>(m.total_bytes)
                        : 0.0);
      }
      std::printf("  keys:          %zu tracked, %llu bytes fetched, %llu re-fetched\n",
                  m.keys.size(),
                  static_cast<unsigned long long>(m.key_fetch_bytes()),
                  static_cast<unsigned long long>(m.key_refetch_bytes()));
      std::printf("  scratchpad:    peak %llu / %llu bytes, %llu evictions\n",
                  static_cast<unsigned long long>(m.scratch_peak_bytes),
                  static_cast<unsigned long long>(m.scratch_capacity_bytes),
                  static_cast<unsigned long long>(m.evictions));
    }
  } else {
    const arch::AcceleratorSpec spec = arch::spec_by_name(accelerator);
    result = sim::simulate_modular(graph, spec);
    std::printf("workload:      %s (%zu ops)\n", graph.name.c_str(), graph.ops().size());
    std::printf("accelerator:   %s (modular FU model)\n", spec.name.c_str());
    std::printf("cycles:        %llu\n", static_cast<unsigned long long>(result.cycles));
    std::printf("time:          %.3f us  (%.1f ops/s)\n", result.time_us,
                ops_in_graph * 1e6 / result.time_us);
    std::printf("utilization:   %.3f\n", result.utilization);
  }

  // Observability artifacts.
  if (!trace_out.empty()) {
    if (accelerator != "Alchemist") {
      std::fprintf(stderr, "--trace-out is only supported for the Alchemist simulators\n");
      return 2;
    }
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    timeline.write_chrome_trace(out);
    std::printf("trace:         %s (open in https://ui.perfetto.dev)\n", trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    obs::MetricsReport report("alchemist_cli");
    report.add(result);
    if (!report.write_file(metrics_out)) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("metrics:       %s\n", metrics_out.c_str());
  }
  return 0;
}
