// Simulation results shared by the Alchemist and baseline simulators.
//
// The source of truth is the obs::Registry of named, tagged counters and
// gauges that every simulator populates (sim.cycles, sim.cycles{class=ntt},
// sim.stall{cause=hbm}, sim.mults{lazy=true}, ...). The flat aggregate fields
// below are the legacy view of the same numbers, derived from the registry by
// finalize() so existing callers keep reading result.cycles etc. unchanged.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "metaop/metaop.h"
#include "obs/memory.h"
#include "obs/registry.h"
#include "obs/utilization.h"

namespace alchemist::sim {

// Canonical metric names shared by the simulators, exporters and tests.
namespace metrics {
inline constexpr const char* kCycles = "sim.cycles";            // + {class=}
inline constexpr const char* kStall = "sim.stall";              // {cause=hbm}
inline constexpr const char* kTransposeCycles = "sim.transpose.cycles";
inline constexpr const char* kMults = "sim.mults";              // {lazy=}
inline constexpr const char* kHbmBytes = "sim.hbm.bytes";
inline constexpr const char* kOps = "sim.ops";                  // + {class=}
inline constexpr const char* kMetaOps = "sim.metaops";
inline constexpr const char* kBusyLaneCycles = "sim.busy_lane_cycles";
inline constexpr const char* kTimeUs = "sim.time_us";           // gauge
inline constexpr const char* kUtilization = "sim.utilization";  // + {class=}
// Memory-profiler series (folded into serving-layer snapshots from
// SimResult.mem_profile when a job ran with mem_profile; Prometheus exposes
// them as sim_mem_*). Never written by the engines themselves — the registry
// inside a SimResult must stay bit-identical with profiling on.
inline constexpr const char* kMemBytes = "sim.mem.bytes";  // + {class=,operand=}
inline constexpr const char* kMemKeyFetches = "sim.mem.key.fetches";
inline constexpr const char* kMemKeyBytes = "sim.mem.key.bytes";
inline constexpr const char* kMemKeyRefetchBytes = "sim.mem.key.refetch_bytes";
inline constexpr const char* kMemEvictions = "sim.mem.evictions";
inline constexpr const char* kMemScratchPeak =
    "sim.mem.scratch.peak_bytes";  // gauge (max over jobs)
inline constexpr const char* kMemScratchCapacity =
    "sim.mem.scratch.capacity_bytes";  // gauge
}  // namespace metrics

struct SimResult {
  std::string workload;
  std::string accelerator;

  // Named counters/gauges — the authoritative accounting for this run.
  obs::Registry registry;

  // Per-unit cycle attribution, filled only when a UnitProfiler was passed to
  // the engine. Deliberately OUTSIDE the registry: bit-identity checks and
  // checkpoint frames compare registries, and profiling must never perturb
  // the simulated result.
  obs::UtilizationProfile profile;

  // Memory-system attribution ("memory.v1"), filled only when a MemProfiler
  // was passed to the engine. Outside the registry for the same reason as
  // `profile`: profiling must never perturb the simulated result.
  obs::MemoryProfile mem_profile;

  // Aggregate view derived from the registry (see finalize()). Kept as plain
  // fields so the dozens of existing callers don't change.
  std::uint64_t cycles = 0;
  double time_us = 0;
  // Overall compute utilization: busy lane-cycles / (peak lanes * cycles).
  double utilization = 0;
  // Per-operator-class utilization (index = metaop::OpClass): the fraction of
  // that class's wall time during which its compute resources were busy.
  std::array<double, metaop::kNumOpClasses> util_by_class{};
  // Wall cycles attributed to each class.
  std::array<std::uint64_t, metaop::kNumOpClasses> cycles_by_class{};
  std::uint64_t mem_stall_cycles = 0;
  std::uint64_t transpose_cycles = 0;
  std::uint64_t total_mults = 0;

  // Pull the aggregate fields out of the registry. Simulators call this once
  // after populating the registry; harmless to call again.
  void finalize();
};

}  // namespace alchemist::sim
