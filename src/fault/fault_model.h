// Deterministic fault model for the Alchemist simulators.
//
// A production-scale part is never fully healthy: compute lanes take
// transient upsets, local SRAM words flip, HBM bursts arrive corrupted, and
// whole computing units fail permanently at manufacturing or in the field.
// The FaultModel captures all four as configuration:
//
//   * per-exposure transient rates for the three fault domains
//     (compute: per core-cycle; SRAM: per lane-cycle, i.e. per word access;
//      HBM: per byte streamed), sampled as a pure function of (seed, op
//     index, domain) so a run is exactly reproducible in any draw order;
//   * a permanent unit-failure mask, which shrinks the machine geometry —
//     the slot layout re-partitions over the healthy units
//     (arch::DegradedSlotLayout) and both simulators recompute cycle and
//     bandwidth costs for the degraded chip;
//   * a mitigation policy deciding what a transient fault costs:
//       none          faults silently corrupt the affected op's output,
//       detect-retry  ECC/checksum detection re-executes the affected
//                     Meta-OP batch, cost doubling per successive retry,
//                     bounded by max_retries (beyond that: unrecoverable),
//       dmr           dual-modular redundancy: every core is paired with a
//                     shadow core (halving effective cores); mismatches are
//                     corrected with a single batch re-execution.
//
// The model is consulted by both simulate_alchemist engines; with all rates
// zero, no mask and a non-DMR policy it is inert (enabled() == false) and the
// simulators are bit-identical to a run without a fault model. It is
// immutable once built, so one model may serve any number of runs, resumed
// or concurrent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "arch/config.h"

namespace alchemist::fault {

// Metric names the fault-aware simulators emit into the obs::Registry
// (and therefore into alchemist.metrics.v1 reports).
namespace metrics {
inline constexpr const char* kInjected = "fault.injected";  // + {domain=}
inline constexpr const char* kRetries = "fault.retries";
inline constexpr const char* kRetryCycles = "fault.retry_cycles";
inline constexpr const char* kBackoffUs = "fault.backoff_us";  // Retrier pacing
inline constexpr const char* kCorruptedOps = "fault.corrupted_ops";
inline constexpr const char* kDmrCorrections = "fault.dmr_corrections";
inline constexpr const char* kMaskedUnits = "fault.masked_units";
}  // namespace metrics

enum class Policy { None, DetectRetry, Dmr };

const char* to_string(Policy p);
// Parses "none" | "detect-retry" | "dmr"; throws std::invalid_argument.
Policy policy_from_string(std::string_view s);

struct FaultConfig {
  std::uint64_t seed = 0xfa117u;
  double compute_fault_rate = 0.0;  // transient upsets per core-cycle
  double sram_fault_rate = 0.0;     // word flips per lane-cycle (word access)
  double hbm_fault_rate = 0.0;      // corrupted bytes per byte streamed
  std::vector<std::size_t> masked_units;  // permanently failed unit ids
  Policy policy = Policy::None;
  std::size_t max_retries = 4;      // per-op retry bound under detect-retry
};

// Transient faults one op attracted, split by domain.
struct OpFaults {
  std::uint64_t compute = 0;
  std::uint64_t sram = 0;
  std::uint64_t hbm = 0;
  std::uint64_t total() const { return compute + sram + hbm; }
};

class FaultModel {
 public:
  // Validates the config against the machine's unit count: masked ids must be
  // in range and at least one unit must survive; rates must be finite and in
  // [0, 1]. Duplicated masked ids are tolerated.
  FaultModel(FaultConfig config, std::size_t num_units);

  const FaultConfig& config() const { return cfg_; }

  // True when the model can change anything at all: a transient rate is
  // positive, units are masked, or the policy reserves redundant hardware.
  bool enabled() const;
  bool transient_active() const;

  std::size_t masked_count() const { return masked_count_; }
  std::size_t healthy_units() const { return num_units_ - masked_count_; }

  // The machine geometry after permanent failures and policy overhead:
  // masked units disappear (with their local SRAM); DMR pairs each remaining
  // core with a shadow, halving effective cores per unit.
  arch::ArchConfig degraded(const arch::ArchConfig& base) const;

  // Work inflation a slot-partitioned N-point operator pays on the degraded
  // stripe (arch::DegradedSlotLayout::padding_factor); 1.0 with no mask.
  double slot_padding_factor(std::size_t n) const;

  // Draw the transient faults for op `op_index` of a graph given its
  // exposure in each domain: one Bernoulli draw on the fractional part of
  // each domain's expected count. Each draw's uniform is a counter-based hash
  // of (seed, op index, domain), so an op's faults do not depend on which
  // ops were drawn before it: both scheduling policies, and a resumed run,
  // see the same faults for a fixed (seed, graph, config).
  OpFaults sample_op(std::uint64_t op_index, std::uint64_t core_cycles,
                     std::uint64_t lane_cycles, std::uint64_t hbm_bytes) const;

 private:
  std::uint64_t draw(double expected, std::uint64_t counter) const;

  FaultConfig cfg_;
  std::size_t num_units_;
  std::size_t masked_count_;
};

}  // namespace alchemist::fault
