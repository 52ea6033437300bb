#include "fault/fault_model.h"

#include <cmath>
#include <stdexcept>

#include "arch/data_layout.h"
#include "common/rng.h"

namespace alchemist::fault {

const char* to_string(Policy p) {
  switch (p) {
    case Policy::None: return "none";
    case Policy::DetectRetry: return "detect-retry";
    case Policy::Dmr: return "dmr";
  }
  return "?";
}

Policy policy_from_string(std::string_view s) {
  if (s == "none") return Policy::None;
  if (s == "detect-retry") return Policy::DetectRetry;
  if (s == "dmr") return Policy::Dmr;
  throw std::invalid_argument("fault policy must be none, detect-retry or dmr; got \"" +
                              std::string(s) + "\"");
}

namespace {

void check_rate(double rate, const char* name) {
  if (!(rate >= 0.0) || !(rate <= 1.0) || !std::isfinite(rate)) {
    throw std::invalid_argument(std::string("FaultModel: ") + name +
                                " must be a finite rate in [0, 1]");
  }
}

}  // namespace

FaultModel::FaultModel(FaultConfig config, std::size_t num_units)
    : cfg_(std::move(config)), num_units_(num_units) {
  check_rate(cfg_.compute_fault_rate, "compute_fault_rate");
  check_rate(cfg_.sram_fault_rate, "sram_fault_rate");
  check_rate(cfg_.hbm_fault_rate, "hbm_fault_rate");
  std::vector<bool> masked(num_units, false);
  for (std::size_t id : cfg_.masked_units) {
    if (id >= num_units) {
      throw std::invalid_argument("FaultModel: masked unit id out of range");
    }
    masked[id] = true;
  }
  masked_count_ = 0;
  for (bool m : masked) masked_count_ += m ? 1 : 0;
  if (masked_count_ == num_units) {
    throw std::invalid_argument("FaultModel: all units masked out");
  }
}

bool FaultModel::transient_active() const {
  return cfg_.compute_fault_rate > 0 || cfg_.sram_fault_rate > 0 ||
         cfg_.hbm_fault_rate > 0;
}

bool FaultModel::enabled() const {
  return transient_active() || masked_count_ > 0 || cfg_.policy == Policy::Dmr;
}

arch::ArchConfig FaultModel::degraded(const arch::ArchConfig& base) const {
  arch::ArchConfig cfg = base;
  cfg.num_units = healthy_units();
  if (cfg_.policy == Policy::Dmr) {
    cfg.cores_per_unit = (cfg.cores_per_unit + 1) / 2;
  }
  return cfg;
}

double FaultModel::slot_padding_factor(std::size_t n) const {
  if (masked_count_ == 0 || n == 0) return 1.0;
  return arch::DegradedSlotLayout(n, num_units_, cfg_.masked_units).padding_factor();
}

std::uint64_t FaultModel::draw(double expected, std::uint64_t counter) const {
  if (expected <= 0.0) return 0;
  const double base = std::floor(expected);
  const double frac = expected - base;
  std::uint64_t count = static_cast<std::uint64_t>(base);
  // Bernoulli on the fractional part keeps the draw unbiased. Its uniform is
  // the top 53 bits of output `counter` of the splitmix64 stream seeded with
  // the config seed.
  const double u = static_cast<double>(splitmix64_at(cfg_.seed, counter) >> 11) * 0x1.0p-53;
  if (u < frac) ++count;
  return count;
}

OpFaults FaultModel::sample_op(std::uint64_t op_index, std::uint64_t core_cycles,
                               std::uint64_t lane_cycles, std::uint64_t hbm_bytes) const {
  // One counter per (op, domain).
  const std::uint64_t base = 3 * op_index;
  OpFaults f;
  if (cfg_.compute_fault_rate > 0) {
    f.compute = draw(cfg_.compute_fault_rate * static_cast<double>(core_cycles), base);
  }
  if (cfg_.sram_fault_rate > 0) {
    f.sram = draw(cfg_.sram_fault_rate * static_cast<double>(lane_cycles), base + 1);
  }
  if (cfg_.hbm_fault_rate > 0) {
    f.hbm = draw(cfg_.hbm_fault_rate * static_cast<double>(hbm_bytes), base + 2);
  }
  return f;
}

}  // namespace alchemist::fault
