// Alchemist architecture configuration (§5, Fig. 5a).
//
// 128 independent computing units (each: one 512 KB local scratchpad + a
// cluster of 16 unified cores), a 2 MB shared memory, a transpose buffer,
// 2 HBM2 stacks at 1 TB/s, 1 GHz, 36-bit word (from SHARP [11]).
#pragma once

#include <cstddef>
#include <cstdint>

namespace alchemist::arch {

struct ArchConfig {
  std::size_t num_units = 128;
  std::size_t cores_per_unit = 16;
  std::size_t lanes = 8;             // j of the Meta-OP
  double freq_ghz = 1.0;
  std::size_t local_sram_kb = 512;   // per computing unit
  std::size_t shared_sram_kb = 2048; // 2 MB
  double hbm_bw_gb_s = 1000.0;       // 2x HBM2
  int word_bits = 36;

  std::size_t total_cores() const { return num_units * cores_per_unit; }
  // Peak multiply-accumulate lanes per cycle across the chip.
  std::size_t peak_lanes() const { return total_cores() * lanes; }
  std::size_t total_sram_kb() const {
    return num_units * local_sram_kb + shared_sram_kb;
  }
  double cycles_per_second() const { return freq_ghz * 1e9; }
  // Bytes deliverable from HBM per cycle.
  double hbm_bytes_per_cycle() const { return hbm_bw_gb_s * 1e9 / cycles_per_second(); }
  // Aggregate on-chip scratchpad bandwidth (bytes/cycle): each unit reads one
  // word per lane per core per cycle. 128 units * 16 cores * 8 lanes *
  // 4.5 bytes ~ 66 TB/s at 1 GHz — the paper's Table 6 on-chip BW figure.
  double onchip_bytes_per_cycle() const {
    return static_cast<double>(peak_lanes()) * word_bits / 8.0;
  }

  static ArchConfig alchemist() { return ArchConfig{}; }
};

}  // namespace alchemist::arch
