// MemProfiler — memory-system attribution for both Alchemist engines.
//
// The profiler turns the engines' single hbm_bytes-per-op accounting into the
// memory.v1 profile (obs/memory.h): bytes attributed to (operand class x op
// class) from the IR's TransferDescs, a key-fetch ledger keyed by key_id with
// re-fetch bytes (the inter-op key-reuse headroom ARK exploits), an epoch-
// bucketed HBM bandwidth-utilization timeline, and a scratchpad-occupancy
// model (capacity from ArchConfig, one residency interval per fetched working
// set, exact high-water mark).
//
// Like UnitProfiler it is strictly an observer: engines feed it copies of
// quantities they already compute (the op stream, the prefetch byte prefix,
// each op's retirement cycle) and it never feeds anything back, so a profiled
// run returns a bit-identical SimResult (tests pin this).
//
// Feeding model, shared by both engines: HBM streams the op schedule's key
// material in order at full bandwidth, so op i's fetch occupies cycles
// [prefix_i/bpc, (prefix_i + bytes_i)/bpc) — the profiler maintains the
// prefix itself, engines only call record_op() in schedule order with the
// op's retirement cycle. A working set is resident from fetch start to
// retirement and is evicted once when it retires; a later fetch of the same
// key_id is a re-fetch in the ledger.
//
// Unlike UnitProfiler, checkpoint/resume KEEPS the profile: the level engine
// serializes the profiler's accumulators into its checkpoint blob (schema v2)
// and restores them on resume, so a resumed run's memory.v1 section is
// bit-identical to an uninterrupted one; the event engine reconstructs the
// identical feed deterministically from its restored per-op state and needs
// no extra checkpoint bytes.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "arch/config.h"
#include "common/serdes.h"
#include "metaop/metaop.h"
#include "metaop/op_graph.h"
#include "obs/memory.h"
#include "obs/timeline.h"

namespace alchemist::sim {

class MemProfiler {
 public:
  // Epoch count of the bandwidth/occupancy timelines in memory.v1.
  static constexpr std::size_t kEpochs = 64;

  // Geometry comes from the (possibly fault-degraded) ArchConfig the engine
  // actually simulates; a Timeline (when tracing) additionally gets the
  // mem/bw and mem/scratchpad counter tracks at finish().
  void begin(const arch::ArchConfig& cfg, obs::Timeline* timeline = nullptr);

  // One scheduled op and its transfer descriptors, in HBM prefetch
  // (schedule) order. `release_cycle` is when the op retires and its working
  // set leaves the scratchpad.
  void record_op(const metaop::HighOp& op, metaop::TransferList transfers,
                 double release_cycle);

  // Fill `out` (attribution, ledger, epoch timelines over total_cycles) and
  // emit the Perfetto counter tracks when a timeline is attached.
  void finish(std::uint64_t total_cycles, obs::MemoryProfile& out);

  bool active() const { return active_; }

  // Checkpoint carry (level engine): accumulator state only — geometry and
  // the timeline come from begin(), and the checkpoint fingerprint guarantees
  // the resumed run uses the same ArchConfig.
  void serialize(BinaryWriter& w) const;
  void deserialize(BinaryReader& r);

 private:
  struct Ledger {
    std::uint8_t operand = 0;  // metaop::OperandClass
    std::uint64_t fetches = 0;
    std::uint64_t total_bytes = 0;
    std::uint64_t refetch_bytes = 0;
  };
  // One fetched working set: streamed over [fetch_start, fetch_end), resident
  // until `release`.
  struct Interval {
    double fetch_start = 0;
    double fetch_end = 0;
    double release = 0;
    std::uint64_t bytes = 0;
  };

  bool active_ = false;
  double hbm_bpc_ = 1.0;
  std::uint64_t capacity_bytes_ = 0;
  obs::Timeline* timeline_ = nullptr;

  double bytes_prefix_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::array<std::array<std::uint64_t, metaop::kNumOpClasses>,
             metaop::kNumOperandClasses>
      bytes_{};
  std::map<std::uint64_t, Ledger> keys_;
  std::vector<Interval> intervals_;
};

}  // namespace alchemist::sim
