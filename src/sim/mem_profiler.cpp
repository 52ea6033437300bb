#include "sim/mem_profiler.h"

#include <algorithm>
#include <utility>

#include "metaop/metaop.h"
#include "sim/telemetry.h"

namespace alchemist::sim {

namespace {
constexpr std::size_t kOperands = metaop::kNumOperandClasses;
constexpr std::size_t kClasses = metaop::kNumOpClasses;
}  // namespace

void MemProfiler::begin(const arch::ArchConfig& cfg, obs::Timeline* timeline) {
  active_ = true;
  hbm_bpc_ = cfg.hbm_bytes_per_cycle();
  if (hbm_bpc_ <= 0) hbm_bpc_ = 1.0;
  capacity_bytes_ = static_cast<std::uint64_t>(cfg.total_sram_kb()) * 1024;
  timeline_ = timeline;
  if (timeline_ && timeline_->enabled()) {
    timeline_->set_track_name(kMemBwTid, "mem/bw");
    timeline_->set_track_name(kMemScratchTid, "mem/scratchpad");
  }
  bytes_prefix_ = 0;
  total_bytes_ = 0;
  for (auto& row : bytes_) row.fill(0);
  keys_.clear();
  intervals_.clear();
}

void MemProfiler::record_op(const metaop::HighOp& op, metaop::TransferList transfers,
                            double release_cycle) {
  if (!active_ || op.hbm_bytes == 0) return;

  const auto cls = static_cast<std::size_t>(metaop::class_of(op.kind));
  // Attribute descriptor bytes; the sum is clamped to hbm_bytes so the
  // conservation invariant survives a buggy lowering, and any shortfall is
  // unattributed ciphertext-limb traffic.
  std::uint64_t attributed = 0;
  for (const metaop::TransferDesc& t : transfers) {
    std::uint64_t b = std::min(t.bytes, op.hbm_bytes - attributed);
    if (b == 0) continue;
    bytes_[static_cast<std::size_t>(t.operand_class)][cls] += b;
    attributed += b;
    if (t.key_id != 0) {
      Ledger& entry = keys_[t.key_id];
      entry.operand = static_cast<std::uint8_t>(t.operand_class);
      entry.fetches += 1;
      entry.total_bytes += b;
      if (entry.fetches > 1) entry.refetch_bytes += b;
    }
  }
  if (attributed < op.hbm_bytes) {
    bytes_[static_cast<std::size_t>(metaop::OperandClass::CtLimb)][cls] +=
        op.hbm_bytes - attributed;
  }

  // Stream model: the HBM channel services fetches back-to-back in schedule
  // order at full bandwidth; the fetched working set stays resident in the
  // scratchpad until the op retires.
  const double fetch_start = bytes_prefix_ / hbm_bpc_;
  bytes_prefix_ += static_cast<double>(op.hbm_bytes);
  const double fetch_end = bytes_prefix_ / hbm_bpc_;
  total_bytes_ += op.hbm_bytes;
  intervals_.push_back(Interval{fetch_start, fetch_end,
                                std::max(release_cycle, fetch_end),
                                op.hbm_bytes});
}

void MemProfiler::finish(std::uint64_t total_cycles, obs::MemoryProfile& out) {
  if (!active_) return;
  out.clear();
  out.active = true;
  out.total_cycles = total_cycles;
  out.total_bytes = total_bytes_;
  out.scratch_capacity_bytes = capacity_bytes_;
  out.evictions = intervals_.size();  // each working set is evicted once

  for (std::size_t o = 0; o < kOperands; ++o) {
    for (std::size_t c = 0; c < kClasses; ++c) {
      if (bytes_[o][c] == 0) continue;
      out.attributed[metaop::operand_tag(
          static_cast<metaop::OperandClass>(o))]
                    [metaop::class_tag(static_cast<metaop::OpClass>(c))] +=
          bytes_[o][c];
    }
  }
  for (const auto& [id, entry] : keys_) {
    obs::KeyFetches kf;
    kf.operand =
        metaop::operand_tag(static_cast<metaop::OperandClass>(entry.operand));
    kf.fetches = entry.fetches;
    kf.total_bytes = entry.total_bytes;
    kf.refetch_bytes = entry.refetch_bytes;
    out.keys.emplace(id, std::move(kf));
  }

  // Exact residency high-water mark: endpoint sweep, releases before fetches
  // at equal timestamps (a set leaving makes room for the next in the same
  // cycle).
  std::vector<std::pair<double, std::int64_t>> events;
  events.reserve(intervals_.size() * 2);
  for (const Interval& iv : intervals_) {
    events.emplace_back(iv.fetch_start, static_cast<std::int64_t>(iv.bytes));
    events.emplace_back(iv.release, -static_cast<std::int64_t>(iv.bytes));
  }
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;  // negative (release) first at ties
  });
  std::int64_t resident = 0, peak = 0;
  for (const auto& [ts, delta] : events) {
    resident += delta;
    peak = std::max(peak, resident);
  }
  out.scratch_peak_bytes = static_cast<std::uint64_t>(std::max<std::int64_t>(peak, 0));

  // Epoch timelines over [0, total_cycles).
  if (total_cycles > 0) {
    const double epoch_len = static_cast<double>(total_cycles) / kEpochs;
    out.bw_util.assign(kEpochs, 0.0);
    out.occupancy_bytes.assign(kEpochs, 0);
    for (std::size_t e = 0; e < kEpochs; ++e) {
      const double lo = e * epoch_len;
      const double hi = lo + epoch_len;
      double busy = 0;
      std::uint64_t occ = 0;
      for (const Interval& iv : intervals_) {
        busy += std::max(0.0, std::min(iv.fetch_end, hi) -
                                  std::max(iv.fetch_start, lo));
        if (iv.fetch_start <= lo && lo < iv.release) occ += iv.bytes;
      }
      out.bw_util[e] = std::min(1.0, busy / epoch_len);
      out.occupancy_bytes[e] = occ;
    }
    if (timeline_ && timeline_->enabled()) {
      for (std::size_t e = 0; e < kEpochs; ++e) {
        obs::CounterEvent bw;
        bw.name = "mem/bw";
        bw.tid = kMemBwTid;
        bw.ts = e * epoch_len;
        bw.series.emplace_back("bw_pct", 100.0 * out.bw_util[e]);
        timeline_->record_counter(std::move(bw));
        obs::CounterEvent sp;
        sp.name = "mem/scratchpad";
        sp.tid = kMemScratchTid;
        sp.ts = e * epoch_len;
        sp.series.emplace_back("resident_bytes",
                               static_cast<double>(out.occupancy_bytes[e]));
        timeline_->record_counter(std::move(sp));
      }
    }
  }
}

void MemProfiler::serialize(BinaryWriter& w) const {
  w.write_double(bytes_prefix_);
  w.write_u64(total_bytes_);
  for (const auto& row : bytes_)
    for (std::uint64_t b : row) w.write_u64(b);
  w.write_u64(keys_.size());
  for (const auto& [id, entry] : keys_) {
    w.write_u64(id);
    w.write_u8(entry.operand);
    w.write_u64(entry.fetches);
    w.write_u64(entry.total_bytes);
    w.write_u64(entry.refetch_bytes);
  }
  w.write_u64(intervals_.size());
  for (const Interval& iv : intervals_) {
    w.write_double(iv.fetch_start);
    w.write_double(iv.fetch_end);
    w.write_double(iv.release);
    w.write_u64(iv.bytes);
  }
}

void MemProfiler::deserialize(BinaryReader& r) {
  bytes_prefix_ = r.read_double();
  total_bytes_ = r.read_u64();
  for (auto& row : bytes_)
    for (std::uint64_t& b : row) b = r.read_u64();
  keys_.clear();
  const std::uint64_t n_keys = r.read_u64();
  for (std::uint64_t i = 0; i < n_keys; ++i) {
    const std::uint64_t id = r.read_u64();
    Ledger entry;
    entry.operand = r.read_u8();
    entry.fetches = r.read_u64();
    entry.total_bytes = r.read_u64();
    entry.refetch_bytes = r.read_u64();
    keys_.emplace(id, entry);
  }
  intervals_.clear();
  const std::uint64_t n_iv = r.read_u64();
  // 33 bytes/interval minimum: cap the reserve against the bytes actually
  // remaining (the serdes discipline — never allocate on a declared length).
  intervals_.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(n_iv, r.remaining() / 32)));
  for (std::uint64_t i = 0; i < n_iv; ++i) {
    Interval iv;
    iv.fetch_start = r.read_double();
    iv.fetch_end = r.read_double();
    iv.release = r.read_double();
    iv.bytes = r.read_u64();
    intervals_.push_back(iv);
  }
}

}  // namespace alchemist::sim
