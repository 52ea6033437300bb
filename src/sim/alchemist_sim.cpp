#include "sim/alchemist_sim.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "metaop/lowering.h"
#include "sim/telemetry.h"

namespace alchemist::sim {

namespace {

using metaop::class_of;
using metaop::class_tag;
using metaop::HighOp;
using metaop::kNumOpClasses;
using metaop::MetaOpBatch;
using metaop::MetaOpStream;
using metaop::OpClass;
using metaop::OpGraph;
using metaop::OpKind;
using NumAttrs = std::vector<std::pair<std::string, double>>;
using StrAttrs = std::vector<std::pair<std::string, std::string>>;
template <typename T>
using PerClass = std::array<T, kNumOpClasses>;

// Fault accounting: transient faults injected per domain, and what the
// model's mitigation policy charged for them.
struct FaultTotals {
  std::uint64_t compute = 0;          // injected transients by domain
  std::uint64_t sram = 0;
  std::uint64_t hbm = 0;
  std::uint64_t retries = 0;          // detect-retry re-executions
  std::uint64_t retry_cycles = 0;     // core-cycles burned re-executing
  std::uint64_t corrupted_ops = 0;    // ops whose output stays corrupted
  std::uint64_t dmr_corrections = 0;  // mismatches fixed by the shadow core
};

// Price one op's transient faults under the model's policy. `batch_cost` is
// the core-cycle cost of the affected Meta-OP batch (the re-execution
// granule). Returns the extra core-cycles charged to the op and accumulates
// the registry totals.
std::uint64_t price_op_faults(const fault::FaultModel& model,
                              const fault::OpFaults& faults, std::uint64_t batch_cost,
                              FaultTotals& totals) {
  totals.compute += faults.compute;
  totals.sram += faults.sram;
  totals.hbm += faults.hbm;
  const std::uint64_t n_faults = faults.total();
  if (n_faults == 0) return 0;
  std::uint64_t extra = 0;
  switch (model.config().policy) {
    case fault::Policy::None:
      // Undetected: the op completes on time with a corrupted output.
      ++totals.corrupted_ops;
      break;
    case fault::Policy::DetectRetry: {
      // Each detected fault re-executes the affected batch; the re-issue
      // window doubles per successive retry within the op (flush, refetch,
      // re-dispatch compound). Beyond max_retries the op is unrecoverable.
      const std::uint64_t attempts =
          std::min<std::uint64_t>(n_faults, model.config().max_retries);
      for (std::uint64_t a = 0; a < attempts; ++a) extra += batch_cost << a;
      totals.retries += attempts;
      totals.retry_cycles += extra;
      if (n_faults > model.config().max_retries) ++totals.corrupted_ops;
      break;
    }
    case fault::Policy::Dmr:
      // The shadow core detects the mismatch immediately; one clean
      // re-execution of the batch corrects each fault.
      extra = n_faults * batch_cost;
      totals.dmr_corrections += n_faults;
      totals.retry_cycles += extra;
      break;
  }
  return extra;
}

void add_fault_counters(obs::Registry& reg, const fault::FaultModel& model,
                        const FaultTotals& totals) {
  namespace fm = fault::metrics;
  reg.add(fm::kInjected, totals.compute + totals.sram + totals.hbm);
  reg.add(fm::kInjected, totals.compute, {{"domain", "compute"}});
  reg.add(fm::kInjected, totals.sram, {{"domain", "sram"}});
  reg.add(fm::kInjected, totals.hbm, {{"domain", "hbm"}});
  reg.add(fm::kRetries, totals.retries);
  reg.add(fm::kRetryCycles, totals.retry_cycles);
  reg.add(fm::kCorruptedOps, totals.corrupted_ops);
  reg.add(fm::kDmrCorrections, totals.dmr_corrections);
  reg.add(fm::kMaskedUnits, model.masked_count());
}

// The per-op sim.* counters, summed in the engine and booked into the
// registry in bulk by flush_counters().
struct OpCounters {
  std::uint64_t ops = 0;
  PerClass<std::uint64_t> class_ops{};
  std::uint64_t mults = 0;
  std::uint64_t meta_ops = 0;
  std::uint64_t hbm_bytes = 0;
  std::uint64_t busy_lanes = 0;
};

// An op's shape: everything its lowering and pricing read, except the op
// index and HBM bytes the fault draw takes per op.
struct ShapeKey {
  OpKind kind;
  std::size_t n, channels, param_a, param_b;
  bool operator==(const ShapeKey&) const = default;

  // The fields packed at staggered offsets, then one Fibonacci multiply; a
  // table index takes the product's high bits, which every field reaches.
  std::uint64_t hash() const {
    const std::uint64_t packed = static_cast<std::uint64_t>(kind) ^ (n << 5) ^
                                 (channels << 27) ^ (param_a << 40) ^ (param_b << 52);
    return packed * 0x9e3779b97f4a7c15ull;
  }
};

// The price of an op shape on the simulated (possibly degraded) machine.
// `transpose` is exact; the ready-list policy folds it into an op's work, and
// the level policy charges the two rounded wall shares below.
struct ShapeCost {
  OpClass cls = OpClass::Elementwise;
  std::uint64_t raw_core_cycles = 0;  // lowered Meta-OP work, before padding
  std::uint64_t core_cycles = 0;      // after degraded-stripe padding
  std::uint64_t busy_lanes = 0;
  std::uint64_t meta_ops = 0;
  std::uint64_t batches = 0;
  std::uint64_t mults = 0;
  double transpose = 0;  // serialized half of the 4-step NTT transpose
  std::uint64_t transpose_wall = 0;  // ceil(transpose)
  std::uint64_t core_wall = 0;       // ceil(core_cycles / cores)
};

// One op priced: its shape's price plus the op's own transient faults.
struct OpCost : ShapeCost {
  explicit OpCost(const ShapeCost& shape) : ShapeCost(shape) {}
  std::uint64_t retry_cycles = 0;  // fault mitigation re-executions
  fault::OpFaults faults;
};

// Per-class totals the epilogue turns into sim.cycles{class=} counters and
// utilization gauges (busy / (peak * time)).
struct ClassTotals {
  PerClass<std::uint64_t> cycles{};
  PerClass<double> time{};
  PerClass<double> busy{};
  // Also exported as sim.busy_lane_cycles{class=} when set.
  const PerClass<std::uint64_t>* busy_counters = nullptr;
};

// The engine core: everything both scheduling policies share. A policy
// derives from it, supplies its step loop, its checkpoint cursor and its
// clock, and calls back into the core for op pricing, stop polling,
// checkpoints, spans, timeline slices and the epilogue.
class Engine {
 public:
  Engine(const OpGraph& graph, const arch::ArchConfig& config,
         obs::Timeline* timeline, const fault::FaultModel* fault_model,
         SimControl* control, UnitProfiler* profiler, MemProfiler* mem_profiler,
         const char* tag, const char* accelerator)
      : graph_(graph),
        config_(config),
        // An inert fault model (zero rates, no mask, no redundancy) must leave
        // the run bit-identical to a fault-free one, so it is dropped here.
        fault_(fault_model && fault_model->enabled() ? fault_model : nullptr),
        cfg_(fault_ ? fault_->degraded(config) : config),
        fingerprint_(sim_fingerprint(config, fault_)),
        tag_(tag),
        control_(control),
        profiler_(profiler),
        mem_profiler_(mem_profiler),
        timeline_(timeline),
        trace_(timeline != nullptr && timeline->enabled()),
        tsink_(control != nullptr ? control->trace : nullptr),
        spans_on_(tsink_ != nullptr && control->trace_ctx.valid()),
        detail_(spans_on_ ? control->effective_trace_detail()
                          : obs::TraceDetail::Lifecycle),
        cores_(cfg_.total_cores()),
        transpose_words_per_cycle_(static_cast<double>(cfg_.num_units * cfg_.lanes)) {
    result_.workload = graph.name;
    result_.accelerator = accelerator;
    if (spans_on_) sim_ctx_ = obs::child_context(control->trace_ctx, "sim", 0);
  }
  virtual ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

 protected:
  // --- policy hooks ---------------------------------------------------------
  // The policy's resumable cursor (schema v2 layout, one per engine tag).
  virtual void write_cursor(BinaryWriter& w, std::uint64_t step) = 0;
  // Current simulated cycle, for span and checkpoint timestamps.
  virtual double clock() const = 0;
  // Emit any spans the policy holds open, before the run span closes.
  virtual void flush_spans() {}

  // Prologue side effects. Validates an incoming checkpoint against this
  // engine and graph and drops the UnitProfiler: cycles before the resume
  // point were accounted by another process and survive only as aggregates.
  // Returns whether the run resumes.
  bool begin() {
    if (trace_) {
      timeline_->set_process_name(std::string("alchemist-sim(") + tag_ + ")");
      name_fixed_tracks(*timeline_);
      for (std::size_t c = 0; c < kNumOpClasses; ++c) {
        rows_.emplace_back(*timeline_, static_cast<OpClass>(c));
      }
    }
    if (!(control_ && control_->checkpoint && control_->checkpoint->valid())) {
      return false;
    }
    const Checkpoint& cp = *control_->checkpoint;
    const std::string who = std::string(tag_) + " engine: ";
    if (cp.engine != tag_) {
      throw CheckpointError(who + "checkpoint from engine '" + cp.engine + "'");
    }
    if (cp.workload != graph_.name || cp.op_count != graph_.ops().size()) {
      throw CheckpointError(who + "checkpoint belongs to a different graph");
    }
    if (cp.fingerprint != fingerprint_) {
      throw CheckpointError(who + "machine/fault configuration changed");
    }
    profiler_ = nullptr;
    return true;
  }

  // Price of an op's shape, lowered on its first sight in this run.
  const ShapeCost& shape_cost(const HighOp& op) {
    const ShapeKey key{op.kind, op.n, op.channels, op.param_a, op.param_b};
    ShapeSlot& slot = shape_slots_[find_slot(key)];
    if (slot.cost != kNoShape) return shape_costs_[slot.cost];
    slot = {key, static_cast<std::uint32_t>(shape_costs_.size())};
    shape_costs_.push_back(price_shape(op));
    if (2 * shape_costs_.size() > shape_slots_.size()) {
      // Keep the table at most half full.
      std::vector<ShapeSlot> old(2 * shape_slots_.size());
      old.swap(shape_slots_);
      --shape_shift_;
      for (const ShapeSlot& s : old) {
        if (s.cost != kNoShape) shape_slots_[find_slot(s.key)] = s;
      }
    }
    return shape_costs_.back();
  }

  // The slot holding `key`, or the free slot where it goes.
  std::size_t find_slot(const ShapeKey& key) const {
    const std::size_t mask = shape_slots_.size() - 1;
    std::size_t i = key.hash() >> shape_shift_;
    while (shape_slots_[i].cost != kNoShape && !(shape_slots_[i].key == key)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  // Lowers an op's shape and prices it: busy lanes, degraded-stripe padding
  // and the transpose share.
  ShapeCost price_shape(const HighOp& op) const {
    const MetaOpStream stream = metaop::lower(op);
    ShapeCost s;
    s.cls = class_of(op.kind);
    s.raw_core_cycles = s.core_cycles = stream.core_cycles();
    for (const MetaOpBatch& batch : stream.batches) {
      s.busy_lanes += batch.count * cfg_.lanes * (batch.n + 2);
    }
    s.meta_ops = stream.meta_op_count();
    s.batches = stream.batches.size();
    s.mults = stream.mult_count();
    if (fault_) {
      // Degraded stripe: slot-partitioned work inflates by the padding of
      // ceil(N / healthy_units) striping (the masked units' share must be
      // re-homed, and the tail stripe is padded).
      const double pad = fault_->slot_padding_factor(op.n);
      if (pad > 1.0) {
        s.core_cycles = static_cast<std::uint64_t>(
            std::ceil(static_cast<double>(s.core_cycles) * pad));
      }
    }
    // 4-step NTT: one global transpose between the phases. Chunks of later
    // channels transpose while earlier channels run phase 2, hiding half of
    // the traffic; the other half serializes.
    if (op.kind == OpKind::Ntt || op.kind == OpKind::Intt) {
      const std::uint64_t words =
          static_cast<std::uint64_t>(op.n) * std::max<std::size_t>(op.channels, 1);
      s.transpose = static_cast<double>(words) / transpose_words_per_cycle_ / 2.0;
    }
    s.transpose_wall = static_cast<std::uint64_t>(std::ceil(s.transpose));
    s.core_wall = (s.core_cycles + cores_ - 1) / cores_;
    return s;
  }

  // Price op `idx`: its shape's price, then its transient faults (keyed by
  // the op index, so independent of pricing order) and their mitigation
  // cost. Books the fault totals and the per-op sim.* counters.
  OpCost cost(std::size_t idx) {
    const HighOp& op = graph_.ops()[idx];
    OpCost c(shape_cost(op));
    if (fault_) {
      c.faults = fault_->sample_op(idx, c.core_cycles, c.busy_lanes, op.hbm_bytes);
      const std::uint64_t batch_cost = c.core_cycles / std::max<std::uint64_t>(c.batches, 1);
      c.retry_cycles = price_op_faults(*fault_, c.faults, batch_cost, fault_totals_);
    }
    ++counters_.ops;
    ++counters_.class_ops[static_cast<std::size_t>(c.cls)];
    counters_.mults += c.mults;
    counters_.meta_ops += c.meta_ops;
    counters_.hbm_bytes += op.hbm_bytes;
    counters_.busy_lanes += c.busy_lanes;
    return c;
  }

  // Books the per-op counters summed since the last flush into the registry.
  // A key appears exactly when per-op booking would have created it: the
  // untagged ones once any op is charged, sim.ops{class=} per class with ops.
  void flush_counters() {
    if (counters_.ops == 0) return;
    obs::Registry& reg = result_.registry;
    reg.add(metrics::kMults, counters_.mults, {{"lazy", "true"}});
    reg.add(metrics::kOps, counters_.ops);
    for (std::size_t c = 0; c < kNumOpClasses; ++c) {
      if (counters_.class_ops[c] == 0) continue;
      reg.add(metrics::kOps, counters_.class_ops[c],
              {{"class", class_tag(static_cast<OpClass>(c))}});
    }
    reg.add(metrics::kMetaOps, counters_.meta_ops);
    reg.add(metrics::kHbmBytes, counters_.hbm_bytes);
    reg.add(metrics::kBusyLaneCycles, counters_.busy_lanes);
    counters_ = {};
  }

  // --- execution control ----------------------------------------------------
  // Before each step: stop on cancellation, deadline or step budget, after
  // publishing the cursor (`step` steps complete) and closing the run span.
  void poll(std::uint64_t step) {
    if (!control_) return;
    StopReason stop =
        control_->cancel ? control_->cancel->should_stop() : StopReason::None;
    if (stop == StopReason::None && control_->max_steps != 0 &&
        executed_steps_ >= control_->max_steps) {
      stop = StopReason::StepBudget;
    }
    if (stop == StopReason::None) return;
    if (control_->checkpoint) save_checkpoint(step);
    close(sim::to_string(stop));
    throw CancelledError(stop, step);
  }

  // After each step: count it and take the interval checkpoint when due.
  void step_done(std::uint64_t step) {
    ++executed_steps_;
    if (!control_ || !control_->checkpoint) return;
    const std::uint64_t interval = control_->effective_checkpoint_interval();
    if (interval != 0 && executed_steps_ % interval == 0) save_checkpoint(step);
  }

  void save_checkpoint(std::uint64_t step) {
    Checkpoint cp;
    cp.engine = tag_;
    cp.workload = graph_.name;
    cp.op_count = graph_.ops().size();
    cp.fingerprint = fingerprint_;
    cp.step = step;
    flush_counters();  // the level cursor carries the registry
    BinaryWriter w;
    write_cursor(w, step);
    cp.state = w.buffer();
    const double state_bytes = static_cast<double>(cp.state.size());
    *control_->checkpoint = std::move(cp);
    if (spans_on_) {
      emit_span(obs::child_context(sim_ctx_, "checkpoint", trace_checkpoints_++),
                "checkpoint", "sim/checkpoint", clock(), 0,
                {{"step", static_cast<double>(step)}, {"bytes", state_bytes}});
    }
  }

  // --- spans (cycle-domain; see obs/trace.h) --------------------------------
  // Spans are buffered locally and drained in batches: one sink lock per
  // kSpanFlush spans instead of per span, so concurrent jobs at Phases/Ops
  // detail do not serialize on the sink mutex.
  void emit_span(const obs::TraceContext& ctx, std::string name, const char* track,
                 double ts, double dur, NumAttrs num_attrs, StrAttrs attrs = {}) {
    constexpr std::size_t kSpanFlush = 4096;
    span_buf_.push_back({ctx.trace_id, ctx.span_id, ctx.parent_span, std::move(name),
                         "sim", track, obs::SpanClock::Cycles, ts, dur,
                         std::move(attrs), std::move(num_attrs)});
    if (span_buf_.size() >= kSpanFlush) tsink_->record_batch(span_buf_);
  }

  // Ops-detail span of one op; `extra` attributes go between the op index
  // and its HBM bytes.
  void op_span(const obs::TraceContext& parent, std::size_t idx, OpClass cls,
               double ts, double dur, const NumAttrs& extra) {
    const HighOp& op = graph_.ops()[idx];
    NumAttrs num_attrs = {{"op", static_cast<double>(idx)}};
    num_attrs.insert(num_attrs.end(), extra.begin(), extra.end());
    num_attrs.emplace_back("hbm_bytes", static_cast<double>(op.hbm_bytes));
    emit_span(obs::child_context(parent, to_string(op.kind), idx), to_string(op.kind),
              "sim/ops", ts, dur, std::move(num_attrs), {{"class", class_tag(cls)}});
  }

  // Marks where the step loop starts; the run span covers [start, end].
  void start_steps(std::string resume_attr, double resume_value) {
    span_start_ = clock();
    resume_attr_ = {std::move(resume_attr), resume_value};
  }

  // Terminal span for the whole run; flushes the buffer. Called on every
  // exit path (completion and just before a cancellation throw).
  void close(const char* outcome) {
    if (!spans_on_) return;
    flush_spans();
    emit_span(sim_ctx_, "sim", "sim", span_start_, clock() - span_start_,
              {{"steps", static_cast<double>(executed_steps_)}, resume_attr_},
              {{"engine", tag_}, {"workload", graph_.name}, {"outcome", outcome}});
    tsink_->record_batch(span_buf_);
  }

  // --- timeline slices ------------------------------------------------------
  static std::string op_label(const HighOp& op, std::size_t idx) {
    return std::string(to_string(op.kind)) + "#" + std::to_string(idx);
  }

  void slice(std::string name, std::string cat, std::uint32_t tid, double ts,
             double dur, NumAttrs args) {
    timeline_->record(
        {std::move(name), std::move(cat), tid, ts, dur, std::move(args), {}});
  }

  // One op on its class's unit-group rows, covering [ts, end).
  void op_slice(std::size_t idx, OpClass cls, double ts, double dur, double end,
                NumAttrs args) {
    const std::uint32_t tid = rows_[static_cast<std::size_t>(cls)].reserve(ts, end);
    slice(op_label(graph_.ops()[idx], idx), class_tag(cls), tid, ts, dur, std::move(args));
  }

  void fault_slice(std::size_t idx, const fault::OpFaults& faults,
                   double retry_cycles, double ts, double dur) {
    if (faults.total() == 0) return;
    slice("fault " + op_label(graph_.ops()[idx], idx), "fault", kFaultTid, ts, dur,
          {{"faults_compute", static_cast<double>(faults.compute)},
           {"faults_sram", static_cast<double>(faults.sram)},
           {"faults_hbm", static_cast<double>(faults.hbm)},
           {"retry_core_cycles", retry_cycles}});
  }

  // --- epilogue -------------------------------------------------------------
  // Totals and derived rates into the registry; finalize() projects them onto
  // the aggregate fields. `time` is the exact simulated span and `busy` the
  // delivered lane-cycles. The profiles are side-channel views, filled after
  // finalize() and never part of the registry the bit-identity checks compare.
  SimResult finish(std::uint64_t total_cycles, std::uint64_t stall_cycles,
                   std::uint64_t transpose_cycles, double time, double busy,
                   const ClassTotals& classes) {
    flush_counters();
    close("completed");
    obs::Registry& reg = result_.registry;
    reg.add(metrics::kCycles, total_cycles);
    reg.add(metrics::kStall, stall_cycles, {{"cause", "hbm"}});
    reg.add(metrics::kTransposeCycles, transpose_cycles);
    if (fault_) add_fault_counters(reg, *fault_, fault_totals_);
    reg.set_gauge(metrics::kTimeUs, time / (cfg_.freq_ghz * 1e3));
    const double peak = static_cast<double>(cfg_.peak_lanes());
    reg.set_gauge(metrics::kUtilization, time > 0 ? busy / (peak * time) : 0.0);
    for (std::size_t c = 0; c < kNumOpClasses; ++c) {
      const char* tag = class_tag(static_cast<OpClass>(c));
      reg.add(metrics::kCycles, classes.cycles[c], {{"class", tag}});
      if (classes.busy_counters) {
        reg.add(metrics::kBusyLaneCycles, (*classes.busy_counters)[c], {{"class", tag}});
      }
      reg.set_gauge(metrics::kUtilization,
                    classes.time[c] > 0 ? classes.busy[c] / (peak * classes.time[c])
                                        : 0.0,
                    {{"class", tag}});
    }
    result_.finalize();
    if (profiler_) profiler_->finish(total_cycles, result_.profile);
    if (mem_profiler_) mem_profiler_->finish(total_cycles, result_.mem_profile);
    return std::move(result_);
  }

  obs::Timeline* trace_timeline() const { return trace_ ? timeline_ : nullptr; }

  const OpGraph& graph_;
  const arch::ArchConfig& config_;
  const fault::FaultModel* const fault_;
  const arch::ArchConfig cfg_;
  const std::uint64_t fingerprint_;
  const char* const tag_;
  SimControl* const control_;
  UnitProfiler* profiler_;
  MemProfiler* mem_profiler_;
  obs::Timeline* const timeline_;
  const bool trace_;
  obs::TraceSink* const tsink_;
  const bool spans_on_;
  const obs::TraceDetail detail_;
  obs::TraceContext sim_ctx_;
  const std::uint64_t cores_;
  const double transpose_words_per_cycle_;
  SimResult result_;
  FaultTotals fault_totals_;
  std::vector<ClassTrackRows> rows_;

 private:
  OpCounters counters_;
  // The shapes priced so far: open addressing over a power-of-two table of
  // indices into shape_costs_. A paper schedule has a few hundred shapes.
  static constexpr std::uint32_t kNoShape = std::numeric_limits<std::uint32_t>::max();
  struct ShapeSlot {
    ShapeKey key{};
    std::uint32_t cost = kNoShape;
  };
  std::vector<ShapeSlot> shape_slots_ = std::vector<ShapeSlot>(256);
  int shape_shift_ = 64 - 8;  // a hash's top log2(slots) bits index the table
  std::vector<ShapeCost> shape_costs_;
  std::uint64_t executed_steps_ = 0;
  std::uint64_t trace_checkpoints_ = 0;
  double span_start_ = 0;
  std::pair<std::string, double> resume_attr_;
  std::vector<obs::SpanRecord> span_buf_;
};

// --- level policy ------------------------------------------------------------
// ASAP level barriers. Cores are fungible across the ops of a level: their
// Meta-OP work pools and fills waves jointly, and only the pooled tail is
// padded. A step is one level. HBM traffic overlaps compute globally.
class LevelPolicy final : public Engine {
 public:
  template <typename... Args>
  explicit LevelPolicy(Args&&... args)
      : Engine(std::forward<Args>(args)..., kLevelEngine, "Alchemist") {}

  SimResult run() {
    const metaop::Levels levels = metaop::asap_levels(graph_);
    const bool resuming = begin();
    // begin() before the cursor: a restored checkpoint overlays the memory
    // profiler's accumulators on top of the geometry begin() captures.
    if (mem_profiler_) mem_profiler_->begin(cfg_, trace_timeline());
    const std::uint64_t resume_level = resuming ? read_cursor(levels.size()) : 0;
    if (profiler_) {
      profiler_->begin(cfg_.num_units, cfg_.cores_per_unit, trace_timeline());
    }
    start_steps("resume_level", static_cast<double>(resume_level));
    // Levels before the resume point were accounted by the checkpoint.
    for (std::size_t level_idx = resume_level; level_idx < levels.size(); ++level_idx) {
      poll(level_idx);
      step(level_idx, levels[level_idx]);
      step_done(level_idx + 1);
    }

    // Key material is prefetched with double buffering across the whole graph
    // (the on-chip scheduler knows the op stream in advance), so HBM streaming
    // overlaps *globally* with compute; only the excess stalls.
    const double hbm_bpc = cfg_.hbm_bytes_per_cycle();
    const std::uint64_t hbm_cycles =
        static_cast<std::uint64_t>(std::ceil(total_hbm_bytes_ / hbm_bpc));
    std::uint64_t stall_cycles = 0;
    if (hbm_cycles > total_cycles_) {
      stall_cycles = hbm_cycles - total_cycles_;
      total_cycles_ = hbm_cycles;
    }
    const double stall_ts = static_cast<double>(total_cycles_ - stall_cycles);
    const auto stall = static_cast<double>(stall_cycles);
    if (trace_ && total_hbm_bytes_ > 0) {
      slice("evk stream", "hbm", kHbmTid, 0, static_cast<double>(hbm_cycles),
            {{"bytes", total_hbm_bytes_}, {"bytes_per_cycle", hbm_bpc}});
    }
    if (trace_ && stall_cycles > 0) {
      slice("hbm stall", "stall", kSchedulerTid, stall_ts, stall, {{"cycles", stall}});
    }
    if (spans_on_ && detail_ >= obs::TraceDetail::Phases && stall_cycles > 0) {
      emit_span(obs::child_context(sim_ctx_, "hbm-stall", 0), "hbm-stall", "sim/levels",
                stall_ts, stall, {{"cycles", stall}});
    }
    ClassTotals classes;
    classes.busy_counters = &class_busy_;
    for (std::size_t c = 0; c < kNumOpClasses; ++c) {
      classes.cycles[c] = class_wall_[c];
      classes.time[c] = static_cast<double>(class_wall_[c]);
      classes.busy[c] = static_cast<double>(class_busy_[c]);
    }
    return finish(total_cycles_, stall_cycles, total_transpose_,
                  static_cast<double>(total_cycles_),
                  static_cast<double>(total_busy_), classes);
  }

 private:
  // At Phases detail, runs of narrow levels (fewer than kChainWidth ops —
  // far below machine saturation) coalesce into one "chain" span, split
  // every kChainMaxLevels so long chains keep visible progress. Bootstrap
  // graphs are ~99% such levels; per-level spans for them cost more in
  // traced-run overhead (and Perfetto slice count) than they say — the
  // interesting structure is the handful of wide levels between chains. Ops
  // detail keeps the full per-level resolution.
  static constexpr std::size_t kChainWidth = 8;
  static constexpr std::uint64_t kChainMaxLevels = 32;

  double clock() const override { return static_cast<double>(total_cycles_); }
  void flush_spans() override { flush_chain(); }

  void write_cursor(BinaryWriter& w, std::uint64_t levels_done) override {
    w.write_u64(levels_done);
    w.write_u64(total_cycles_);
    w.write_u64(total_transpose_);
    w.write_u64(total_busy_);
    w.write_double(total_hbm_bytes_);
    w.write_u64_vector(class_wall_);
    w.write_u64_vector(class_busy_);
    for (const std::uint64_t* v : fault_fields()) w.write_u64(*v);
    write_registry(w, result_.registry);
    w.write_u8(mem_profiler_ != nullptr ? 1 : 0);
    if (mem_profiler_ != nullptr) mem_profiler_->serialize(w);
  }

  std::uint64_t read_cursor(std::size_t num_levels) {
    BinaryReader r(control_->checkpoint->state);
    const std::uint64_t resume_level = r.read_u64();
    if (resume_level > num_levels) {
      throw CheckpointError("level engine: checkpoint step past end of schedule");
    }
    total_cycles_ = r.read_u64();
    total_transpose_ = r.read_u64();
    total_busy_ = r.read_u64();
    total_hbm_bytes_ = r.read_double();
    const std::vector<std::uint64_t> wall = r.read_u64_vector();
    const std::vector<std::uint64_t> busy = r.read_u64_vector();
    if (wall.size() != kNumOpClasses || busy.size() != kNumOpClasses) {
      throw CheckpointError("level engine: per-class array size mismatch");
    }
    std::copy(wall.begin(), wall.end(), class_wall_.begin());
    std::copy(busy.begin(), busy.end(), class_busy_.begin());
    for (std::uint64_t* v : fault_fields()) *v = r.read_u64();
    read_registry(r, result_.registry);
    // Memory-profiler carry (schema v2): restore the interrupted run's
    // attribution state so the resumed memory.v1 is bit-identical. A
    // checkpoint written without memory state cannot attribute the skipped
    // prefix, so the profiler is dropped, like the UnitProfiler.
    if (r.read_u8() != 0) {
      MemProfiler discard;
      (mem_profiler_ != nullptr ? *mem_profiler_ : discard).deserialize(r);
    } else {
      mem_profiler_ = nullptr;
    }
    return resume_level;
  }

  // The fault totals in cursor order.
  std::array<std::uint64_t*, 7> fault_fields() {
    FaultTotals& f = fault_totals_;
    return {&f.compute, &f.sram, &f.hbm, &f.retries, &f.retry_cycles,
            &f.corrupted_ops, &f.dmr_corrections};
  }

  void flush_chain() {
    if (chain_len_ == 0) return;
    emit_span(obs::child_context(sim_ctx_, "chain", chain_start_level_), "chain",
              "sim/levels", chain_start_ts_,
              static_cast<double>(total_cycles_) - chain_start_ts_,
              {{"first_level", static_cast<double>(chain_start_level_)},
               {"levels", static_cast<double>(chain_len_)}});
    chain_len_ = 0;
  }

  void step(std::size_t level_idx, std::span<const std::uint32_t> level) {
    // Narrow levels at Phases detail fold into the running chain span, so
    // they never mint a per-level context.
    const bool phases = spans_on_ && detail_ >= obs::TraceDetail::Phases;
    const bool chained =
        phases && detail_ == obs::TraceDetail::Phases && level.size() < kChainWidth;
    obs::TraceContext level_ctx;
    if (phases && !chained) level_ctx = obs::child_context(sim_ctx_, "level", level_idx);
    const double start = static_cast<double>(total_cycles_);
    std::uint64_t level_core_cycles = 0;  // exact core-cycles of work
    std::uint64_t level_transpose = 0;    // serialized transpose traffic
    double level_hbm_bytes = 0;
    UnitProfiler::Level profile;
    // The pooled model executes a level's work as if ops ran back to back at
    // full machine width, so op slices, op spans and memory-profiler releases
    // tile the level span along this cursor. Only they read it.
    const bool op_spans = spans_on_ && detail_ == obs::TraceDetail::Ops;
    const bool tiled = trace_ || mem_profiler_ || op_spans;
    double cursor = start;
    for (std::size_t idx : level) {
      const HighOp& op = graph_.ops()[idx];
      const OpCost c = cost(idx);
      const auto cls = static_cast<std::size_t>(c.cls);
      const std::uint64_t work = c.core_cycles + c.retry_cycles;
      const std::uint64_t transpose = c.transpose_wall;
      total_transpose_ += transpose;
      // Data movement for the op's working set through the local scratchpads
      // is covered by the per-lane operand fetch modeled inside the Meta-OP
      // window; only off-chip traffic is charged separately.
      level_core_cycles += work;
      level_transpose += transpose;
      level_hbm_bytes += static_cast<double>(op.hbm_bytes);
      // The 2-cycle reduction tail of every Meta-OP window; retries re-run
      // whole windows, so the ratio carries over untouched.
      profile.reduction_core_cycles += 2 * c.meta_ops;
      profile.class_core_cycles[cls] += work;
      // A fault-free op's wall share is its shape's.
      class_wall_[cls] +=
          (c.retry_cycles == 0 ? c.core_wall : (work + cores_ - 1) / cores_) + transpose;
      class_busy_[cls] += c.busy_lanes;
      total_busy_ += c.busy_lanes;
      if (!tiled) continue;

      const double dur = static_cast<double>(work) / static_cast<double>(cores_) +
                         static_cast<double>(transpose);
      if (mem_profiler_) mem_profiler_->record_op(op, graph_.transfers(idx), cursor + dur);
      if (trace_) {
        op_slice(idx, c.cls, cursor, dur, cursor + dur,
                 {{"level", static_cast<double>(level_idx)},
                  {"core_cycles", static_cast<double>(c.core_cycles)},
                  {"cores", static_cast<double>(cores_)},
                  {"metaop_batches", static_cast<double>(c.batches)},
                  {"meta_ops", static_cast<double>(c.meta_ops)},
                  {"hbm_bytes", static_cast<double>(op.hbm_bytes)},
                  {"transpose_cycles", static_cast<double>(transpose)},
                  {"mults", static_cast<double>(c.mults)}});
        if (transpose > 0) {
          slice("transpose#" + std::to_string(idx), "transpose", kTransposeTid,
                cursor + static_cast<double>(c.core_cycles) / static_cast<double>(cores_),
                static_cast<double>(transpose),
                {{"words_per_cycle", transpose_words_per_cycle_}});
        }
        fault_slice(idx, c.faults, static_cast<double>(c.retry_cycles), cursor,
                    static_cast<double>(c.retry_cycles) / static_cast<double>(cores_));
      }
      if (op_spans) {
        op_span(level_ctx, idx, c.cls, cursor, dur,
                {{"level", static_cast<double>(level_idx)},
                 {"core_cycles", static_cast<double>(c.core_cycles)}});
      }
      cursor += dur;
    }
    const std::uint64_t level_wall =
        (level_core_cycles + cores_ - 1) / cores_ + level_transpose;
    if (!level.empty()) {
      if (profiler_) {
        profile.core_cycles = level_core_cycles;
        profile.transpose_cycles = level_transpose;
        profiler_->add_level(total_cycles_, profile);
      }
      if (trace_) {
        slice("level " + std::to_string(level_idx), "scheduler", kSchedulerTid, start,
              static_cast<double>(level_wall),
              {{"ops", static_cast<double>(level.size())},
               {"core_cycles", static_cast<double>(level_core_cycles)},
               {"hbm_bytes", level_hbm_bytes}});
      }
      if (chained) {
        if (chain_len_ >= kChainMaxLevels) flush_chain();
        if (chain_len_ == 0) {
          chain_start_level_ = level_idx;
          chain_start_ts_ = start;
        }
        ++chain_len_;
      } else if (phases) {
        flush_chain();  // a wide level ends any run of narrow levels
        emit_span(level_ctx, "level", "sim/levels", start, static_cast<double>(level_wall),
                  {{"level", static_cast<double>(level_idx)},
                   {"ops", static_cast<double>(level.size())},
                   {"core_cycles", static_cast<double>(level_core_cycles)}});
      }
    }
    total_cycles_ += level_wall;
    total_hbm_bytes_ += level_hbm_bytes;
  }

  std::uint64_t total_cycles_ = 0;
  std::uint64_t total_transpose_ = 0;
  std::uint64_t total_busy_ = 0;
  double total_hbm_bytes_ = 0;
  PerClass<std::uint64_t> class_wall_{};
  PerClass<std::uint64_t> class_busy_{};
  double chain_start_ts_ = 0;
  std::uint64_t chain_start_level_ = 0;
  std::uint64_t chain_len_ = 0;
};

// --- ready-list policy -------------------------------------------------------
// No level barriers: an op becomes ready the moment its dependencies retire.
// Ready ops share the cores work-conservingly, HBM streams keys in schedule
// (prefetch) order, and an op retires once both its compute and its key
// streaming are done. A step is one completion interval.
class ReadyListPolicy final : public Engine {
 public:
  template <typename... Args>
  explicit ReadyListPolicy(Args&&... args)
      : Engine(std::forward<Args>(args)..., kEventEngine, "Alchemist(event)") {}

  SimResult run() {
    if (graph_.ops().empty()) {
      if (mem_profiler_) {
        mem_profiler_->begin(config_);
        mem_profiler_->finish(0, result_.mem_profile);
      }
      return std::move(result_);
    }
    // Only the event-loop cursor lives in the checkpoint: the per-op setup
    // below (lowering, fault draws, prefetch schedule) is deterministic and
    // is rebuilt identically on resume.
    const bool resuming = begin();
    setup();
    if (profiler_) profiler_->begin(cfg_.num_units, cfg_.cores_per_unit, nullptr);
    if (mem_profiler_) mem_profiler_->begin(cfg_, trace_timeline());
    if (resuming) read_cursor();
    start_steps("resumed", resuming ? 1.0 : 0.0);
    while (!running_.empty()) {
      poll(completed_);
      step();
      step_done(completed_);
    }
    if (completed_ != graph_.ops().size()) {
      throw std::logic_error("event sim: dependency cycle or unreachable ops");
    }
    if (mem_profiler_) {
      // Feed in HBM prefetch order from the per-op state the event loop (or
      // a checkpoint resume) left behind: an op's working set is released
      // when both its compute and its key streaming are done, which is
      // exactly its retirement condition.
      for (std::size_t i = 0; i < graph_.ops().size(); ++i) {
        mem_profiler_->record_op(graph_.ops()[i], graph_.transfers(i),
                                 std::max(details_[i].compute_done_time, ops_[i].hbm_ready));
      }
    }
    ClassTotals classes;
    for (std::size_t c = 0; c < kNumOpClasses; ++c) {
      classes.cycles[c] = static_cast<std::uint64_t>(std::ceil(class_active_[c]));
      classes.time[c] = class_active_[c];
      classes.busy[c] = class_busy_total_[c];
    }
    return finish(static_cast<std::uint64_t>(std::ceil(now_)),
                  static_cast<std::uint64_t>(std::ceil(stall_integral_)),
                  total_transpose_, now_, busy_integral_, classes);
  }

 private:
  // What the step loop reads and writes, per op.
  struct OpState {
    double work = 0;        // core-cycles of Meta-OP work (incl. transpose)
    double hbm_ready = 0;   // earliest time this op's prefetched keys land
    double busy_lanes = 0;  // lane-cycles for utilization accounting
    std::uint32_t unmet_deps = 0;
    std::uint8_t cls = 0;  // an OpClass
    bool running = false;
    bool done = false;
  };
  static_assert(sizeof(OpState) == 32);

  // What only the checkpoint cursor, trace slices, Ops-detail spans and the
  // profilers read; never read by the accounting. Allocated only when one of
  // them is attached.
  struct OpDetail {
    double start_time = 0;
    double compute_done_time = 0;
    // Profiler-only shares of `work`: the transpose traffic folded into it
    // and the Meta-OP reduction tails within the non-transpose part.
    double frac_scratch = 0;
    double frac_reduction = 0;
    fault::OpFaults faults;
    double retry_cycles = 0;
  };

  double clock() const override { return now_; }

  // One walk over the ops prices each, books its HBM prefetch time and its
  // dependency count, and collects the ops that are ready at t=0. A second
  // walk fills the reverse graph.
  void setup() {
    const std::span<const HighOp> ops = graph_.ops();
    const std::size_t n = ops.size();
    if (n > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("event sim: more than 2^32 - 1 ops");
    }
    detailed_ = trace_ || profiler_ || mem_profiler_ ||
                (control_ && control_->checkpoint) ||
                (spans_on_ && detail_ == obs::TraceDetail::Ops);
    const double cores = static_cast<double>(cores_);
    // Key prefetching: the scheduler knows the op stream in advance, so HBM
    // streams each op's keys in order starting at t=0; an op can only retire
    // once its cumulative key traffic has landed.
    const double hbm_bpc = cfg_.hbm_bytes_per_cycle();
    double bytes_prefix = 0;
    double hbm_ready = 0;
    ops_.reserve(n);
    if (detailed_) details_.reserve(n);
    // dependents_start_[d] counts d's dependents here; see below.
    dependents_start_.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const HighOp& op = ops[i];
      const OpCost c = cost(i);
      OpState& s = ops_.emplace_back();
      s.cls = static_cast<std::uint8_t>(c.cls);
      s.busy_lanes = static_cast<double>(c.busy_lanes);
      const double retry_cycles = static_cast<double>(c.retry_cycles);
      s.work = static_cast<double>(c.core_cycles) + retry_cycles;
      double transpose_work = 0;
      if (c.transpose > 0) {
        // Serialized half of the transpose, expressed as extra machine work.
        transpose_work = c.transpose * cores;
        s.work += transpose_work;
        total_transpose_ += static_cast<std::uint64_t>(c.transpose);
      }
      if (op.hbm_bytes > 0) {
        const double start_cycle = bytes_prefix / hbm_bpc;
        bytes_prefix += static_cast<double>(op.hbm_bytes);
        hbm_ready = bytes_prefix / hbm_bpc;
        if (trace_) {
          slice("keys " + op_label(op, i), "hbm", kHbmTid, start_cycle,
                hbm_ready - start_cycle,
                {{"bytes", static_cast<double>(op.hbm_bytes)},
                 {"bytes_per_cycle", hbm_bpc}});
        }
      }
      s.hbm_ready = hbm_ready;
      const std::span<const std::size_t> deps = graph_.deps(i);
      s.unmet_deps = static_cast<std::uint32_t>(deps.size());
      for (std::size_t dep : deps) {
        if (dep >= i) throw std::invalid_argument("event sim: deps must point backwards");
        ++dependents_start_[dep];
      }
      if (deps.empty()) {
        s.running = true;
        running_.push_back(static_cast<std::uint32_t>(i));
      }
      class_busy_total_[s.cls] += s.busy_lanes;
      if (detailed_) {
        OpDetail& d = details_.emplace_back();
        d.faults = c.faults;
        d.retry_cycles = retry_cycles;
        // Reduction share of the compute work: 2 of every (n+2)-cycle Meta-OP
        // window. Padding and retries replay whole windows, so the raw
        // stream's ratio carries over.
        const double raw_core = static_cast<double>(c.raw_core_cycles);
        d.frac_reduction =
            raw_core > 0 ? 2.0 * static_cast<double>(c.meta_ops) / raw_core : 0.0;
        if (c.transpose > 0) d.frac_scratch = s.work > 0 ? transpose_work / s.work : 0.0;
      }
    }
    // The dependents of op d are dependents_[dependents_start_[d],
    // dependents_start_[d + 1]), in ascending op order: the order they wake
    // up in when d retires. After the running sum each start holds its
    // list's end; filling the lists back to front, from the last op, leaves
    // it at the list's beginning.
    for (std::size_t d = 1; d <= n; ++d) dependents_start_[d] += dependents_start_[d - 1];
    dependents_.resize(dependents_start_[n]);
    for (std::size_t i = n; i-- > 0;) {
      for (std::size_t dep : graph_.deps(i)) {
        dependents_[--dependents_start_[dep]] = static_cast<std::uint32_t>(i);
      }
    }
  }

  void write_cursor(BinaryWriter& w, std::uint64_t /*step*/) override {
    w.write_double(now_);
    w.write_double(busy_integral_);
    w.write_double(stall_integral_);
    for (double c : class_active_) w.write_double(c);
    w.write_u64(completed_);
    w.write_u64_vector(std::vector<std::uint64_t>(running_.begin(), running_.end()));
    w.write_u64(ops_.size());
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const OpState& s = ops_[i];
      w.write_double(s.work);
      w.write_double(s.busy_lanes);
      w.write_double(details_[i].start_time);
      w.write_double(details_[i].compute_done_time);
      w.write_u64(s.unmet_deps);
      w.write_u8(static_cast<std::uint8_t>((s.running ? 1u : 0u) | (s.done ? 2u : 0u)));
    }
  }

  void read_cursor() {
    BinaryReader r(control_->checkpoint->state);
    now_ = r.read_double();
    busy_integral_ = r.read_double();
    stall_integral_ = r.read_double();
    for (double& c : class_active_) c = r.read_double();
    completed_ = static_cast<std::size_t>(r.read_u64());
    const std::vector<std::uint64_t> run_ids = r.read_u64_vector();
    const std::uint64_t n_ops = r.read_u64();
    if (n_ops != ops_.size() || completed_ > ops_.size()) {
      throw CheckpointError("event engine: per-op state size mismatch");
    }
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      OpState& s = ops_[i];
      s.work = r.read_double();
      s.busy_lanes = r.read_double();
      details_[i].start_time = r.read_double();
      details_[i].compute_done_time = r.read_double();
      const std::uint64_t unmet = r.read_u64();
      if (unmet > graph_.deps(i).size()) {
        throw CheckpointError("event engine: dependency count out of range");
      }
      s.unmet_deps = static_cast<std::uint32_t>(unmet);
      const std::uint8_t flags = r.read_u8();
      s.running = (flags & 1u) != 0;
      s.done = (flags & 2u) != 0;
    }
    running_.clear();
    for (std::uint64_t id : run_ids) {
      if (id >= ops_.size()) {
        throw CheckpointError("event engine: ready-set index out of range");
      }
      running_.push_back(static_cast<std::uint32_t>(id));
    }
  }

  void step() {
    // Work-conserving equal share of the cores among live compute demands,
    // and the classes with live work this interval.
    std::size_t compute_live = 0;
    PerClass<bool> live{};
    for (std::uint32_t idx : running_) {
      const OpState& s = ops_[idx];
      if (s.work > 0) {
        ++compute_live;
        live[s.cls] = true;
      }
    }
    const double core_share =
        compute_live ? static_cast<double>(cores_) / compute_live : 0;

    // Next completion event.
    double dt = std::numeric_limits<double>::infinity();
    for (std::uint32_t idx : running_) {
      const OpState& s = ops_[idx];
      double t_done = s.work > 0 ? s.work / core_share : 0;
      t_done = std::max(t_done, s.hbm_ready - now_);
      dt = std::min(dt, t_done);
    }
    if (!(dt > 0) || !std::isfinite(dt)) dt = 1.0;  // zero-work ops finish now

    if (compute_live == 0) stall_integral_ += dt;
    // Per-class active wall time.
    for (std::size_t c = 0; c < kNumOpClasses; ++c) {
      if (live[c]) class_active_[c] += dt;
    }

    // Advance time and drain work.
    now_ += dt;
    double iv_delivered = 0, iv_reduction = 0, iv_scratch = 0;
    PerClass<double> iv_class{};
    next_running_.clear();
    for (std::uint32_t idx : running_) {
      OpState& s = ops_[idx];
      if (s.work > 0) {
        const double delivered = std::min(s.work, core_share * dt);
        if (profiler_) {
          const OpDetail& d = details_[idx];
          const double d_scratch = delivered * d.frac_scratch;
          const double d_compute = delivered - d_scratch;
          iv_delivered += delivered;
          iv_scratch += d_scratch;
          iv_reduction += d_compute * d.frac_reduction;
          iv_class[s.cls] += d_compute;
        }
        // Lane-cycles in proportion to the work delivered.
        const double lanes = delivered / s.work * s.busy_lanes;
        busy_integral_ += lanes;
        s.busy_lanes -= s.work >= 1e-9 ? lanes : delivered / 1e-9 * s.busy_lanes;
        s.work -= delivered;
        if (s.work < 1e-9) s.work = 0;
        if (s.work == 0 && detailed_) details_[idx].compute_done_time = now_;
      }
      if (s.work == 0 && now_ + 1e-9 >= s.hbm_ready) {
        retire(idx, next_running_);
      } else {
        next_running_.push_back(idx);
      }
    }
    if (profiler_) {
      profiler_->accrue(dt, iv_delivered, iv_reduction, iv_scratch, iv_class,
                        compute_live > 0);
    }
    running_.swap(next_running_);
  }

  void retire(std::uint32_t idx, std::vector<std::uint32_t>& ready) {
    OpState& s = ops_[idx];
    s.done = true;
    ++completed_;
    if (detailed_) {
      const OpDetail& d = details_[idx];
      const double dur = now_ - d.start_time;
      if (trace_) {
        const HighOp& op = graph_.ops()[idx];
        op_slice(idx, static_cast<OpClass>(s.cls), d.start_time, dur, now_,
                 {{"ready_cycle", d.start_time},
                  {"end_cycle", now_},
                  {"hbm_ready_cycle", s.hbm_ready},
                  {"hbm_wait_cycles",
                   std::max(0.0, now_ - std::max(d.compute_done_time, d.start_time))},
                  {"hbm_bytes", static_cast<double>(op.hbm_bytes)}});
        fault_slice(idx, d.faults, d.retry_cycles, d.start_time, dur);
      }
      if (spans_on_ && detail_ == obs::TraceDetail::Ops) {
        op_span(sim_ctx_, idx, static_cast<OpClass>(s.cls), d.start_time, dur, {});
      }
    }
    for (std::uint32_t k = dependents_start_[idx]; k < dependents_start_[idx + 1]; ++k) {
      const std::uint32_t dependent = dependents_[k];
      OpState& d = ops_[dependent];
      if (--d.unmet_deps == 0) {
        d.running = true;
        if (detailed_) details_[dependent].start_time = now_;
        ready.push_back(dependent);
      }
    }
  }

  std::vector<OpState> ops_;
  bool detailed_ = false;          // details_ is filled
  std::vector<OpDetail> details_;
  std::vector<std::uint32_t> dependents_start_;  // CSR of the reverse graph
  std::vector<std::uint32_t> dependents_;
  std::vector<std::uint32_t> running_;
  std::vector<std::uint32_t> next_running_;  // step()'s next ready set, swapped in
  std::uint64_t total_transpose_ = 0;
  PerClass<double> class_busy_total_{};
  double now_ = 0;
  double busy_integral_ = 0;   // lane-cycles actually delivered
  double stall_integral_ = 0;  // time with live ops but zero runnable compute
  PerClass<double> class_active_{};  // per-class busy wall
  std::size_t completed_ = 0;
};

}  // namespace

SimResult simulate_alchemist(const OpGraph& graph, const arch::ArchConfig& config,
                             obs::Timeline* timeline,
                             const fault::FaultModel* fault_model, SimControl* control,
                             UnitProfiler* profiler, MemProfiler* mem_profiler) {
  return LevelPolicy(graph, config, timeline, fault_model, control, profiler,
                     mem_profiler).run();
}

SimResult simulate_alchemist_events(const OpGraph& graph,
                                    const arch::ArchConfig& config,
                                    obs::Timeline* timeline,
                                    const fault::FaultModel* fault_model,
                                    SimControl* control, UnitProfiler* profiler,
                                    MemProfiler* mem_profiler) {
  return ReadyListPolicy(graph, config, timeline, fault_model, control, profiler,
                         mem_profiler).run();
}

}  // namespace alchemist::sim
