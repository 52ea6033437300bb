// Cycle-level simulator of the Alchemist accelerator: one engine, two
// scheduling policies.
//
// Machine model (§5 of the paper), shared by both policies:
//  * Every high-level op lowers to Meta-OP batches; a Meta-OP occupies one
//    core for n + 2 cycles on the num_units * cores_per_unit cores (slot
//    partitioning makes units independent, so work spreads uniformly).
//  * A 4-step NTT pays one global transpose through the transpose register
//    file (num_units * lanes words per cycle); half of it hides behind the
//    second phase, the other half serializes.
//  * Off-chip traffic (evk streaming) is prefetched in schedule order and
//    double-buffered against compute; only the excess stalls.
//
// The policies differ only in how ops are scheduled onto that machine:
//  * simulate_alchemist — level policy. ASAP level barriers over the DAG;
//    the ops of a level pool their Meta-OP work onto all cores, so only the
//    pooled tail wave is padded. HBM overlaps compute globally. A step is
//    one level.
//  * simulate_alchemist_events — ready-list policy. No barriers: an op is
//    ready when its dependencies retire, ready ops share the cores
//    work-conservingly, and an op retires once both its compute and its key
//    streaming are done. A step is one completion interval.
// Neither policy bounds the other. The ready list drops the barriers, but
// each op waits for its own keys, where the level policy overlaps all HBM
// traffic with all compute (fresh-key bootstrap: 208.275 ms ready-list,
// 208.241 ms level). Tests pin the two within about 10% of each other and
// above the work lower bound.
//
// The engine core owns everything else, identical under both policies:
//  * Op pricing — lowering, busy lanes, and the per-op sim.* counters.
//  * Fault modeling — an optional fault::FaultModel degrades the geometry
//    (masked units re-stripe the slots, DMR halves the cores) and injects
//    transients, priced per op under the model's mitigation policy. Each
//    op's draw is keyed by (seed, op index), so both policies inject the
//    same faults into the same ops and a seed reproduces a run whatever the
//    pricing order. The model is read-only here: one model may serve
//    concurrent and resumed runs. An inert model (zero rates, no mask,
//    non-DMR) is dropped, so the result is bit-identical to a fault-free run.
//  * Execution control — with a sim::SimControl, the engine polls the
//    CancelToken and step budget before each step, snapshots the policy's
//    cursor into the Checkpoint (every checkpoint_interval steps and at the
//    stop point), and throws CancelledError on stop. A valid incoming
//    checkpoint resumes the run bit-identically. The level cursor holds the
//    accumulators and registry, and the resumed run skips the levels it
//    covers; the ready-list cursor holds the event clock and per-op state
//    and rebuilds the deterministic per-op setup, fault draws included.
//  * Observability — none of it changes the result. Handed an enabled
//    Timeline: one slice per op on its class's unit-group track, plus HBM,
//    transpose, fault and scheduler slices. With SimControl::trace:
//    cycle-domain spans for the run, checkpoints, levels and ops. A
//    UnitProfiler fills SimResult.profile (utilization.v1); it is dropped on
//    resume, since the skipped steps ran elsewhere. A MemProfiler fills
//    SimResult.mem_profile (memory.v1) and survives resume: the level cursor
//    carries its state (schema v2), the ready list replays its feed. Resuming
//    a level checkpoint written without that state drops the profiler.
#pragma once

#include "arch/config.h"
#include "fault/fault_model.h"
#include "metaop/op_graph.h"
#include "obs/timeline.h"
#include "sim/result.h"
#include "sim/mem_profiler.h"
#include "sim/sim_control.h"
#include "sim/unit_profiler.h"

namespace alchemist::sim {

SimResult simulate_alchemist(const metaop::OpGraph& graph,
                             const arch::ArchConfig& config,
                             obs::Timeline* timeline = nullptr,
                             const fault::FaultModel* fault_model = nullptr,
                             SimControl* control = nullptr,
                             UnitProfiler* profiler = nullptr,
                             MemProfiler* mem_profiler = nullptr);

SimResult simulate_alchemist_events(const metaop::OpGraph& graph,
                                    const arch::ArchConfig& config,
                                    obs::Timeline* timeline = nullptr,
                                    const fault::FaultModel* fault_model = nullptr,
                                    SimControl* control = nullptr,
                                    UnitProfiler* profiler = nullptr,
                                    MemProfiler* mem_profiler = nullptr);

}  // namespace alchemist::sim
