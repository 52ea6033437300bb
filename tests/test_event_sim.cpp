#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "fault/fault_model.h"
#include "metaop/lowering.h"
#include "sim/alchemist_sim.h"
#include "sim/event_sim.h"
#include "workloads/ckks_workloads.h"
#include "workloads/tfhe_workloads.h"

namespace alchemist::sim {
namespace {

using metaop::HighOp;
using metaop::OpGraph;
using metaop::OpKind;

std::size_t add_op(OpGraph& g, OpKind kind, std::size_t n, std::size_t channels,
                   metaop::IndexList deps = {}, std::size_t pa = 0, std::uint64_t hbm = 0) {
  return g.add({.kind = kind, .n = n, .channels = channels, .param_a = pa, .hbm_bytes = hbm},
               deps);
}

TEST(EventSim, SingleOpMatchesAnalytical) {
  OpGraph g;
  g.name = "single";
  add_op(g, OpKind::PointwiseMult, 65536, 8);
  const auto cfg = arch::ArchConfig::alchemist();
  const SimResult level = simulate_alchemist(g, cfg);
  const SimResult event = simulate_alchemist_events(g, cfg);
  EXPECT_NEAR(static_cast<double>(event.cycles), static_cast<double>(level.cycles),
              static_cast<double>(level.cycles) * 0.02);
  EXPECT_NEAR(event.utilization, level.utilization, 0.05);
}

TEST(EventSim, NeverSlowerThanLevelModelOnRealWorkloads) {
  const auto cfg = arch::ArchConfig::alchemist();
  workloads::CkksWl w = workloads::CkksWl::paper(24);
  w.hbm_stream_fraction = 0.05;
  for (const OpGraph& g : {workloads::build_keyswitch(w), workloads::build_cmult(w),
                           workloads::build_rotation(w)}) {
    const SimResult level = simulate_alchemist(g, cfg);
    const SimResult event = simulate_alchemist_events(g, cfg);
    // One engine core prices the ops for both scheduling policies; they
    // differ only in scheduling (level barriers and transpose sharing vs a
    // ready list), so neither strictly dominates and they agree within 10%.
    const double ratio = static_cast<double>(event.cycles) / level.cycles;
    EXPECT_GT(ratio, 0.90) << g.name;
    EXPECT_LT(ratio, 1.10) << g.name;
    // Both stay above the absolute work lower bound.
    double work = 0;
    for (const auto& op : g.ops()) work += metaop::lower(op).core_cycles();
    EXPECT_GE(static_cast<double>(event.cycles),
              work / cfg.total_cores() * 0.95) << g.name;
  }
}

TEST(EventSim, AgreesOnTfhePbs) {
  const auto cfg = arch::ArchConfig::alchemist();
  const OpGraph g = workloads::build_pbs(workloads::TfheWl::set_i());
  const SimResult level = simulate_alchemist(g, cfg);
  const SimResult event = simulate_alchemist_events(g, cfg);
  // PBS is a long dependency chain: both models should land close together.
  const double ratio = static_cast<double>(event.cycles) / level.cycles;
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.1);
}

TEST(EventSim, PoliciesShareOpCostAndFaults) {
  // Both scheduling policies price ops through the engine core's one cost
  // function. Scheduling may move cycles, stalls and utilization, but never
  // the per-op counters, and the per-op fault draws (keyed by op index, not
  // pricing order) price to the same totals.
  const auto cfg = arch::ArchConfig::alchemist();
  fault::FaultConfig fc;
  fc.seed = 0x5eed'0001ull;
  fc.compute_fault_rate = fc.sram_fault_rate = fc.hbm_fault_rate = 5e-9;
  const fault::FaultModel fault(fc, cfg.num_units);
  const auto run = [&](const OpGraph& g, bool event) {
    return event ? simulate_alchemist_events(g, cfg, nullptr, &fault)
                 : simulate_alchemist(g, cfg, nullptr, &fault);
  };
  const auto fault_counters = [](const SimResult& r) {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [key, value] : r.registry.counters()) {
      if (key.rfind("fault.", 0) == 0) out.emplace(key, value);
    }
    return out;
  };
  const workloads::CkksWl w = workloads::CkksWl::paper(24);
  for (const OpGraph& g : {workloads::build_keyswitch(w),
                           workloads::build_pbs(workloads::TfheWl::set_i()),
                           workloads::build_helr_iteration(w)}) {
    const SimResult level = run(g, false);
    const SimResult event = run(g, true);
    for (const char* key : {"sim.ops", "sim.metaops", "sim.mults{lazy=true}",
                            "sim.hbm.bytes", "sim.busy_lane_cycles"}) {
      EXPECT_EQ(level.registry.counter_by_key(key), event.registry.counter_by_key(key))
          << g.name << " " << key;
    }
    const auto level_faults = fault_counters(level);
    EXPECT_GT(level_faults.at("fault.injected"), 0u) << g.name;
    EXPECT_EQ(level_faults, fault_counters(event)) << g.name;
  }
}

TEST(EventSim, HbmBoundOpIsBandwidthLimited) {
  OpGraph g;
  add_op(g, OpKind::DecompPolyMult, 4096, 2, {}, 4, /*hbm=*/200'000'000);
  const auto cfg = arch::ArchConfig::alchemist();
  const SimResult event = simulate_alchemist_events(g, cfg);
  EXPECT_GE(event.cycles, 200'000'000 / 1000);
}

TEST(EventSim, DependencyChainSerializes) {
  OpGraph chain, fork;
  const HighOp op{.kind = OpKind::PointwiseMult, .n = 65536, .channels = 4};
  std::size_t prev = chain.add(op);
  for (int i = 0; i < 3; ++i) prev = chain.add(op, {prev});
  for (int i = 0; i < 4; ++i) fork.add(op);
  const auto cfg = arch::ArchConfig::alchemist();
  // Same work; the chain cannot go faster than the fork.
  const SimResult rc = simulate_alchemist_events(chain, cfg);
  const SimResult rf = simulate_alchemist_events(fork, cfg);
  EXPECT_GE(rc.cycles, rf.cycles);
  OpGraph bad;
  bad.add(op, {3});
  EXPECT_THROW(simulate_alchemist_events(bad, cfg), std::invalid_argument);
}

TEST(EventSim, MergeGraphsShiftsDependencies) {
  OpGraph a, b;
  const std::size_t a0 = add_op(a, OpKind::PointwiseMult, 1024, 1);
  add_op(a, OpKind::PointwiseAdd, 1024, 1, {a0});
  add_op(b, OpKind::Ntt, 1024, 1);
  const OpGraph merged = merge_graphs({a, b}, "merged");
  // Proportional interleave: a0, b0, a1 - a1's dependency is remapped to a0.
  ASSERT_EQ(merged.ops().size(), 3u);
  EXPECT_EQ(merged.ops()[0].kind, OpKind::PointwiseMult);
  EXPECT_EQ(merged.ops()[1].kind, OpKind::Ntt);
  EXPECT_TRUE(merged.deps(1).empty());
  EXPECT_EQ(merged.ops()[2].kind, OpKind::PointwiseAdd);
  ASSERT_EQ(merged.deps(2).size(), 1u);
  EXPECT_EQ(merged.deps(2)[0], 0u);
}

TEST(EventSim, MergeGraphsPreservesStructure) {
  // §5.4 time-sharing: direct structural checks on merge_graphs. Streams are
  // distinguished by polynomial length so dependency edges can be verified to
  // stay intra-stream after interleaving.
  OpGraph a, b;
  a.name = "A";
  std::size_t prev = add_op(a, OpKind::PointwiseMult, 1024, 1);
  for (int i = 0; i < 4; ++i) {
    prev = add_op(a, OpKind::PointwiseAdd, 1024, 1, {prev});
  }
  b.name = "B";
  const std::size_t b0 = add_op(b, OpKind::Ntt, 2048, 1);
  const std::size_t b1 = add_op(b, OpKind::PointwiseMult, 2048, 1, {b0});
  add_op(b, OpKind::Intt, 2048, 1, {b1});

  const OpGraph merged = merge_graphs({a, b}, "merged");

  // Node counts are preserved, per stream and in total.
  ASSERT_EQ(merged.ops().size(), a.ops().size() + b.ops().size());
  std::size_t from_a = 0, from_b = 0;
  for (const HighOp& op : merged.ops()) {
    (op.n == 1024 ? from_a : from_b)++;
  }
  EXPECT_EQ(from_a, a.ops().size());
  EXPECT_EQ(from_b, b.ops().size());

  // Dependencies point backwards and never cross streams.
  for (std::size_t i = 0; i < merged.ops().size(); ++i) {
    for (std::size_t dep : merged.deps(i)) {
      ASSERT_LT(dep, i);
      EXPECT_EQ(merged.ops()[dep].n, merged.ops()[i].n)
          << "dependency crossed streams at op " << i;
    }
  }
  // Each stream keeps its internal schedule order (chain lengths survive).
  std::vector<std::size_t> a_positions;
  for (std::size_t i = 0; i < merged.ops().size(); ++i) {
    if (merged.ops()[i].n == 1024) a_positions.push_back(i);
  }
  EXPECT_TRUE(std::is_sorted(a_positions.begin(), a_positions.end()));

  // Interleaved execution is never slower than running the parts end to end.
  const auto cfg = arch::ArchConfig::alchemist();
  const std::uint64_t sum = simulate_alchemist_events(a, cfg).cycles +
                            simulate_alchemist_events(b, cfg).cycles;
  EXPECT_LE(simulate_alchemist_events(merged, cfg).cycles, sum);
}

TEST(EventSim, TimeSharingOverlapsComputeWithKeyStreaming) {
  // The paper's time-sharing scheduling (§5.4): co-scheduling an HBM-bound
  // CKKS keyswitch with a compute-bound TFHE PBS beats running them
  // back-to-back — only possible on a unified accelerator.
  const auto cfg = arch::ArchConfig::alchemist();
  workloads::CkksWl ckks_wl = workloads::CkksWl::paper(44);  // fresh keys: HBM-bound
  const OpGraph ks = workloads::build_keyswitch(ckks_wl);
  workloads::TfheWl tfhe_wl = workloads::TfheWl::set_i();
  tfhe_wl.hbm_stream_fraction = 0.0;  // BK cached: compute-bound
  const OpGraph pbs = workloads::build_pbs(tfhe_wl);

  const double t_seq = simulate_alchemist_events(ks, cfg).time_us +
                       simulate_alchemist_events(pbs, cfg).time_us;
  const double t_shared =
      simulate_alchemist_events(merge_graphs({ks, pbs}, "co-scheduled"), cfg).time_us;
  EXPECT_LT(t_shared, 0.85 * t_seq);
}

}  // namespace
}  // namespace alchemist::sim
