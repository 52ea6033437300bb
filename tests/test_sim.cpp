#include <gtest/gtest.h>

#include "arch/baselines.h"
#include "metaop/mult_count.h"
#include "sim/alchemist_sim.h"
#include "sim/baseline_sim.h"
#include "sim/cpu_model.h"
#include "workloads/ckks_workloads.h"
#include "workloads/tfhe_workloads.h"

namespace alchemist::sim {
namespace {

using metaop::HighOp;
using metaop::OpGraph;
using metaop::OpKind;

std::size_t add_op(OpGraph& g, OpKind kind, std::size_t n, std::size_t channels,
                   metaop::IndexList deps = {}, std::size_t pa = 0, std::size_t pb = 0,
                   std::uint64_t hbm = 0) {
  return g.add({.kind = kind,
                .n = n,
                .channels = channels,
                .param_a = pa,
                .param_b = pb,
                .hbm_bytes = hbm},
               deps);
}

TEST(AlchemistSim, SingleElementwiseOpCycles) {
  OpGraph g;
  g.name = "ew";
  // 16384 coefficients over 8 channels: 16384/8*8 = 16384 Meta-OPs of n=1.
  add_op(g, OpKind::PointwiseMult, 16384, 8);
  const auto cfg = arch::ArchConfig::alchemist();
  const SimResult r = simulate_alchemist(g, cfg);
  // 16384 Meta-OPs over 2048 cores = 8 waves of (1+2) cycles.
  EXPECT_EQ(r.cycles, 8u * 3u);
  EXPECT_NEAR(r.utilization, 1.0, 1e-9);  // perfectly filled waves
  EXPECT_EQ(r.mem_stall_cycles, 0u);
}

TEST(AlchemistSim, TailWavesLowerUtilization) {
  OpGraph g;
  // 2049 Meta-OPs on 2048 cores: 6147 core-cycles pool into ceil(6147/2048)
  // = 4 cycles; the padded tail shows up as lost utilization.
  add_op(g, OpKind::PointwiseMult, 8 * 2049, 1);
  const SimResult r = simulate_alchemist(g, arch::ArchConfig::alchemist());
  EXPECT_EQ(r.cycles, 4u);
  EXPECT_NEAR(r.utilization, 2049.0 * 3.0 / (4.0 * 2048.0), 1e-6);
}

TEST(AlchemistSim, DependenciesSerializeLevels) {
  OpGraph chain, parallel;
  const HighOp op{.kind = OpKind::PointwiseMult, .n = 16384, .channels = 1};
  const std::size_t a = chain.add(op);
  chain.add(op, {a});
  parallel.add(op);
  parallel.add(op);
  const auto cfg = arch::ArchConfig::alchemist();
  const SimResult rc = simulate_alchemist(chain, cfg);
  const SimResult rp = simulate_alchemist(parallel, cfg);
  // Same work either way; both serialize on cores here, same cycle count.
  EXPECT_EQ(rc.cycles, rp.cycles);
  // A forward dependency index is rejected.
  OpGraph bad;
  bad.add(op, {5});
  EXPECT_THROW(simulate_alchemist(bad, cfg), std::invalid_argument);
}

TEST(AlchemistSim, HbmBoundLevelStalls) {
  OpGraph g;
  // Tiny compute, huge key traffic: wall time should be HBM-bound.
  add_op(g, OpKind::DecompPolyMult, 4096, 2, {}, 4, 0,
                /*hbm=*/100'000'000);
  const auto cfg = arch::ArchConfig::alchemist();
  const SimResult r = simulate_alchemist(g, cfg);
  EXPECT_GT(r.mem_stall_cycles, 0u);
  EXPECT_GE(r.cycles, 100'000'000 / 1000);  // bytes / (bytes per cycle)
  EXPECT_LT(r.utilization, 0.1);
}

TEST(AlchemistSim, NttPaysTranspose) {
  OpGraph with_ntt, with_ew;
  add_op(with_ntt, OpKind::Ntt, 65536, 1);
  add_op(with_ew, OpKind::PointwiseMult, 65536, 1);
  const auto cfg = arch::ArchConfig::alchemist();
  EXPECT_GT(simulate_alchemist(with_ntt, cfg).transpose_cycles, 0u);
  EXPECT_EQ(simulate_alchemist(with_ew, cfg).transpose_cycles, 0u);
}

TEST(AlchemistSim, UtilizationStaysHighOnMixedWorkload) {
  // The headline claim: the unified design keeps overall utilization high
  // (~0.86 in the paper) across the mixed CKKS keyswitch workload.
  workloads::CkksWl w = workloads::CkksWl::paper(44);
  w.hbm_stream_fraction = 0.0;  // keys resident/regenerated (app steady state)
  const SimResult r = simulate_alchemist(workloads::build_keyswitch(w),
                                         arch::ArchConfig::alchemist());
  EXPECT_GT(r.utilization, 0.75);
  EXPECT_LE(r.utilization, 1.0);

  // With fresh keys streaming in full, the op becomes bandwidth-bound at
  // ~1 TB/s — the regime Table 7's ~7.2k keyswitch/s sits in.
  workloads::CkksWl fresh = workloads::CkksWl::paper(44);
  const SimResult rf = simulate_alchemist(workloads::build_keyswitch(fresh),
                                          arch::ArchConfig::alchemist());
  EXPECT_GT(rf.mem_stall_cycles, 0u);
  const double ops_per_s = 1e6 / rf.time_us;
  EXPECT_GT(ops_per_s, 5000);
  EXPECT_LT(ops_per_s, 12000);
}

TEST(BaselineSim, ModularDesignIdlesOnMixedWorkload) {
  workloads::CkksWl w = workloads::CkksWl::paper(44);
  w.hbm_stream_fraction = 0.05;  // compute-bound regime (keys resident)
  const OpGraph g = workloads::build_keyswitch(w);
  const SimResult sharp = simulate_modular(g, arch::spec_by_name("SHARP"));
  const SimResult alch = simulate_alchemist(g, arch::ArchConfig::alchemist());
  // Dedicated engines idle while the dominant class runs: overall utilization
  // must be visibly lower than the unified design's (Fig. 1 / Fig. 7b).
  EXPECT_LT(sharp.utilization, alch.utilization);
  EXPECT_GT(sharp.utilization, 0.0);
}

TEST(BaselineSim, MissingEngineIsAnError) {
  // Matcha has no Bconv engine; a CKKS keyswitch cannot run on it.
  const workloads::CkksWl w = workloads::CkksWl::paper(24);
  const OpGraph g = workloads::build_keyswitch(w);
  EXPECT_THROW(simulate_modular(g, arch::spec_by_name("Matcha")),
               std::invalid_argument);
}

TEST(BaselineSim, TfheRunsOnLogicAccelerators) {
  const workloads::TfheWl w = workloads::TfheWl::set_i();
  const OpGraph g = workloads::build_pbs(w);
  const SimResult matcha = simulate_modular(g, arch::spec_by_name("Matcha"));
  const SimResult strix = simulate_modular(g, arch::spec_by_name("Strix"));
  EXPECT_GT(matcha.cycles, 0u);
  EXPECT_GT(strix.cycles, 0u);
  EXPECT_LE(matcha.utilization, 1.0);
}

TEST(BaselineSim, BaselinesPayEagerReductionCost) {
  const workloads::CkksWl w = workloads::CkksWl::paper(24);
  const OpGraph g = workloads::build_cmult(w);
  const SimResult sharp = simulate_modular(g, arch::spec_by_name("SHARP"));
  const SimResult alch = simulate_alchemist(g, arch::ArchConfig::alchemist());
  // origin counting vs lazy-reduction counting (Fig. 7a).
  EXPECT_GT(sharp.total_mults, alch.total_mults);
}

TEST(CpuModel, CalibrationAndScaling) {
  const double ns = cpu_ns_per_modmul();
  EXPECT_GT(ns, 0.01);
  EXPECT_LT(ns, 100.0);
  const workloads::CkksWl w = workloads::CkksWl::paper(44);
  const double t_small = cpu_time_us(workloads::build_hadd(w));
  const double t_big = cpu_time_us(workloads::build_cmult(w));
  EXPECT_GT(t_big, t_small);
  // Hadd has no multiplies: effectively free in this model.
  EXPECT_EQ(metaop::count(workloads::build_hadd(w)).origin, 0u);
}

TEST(Sim, CmultFasterThanCpuByOrdersOfMagnitude) {
  const workloads::CkksWl w = workloads::CkksWl::paper(44);
  const OpGraph g = workloads::build_cmult(w);
  const SimResult r = simulate_alchemist(g, arch::ArchConfig::alchemist());
  const double cpu_us = cpu_time_us(g);
  // Table 7: four orders of magnitude.
  EXPECT_GT(cpu_us / r.time_us, 1000.0);
}

}  // namespace
}  // namespace alchemist::sim
