// Memory-system observability (memory.v1): byte conservation against
// sim.hbm.bytes, bit-identity of profiled runs, the keyswitch evk/ct-limb
// split against the closed-form digit sizes, the key-reuse ledger, the
// scratchpad residency model on synthetic graphs with analytic answers, and
// checkpoint/resume carrying the profile bit-identically on both engines.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "arch/config.h"
#include "metaop/metaop.h"
#include "metaop/op_graph.h"
#include "obs/memory.h"
#include "obs/report.h"
#include "sim/alchemist_sim.h"
#include "sim/checkpoint.h"
#include "sim/event_sim.h"
#include "sim/mem_profiler.h"
#include "sim/sim_control.h"
#include "workloads/ckks_subgraphs.h"
#include "workloads/ckks_workloads.h"
#include "workloads/tfhe_workloads.h"
#include "paper_inputs.h"

namespace alchemist {
namespace {

sim::SimResult run_engine(bool event, const metaop::OpGraph& g,
                          const arch::ArchConfig& cfg,
                          sim::MemProfiler* mem = nullptr,
                          sim::SimControl* control = nullptr,
                          const fault::FaultModel* faults = nullptr) {
  return event ? sim::simulate_alchemist_events(g, cfg, nullptr, faults,
                                                control, nullptr, mem)
               : sim::simulate_alchemist(g, cfg, nullptr, faults, control,
                                         nullptr, mem);
}

void expect_same_profile(const obs::MemoryProfile& a,
                         const obs::MemoryProfile& b) {
  EXPECT_EQ(a.enabled(), b.enabled());
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.attributed, b.attributed);
  ASSERT_EQ(a.keys.size(), b.keys.size());
  for (const auto& [id, k] : a.keys) {
    const auto it = b.keys.find(id);
    ASSERT_NE(it, b.keys.end()) << "key " << id;
    EXPECT_EQ(k.operand, it->second.operand);
    EXPECT_EQ(k.fetches, it->second.fetches);
    EXPECT_EQ(k.total_bytes, it->second.total_bytes);
    EXPECT_EQ(k.refetch_bytes, it->second.refetch_bytes);
  }
  EXPECT_EQ(a.bw_util, b.bw_util);  // exact: resumed runs are bit-identical
  EXPECT_EQ(a.occupancy_bytes, b.occupancy_bytes);
  EXPECT_EQ(a.scratch_capacity_bytes, b.scratch_capacity_bytes);
  EXPECT_EQ(a.scratch_peak_bytes, b.scratch_peak_bytes);
  EXPECT_EQ(a.evictions, b.evictions);
}

// Every streamed byte lands in exactly one (operand x op class) bucket: the
// attribution grand total equals sim.hbm.bytes EXACTLY, on both engines and
// across schemes (CKKS keyswitch/rotation/HELR, TFHE PBS).
TEST(MemProfiler, ByteConservationAcrossSchemesAndEngines) {
  const workloads::CkksWl w = workloads::CkksWl::paper(16);
  workloads::TfheWl t = workloads::TfheWl::set_i();
  t.batch = 4;
  std::vector<metaop::OpGraph> graphs;
  graphs.push_back(workloads::build_keyswitch(w));
  graphs.push_back(workloads::build_rotation(w));
  graphs.push_back(workloads::build_helr_iteration(w));
  graphs.push_back(workloads::build_pbs(t));

  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  for (const metaop::OpGraph& g : graphs) {
    for (bool event : {false, true}) {
      sim::MemProfiler mem;
      const sim::SimResult r = run_engine(event, g, cfg, &mem);
      ASSERT_TRUE(r.mem_profile.enabled()) << g.name;
      EXPECT_EQ(r.mem_profile.total_bytes,
                r.registry.counter(sim::metrics::kHbmBytes))
          << g.name;
      EXPECT_EQ(r.mem_profile.attributed_total(), r.mem_profile.total_bytes)
          << g.name << " event=" << event;
      EXPECT_EQ(r.mem_profile.total_cycles, r.cycles);
      EXPECT_EQ(r.mem_profile.scratch_capacity_bytes,
                static_cast<std::uint64_t>(cfg.total_sram_kb()) * 1024);
      EXPECT_EQ(r.mem_profile.bw_util.size(), sim::MemProfiler::kEpochs);
      EXPECT_EQ(r.mem_profile.occupancy_bytes.size(),
                sim::MemProfiler::kEpochs);
      for (const double v : r.mem_profile.bw_util) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
      }
    }
  }
}

// The profiler is an observer: attaching it must not perturb the simulated
// result in any counter or gauge, on HELR and the paper inputs, fault-free and
// under retried faults; neither may a SimControl that carries only a cancel
// token. The profile itself must agree across engines (both feed the same
// schedule-ordered stream model).
TEST(MemProfiler, ProfiledRunBitIdentical) {
  const metaop::OpGraph g =
      workloads::build_helr_iteration(workloads::CkksWl::paper(16));
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  const fault::FaultModel faults = retry_faults(cfg);
  std::vector<const metaop::OpGraph*> inputs = {&g};
  for (const metaop::OpGraph& p : paper_inputs()) inputs.push_back(&p);
  for (const metaop::OpGraph* in : inputs) {
    for (const fault::FaultModel* fm : {static_cast<const fault::FaultModel*>(nullptr), &faults}) {
      for (bool event : {false, true}) {
        SCOPED_TRACE(in->name + (fm ? " +faults" : "") + (event ? " event" : " level"));
        const sim::SimResult plain = run_engine(event, *in, cfg, nullptr, nullptr, fm);
        sim::MemProfiler mem;
        const sim::SimResult profiled = run_engine(event, *in, cfg, &mem, nullptr, fm);
        EXPECT_EQ(plain.cycles, profiled.cycles);
        EXPECT_EQ(plain.time_us, profiled.time_us);
        EXPECT_EQ(plain.registry.counters(), profiled.registry.counters());
        EXPECT_EQ(plain.registry.gauges(), profiled.registry.gauges());
        EXPECT_FALSE(plain.mem_profile.enabled());
        EXPECT_TRUE(profiled.mem_profile.enabled());
        sim::CancelToken token;
        sim::SimControl ctl;
        ctl.cancel = &token;
        const sim::SimResult cancellable = run_engine(event, *in, cfg, nullptr, &ctl, fm);
        EXPECT_EQ(plain.registry.counters(), cancellable.registry.counters());
        EXPECT_EQ(plain.registry.gauges(), cancellable.registry.gauges());
      }
    }
  }
  sim::MemProfiler m1, m2;
  const sim::SimResult level = run_engine(false, g, cfg, &m1);
  const sim::SimResult event = run_engine(true, g, cfg, &m2);
  // Attribution and ledger depend only on the op stream, not the engine.
  EXPECT_EQ(level.mem_profile.attributed, event.mem_profile.attributed);
  EXPECT_EQ(level.mem_profile.key_fetch_bytes(),
            event.mem_profile.key_fetch_bytes());
  EXPECT_EQ(level.mem_profile.key_refetch_bytes(),
            event.mem_profile.key_refetch_bytes());
}

// Keyswitch evk traffic against the closed-form dnum-digit key size: the one
// DecompPolyMult's descriptor carries exactly evk_stream_bytes(w, digits),
// all of it under the relinearization key id.
TEST(MemProfiler, KeyswitchEvkSplitMatchesClosedForm) {
  const workloads::CkksWl w = workloads::CkksWl::paper(16);
  const metaop::OpGraph g = workloads::build_keyswitch(w);
  const std::uint64_t evk_expected =
      workloads::evk_stream_bytes(w, w.active_digits());
  ASSERT_GT(evk_expected, 0u);

  sim::MemProfiler mem;
  const sim::SimResult r =
      run_engine(false, g, arch::ArchConfig::alchemist(), &mem);
  const auto evk_it = r.mem_profile.attributed.find("evk");
  ASSERT_NE(evk_it, r.mem_profile.attributed.end());
  std::uint64_t evk_total = 0;
  for (const auto& [cls, bytes] : evk_it->second) evk_total += bytes;
  EXPECT_EQ(evk_total, evk_expected);
  // All evk traffic feeds the DecompPolyMult class.
  EXPECT_EQ(evk_it->second.count(
                metaop::class_tag(metaop::OpClass::DecompPolyMult)),
            1u);

  const auto key_it = r.mem_profile.keys.find(workloads::kRelinKeyId);
  ASSERT_NE(key_it, r.mem_profile.keys.end());
  EXPECT_EQ(key_it->second.operand, "evk");
  EXPECT_EQ(key_it->second.total_bytes, evk_expected);
  // One keyswitch streams the key once: no reuse headroom.
  EXPECT_EQ(key_it->second.fetches, 1u);
  EXPECT_EQ(key_it->second.refetch_bytes, 0u);
}

// Key reuse across ops: HELR's rotation tree re-fetches shared keys (nonzero
// headroom); one TFHE PBS batch streams each bootstrapping-key step exactly
// once (zero headroom) — the ledger separates the two regimes.
TEST(MemProfiler, KeyReuseLedgerSeparatesRegimes) {
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  sim::MemProfiler mem_helr;
  const sim::SimResult helr = run_engine(
      false, workloads::build_helr_iteration(workloads::CkksWl::paper(16)),
      cfg, &mem_helr);
  EXPECT_GT(helr.mem_profile.key_refetch_bytes(), 0u);

  workloads::TfheWl t = workloads::TfheWl::set_i();
  t.batch = 2;
  sim::MemProfiler mem_pbs;
  const sim::SimResult pbs =
      run_engine(false, workloads::build_pbs(t), cfg, &mem_pbs);
  EXPECT_GT(pbs.mem_profile.key_fetch_bytes(), 0u);
  EXPECT_EQ(pbs.mem_profile.key_refetch_bytes(), 0u);
  for (const auto& [id, k] : pbs.mem_profile.keys) {
    EXPECT_GE(id, workloads::kTfheBkKeyBase);
    EXPECT_EQ(k.fetches, 1u);
  }
}

// --- Synthetic scratchpad graphs with analytic answers -----------------------

metaop::HighOp synth_op(metaop::OpKind kind, std::uint64_t hbm_bytes) {
  return {.kind = kind, .n = 64, .channels = 1, .hbm_bytes = hbm_bytes};
}

TEST(MemProfiler, SyntheticResidencyPeakAndEvictions) {
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  const double bpc = cfg.hbm_bytes_per_cycle();
  ASSERT_GT(bpc, 0.0);

  sim::MemProfiler mem;
  mem.begin(cfg);
  // Two working sets fetched back to back, both resident until cycle 10:
  // peak residency is their sum, and each is evicted exactly once.
  mem.record_op(synth_op(metaop::OpKind::DecompPolyMult, 1000),
                {{metaop::OperandClass::Evk, 1, 1000}},
                10.0);
  mem.record_op(synth_op(metaop::OpKind::Automorphism, 2000),
                {{metaop::OperandClass::RotationKey, 2, 2000}},
                10.0);
  obs::MemoryProfile out;
  mem.finish(16, out);

  EXPECT_EQ(out.scratch_peak_bytes, 3000u);  // analytic: both sets resident
  EXPECT_LE(out.scratch_peak_bytes, out.scratch_capacity_bytes);
  EXPECT_EQ(out.evictions, 2u);  // one per working set
  EXPECT_EQ(out.total_bytes, 3000u);
  EXPECT_EQ(out.attributed_total(), 3000u);
  EXPECT_EQ(out.keys.size(), 2u);
  EXPECT_EQ(out.keys.at(1).fetches, 1u);
  EXPECT_EQ(out.keys.at(2).fetches, 1u);
  EXPECT_EQ(out.key_refetch_bytes(), 0u);
  // Residency sampled at epoch starts: set 1 is already streaming at cycle 0,
  // both sets are resident mid-run, and after release (cycle 10) residency is
  // zero for the tail epochs.
  EXPECT_EQ(out.occupancy_bytes.front(), 1000u);
  bool saw_peak = false;
  for (const std::uint64_t occ : out.occupancy_bytes) {
    if (occ == 3000u) saw_peak = true;
  }
  EXPECT_TRUE(saw_peak);
  EXPECT_EQ(out.occupancy_bytes.back(), 0u);
}

TEST(MemProfiler, SyntheticLedgerRefetchAndRemainder) {
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  sim::MemProfiler mem;
  mem.begin(cfg);
  // Same key fetched twice: the second stream is pure re-fetch headroom.
  mem.record_op(synth_op(metaop::OpKind::DecompPolyMult, 1000),
                {{metaop::OperandClass::Evk, 7, 1000}},
                4.0);
  mem.record_op(synth_op(metaop::OpKind::DecompPolyMult, 1000),
                {{metaop::OperandClass::Evk, 7, 1000}},
                8.0);
  // Descriptor covers only part of the stream: the remainder must land in
  // ct_limb so conservation still holds.
  mem.record_op(synth_op(metaop::OpKind::Ntt, 1000),
                {{metaop::OperandClass::Twiddle, 0, 400}},
                10.0);
  // Over-claiming descriptors are clamped to the op's hbm_bytes.
  mem.record_op(synth_op(metaop::OpKind::PointwiseMult, 500),
                {{metaop::OperandClass::Plaintext, 0, 900}},
                12.0);
  obs::MemoryProfile out;
  mem.finish(16, out);

  EXPECT_EQ(out.total_bytes, 3500u);
  EXPECT_EQ(out.attributed_total(), 3500u);  // conservation despite clamp
  const auto& key = out.keys.at(7);
  EXPECT_EQ(key.fetches, 2u);
  EXPECT_EQ(key.total_bytes, 2000u);
  EXPECT_EQ(key.refetch_bytes, 1000u);
  EXPECT_EQ(out.attributed.at("twiddle").at("ntt"), 400u);
  EXPECT_EQ(out.attributed.at("ct_limb").at("ntt"), 600u);  // remainder
  EXPECT_EQ(out.attributed.at("plaintext").at("elementwise"), 500u);  // clamped
  EXPECT_EQ(out.evictions, 4u);
}

// A descriptor-free graph (legacy lowering) attributes everything to ct_limb
// rather than losing bytes.
TEST(MemProfiler, DescriptorFreeGraphFallsBackToCtLimb) {
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  sim::MemProfiler mem;
  mem.begin(cfg);
  mem.record_op(synth_op(metaop::OpKind::Bconv, 1234), {}, 5.0);
  obs::MemoryProfile out;
  mem.finish(8, out);
  EXPECT_EQ(out.total_bytes, 1234u);
  EXPECT_EQ(out.attributed.at("ct_limb").at("bconv"), 1234u);
  EXPECT_TRUE(out.keys.empty());
}

// --- Checkpoint/resume ------------------------------------------------------

// A run interrupted at a step boundary and resumed with a fresh profiler must
// produce a memory.v1 section bit-identical to the uninterrupted run, on both
// engines (level: serialized accumulators, schema v2; event: deterministic
// reconstruction from per-op state).
void check_resumed_profile_identical(bool event) {
  const metaop::OpGraph g =
      workloads::build_keyswitch(workloads::CkksWl::paper(16));
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  sim::MemProfiler ref_mem;
  const sim::SimResult ref = run_engine(event, g, cfg, &ref_mem);
  ASSERT_TRUE(ref.mem_profile.enabled());

  for (std::uint64_t budget = 1;; ++budget) {
    sim::Checkpoint cp;
    sim::SimControl ctl;
    ctl.max_steps = budget;
    ctl.checkpoint = &cp;
    sim::MemProfiler mem;
    try {
      const sim::SimResult full = run_engine(event, g, cfg, &mem, &ctl);
      expect_same_profile(full.mem_profile, ref.mem_profile);
      return;  // budget outlived the run: every prefix was tested
    } catch (const sim::CancelledError&) {
      ASSERT_TRUE(cp.valid());
    }
    sim::SimControl resume;
    resume.checkpoint = &cp;
    sim::MemProfiler resumed_mem;
    const sim::SimResult resumed = run_engine(event, g, cfg, &resumed_mem, &resume);
    EXPECT_EQ(resumed.cycles, ref.cycles);
    EXPECT_EQ(resumed.registry.counters(), ref.registry.counters());
    expect_same_profile(resumed.mem_profile, ref.mem_profile);
  }
}

TEST(MemProfiler, LevelEngineResumeKeepsProfileBitIdentical) {
  check_resumed_profile_identical(false);
}
TEST(MemProfiler, EventEngineResumeKeepsProfileBitIdentical) {
  check_resumed_profile_identical(true);
}

// Resuming WITHOUT a profiler from a checkpoint taken WITH one must still
// work (the v2 frame is parsed and discarded), and resuming WITH a profiler
// from a profiler-less checkpoint disables profiling rather than reporting a
// half-run profile.
TEST(MemProfiler, CheckpointPresenceMismatchDegradesSafely) {
  const metaop::OpGraph g =
      workloads::build_keyswitch(workloads::CkksWl::paper(16));
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  const sim::SimResult ref = run_engine(false, g, cfg);

  // Profiled first leg -> unprofiled resume.
  {
    sim::Checkpoint cp;
    sim::SimControl ctl;
    ctl.max_steps = 1;
    ctl.checkpoint = &cp;
    sim::MemProfiler mem;
    ASSERT_THROW(run_engine(false, g, cfg, &mem, &ctl), sim::CancelledError);
    sim::SimControl resume;
    resume.checkpoint = &cp;
    const sim::SimResult r = run_engine(false, g, cfg, nullptr, &resume);
    EXPECT_EQ(r.cycles, ref.cycles);
    EXPECT_FALSE(r.mem_profile.enabled());
  }
  // Unprofiled first leg -> profiled resume: a half-run profile would lie.
  {
    sim::Checkpoint cp;
    sim::SimControl ctl;
    ctl.max_steps = 1;
    ctl.checkpoint = &cp;
    ASSERT_THROW(run_engine(false, g, cfg, nullptr, &ctl), sim::CancelledError);
    sim::SimControl resume;
    resume.checkpoint = &cp;
    sim::MemProfiler mem;
    const sim::SimResult r = run_engine(false, g, cfg, &mem, &resume);
    EXPECT_EQ(r.cycles, ref.cycles);
    EXPECT_FALSE(r.mem_profile.enabled());
  }
}

// MetricsReport carries the profile as the "memory" section.
TEST(MemProfiler, MetricsReportEmitsMemorySection) {
  const metaop::OpGraph g =
      workloads::build_keyswitch(workloads::CkksWl::paper(16));
  sim::MemProfiler mem;
  const sim::SimResult r =
      run_engine(false, g, arch::ArchConfig::alchemist(), &mem);
  obs::MetricsReport report("test_mem_profiler");
  report.add(r);
  const std::string json = report.json();
  EXPECT_NE(json.find("\"memory\""), std::string::npos);
  EXPECT_NE(json.find("\"memory.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"attributed\""), std::string::npos);
  EXPECT_NE(json.find("\"key_refetch_bytes\""), std::string::npos);

  // Unprofiled reports keep their pre-existing shape.
  obs::MetricsReport plain("test_mem_profiler");
  plain.add(run_engine(false, g, arch::ArchConfig::alchemist()));
  EXPECT_EQ(plain.json().find("\"memory\""), std::string::npos);
}

}  // namespace
}  // namespace alchemist
