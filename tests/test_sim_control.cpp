// Cooperative cancellation, deadlines and checkpoint/resume for both
// simulator engines. The load-bearing property pinned here: a run that is
// interrupted at an arbitrary step boundary and resumed from its checkpoint
// produces a SimResult bit-identical to an uninterrupted run — including
// under an active fault model, whose per-op draws are keyed by op index and
// so need no replay: one model serves the reference, interrupted and
// resumed runs alike.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "arch/config.h"
#include "common/serdes.h"
#include "fault/fault_model.h"
#include "metaop/op_graph.h"
#include "sim/alchemist_sim.h"
#include "sim/checkpoint.h"
#include "sim/event_sim.h"
#include "sim/sim_control.h"
#include "workloads/bfv_workloads.h"
#include "workloads/ckks_workloads.h"
#include "workloads/tfhe_workloads.h"

namespace alchemist {
namespace {

metaop::OpGraph keyswitch_graph() {
  return workloads::build_keyswitch(workloads::CkksWl::paper(16));
}

sim::SimResult run_engine(bool event, const metaop::OpGraph& g,
                          const arch::ArchConfig& cfg,
                          const fault::FaultModel* fault = nullptr,
                          sim::SimControl* control = nullptr) {
  return event ? sim::simulate_alchemist_events(g, cfg, nullptr, fault, control)
               : sim::simulate_alchemist(g, cfg, nullptr, fault, control);
}

void expect_same_result(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.time_us, b.time_us);  // exact: resumed runs must be bit-identical
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.registry.counters(), b.registry.counters());
}

TEST(CancelToken, StopReasons) {
  sim::CancelToken token;
  EXPECT_EQ(token.should_stop(), sim::StopReason::None);

  token.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  EXPECT_EQ(token.should_stop(), sim::StopReason::DeadlineExpired);
  token.clear_deadline();
  EXPECT_EQ(token.should_stop(), sim::StopReason::None);

  token.request_cancel();
  EXPECT_EQ(token.should_stop(), sim::StopReason::Cancelled);
  // Cancellation wins over an expired deadline.
  token.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  EXPECT_EQ(token.should_stop(), sim::StopReason::Cancelled);
}

TEST(SimControl, PreCancelledRunStopsAtStepZero) {
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  sim::CancelToken token;
  token.request_cancel();
  sim::Checkpoint cp;
  sim::SimControl ctl;
  ctl.cancel = &token;
  ctl.checkpoint = &cp;
  for (bool event : {false, true}) {
    cp.clear();
    try {
      run_engine(event, g, cfg, nullptr, &ctl);
      FAIL() << "expected CancelledError";
    } catch (const sim::CancelledError& e) {
      EXPECT_EQ(e.reason(), sim::StopReason::Cancelled);
      EXPECT_EQ(e.step(), 0u);
    }
    EXPECT_TRUE(cp.valid());
    EXPECT_EQ(cp.step, 0u);
  }
}

TEST(SimControl, UnlimitedBudgetMatchesPlainRun) {
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  for (bool event : {false, true}) {
    const sim::SimResult ref = run_engine(event, g, cfg);
    sim::SimControl ctl;  // no token, no budget, no checkpoint
    expect_same_result(run_engine(event, g, cfg, nullptr, &ctl), ref);
  }
}

void check_resume_bit_identical(bool event, bool with_fault) {
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  fault::FaultConfig fc;
  fc.seed = 0xdead'beefull;
  fc.compute_fault_rate = fc.sram_fault_rate = fc.hbm_fault_rate = 5e-9;

  // One model for every run below: it holds no draw state.
  const fault::FaultModel model(fc, cfg.num_units);
  const fault::FaultModel* fault = with_fault ? &model : nullptr;
  const sim::SimResult ref = run_engine(event, g, cfg, fault);

  // Interrupt after every possible number of steps and resume each time.
  for (std::uint64_t budget = 1;; ++budget) {
    sim::Checkpoint cp;
    sim::SimControl ctl;
    ctl.max_steps = budget;
    ctl.checkpoint = &cp;
    sim::SimResult result;
    try {
      result = run_engine(event, g, cfg, fault, &ctl);
      expect_same_result(result, ref);  // budget outlived the run
      EXPECT_GE(budget, 1u);
      return;
    } catch (const sim::CancelledError& e) {
      ASSERT_EQ(e.reason(), sim::StopReason::StepBudget);
      ASSERT_TRUE(cp.valid());
      // The level engine's cursor counts levels (== executed steps); the
      // event engine's counts completed ops, which can run ahead of the
      // iteration budget when one interval completes several ops.
      ASSERT_GE(cp.step, event ? 1u : budget);
      if (!event) {
        ASSERT_EQ(cp.step, budget);
      }
    }
    // Resume with no budget: must land exactly on the reference.
    sim::SimControl resume;
    resume.checkpoint = &cp;
    expect_same_result(run_engine(event, g, cfg, fault, &resume), ref);
  }
}

TEST(SimControl, LevelEngineResumeBitIdentical) {
  check_resume_bit_identical(false, false);
}
TEST(SimControl, LevelEngineResumeBitIdenticalWithFaults) {
  check_resume_bit_identical(false, true);
}
TEST(SimControl, EventEngineResumeBitIdentical) {
  check_resume_bit_identical(true, false);
}
TEST(SimControl, EventEngineResumeBitIdenticalWithFaults) {
  check_resume_bit_identical(true, true);
}

TEST(SimControl, ChainedResumesReachReference) {
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  const sim::SimResult ref = sim::simulate_alchemist(g, cfg);

  sim::Checkpoint cp;
  sim::SimResult result;
  bool done = false;
  std::size_t legs = 0;
  while (!done) {
    sim::SimControl ctl;
    ctl.max_steps = 2;  // fresh two-step budget per leg
    ctl.checkpoint = &cp;
    try {
      result = sim::simulate_alchemist(g, cfg, nullptr, nullptr, &ctl);
      done = true;
    } catch (const sim::CancelledError&) {
      ASSERT_TRUE(cp.valid());
    }
    ASSERT_LT(++legs, 100u) << "chained resume did not terminate";
  }
  EXPECT_GT(legs, 1u) << "workload too small to exercise chained resume";
  expect_same_result(result, ref);
}

TEST(SimControl, IntervalCheckpointResumes) {
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  const sim::SimResult ref = sim::simulate_alchemist(g, cfg);

  // A completed run leaves its last interval snapshot behind; resuming from
  // it replays only the tail and still matches the reference.
  sim::Checkpoint cp;
  sim::SimControl ctl;
  ctl.checkpoint_interval = 1;
  ctl.checkpoint = &cp;
  expect_same_result(sim::simulate_alchemist(g, cfg, nullptr, nullptr, &ctl), ref);
  ASSERT_TRUE(cp.valid());
  EXPECT_GT(cp.step, 0u);

  sim::SimControl resume;
  resume.checkpoint = &cp;
  expect_same_result(sim::simulate_alchemist(g, cfg, nullptr, nullptr, &resume), ref);
}

TEST(Checkpoint, SerializeRoundtrip) {
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  sim::Checkpoint cp;
  sim::SimControl ctl;
  ctl.max_steps = 1;
  ctl.checkpoint = &cp;
  EXPECT_THROW(sim::simulate_alchemist(g, cfg, nullptr, nullptr, &ctl),
               sim::CancelledError);
  ASSERT_TRUE(cp.valid());

  const std::vector<std::uint8_t> bytes = cp.serialize();
  const sim::Checkpoint back = sim::Checkpoint::deserialize(bytes);
  EXPECT_EQ(back.engine, cp.engine);
  EXPECT_EQ(back.workload, cp.workload);
  EXPECT_EQ(back.op_count, cp.op_count);
  EXPECT_EQ(back.fingerprint, cp.fingerprint);
  EXPECT_EQ(back.step, cp.step);
  EXPECT_EQ(back.state, cp.state);

  // A deserialized checkpoint must actually resume.
  sim::Checkpoint resumable = back;
  sim::SimControl resume;
  resume.checkpoint = &resumable;
  expect_same_result(sim::simulate_alchemist(g, cfg, nullptr, nullptr, &resume),
                     sim::simulate_alchemist(g, cfg));
}

TEST(Checkpoint, RejectsCorruption) {
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  sim::Checkpoint cp;
  sim::SimControl ctl;
  ctl.max_steps = 1;
  ctl.checkpoint = &cp;
  EXPECT_THROW(sim::simulate_alchemist(g, cfg, nullptr, nullptr, &ctl),
               sim::CancelledError);
  const std::vector<std::uint8_t> bytes = cp.serialize();

  // Empty and truncated buffers.
  EXPECT_THROW(sim::Checkpoint::deserialize({}), sim::CheckpointError);
  for (std::size_t keep : {1ul, 8ul, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    EXPECT_THROW(sim::Checkpoint::deserialize(cut), sim::CheckpointError);
  }
  // Every single-byte flip must be caught (magic, framing or the footer).
  for (std::size_t i = 0; i < bytes.size(); i += 7) {
    std::vector<std::uint8_t> bad = bytes;
    bad[i] ^= 0x40;
    EXPECT_THROW(sim::Checkpoint::deserialize(bad), sim::CheckpointError)
        << "flip at byte " << i << " not detected";
  }
  // Trailing garbage.
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(sim::Checkpoint::deserialize(padded), sim::CheckpointError);
}

TEST(Checkpoint, RejectsMismatchedResume) {
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  sim::Checkpoint cp;
  sim::SimControl ctl;
  ctl.max_steps = 1;
  ctl.checkpoint = &cp;
  EXPECT_THROW(sim::simulate_alchemist(g, cfg, nullptr, nullptr, &ctl),
               sim::CancelledError);
  ASSERT_TRUE(cp.valid());

  // Wrong engine.
  {
    sim::Checkpoint c = cp;
    sim::SimControl r;
    r.checkpoint = &c;
    EXPECT_THROW(sim::simulate_alchemist_events(g, cfg, nullptr, nullptr, &r),
                 sim::CheckpointError);
  }
  // Wrong workload.
  {
    const metaop::OpGraph other =
        workloads::build_pmult(workloads::CkksWl::paper(16));
    sim::Checkpoint c = cp;
    sim::SimControl r;
    r.checkpoint = &c;
    EXPECT_THROW(sim::simulate_alchemist(other, cfg, nullptr, nullptr, &r),
                 sim::CheckpointError);
  }
  // Wrong machine geometry.
  {
    arch::ArchConfig smaller = cfg;
    smaller.num_units = cfg.num_units / 2;
    sim::Checkpoint c = cp;
    sim::SimControl r;
    r.checkpoint = &c;
    EXPECT_THROW(sim::simulate_alchemist(g, smaller, nullptr, nullptr, &r),
                 sim::CheckpointError);
  }
  // Fault configuration appeared that the checkpoint was not taken under.
  {
    fault::FaultConfig fc;
    fc.compute_fault_rate = 1e-9;
    fault::FaultModel fm(fc, cfg.num_units);
    sim::Checkpoint c = cp;
    sim::SimControl r;
    r.checkpoint = &c;
    EXPECT_THROW(sim::simulate_alchemist(g, cfg, nullptr, &fm, &r),
                 sim::CheckpointError);
  }
}

// The cursor blobs are part of checkpoint schema v2: a checkpoint written by
// an earlier build must still resume. Pin the FNV-1a digest of
// Checkpoint::state after 1-3 steps on both engines, with and without faults,
// so any drift in either layout (or in the state it snapshots) fails here
// instead of silently breaking old checkpoints. Neither cursor holds fault
// draw state. The level cursor carries the fault totals, so its fault-on
// pins also fix the per-op fault draw. The event cursor carries only each
// op's retried work, which at 1e-6 reaches max_retries on every op whatever
// the draw, so its fault-on pins run at 1e-8, where a few ops retry and a
// second seed moves every pin.
TEST(Checkpoint, CursorBytesArePinned) {
  struct Pin {
    bool event;
    bool faults;
    std::uint64_t steps;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {false, false, 1, 0xcd28182e66c209f9ull},
      {false, false, 2, 0x6053febde5599d52ull},
      {false, false, 3, 0x1654f776fb23bd0eull},
      {false, true, 1, 0x4236ca6460bc4666ull},
      {false, true, 2, 0xa3499cd1676ccd28ull},
      {false, true, 3, 0x263ef405cf47a4dfull},
      {true, false, 1, 0x4f5335d318335a63ull},
      {true, false, 2, 0x41c2e4d2d795055cull},
      {true, false, 3, 0xae424cfeb4f3ed21ull},
      {true, true, 1, 0x0a7fda2943fac62aull},
      {true, true, 2, 0x0d19816105dca6e1ull},
      {true, true, 3, 0xd4d15888eafc471cull},
  };
  const metaop::OpGraph g = keyswitch_graph();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  // Rates high enough, under detect-retry, that faults reach both blobs:
  // the level cursor carries the fault totals, the event cursor the retried
  // per-op work.
  auto faults = [&](bool event, std::uint64_t seed) {
    fault::FaultConfig fc;
    fc.seed = seed;
    fc.compute_fault_rate = fc.sram_fault_rate = fc.hbm_fault_rate = event ? 1e-8 : 1e-6;
    fc.policy = fault::Policy::DetectRetry;
    return std::make_unique<fault::FaultModel>(fc, cfg.num_units);
  };
  auto cursor = [&](bool event, const fault::FaultModel* fm, std::uint64_t steps) {
    sim::Checkpoint cp;
    sim::SimControl ctl;
    ctl.max_steps = steps;
    ctl.checkpoint = &cp;
    EXPECT_THROW(run_engine(event, g, cfg, fm, &ctl), sim::CancelledError);
    EXPECT_TRUE(cp.valid());
    EXPECT_EQ(cp.engine, event ? sim::kEventEngine : sim::kLevelEngine);
    return fnv1a(cp.state);
  };
  for (const Pin& p : pins) {
    std::unique_ptr<fault::FaultModel> fm;
    if (p.faults) fm = faults(p.event, 0xdead'beefull);
    EXPECT_EQ(cursor(p.event, fm.get(), p.steps), p.digest)
        << (p.event ? "event" : "level") << (p.faults ? " +faults" : "")
        << " after " << p.steps << " steps";
    if (p.event && p.faults) {
      EXPECT_NE(cursor(true, faults(true, 0x5eedull).get(), p.steps), p.digest)
          << "event +faults after " << p.steps << " steps does not depend on the draw";
    }
  }
}

// --- paper-schedule registries -----------------------------------------------
// The chip_paper schedules of bench/e2e: the level policy on the five paper
// graphs and the ready-list policy on the cross-scheme mix. The digests cover
// every counter and gauge key and value, so a change to how the engine core
// books its per-op counters or lowers its ops cannot move a single registry
// entry unnoticed.

enum PaperSched { kBootFresh, kBoot, kHelr, kLola, kPbsI, kNumPaperLevel };

struct PaperGraphs {
  metaop::OpGraph level[kNumPaperLevel];
  metaop::OpGraph xs;
};

// Built as bench/e2e builds them.
PaperGraphs build_paper_graphs() {
  auto resident = [](std::size_t level) {
    workloads::CkksWl w = workloads::CkksWl::paper(level);
    w.hbm_stream_fraction = 0.05;
    return w;
  };
  workloads::TfheWl pbs = workloads::TfheWl::set_i();
  const double bk_mb = pbs.bk_bytes() / 1e6;
  pbs.hbm_stream_fraction = bk_mb <= 33.0 ? 0.0 : 1.0 - 33.0 / bk_mb;
  PaperGraphs g;
  g.level[kBootFresh] =
      workloads::build_bootstrapping(workloads::CkksWl::paper(44), false);
  g.level[kBoot] = workloads::build_bootstrapping(resident(44), true);
  g.level[kHelr] = workloads::build_helr_iteration(resident(30));
  g.level[kLola] = workloads::build_lola_mnist(true);
  g.level[kPbsI] = workloads::build_pbs(pbs);
  const metaop::OpGraph& p = g.level[kPbsI];
  g.xs = sim::merge_graphs({g.level[kBoot], p, p, p, p}, "xs");
  return g;
}

// Once per process, then only read.
const PaperGraphs& paper_graphs() {
  static const PaperGraphs graphs = build_paper_graphs();
  return graphs;
}

// FNV-1a over every counter and gauge, in the registry's canonical key order.
std::uint64_t registry_digest(const obs::Registry& reg) {
  std::vector<std::uint8_t> bytes;
  auto put = [&](const std::string& key, std::uint64_t value) {
    bytes.insert(bytes.end(), key.begin(), key.end());
    bytes.push_back(0);
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  };
  for (const auto& [key, value] : reg.counters()) put(key, value);
  bytes.push_back(0xff);
  for (const auto& [key, value] : reg.gauges()) {
    std::uint64_t word = 0;
    std::memcpy(&word, &value, sizeof(word));
    put(key, word);
  }
  return fnv1a(bytes);
}

// Level policy on the five schedules, then the ready-list policy on xs.
constexpr std::uint64_t kPaperDigests[kNumPaperLevel + 1] = {
    0xb7bef570b16f1d11ull, 0x9e123b2b36aca344ull, 0x1c461a350ff43815ull,
    0x51f99c0b89841879ull, 0xf8048dad1cee93b4ull, 0x7a9c5d5238dd4e97ull,
};

std::vector<std::uint64_t> paper_digests() {
  const PaperGraphs& g = paper_graphs();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  std::vector<std::uint64_t> out;
  for (const metaop::OpGraph& level : g.level) {
    out.push_back(registry_digest(sim::simulate_alchemist(level, cfg).registry));
  }
  out.push_back(registry_digest(sim::simulate_alchemist_events(g.xs, cfg).registry));
  return out;
}

TEST(SimControl, PaperScheduleRegistriesPinned) {
  const std::vector<std::uint64_t> digests = paper_digests();
  for (std::size_t s = 0; s < digests.size(); ++s) {
    EXPECT_EQ(digests[s], kPaperDigests[s]) << "schedule " << s << std::hex
                                            << " digest 0x" << digests[s];
  }

  // A level run on boot_fresh that checkpoints every 64 steps, stops on a
  // step budget and resumes lands on the uninterrupted registry.
  const metaop::OpGraph& g = paper_graphs().level[kBootFresh];
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  sim::Checkpoint cp;
  sim::SimControl ctl;
  ctl.checkpoint_interval = 64;
  ctl.max_steps = 1000;
  ctl.checkpoint = &cp;
  EXPECT_THROW(sim::simulate_alchemist(g, cfg, nullptr, nullptr, &ctl),
               sim::CancelledError);
  ASSERT_TRUE(cp.valid());
  EXPECT_EQ(cp.step, 1000u);
  sim::SimControl resume;
  resume.checkpoint = &cp;
  EXPECT_EQ(registry_digest(sim::simulate_alchemist(g, cfg, nullptr, nullptr, &resume)
                                .registry),
            kPaperDigests[kBootFresh]);
}

// --- paper-schedule graphs ---------------------------------------------------
// FNV-1a over a graph's name and, per op in index order, its shape, HBM bytes,
// dependency list and transfer list. Pins the graphs the registries above are
// computed from, so a change to how graphs are stored, built or merged cannot
// move a single node, edge or descriptor unnoticed.
std::uint64_t graph_digest(const metaop::OpGraph& g) {
  std::vector<std::uint8_t> bytes(g.name.begin(), g.name.end());
  bytes.push_back(0);
  auto put = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  for (std::size_t i = 0; i < g.ops().size(); ++i) {
    const metaop::HighOp& op = g.ops()[i];
    put(static_cast<std::uint64_t>(op.kind));
    put(op.n);
    put(op.channels);
    put(op.param_a);
    put(op.param_b);
    put(op.hbm_bytes);
    put(g.deps(i).size());
    for (std::size_t dep : g.deps(i)) put(dep);
    put(g.transfers(i).size());
    for (const metaop::TransferDesc& t : g.transfers(i)) {
      put(static_cast<std::uint64_t>(t.operand_class));
      put(t.key_id);
      put(t.bytes);
    }
  }
  return fnv1a(bytes);
}

// Builds every pinned graph afresh and digests it: the chip_paper schedules
// and xs, the ablation_scheduler cases and merges, LoLa with plaintext
// weights and the BFV multiply.
std::vector<std::uint64_t> pinned_graph_digests() {
  std::vector<std::uint64_t> out;
  const PaperGraphs paper = build_paper_graphs();
  for (const metaop::OpGraph& g : paper.level) out.push_back(graph_digest(g));
  out.push_back(graph_digest(paper.xs));

  workloads::CkksWl w = workloads::CkksWl::paper(44);
  w.hbm_stream_fraction = 0.05;
  out.push_back(graph_digest(workloads::build_keyswitch(w)));
  out.push_back(graph_digest(workloads::build_cmult(w)));
  out.push_back(graph_digest(workloads::build_rotation(w)));
  out.push_back(graph_digest(workloads::build_pbs(workloads::TfheWl::set_i())));
  out.push_back(graph_digest(workloads::build_helr_iteration(w)));
  out.push_back(graph_digest(workloads::build_lola_mnist(false)));
  out.push_back(graph_digest(workloads::build_bfv_cmult(workloads::BfvWl{})));

  const metaop::OpGraph ks = workloads::build_keyswitch(workloads::CkksWl::paper(44));
  workloads::TfheWl tw = workloads::TfheWl::set_i();
  tw.hbm_stream_fraction = 0.0;
  const metaop::OpGraph pbs = workloads::build_pbs(tw);
  out.push_back(graph_digest(sim::merge_graphs({ks, pbs}, "shared")));
  out.push_back(graph_digest(sim::merge_graphs({ks, ks, ks, ks}, "4x keyswitch")));
  return out;
}

// In pinned_graph_digests() order.
constexpr std::uint64_t kGraphDigests[] = {
    0x9f3bc01056b3f327ull, 0xb4a4804a7d0596adull, 0x7163240c7b23f096ull,
    0xfc7167764b45ab63ull, 0x32670d87190afd1full, 0x479d7e0696fef876ull,
    0x1d88b054e3fc84f3ull, 0x6ea98fbe9d29317cull, 0x0cdd41a997d6d277ull,
    0xd0c1f5c0fcb2a067ull, 0xf2f800e7284fd510ull, 0x7f0fef25b8f237b5ull,
    0x96a4e8c60a4115f2ull, 0x760cdff2e0a9cbdcull, 0xf1931ef489a83e36ull,
};

TEST(SimControl, PaperGraphsPinned) {
  const std::vector<std::uint64_t> digests = pinned_graph_digests();
  ASSERT_EQ(digests.size(), std::size(kGraphDigests));
  for (std::size_t i = 0; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], kGraphDigests[i]) << "graph " << i << std::hex << " digest 0x"
                                            << digests[i];
  }
}

// Graph building and merging share no scratch: each thread builds and merges
// every pinned graph at once with the others and reproduces the digests.
TEST(SimControl, ConcurrentGraphBuildsMatchPinnedDigests) {
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::uint64_t>> digests(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&digests, t] { digests[t] = pinned_graph_digests(); });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(digests[t].size(), std::size(kGraphDigests));
    for (std::size_t i = 0; i < digests[t].size(); ++i) {
      EXPECT_EQ(digests[t][i], kGraphDigests[i]) << "thread " << t << " graph " << i;
    }
  }
}

// Concurrent runs share nothing: each thread simulates every pinned schedule
// at once with the others and must reproduce the pinned digests.
TEST(SimControl, ConcurrentRunsMatchPinnedRegistries) {
  constexpr std::size_t kThreads = 4;
  paper_graphs();  // build the shared, read-only graphs before the fan-out
  std::vector<std::vector<std::uint64_t>> digests(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&digests, t] { digests[t] = paper_digests(); });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(digests[t].size(), kNumPaperLevel + 1u);
    for (std::size_t s = 0; s < digests[t].size(); ++s) {
      EXPECT_EQ(digests[t][s], kPaperDigests[s]) << "thread " << t << " schedule " << s;
    }
  }
}

}  // namespace
}  // namespace alchemist
