// Host-time microbenchmarks of the simulator on the chip_paper schedules of
// bench/e2e. BM_SimPassPaper is one whole chip_paper pass; the rows below it
// are its layers and add up to it.
//
//   BM_SimPassPaper       build, merge, the level policy on all five
//                         schedules, the ready-list policy on xs, teardown
//   BM_SimLowerPaper      build the five paper graphs (boot_fresh, boot,
//                         helr, lola, pbs_i)
//   BM_SimMergeXs         interleave boot with four pbs_i streams (the
//                         cross-scheme time-sharing graph of §5.4)
//   BM_SimLevelPaper      the level policy on the five schedules
//   BM_SimEventXs         the ready-list policy on the cross-scheme graph
//   BM_SimTeardownPaper   free the six graphs
//
//   BM_SimLevelBootFresh  the level policy on boot_fresh alone, the largest
//                         of the five level schedules
//
// The build and merge rows leave freeing their graphs to the teardown row.
// Wall-clock rows for information only; the simulated values they produce
// are pinned by tests/test_sim_control.cpp.
#include <benchmark/benchmark.h>

#include <memory>

#include "arch/config.h"
#include "sim/alchemist_sim.h"
#include "sim/event_sim.h"
#include "workloads/ckks_workloads.h"
#include "workloads/tfhe_workloads.h"

namespace {

using namespace alchemist;

enum Sched { kBootFresh, kBoot, kHelr, kLola, kPbsI, kNumLevel };

struct PaperGraphs {
  metaop::OpGraph level[kNumLevel];
  metaop::OpGraph xs;
};

// The five schedules as bench/e2e's chip_paper builds them; xs is left empty.
PaperGraphs build_paper() {
  auto resident = [](std::size_t level) {
    workloads::CkksWl w = workloads::CkksWl::paper(level);
    w.hbm_stream_fraction = 0.05;  // application steady state (fig6a)
    return w;
  };
  // Half the scratchpad holds bootstrapping key (fig6b).
  workloads::TfheWl pbs = workloads::TfheWl::set_i();
  const double bk_mb = pbs.bk_bytes() / 1e6;
  pbs.hbm_stream_fraction = bk_mb <= 33.0 ? 0.0 : 1.0 - 33.0 / bk_mb;
  PaperGraphs g;
  g.level[kBootFresh] = workloads::build_bootstrapping(workloads::CkksWl::paper(44), false);
  g.level[kBoot] = workloads::build_bootstrapping(resident(44), true);
  g.level[kHelr] = workloads::build_helr_iteration(resident(30));
  g.level[kLola] = workloads::build_lola_mnist(true);
  g.level[kPbsI] = workloads::build_pbs(pbs);
  return g;
}

metaop::OpGraph merge_xs(const PaperGraphs& g) {
  const metaop::OpGraph& p = g.level[kPbsI];
  return sim::merge_graphs({g.level[kBoot], p, p, p, p}, "xs");
}

// All six graphs, xs included; once per process, then only read.
const PaperGraphs& paper() {
  static const PaperGraphs graphs = [] {
    PaperGraphs g = build_paper();
    g.xs = merge_xs(g);
    return g;
  }();
  return graphs;
}

// One chip_paper pass as bench/e2e runs it.
void BM_SimPassPaper(benchmark::State& state) {
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  for (auto _ : state) {
    PaperGraphs g = build_paper();
    g.xs = merge_xs(g);
    for (const metaop::OpGraph& level : g.level) {
      benchmark::DoNotOptimize(sim::simulate_alchemist(level, cfg).cycles);
    }
    benchmark::DoNotOptimize(sim::simulate_alchemist_events(g.xs, cfg).cycles);
  }
}
BENCHMARK(BM_SimPassPaper)->Unit(benchmark::kMillisecond);

void BM_SimLowerPaper(benchmark::State& state) {
  for (auto _ : state) {
    auto g = std::make_unique<PaperGraphs>(build_paper());
    benchmark::DoNotOptimize(g->level[kBootFresh].ops().data());
    state.PauseTiming();
    g.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_SimLowerPaper)->Unit(benchmark::kMillisecond);

void BM_SimMergeXs(benchmark::State& state) {
  const PaperGraphs& g = paper();
  for (auto _ : state) {
    auto xs = std::make_unique<metaop::OpGraph>(merge_xs(g));
    benchmark::DoNotOptimize(xs->ops().data());
    state.PauseTiming();
    xs.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_SimMergeXs)->Unit(benchmark::kMillisecond);

void BM_SimLevelPaper(benchmark::State& state) {
  const PaperGraphs& g = paper();
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  for (auto _ : state) {
    for (const metaop::OpGraph& level : g.level) {
      benchmark::DoNotOptimize(sim::simulate_alchemist(level, cfg).cycles);
    }
  }
}
BENCHMARK(BM_SimLevelPaper)->Unit(benchmark::kMillisecond);

void BM_SimEventXs(benchmark::State& state) {
  const metaop::OpGraph& xs = paper().xs;
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  for (auto _ : state) {
    const sim::SimResult r = sim::simulate_alchemist_events(xs, cfg);
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(xs.ops().size()));
}
BENCHMARK(BM_SimEventXs)->Unit(benchmark::kMillisecond);

void BM_SimTeardownPaper(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto g = std::make_unique<PaperGraphs>(build_paper());
    g->xs = merge_xs(*g);
    state.ResumeTiming();
    g.reset();
  }
}
BENCHMARK(BM_SimTeardownPaper)->Unit(benchmark::kMillisecond);

void BM_SimLevelBootFresh(benchmark::State& state) {
  const metaop::OpGraph& g = paper().level[kBootFresh];
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  for (auto _ : state) {
    const sim::SimResult r = sim::simulate_alchemist(g, cfg);
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(g.ops().size()));
}
BENCHMARK(BM_SimLevelBootFresh)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
