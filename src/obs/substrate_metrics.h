// substrate.* metrics: the parallel lazy-reduction substrate's accounting
// (common/thread_pool.h) rendered as a PR-1 telemetry Registry, so pool
// activity rides the same export paths as sim.* and svc.* — MetricsReport
// JSON, bench baselines, and JobRunner snapshots.
//
//   substrate.threads            gauge: pool width incl. the calling thread
//   substrate.parallel_for       fan-outs that split across the pool
//   substrate.inline_runs        calls run sequentially (1 thread/small/nested)
//   substrate.tasks              chunks executed across all fan-outs
//   substrate.kernel_ns{kernel=} cumulative wall ns per kernel family
//   substrate.isa{isa=}          gauge: 1 on the process's active SIMD ISA
//   substrate.isa_dispatch{kernel=,isa=}  kernel dispatches per ISA variant
//
// kernel_ns (and anything else wall-clock) is machine-dependent: exclude it
// from baseline gates (check_bench_baseline.py --ignore 'wall_ns|kernel_ns').
// isa_dispatch rows for avx2/avx512/avx512ifma only exist on hosts whose
// CPUID allows them — baselines treat those runs as optional (--optional).
#pragma once

#include "common/simd.h"
#include "common/thread_pool.h"
#include "obs/registry.h"

namespace alchemist::obs {

inline Registry substrate_registry() {
  Registry reg;
  const SubstrateStats s = ThreadPool::instance().stats();
  reg.set_gauge("substrate.threads", static_cast<double>(s.threads));
  reg.add("substrate.parallel_for", s.parallel_fors);
  reg.add("substrate.inline_runs", s.inline_runs);
  reg.add("substrate.tasks", s.tasks);
  for (const auto& [kernel, ns] : s.kernel_ns) {
    reg.add("substrate.kernel_ns", ns, {{"kernel", kernel}});
  }
  reg.set_gauge("substrate.isa", 1.0, {{"isa", simd::isa_name(simd::active_isa())}});
  for (std::size_t k = 0; k < simd::kNumKerns; ++k) {
    for (std::size_t i = 0; i < simd::kNumIsas; ++i) {
      const auto kern = static_cast<simd::Kern>(k);
      const auto isa = static_cast<simd::Isa>(i);
      const std::uint64_t count = simd::dispatch_count(kern, isa);
      if (count == 0) continue;  // only variants that actually served traffic
      reg.add("substrate.isa_dispatch", count,
              {{"kernel", simd::kern_name(kern)}, {"isa", simd::isa_name(isa)}});
    }
  }
  return reg;
}

}  // namespace alchemist::obs
