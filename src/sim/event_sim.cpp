#include "sim/event_sim.h"

#include <string>
#include <vector>

namespace alchemist::sim {

using metaop::HighOp;
using metaop::OpGraph;

metaop::OpGraph merge_graphs(const std::vector<OpGraph>& graphs,
                             const std::string& name) {
  // Proportional interleave: ops of the streams alternate in schedule order
  // (preserving each stream's internal dependencies), so key prefetching for
  // one stream overlaps compute of the others — the time-sharing scheduling
  // of §5.4.
  OpGraph merged;
  merged.name = name;
  std::vector<std::size_t> next(graphs.size(), 0);
  // Remap: new index of op j of graph g.
  std::vector<std::vector<std::size_t>> remap(graphs.size());
  std::size_t total_ops = 0;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    remap[g].resize(graphs[g].ops.size());
    total_ops += graphs[g].ops.size();
  }
  merged.ops.reserve(total_ops);
  for (;;) {
    // Pick the stream with the smallest consumed fraction.
    std::size_t best = graphs.size();
    double best_frac = 2.0;
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      if (next[g] >= graphs[g].ops.size()) continue;
      const double frac =
          static_cast<double>(next[g]) / static_cast<double>(graphs[g].ops.size());
      if (frac < best_frac) {
        best_frac = frac;
        best = g;
      }
    }
    if (best == graphs.size()) break;
    HighOp op = graphs[best].ops[next[best]];
    for (std::size_t& dep : op.deps) dep = remap[best][dep];
    remap[best][next[best]] = merged.ops.size();
    merged.add(std::move(op));
    ++next[best];
  }
  return merged;
}

}  // namespace alchemist::sim
