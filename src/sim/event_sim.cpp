#include "sim/event_sim.h"

#include <span>
#include <string>
#include <vector>

namespace alchemist::sim {

using metaop::OpGraph;

metaop::OpGraph merge_graphs(GraphRefs graph_refs, const std::string& name) {
  // Proportional interleave: ops of the streams alternate in schedule order
  // (preserving each stream's internal dependencies), so key prefetching for
  // one stream overlaps compute of the others — the time-sharing scheduling
  // of §5.4.
  const std::span<const std::reference_wrapper<const OpGraph>> graphs(graph_refs.begin(),
                                                                       graph_refs.size());
  OpGraph merged;
  merged.name = name;
  // Op j of graph g lands at index remap[base[g] + j] of the merged graph.
  std::vector<std::size_t> base(graphs.size() + 1, 0);
  std::size_t total_deps = 0;
  std::size_t total_transfers = 0;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const OpGraph& graph = graphs[g];
    base[g + 1] = base[g] + graph.ops().size();
    total_deps += graph.num_deps();
    total_transfers += graph.num_transfers();
  }
  merged.reserve(base.back(), total_deps, total_transfers);
  std::vector<std::size_t> remap(base.back());
  std::vector<std::size_t> next(graphs.size(), 0);
  for (;;) {
    // Pick the stream with the smallest consumed fraction.
    std::size_t best = graphs.size();
    double best_frac = 2.0;
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const std::size_t size = graphs[g].get().ops().size();
      if (next[g] >= size) continue;
      const double frac = static_cast<double>(next[g]) / static_cast<double>(size);
      if (frac < best_frac) {
        best_frac = frac;
        best = g;
      }
    }
    if (best == graphs.size()) break;
    const OpGraph& src = graphs[best];
    const std::span<const std::size_t> src_remap(remap.data() + base[best], src.ops().size());
    remap[base[best] + next[best]] = merged.add_from(src, next[best], src_remap);
    ++next[best];
  }
  return merged;
}

}  // namespace alchemist::sim
