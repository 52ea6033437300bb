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
  for (std::size_t placed = 0; placed < base.back(); ++placed) {
    // Pick the stream with the smallest consumed fraction next/size, the
    // first one on a tie. The fractions are compared by cross-multiplying,
    // exact while sizes stay below 2^32, and without branches: which stream
    // wins is data dependent, and a branch that mispredicts costs more than
    // copying the op.
    std::size_t best = 0, best_next = 1, best_size = 0;  // 1/0 ranks last
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const std::size_t size = graphs[g].get().ops().size();
      const bool smaller = (next[g] < size) & (next[g] * best_size < best_next * size);
      best = smaller ? g : best;
      best_next = smaller ? next[g] : best_next;
      best_size = smaller ? size : best_size;
    }
    const OpGraph& src = graphs[best];
    const std::span<const std::size_t> src_remap(remap.data() + base[best], src.ops().size());
    remap[base[best] + next[best]] = merged.add_from(src, next[best], src_remap);
    ++next[best];
  }
  return merged;
}

}  // namespace alchemist::sim
