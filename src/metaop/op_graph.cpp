#include "metaop/op_graph.h"

#include <algorithm>

namespace alchemist::metaop {

Levels asap_levels(const OpGraph& graph) {
  const std::size_t n = graph.ops().size();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("asap_levels: more than 2^32 - 1 ops");
  }
  std::vector<std::uint32_t> level(n);
  std::uint32_t max_level = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t l = 0;
    for (std::size_t dep : graph.deps(i)) {
      if (dep >= i) throw std::invalid_argument("simulate: deps must point backwards");
      l = std::max(l, level[dep] + 1);
    }
    level[i] = l;
    max_level = std::max(max_level, l);
  }
  // Counting sort by level. After the prefix sum start[l] is the end of level
  // l; filling each level from its end in descending op order leaves start[l]
  // at the level's beginning and the level in ascending order.
  Levels out;
  out.start.assign(std::size_t{max_level} + 2, 0);
  for (std::uint32_t l : level) ++out.start[l];
  for (std::size_t l = 1; l < out.start.size(); ++l) out.start[l] += out.start[l - 1];
  out.order.resize(n);
  for (std::size_t i = n; i-- > 0;) {
    out.order[--out.start[level[i]]] = static_cast<std::uint32_t>(i);
  }
  return out;
}

}  // namespace alchemist::metaop
