// Time-sharing across operation streams (§5.4), for the ready-list policy of
// sim/alchemist_sim.h.
#pragma once

#include <functional>
#include <initializer_list>
#include <string>

#include "metaop/op_graph.h"
#include "sim/alchemist_sim.h"

namespace alchemist::sim {

// The graphs to interleave, by reference: a braced list of graphs copies none
// of them.
using GraphRefs = std::initializer_list<std::reference_wrapper<const metaop::OpGraph>>;

// Interleave independent operation streams into one graph so compute of one
// stream overlaps key streaming of another.
metaop::OpGraph merge_graphs(GraphRefs graphs, const std::string& name);

}  // namespace alchemist::sim
