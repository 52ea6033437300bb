// Time-sharing across operation streams (§5.4), for the ready-list policy of
// sim/alchemist_sim.h.
#pragma once

#include <string>
#include <vector>

#include "metaop/op_graph.h"
#include "sim/alchemist_sim.h"

namespace alchemist::sim {

// Interleave independent operation streams into one graph so compute of one
// stream overlaps key streaming of another.
metaop::OpGraph merge_graphs(const std::vector<metaop::OpGraph>& graphs,
                             const std::string& name);

}  // namespace alchemist::sim
