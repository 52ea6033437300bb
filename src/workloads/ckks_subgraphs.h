// Reusable CKKS operator subgraphs: the building blocks behind the workload
// generators, exposed so tools (the tracing evaluator in src/sim) can append
// ops to a graph under construction with correct dependency wiring.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "metaop/op_graph.h"
#include "workloads/ckks_workloads.h"

namespace alchemist::workloads {

// Well-known key ids used by the CKKS generators' transfer descriptors (the
// MemProfiler's reuse ledger is keyed by these). There is one relinearization
// key per scheme instance; rotation keys are per-step, so call sites pass
// kRotationKeyBase + step. Ids only need to be stable within one graph.
inline constexpr std::uint64_t kRelinKeyId = 1;
inline constexpr std::uint64_t kRotationKeyBase = 100;

// Wires DAG nodes into `g`, appending each op's lists straight into the
// graph's arrays. A dry-run builder stores nothing: it hands out the indices a
// real build would and only counts, so build_graph() can size the graph.
struct GraphBuilder {
  metaop::OpGraph g;
  bool dry_run = false;
  std::size_t num_ops = 0;
  std::size_t num_deps = 0;
  std::size_t num_transfers = 0;

  std::size_t add(metaop::OpKind kind, std::size_t n, std::size_t channels,
                  metaop::IndexList deps, std::size_t pa = 0, std::size_t pb = 0,
                  std::uint64_t hbm_bytes = 0, metaop::TransferList transfers = {}) {
    if (dry_run) {
      num_deps += deps.size();
      num_transfers += transfers.size();
      return num_ops++;
    }
    return g.add({.kind = kind,
                  .n = n,
                  .channels = channels,
                  .param_a = pa,
                  .param_b = pb,
                  .hbm_bytes = hbm_bytes},
                 deps, transfers);
  }
};

// Builds the graph `body` wires into a GraphBuilder. The body runs twice: a
// dry run counts its ops and list entries, then the real build appends into
// arrays reserved to exactly that size. Regrowing the arrays of a 35 k-op
// bootstrap instead costs more than building it.
template <typename Body>
metaop::OpGraph build_graph(std::string name, const Body& body) {
  GraphBuilder sizing;
  sizing.dry_run = true;
  body(sizing);
  GraphBuilder b;
  b.g.name = std::move(name);
  b.g.reserve(sizing.num_ops, sizing.num_deps, sizing.num_transfers);
  body(b);
  return std::move(b.g);
}

// Evaluation-key traffic of one keyswitch at the given digit count.
std::uint64_t evk_stream_bytes(const CkksWl& w, std::size_t digits);

// Each appender wires a complete operator pipeline into `b`, depending on
// `input` (node indices), and returns the index of its final op.
//
// The keyswitch-bearing appenders take the identity of the key their
// DecompPolyMult streams (`key_id` + operand class), defaulting to the
// relinearization key; rotation appenders default to kRotationKeyBase (an
// "unspecified rotation") so legacy call sites keep building valid graphs,
// while the workload builders pass per-step ids for an honest reuse ledger.
std::size_t append_keyswitch_coeff(
    GraphBuilder& b, const CkksWl& w, metaop::IndexList input,
    std::uint64_t key_id = kRelinKeyId,
    metaop::OperandClass key_class = metaop::OperandClass::Evk);
std::size_t append_keyswitch(
    GraphBuilder& b, const CkksWl& w, metaop::IndexList input,
    std::uint64_t key_id = kRelinKeyId,
    metaop::OperandClass key_class = metaop::OperandClass::Evk);
std::size_t append_rescale(GraphBuilder& b, const CkksWl& w,
                           metaop::IndexList input);
std::size_t append_cmult_rescale(GraphBuilder& b, const CkksWl& w,
                                 metaop::IndexList input);
std::size_t append_rotation(GraphBuilder& b, const CkksWl& w,
                            metaop::IndexList input,
                            std::uint64_t rot_key_id = kRotationKeyBase);
std::size_t append_hoisted_rotations(GraphBuilder& b, const CkksWl& w,
                                     std::size_t count,
                                     metaop::IndexList input,
                                     std::uint64_t rot_key_base = kRotationKeyBase);

}  // namespace alchemist::workloads
