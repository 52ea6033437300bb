// High-level polynomial operator graph — the shared IR between the FHE
// workload generators (src/workloads), the Meta-OP lowering (src/metaop) and
// the cycle simulator (src/sim).
//
// Each node is one polynomial-level operator over a set of RNS channels.
// Dependencies form a DAG; the simulator schedules ready nodes onto hardware.
//
// The IR is flat: nodes are trivially copyable records, and each graph keeps
// the dependency indices and transfer descriptors of all its nodes in two
// arrays that the nodes address by offset and count. Building, copying,
// merging and freeing a graph therefore touches three arrays, not one heap
// list per node.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace alchemist::metaop {

enum class OpKind {
  Ntt,             // forward NTT: channels * N-point transforms
  Intt,            // inverse NTT
  Bconv,           // RNS base conversion: param_a = L inputs, param_b = K outputs
  DecompPolyMult,  // accumulate param_a = dnum digit polys times evk, over channels
  PointwiseMult,   // elementwise modular multiply, channels * N
  PointwiseAdd,    // elementwise modular add/sub
  Automorphism,    // Galois permutation (memory-bound)
};

const char* to_string(OpKind kind);

enum class OpClass;  // metaop/metaop.h
// Operator class an IR node is accounted under (Fig. 1 / Fig. 7b). This used
// to be re-derived privately by each simulator; it is the single shared
// mapping now.
OpClass class_of(OpKind kind);

// What an off-chip transfer carries. kNumClasses is a sentinel so per-operand
// accounting arrays (sim::MemProfiler, the memory.v1 report) size themselves
// from it, like OpClass/kNumOpClasses.
enum class OperandClass : std::uint8_t {
  Evk,          // relinearization / keyswitch evaluation key digits
  RotationKey,  // Galois rotation keys (keyed by rotation step)
  CtLimb,       // ciphertext limb traffic (spills, residuals)
  Twiddle,      // NTT twiddle-factor tables
  Plaintext,    // plaintext operands (LT diagonals, weights)
  kNumClasses,
};

inline constexpr std::size_t kNumOperandClasses =
    static_cast<std::size_t>(OperandClass::kNumClasses);

// Lowercase metric-tag form ("evk", "rotation_key", ...), used in obs counter
// keys like sim.mem.bytes{operand=evk}.
const char* operand_tag(OperandClass c);

// One attributed off-chip transfer of a HighOp. `key_id` identifies the key
// material a key-class transfer streams (0 = not key material) so the
// MemProfiler's reuse ledger can tell a re-fetch of the same key from a fetch
// of a different one. Descriptor bytes partition HighOp::hbm_bytes: the sum
// over an op's transfers never exceeds it, and any remainder is unattributed
// limb traffic (accounted as ct_limb by the profiler so byte conservation
// holds for descriptor-free graphs too).
struct TransferDesc {
  OperandClass operand_class = OperandClass::CtLimb;
  std::uint64_t key_id = 0;
  std::uint64_t bytes = 0;
};

// A borrowed read-only list: binds to a braced list, a vector or a span
// without copying, for as long as the full-expression it is passed in.
template <typename T>
class ListRef {
 public:
  ListRef() = default;
  ListRef(std::initializer_list<T> list) : items_(list.begin(), list.size()) {}
  ListRef(const std::vector<T>& items) : items_(items) {}
  ListRef(std::span<const T> items) : items_(items) {}

  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + items_.size(); }
  std::size_t size() const { return items_.size(); }

 private:
  std::span<const T> items_;
};

using IndexList = ListRef<std::size_t>;
using TransferList = ListRef<TransferDesc>;

struct HighOp {
  OpKind kind = OpKind::PointwiseAdd;
  std::size_t n = 0;         // polynomial length
  std::size_t channels = 1;  // RNS channels this op covers
  std::size_t param_a = 0;   // Bconv: L; DecompPolyMult: dnum
  std::size_t param_b = 0;   // Bconv: K
  // Bytes that must come from off-chip (e.g. streaming evaluation keys).
  // Kept as the authoritative total the engines charge; the op's transfers
  // are the attributed breakdown of the same bytes.
  std::uint64_t hbm_bytes = 0;
  // Where the op's lists sit in its graph's arrays. OpGraph::add sets them;
  // read the lists through OpGraph::deps() and OpGraph::transfers().
  std::uint32_t first_dep = 0;
  std::uint32_t num_deps = 0;
  std::uint32_t first_transfer = 0;
  std::uint32_t num_transfers = 0;
};
static_assert(std::is_trivially_copyable_v<HighOp>);

// An append-only operator graph. A node's index is fixed when it is added,
// so indices handed out by add() stay valid for the graph's lifetime.
class OpGraph {
 public:
  std::string name;

  // Appends a node with `op`'s kind, shape and HBM bytes (its list fields
  // are ignored) and the given lists, returning its index (for dependency
  // wiring). The lists must not point into this graph's own arrays.
  std::size_t add(const HighOp& op, IndexList deps = {}, TransferList transfers = {}) {
    HighOp node = op;
    node.first_dep = narrow(deps_.size());
    node.num_deps = narrow(deps.size());
    node.first_transfer = narrow(transfers_.size());
    node.num_transfers = narrow(transfers.size());
    deps_.insert(deps_.end(), deps.begin(), deps.end());
    transfers_.insert(transfers_.end(), transfers.begin(), transfers.end());
    ops_.push_back(node);
    return ops_.size() - 1;
  }

  // Appends node `i` of `src`, renumbering its dependencies through
  // `index_map` (an index of `src` -> the node's index here).
  std::size_t add_from(const OpGraph& src, std::size_t i,
                       std::span<const std::size_t> index_map) {
    HighOp node = src.ops_[i];
    node.first_dep = narrow(deps_.size());
    node.first_transfer = narrow(transfers_.size());
    for (std::size_t dep : src.deps(i)) deps_.push_back(index_map[dep]);
    const std::span<const TransferDesc> transfers = src.transfers(i);
    transfers_.insert(transfers_.end(), transfers.begin(), transfers.end());
    ops_.push_back(node);
    return ops_.size() - 1;
  }

  void reserve(std::size_t ops, std::size_t deps, std::size_t transfers) {
    ops_.reserve(ops);
    deps_.reserve(deps);
    transfers_.reserve(transfers);
  }

  std::span<const HighOp> ops() const { return ops_; }
  std::span<const std::size_t> deps(std::size_t i) const {
    const HighOp& op = ops_[i];
    return {deps_.data() + op.first_dep, op.num_deps};
  }
  std::span<const TransferDesc> transfers(std::size_t i) const {
    const HighOp& op = ops_[i];
    return {transfers_.data() + op.first_transfer, op.num_transfers};
  }
  // Totals over all nodes, for sizing a copy or a merge.
  std::size_t num_deps() const { return deps_.size(); }
  std::size_t num_transfers() const { return transfers_.size(); }

 private:
  static std::uint32_t narrow(std::size_t v) {
    if (v > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("OpGraph: more than 2^32 list entries");
    }
    return static_cast<std::uint32_t>(v);
  }

  std::vector<HighOp> ops_;
  std::vector<std::size_t> deps_;
  std::vector<TransferDesc> transfers_;
};

// ASAP levels of a graph: level l holds, in ascending index order, the ops
// whose longest dependency chain has l edges. A graph with no ops has one
// empty level.
struct Levels {
  std::vector<std::uint32_t> order;  // op indices, grouped by level
  std::vector<std::uint32_t> start;  // level l is order[start[l], start[l + 1])

  std::size_t size() const { return start.size() - 1; }
  std::span<const std::uint32_t> operator[](std::size_t l) const {
    return std::span<const std::uint32_t>(order).subspan(start[l], start[l + 1] - start[l]);
  }
};

// Throws std::invalid_argument unless every dependency points to an earlier
// op, and std::length_error past 2^32 - 1 ops.
Levels asap_levels(const OpGraph& graph);

}  // namespace alchemist::metaop
