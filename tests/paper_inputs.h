// Paper-size simulator inputs for the observer-effect tests.
#pragma once

#include <vector>

#include "arch/config.h"
#include "fault/fault_model.h"
#include "metaop/op_graph.h"
#include "sim/event_sim.h"
#include "workloads/ckks_workloads.h"
#include "workloads/tfhe_workloads.h"

namespace alchemist {

// The fresh-key bootstrap (35 k ops) and the xs merge of the resident-key
// bootstrap with four set-I PBS streams (30 k ops), built as bench/e2e builds
// them. Once per process, then only read.
inline const std::vector<metaop::OpGraph>& paper_inputs() {
  static const std::vector<metaop::OpGraph> graphs = [] {
    workloads::CkksWl resident = workloads::CkksWl::paper(44);
    resident.hbm_stream_fraction = 0.05;
    workloads::TfheWl pbs = workloads::TfheWl::set_i();
    const double bk_mb = pbs.bk_bytes() / 1e6;
    pbs.hbm_stream_fraction = bk_mb <= 33.0 ? 0.0 : 1.0 - 33.0 / bk_mb;
    const metaop::OpGraph boot = workloads::build_bootstrapping(resident, true);
    const metaop::OpGraph p = workloads::build_pbs(pbs);
    std::vector<metaop::OpGraph> out;
    out.push_back(workloads::build_bootstrapping(workloads::CkksWl::paper(44), false));
    out.push_back(sim::merge_graphs({boot, p, p, p, p}, "xs"));
    return out;
  }();
  return graphs;
}

// Detect-retry faults at 1e-8 in every domain: on the paper inputs some ops
// retry and the rest run clean, so both charge paths of each policy run.
inline fault::FaultModel retry_faults(const arch::ArchConfig& cfg) {
  fault::FaultConfig fc;
  fc.compute_fault_rate = fc.sram_fault_rate = fc.hbm_fault_rate = 1e-8;
  fc.policy = fault::Policy::DetectRetry;
  return fault::FaultModel(fc, cfg.num_units);
}

}  // namespace alchemist
