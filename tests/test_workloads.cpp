#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "metaop/lowering.h"
#include "metaop/mult_count.h"
#include "workloads/ckks_workloads.h"
#include "workloads/tfhe_workloads.h"

namespace alchemist::workloads {
namespace {

using metaop::OpClass;
using metaop::OpGraph;
using metaop::OpKind;

void expect_valid_dag(const OpGraph& g) {
  for (std::size_t i = 0; i < g.ops().size(); ++i) {
    for (std::size_t dep : g.deps(i)) {
      EXPECT_LT(dep, i) << "forward dep in " << g.name;
    }
  }
}

std::size_t count_kind(const OpGraph& g, OpKind kind) {
  std::size_t c = 0;
  for (const auto& op : g.ops()) c += op.kind == kind ? 1 : 0;
  return c;
}

TEST(CkksWl, ParameterDerivation) {
  const CkksWl w = CkksWl::paper(44);
  EXPECT_EQ(w.n, 65536u);
  EXPECT_EQ(w.dnum, 4u);
  EXPECT_EQ(w.alpha(), 11u);
  EXPECT_EQ(w.num_special(), 11u);
}

TEST(CkksGraphs, AllAreValidDags) {
  const CkksWl w = CkksWl::paper(24);
  for (const OpGraph& g :
       {build_hadd(w), build_pmult(w), build_rescale(w), build_keyswitch(w),
        build_cmult(w), build_rotation(w), build_hoisted_rotations(w, 4),
        build_helr_iteration(w), build_lola_mnist(false), build_lola_mnist(true)}) {
    expect_valid_dag(g);
    EXPECT_FALSE(g.ops().empty()) << g.name;
  }
}

TEST(CkksGraphs, BootstrappingIsValidAndLarge) {
  const CkksWl w = CkksWl::paper(44);
  const OpGraph plain = build_bootstrapping(w, false);
  const OpGraph hoisted = build_bootstrapping(w, true);
  expect_valid_dag(plain);
  expect_valid_dag(hoisted);
  EXPECT_GT(plain.ops().size(), 1000u);
  EXPECT_GT(hoisted.ops().size(), 100u);
}

TEST(CkksGraphs, KeyswitchStructure) {
  const CkksWl w = CkksWl::paper(44);
  const OpGraph g = build_keyswitch(w);
  // dnum = 4 digit conversions plus the P->Q Moddown conversions (2).
  EXPECT_EQ(count_kind(g, OpKind::Bconv), 4u + 2u);
  EXPECT_EQ(count_kind(g, OpKind::DecompPolyMult), 1u);
  // evk streaming traffic is attached to the DecompPolyMult.
  for (const auto& op : g.ops()) {
    if (op.kind == OpKind::DecompPolyMult) {
      EXPECT_GT(op.hbm_bytes, 0u);
      EXPECT_EQ(op.param_a, 4u);  // digits
    }
  }
}

TEST(CkksGraphs, HbmStreamFractionScalesKeyTraffic) {
  CkksWl full = CkksWl::paper(44);
  CkksWl cached = full;
  cached.hbm_stream_fraction = 0.25;
  auto bytes = [](const OpGraph& g) {
    std::uint64_t total = 0;
    for (const auto& op : g.ops()) total += op.hbm_bytes;
    return total;
  };
  EXPECT_NEAR(static_cast<double>(bytes(build_keyswitch(cached))),
              0.25 * static_cast<double>(bytes(build_keyswitch(full))),
              static_cast<double>(bytes(build_keyswitch(full))) * 0.01);
}

TEST(CkksGraphs, CmultCostsMoreThanKeyswitchAlone) {
  const CkksWl w = CkksWl::paper(24);
  EXPECT_GT(metaop::count(build_cmult(w)).meta,
            metaop::count(build_keyswitch(w)).meta);
}

TEST(CkksGraphs, HoistingSavesBconvWork) {
  // Fig. 1: BSP-L=44+ (hoisting) has a smaller Bconv share than BSP-L=44.
  const CkksWl w = CkksWl::paper(44);
  const std::size_t rotations = 8;
  OpGraph separate;
  separate.name = "separate";
  for (std::size_t r = 0; r < rotations; ++r) {
    const OpGraph one = build_rotation(w);
    std::vector<std::size_t> index_map(one.ops().size());
    std::iota(index_map.begin(), index_map.end(), separate.ops().size());
    for (std::size_t i = 0; i < one.ops().size(); ++i) separate.add_from(one, i, index_map);
  }
  const OpGraph hoisted = build_hoisted_rotations(w, rotations);

  const auto sep_mults = metaop::class_mults(separate, true);
  const auto hoist_mults = metaop::class_mults(hoisted, true);
  const std::size_t bconv = static_cast<std::size_t>(OpClass::Bconv);
  EXPECT_LT(hoist_mults[bconv], sep_mults[bconv] / 2);
}

TEST(CkksGraphs, MultRatiosMatchFig1Shape) {
  // Cmult at higher level has proportionally more Bconv work (Fig. 1 trend).
  auto bconv_share = [](std::size_t level) {
    const OpGraph g = build_cmult(CkksWl::paper(level));
    const auto mults = metaop::class_mults(g, true);
    const double total = static_cast<double>(mults[0] + mults[1] + mults[2] + mults[3]);
    return static_cast<double>(mults[static_cast<std::size_t>(OpClass::Bconv)]) / total;
  };
  EXPECT_GT(bconv_share(24), bconv_share(8));
}

TEST(CkksGraphs, MetaOpReducesCmultMults) {
  // Fig. 7(a): Cmult L=24 saves ~23% of multiplications with the Meta-OP.
  const auto c = metaop::count(build_cmult(CkksWl::paper(24)));
  EXPECT_LT(c.relative_change(), -0.05);
  EXPECT_GT(c.relative_change(), -0.45);
  // Savings grow with level (more Bconv/DecompPolyMult share).
  EXPECT_LT(metaop::count(build_cmult(CkksWl::paper(44))).relative_change(),
            c.relative_change());
}

TEST(CkksGraphs, EncryptedWeightsCostMore) {
  EXPECT_GT(static_cast<double>(metaop::count(build_lola_mnist(true)).meta),
            1.4 * static_cast<double>(metaop::count(build_lola_mnist(false)).meta));
}

TEST(TfheGraphs, PbsStructure) {
  const TfheWl w = TfheWl::set_i();
  const OpGraph g = build_pbs(w);
  expect_valid_dag(g);
  // One NTT + DecompPolyMult + INTT per blind-rotation step.
  EXPECT_EQ(count_kind(g, OpKind::Ntt), w.n_lwe);
  EXPECT_EQ(count_kind(g, OpKind::DecompPolyMult), w.n_lwe);
  EXPECT_EQ(count_kind(g, OpKind::Intt), w.n_lwe);
}

TEST(TfheGraphs, PbsIsNttDominated) {
  // Fig. 1: TFHE-PBS is NTT-heavy.
  const OpGraph g = build_pbs(TfheWl::set_i());
  const auto mults = metaop::class_mults(g, true);
  const double total = static_cast<double>(mults[0] + mults[1] + mults[2] + mults[3]);
  EXPECT_GT(mults[static_cast<std::size_t>(OpClass::Ntt)] / total, 0.5);
}

TEST(TfheGraphs, MetaOpSavingSmallForTfhe) {
  // Fig. 7(a): TFHE PBS only saves ~3% — NTT dominates and pays +11%, offset
  // by the DecompPolyMult savings.
  const auto c = metaop::count(build_pbs(TfheWl::set_i()));
  EXPECT_LT(c.relative_change(), 0.10);
  EXPECT_GT(c.relative_change(), -0.15);
}

TEST(TfheGraphs, BkBytesMatchesFormula) {
  const TfheWl w = TfheWl::set_i();
  // n=630 TGSWs, (k+1)*l=6 rows, (k+1)=2 polys of 1024 coeffs at 4.5 B.
  EXPECT_NEAR(w.bk_bytes(), 630.0 * 6 * 2 * 1024 * 4.5, 1.0);
  const TfheWl w2 = TfheWl::set_ii();
  EXPECT_GT(w2.bk_bytes(), 0);
}

TEST(TfheGraphs, BatchScalesWork) {
  TfheWl w1 = TfheWl::set_i();
  w1.batch = 1;
  TfheWl w16 = TfheWl::set_i();
  w16.batch = 16;
  EXPECT_NEAR(static_cast<double>(metaop::count(build_pbs(w16)).meta),
              16.0 * static_cast<double>(metaop::count(build_pbs(w1)).meta),
              0.01 * 16.0 * static_cast<double>(metaop::count(build_pbs(w1)).meta));
}

}  // namespace
}  // namespace alchemist::workloads
