#include <gtest/gtest.h>

#include <memory>

#include "arch/data_layout.h"
#include "ckks/encryptor.h"
#include "ckks/keygen.h"
#include "metaop/mult_count.h"
#include "sim/alchemist_sim.h"
#include "sim/tracer.h"
#include "workloads/ckks_workloads.h"

namespace alchemist {
namespace {

// ---------------- SlotLayout: the Table 4 / §5.3 claims ----------------

TEST(SlotLayout, ChannelAndDnumPatternsAreUnitLocal) {
  // The paper's data-management claim: with slot striping, Bconv and
  // DecompPolyMult never leave the unit-private scratchpad.
  for (std::size_t n : {std::size_t{16384}, std::size_t{65536}, std::size_t{1024}}) {
    arch::SlotLayout layout(n, 128);
    EXPECT_EQ(layout.cross_unit_accesses_channel(44), 0u) << n;
    EXPECT_EQ(layout.cross_unit_accesses_dnum(4), 0u) << n;
  }
}

TEST(SlotLayout, ClassicNttIsFullyConnectedButFourStepIsLocal) {
  arch::SlotLayout layout(16384, 128);
  // The classical NTT crosses units heavily (the paper: "fully connected,
  // which contradicts our slot-based data partition")...
  EXPECT_GT(layout.cross_unit_accesses_classic_ntt(), 10000u);
  // ...while the 4-step decomposition keeps every sub-NTT unit-local,
  EXPECT_EQ(layout.cross_unit_accesses_four_step_ntt(), 0u);
  // paying only the transpose through the dedicated buffer.
  EXPECT_EQ(layout.four_step_transpose_words(), 16384u);
}

TEST(SlotLayout, PaperExampleDimensions) {
  // N = 16384 over 128 units: each unit holds 128 slots of every polynomial
  // (Fig. 5b), and the 4-step sub-NTTs are 128-point.
  arch::SlotLayout layout(16384, 128);
  EXPECT_EQ(layout.slots_per_unit(), 128u);
  EXPECT_EQ(layout.unit_of_slot(0), 0u);
  EXPECT_EQ(layout.unit_of_slot(127), 0u);
  EXPECT_EQ(layout.unit_of_slot(128), 1u);
  EXPECT_EQ(layout.unit_of_slot(16383), 127u);
  EXPECT_THROW(arch::SlotLayout(1000, 128), std::invalid_argument);
}

// ---------------- TracedEvaluator ----------------

struct TraceFixture {
  ckks::ContextPtr ctx;
  std::unique_ptr<ckks::CkksEncoder> encoder;
  std::unique_ptr<ckks::KeyGenerator> keygen;
  std::unique_ptr<ckks::Encryptor> encryptor;
  std::unique_ptr<ckks::Decryptor> decryptor;
  std::unique_ptr<ckks::Evaluator> evaluator;
  ckks::RelinKeys rk;
  ckks::GaloisKeys gk;

  TraceFixture() {
    ctx = std::make_shared<ckks::CkksContext>(ckks::CkksParams::toy(1024, 4, 2));
    encoder = std::make_unique<ckks::CkksEncoder>(ctx);
    keygen = std::make_unique<ckks::KeyGenerator>(ctx, 6);
    encryptor = std::make_unique<ckks::Encryptor>(ctx, keygen->make_public_key());
    decryptor = std::make_unique<ckks::Decryptor>(ctx, keygen->secret_key());
    evaluator = std::make_unique<ckks::Evaluator>(ctx);
    rk = keygen->make_relin_keys();
    gk = keygen->make_galois_keys({1});
  }
};

TraceFixture& fx() {
  static TraceFixture f;
  return f;
}

TEST(TracedEvaluator, ProducesCorrectCryptoAndValidGraph) {
  TraceFixture& f = fx();
  sim::TracedEvaluator traced(f.ctx, *f.evaluator);

  std::vector<double> z = {0.5, -0.25, 0.75};
  const auto a = traced.wrap(f.encryptor->encrypt(
      f.encoder->encode(std::span<const double>(z), 4, f.ctx->params().scale())));

  // Real program: square, rotate, add.
  const auto sq = traced.multiply_rescale(a, a, f.rk);
  const auto rot = traced.rotate(sq, 1, f.gk);
  const auto out = traced.add(sq, rot);

  // The crypto is real: slot 0 holds z0^2 + z1^2.
  const auto dec = f.decryptor->decrypt(out.ct, *f.encoder);
  EXPECT_NEAR(dec[0].real(), 0.25 + 0.0625, 1e-2);

  // The trace is a valid DAG with dependency wiring across the three ops.
  const auto g = traced.graph();
  EXPECT_GT(g.ops().size(), 10u);
  for (std::size_t i = 0; i < g.ops().size(); ++i) {
    for (std::size_t dep : g.deps(i)) ASSERT_LT(dep, i);
  }
  // The final add depends on both the rotation chain and the square chain.
  EXPECT_EQ(g.ops().back().kind, metaop::OpKind::PointwiseAdd);
  EXPECT_EQ(g.deps(g.ops().size() - 1).size(), 2u);
}

TEST(TracedEvaluator, TraceMatchesHandBuiltWorkload) {
  TraceFixture& f = fx();
  sim::TracedEvaluator traced(f.ctx, *f.evaluator);
  std::vector<double> z = {0.5};
  const auto a = traced.wrap(f.encryptor->encrypt(
      f.encoder->encode(std::span<const double>(z), 4, f.ctx->params().scale())));
  (void)traced.multiply_rescale(a, a, f.rk);

  // Identical parameters through the hand-built generator.
  workloads::CkksWl w;
  w.n = f.ctx->degree();
  w.level = 4;
  w.max_level = 4;
  w.dnum = 2;
  const auto reference = workloads::build_cmult(w);

  EXPECT_EQ(metaop::count(traced.graph()).meta, metaop::count(reference).meta);
  EXPECT_EQ(metaop::count(traced.graph()).origin, metaop::count(reference).origin);
}

TEST(TracedEvaluator, ArchScaleOverrideProjectsToPaperN) {
  TraceFixture& f = fx();
  // Trace the functional N=1024 program but cost it at N=65536.
  sim::TracedEvaluator traced(f.ctx, *f.evaluator, /*arch_n=*/65536,
                              /*hbm_stream_fraction=*/0.05);
  std::vector<double> z = {0.5};
  const auto a = traced.wrap(f.encryptor->encrypt(
      f.encoder->encode(std::span<const double>(z), 4, f.ctx->params().scale())));
  (void)traced.multiply_rescale(a, a, f.rk);

  const auto g = traced.graph();
  for (const auto& op : g.ops()) EXPECT_EQ(op.n, 65536u);
  const auto r = sim::simulate_alchemist(g, arch::ArchConfig::alchemist());
  EXPECT_GT(r.cycles, 1000u);
  EXPECT_GT(r.utilization, 0.5);
}

TEST(TracedEvaluator, TakeGraphResetsState) {
  TraceFixture& f = fx();
  sim::TracedEvaluator traced(f.ctx, *f.evaluator);
  std::vector<double> z = {0.5};
  const auto a = traced.wrap(f.encryptor->encrypt(
      f.encoder->encode(std::span<const double>(z), 4, f.ctx->params().scale())));
  (void)traced.add(a, a);
  const auto g = traced.take_graph("phase-1");
  EXPECT_EQ(g.name, "phase-1");
  EXPECT_EQ(g.ops().size(), 1u);
  EXPECT_TRUE(traced.graph().ops().empty());
}

}  // namespace
}  // namespace alchemist
