#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/data_layout.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "ckks/noise.h"
#include "common/primes.h"
#include "fault/fault_model.h"
#include "fault/injector.h"
#include "sim/alchemist_sim.h"
#include "sim/event_sim.h"
#include "workloads/ckks_workloads.h"
#include "workloads/tfhe_workloads.h"

namespace alchemist {
namespace {

metaop::OpGraph keyswitch_graph(double stream_fraction = 0.0) {
  workloads::CkksWl w = workloads::CkksWl::paper(44);
  w.hbm_stream_fraction = stream_fraction;
  return workloads::build_keyswitch(w);
}

std::vector<std::size_t> first_units(std::size_t n) {
  std::vector<std::size_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

TEST(FaultConfig, PolicyParsing) {
  EXPECT_EQ(fault::policy_from_string("none"), fault::Policy::None);
  EXPECT_EQ(fault::policy_from_string("detect-retry"), fault::Policy::DetectRetry);
  EXPECT_EQ(fault::policy_from_string("dmr"), fault::Policy::Dmr);
  EXPECT_THROW(fault::policy_from_string("bogus"), std::invalid_argument);
}

TEST(FaultModel, ValidatesConfig) {
  fault::FaultConfig bad_rate;
  bad_rate.compute_fault_rate = -0.1;
  EXPECT_THROW(fault::FaultModel(bad_rate, 128), std::invalid_argument);

  fault::FaultConfig bad_mask;
  bad_mask.masked_units = {128};
  EXPECT_THROW(fault::FaultModel(bad_mask, 128), std::invalid_argument);

  fault::FaultConfig all_masked;
  all_masked.masked_units = first_units(4);
  EXPECT_THROW(fault::FaultModel(all_masked, 4), std::invalid_argument);
}

TEST(FaultModel, InertWhenAllZero) {
  fault::FaultModel model(fault::FaultConfig{}, 128);
  EXPECT_FALSE(model.enabled());
  fault::FaultConfig dmr;
  dmr.policy = fault::Policy::Dmr;  // reserves shadow cores even with no rate
  EXPECT_TRUE(fault::FaultModel(dmr, 128).enabled());
}

bool same_faults(const fault::OpFaults& a, const fault::OpFaults& b) {
  return a.compute == b.compute && a.sram == b.sram && a.hbm == b.hbm;
}

TEST(FaultModel, SamplingIsSeedReproducible) {
  fault::FaultConfig fc;
  fc.seed = 99;
  fc.compute_fault_rate = 1e-6;
  fc.sram_fault_rate = 1e-7;
  fc.hbm_fault_rate = 1e-8;
  // Per-op expected counts 2.3, 0.42 and 0.17: every domain has a fractional
  // part to draw on, and compute an integer part that is always charged.
  const std::uint64_t core = 2'300'000, lanes = 1 << 22, bytes = 1 << 24;
  const fault::FaultModel a(fc, 128);
  const fault::FaultModel b(fc, 128);
  constexpr std::uint64_t kOps = 100'000;
  std::vector<fault::OpFaults> forward;
  forward.reserve(kOps);
  for (std::uint64_t op = 0; op < kOps; ++op) {
    forward.push_back(a.sample_op(op, core, lanes, bytes));
  }
  // Two models with one seed draw the same faults for an op, whatever order
  // the ops are drawn in.
  for (std::uint64_t op = kOps; op-- > 0;) {
    ASSERT_TRUE(same_faults(b.sample_op(op, core, lanes, bytes), forward[op])) << "op " << op;
  }
  for (std::uint64_t op = 0; op < kOps; op += 7) {
    ASSERT_TRUE(same_faults(a.sample_op(op, core, lanes, bytes), forward[op])) << "op " << op;
  }

  // Unbiased: over 10^5 op indices each domain's total lies within 5 sigma of
  // its expected count. Only the fractional part is random, so
  // sigma^2 = n * frac * (1 - frac).
  auto check_mean = [&](double expected, auto field, const char* domain) {
    std::uint64_t total = 0;
    for (const fault::OpFaults& f : forward) total += f.*field;
    const double frac = expected - std::floor(expected);
    const double n = static_cast<double>(kOps);
    const double sigma = std::sqrt(n * frac * (1.0 - frac));
    EXPECT_NEAR(static_cast<double>(total), n * expected, 5.0 * sigma) << domain;
  };
  check_mean(fc.compute_fault_rate * static_cast<double>(core), &fault::OpFaults::compute,
             "compute");
  check_mean(fc.sram_fault_rate * static_cast<double>(lanes), &fault::OpFaults::sram, "sram");
  check_mean(fc.hbm_fault_rate * static_cast<double>(bytes), &fault::OpFaults::hbm, "hbm");

  // A different seed draws a different pattern.
  fc.seed = 100;
  const fault::FaultModel c(fc, 128);
  std::size_t differ = 0;
  for (std::uint64_t op = 0; op < 64; ++op) {
    differ += same_faults(c.sample_op(op, core, lanes, bytes), forward[op]) ? 0 : 1;
  }
  EXPECT_GT(differ, 0u);
}

TEST(DegradedSlotLayout, RepartitionsOverHealthyUnits) {
  arch::DegradedSlotLayout full(1 << 16, 128, {});
  EXPECT_EQ(full.healthy_units(), 128u);
  EXPECT_DOUBLE_EQ(full.padding_factor(), 1.0);

  arch::DegradedSlotLayout degraded(1 << 16, 128, {0, 5, 17});
  EXPECT_EQ(degraded.healthy_units(), 125u);
  EXPECT_FALSE(degraded.is_healthy(5));
  EXPECT_TRUE(degraded.is_healthy(1));
  EXPECT_GE(degraded.padding_factor(), 1.0);
  EXPECT_GE(degraded.padded_slots(), std::size_t{1} << 16);
  // Slot 0 lands on the first healthy unit, never a masked one.
  EXPECT_EQ(degraded.unit_of_slot(0), 1u);
  for (std::size_t s = 0; s < (std::size_t{1} << 16); s += 977) {
    EXPECT_TRUE(degraded.is_healthy(degraded.unit_of_slot(s)));
  }
  EXPECT_THROW(degraded.unit_of_slot(std::size_t{1} << 16), std::out_of_range);
  EXPECT_THROW(arch::DegradedSlotLayout(64, 2, {0, 1}), std::invalid_argument);
}

TEST(DegradedSlotLayout, SurvivesAllButOneUnitMasked) {
  // 127 of 128 units gone: the single survivor owns every slot.
  std::vector<std::size_t> mask;
  for (std::size_t u = 0; u < 128; ++u) {
    if (u != 77) mask.push_back(u);
  }
  const std::size_t n = 1 << 12;
  arch::DegradedSlotLayout one(n, 128, mask);
  EXPECT_EQ(one.healthy_units(), 1u);
  EXPECT_EQ(one.masked_units(), 127u);
  EXPECT_EQ(one.slots_per_unit(), n);
  EXPECT_EQ(one.padded_slots(), n);
  EXPECT_DOUBLE_EQ(one.padding_factor(), 1.0);  // one stripe, no remainder
  for (std::size_t s = 0; s < n; s += 501) EXPECT_EQ(one.unit_of_slot(s), 77u);
  EXPECT_EQ(one.unit_of_slot(n - 1), 77u);
}

TEST(DegradedSlotLayout, FullMaskIsATypedFailure) {
  // Masking every unit (including via duplicate ids) must throw, as must
  // out-of-range ids — never a silent empty stripe.
  std::vector<std::size_t> all;
  for (std::size_t u = 0; u < 16; ++u) all.push_back(u);
  EXPECT_THROW(arch::DegradedSlotLayout(1 << 10, 16, all), std::invalid_argument);
  all.push_back(0);  // duplicates still cover every unit
  EXPECT_THROW(arch::DegradedSlotLayout(1 << 10, 16, all), std::invalid_argument);
  EXPECT_THROW(arch::DegradedSlotLayout(1 << 10, 16, {16}), std::invalid_argument);
  EXPECT_THROW(arch::DegradedSlotLayout(1 << 10, 16, {1000}), std::invalid_argument);
}

TEST(DegradedSlotLayout, RestripingIsStableAcrossRepeatedConstruction) {
  // The stripe is a pure function of (n, total, mask): rebuilding the layout
  // (in any mask order, with duplicates) must reproduce the exact assignment.
  const std::size_t n = 1 << 14;
  arch::DegradedSlotLayout a(n, 64, {3, 9, 41, 63});
  arch::DegradedSlotLayout b(n, 64, {63, 41, 9, 3});
  arch::DegradedSlotLayout c(n, 64, {3, 3, 9, 9, 41, 63, 63});
  EXPECT_EQ(a.healthy_units(), 60u);
  EXPECT_EQ(b.healthy_units(), 60u);
  EXPECT_EQ(c.healthy_units(), 60u);
  EXPECT_EQ(a.slots_per_unit(), b.slots_per_unit());
  EXPECT_EQ(a.padding_factor(), b.padding_factor());
  for (std::size_t s = 0; s < n; ++s) {
    ASSERT_EQ(a.unit_of_slot(s), b.unit_of_slot(s)) << "slot " << s;
    ASSERT_EQ(a.unit_of_slot(s), c.unit_of_slot(s)) << "slot " << s;
  }
  // Slot ownership is monotone in the slot index (contiguous stripes).
  std::size_t prev = a.unit_of_slot(0);
  for (std::size_t s = 1; s < n; ++s) {
    const std::size_t u = a.unit_of_slot(s);
    ASSERT_GE(u, prev) << "stripe not contiguous at slot " << s;
    prev = u;
  }
}

TEST(FaultSim, ZeroRateIsBitIdenticalToNoModel) {
  const auto graph = keyswitch_graph(1.0);
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  const auto plain = sim::simulate_alchemist(graph, cfg);
  fault::FaultModel inert(fault::FaultConfig{}, cfg.num_units);
  const auto with_model = sim::simulate_alchemist(graph, cfg, nullptr, &inert);
  EXPECT_EQ(plain.cycles, with_model.cycles);
  EXPECT_EQ(plain.registry.counters(), with_model.registry.counters());
  EXPECT_EQ(plain.registry.gauges(), with_model.registry.gauges());

  const auto plain_ev = sim::simulate_alchemist_events(graph, cfg);
  const auto model_ev = sim::simulate_alchemist_events(graph, cfg, nullptr, &inert);
  EXPECT_EQ(plain_ev.cycles, model_ev.cycles);
  EXPECT_EQ(plain_ev.registry.counters(), model_ev.registry.counters());
  EXPECT_EQ(plain_ev.registry.gauges(), model_ev.registry.gauges());
}

TEST(FaultSim, MaskedUnitsDegradeMonotonically) {
  // Compute-bound configuration (no key streaming) so lost cores show up in
  // the critical path; cycles must grow strictly with the mask on both
  // engines and every schedule must stay valid.
  const auto graph = keyswitch_graph(0.0);
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  const auto baseline = sim::simulate_alchemist(graph, cfg);
  std::uint64_t prev = baseline.cycles;
  std::uint64_t prev_ev = sim::simulate_alchemist_events(graph, cfg).cycles;
  for (std::size_t masked : {8, 16, 32}) {
    fault::FaultConfig fc;
    fc.masked_units = first_units(masked);
    fault::FaultModel model(fc, cfg.num_units);
    const auto r = sim::simulate_alchemist(graph, cfg, nullptr, &model);
    EXPECT_GT(r.cycles, prev) << masked << " masked units (level engine)";
    EXPECT_GT(r.time_us, 0.0);
    EXPECT_EQ(r.registry.counter(fault::metrics::kMaskedUnits), masked);
    prev = r.cycles;

    const auto rev = sim::simulate_alchemist_events(graph, cfg, nullptr, &model);
    EXPECT_GT(rev.cycles, prev_ev) << masked << " masked units (event engine)";
    prev_ev = rev.cycles;
  }
}

TEST(FaultSim, FixedSeedRunsAreReproducible) {
  const auto graph = keyswitch_graph(1.0);
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  fault::FaultConfig fc;
  fc.seed = 0xfa117;
  fc.compute_fault_rate = fc.sram_fault_rate = fc.hbm_fault_rate = 1e-8;
  fc.policy = fault::Policy::DetectRetry;
  fault::FaultModel m1(fc, cfg.num_units);
  fault::FaultModel m2(fc, cfg.num_units);
  const auto r1 = sim::simulate_alchemist(graph, cfg, nullptr, &m1);
  const auto r2 = sim::simulate_alchemist(graph, cfg, nullptr, &m2);
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.registry.counters(), r2.registry.counters());
  EXPECT_GT(r1.registry.counter(fault::metrics::kInjected), 0u);

  // A different seed draws a different fault pattern.
  fc.seed = 1;
  fault::FaultModel m3(fc, cfg.num_units);
  const auto r3 = sim::simulate_alchemist(graph, cfg, nullptr, &m3);
  EXPECT_NE(r1.registry.counter(fault::metrics::kInjected),
            r3.registry.counter(fault::metrics::kInjected));
}

TEST(FaultSim, PoliciesPriceFaultsDifferently) {
  const auto graph = keyswitch_graph(0.0);
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  const auto baseline = sim::simulate_alchemist(graph, cfg);

  fault::FaultConfig fc;
  fc.compute_fault_rate = fc.sram_fault_rate = fc.hbm_fault_rate = 1e-8;

  // none: schedule unchanged, yield lost.
  fc.policy = fault::Policy::None;
  fault::FaultModel none_model(fc, cfg.num_units);
  const auto none_r = sim::simulate_alchemist(graph, cfg, nullptr, &none_model);
  EXPECT_EQ(none_r.cycles, baseline.cycles);
  EXPECT_GT(none_r.registry.counter(fault::metrics::kCorruptedOps), 0u);
  EXPECT_EQ(none_r.registry.counter(fault::metrics::kRetries), 0u);

  // detect-retry: yield preserved, cycles paid.
  fc.policy = fault::Policy::DetectRetry;
  fault::FaultModel retry_model(fc, cfg.num_units);
  const auto retry_r = sim::simulate_alchemist(graph, cfg, nullptr, &retry_model);
  EXPECT_GT(retry_r.cycles, baseline.cycles);
  EXPECT_GT(retry_r.registry.counter(fault::metrics::kRetries), 0u);
  EXPECT_GT(retry_r.registry.counter(fault::metrics::kRetryCycles), 0u);
  EXPECT_EQ(retry_r.registry.counter(fault::metrics::kCorruptedOps), 0u);

  // dmr: halved cores cost cycles even before any fault lands.
  fc.policy = fault::Policy::Dmr;
  fc.compute_fault_rate = fc.sram_fault_rate = fc.hbm_fault_rate = 0.0;
  fault::FaultModel dmr_model(fc, cfg.num_units);
  const auto dmr_r = sim::simulate_alchemist(graph, cfg, nullptr, &dmr_model);
  EXPECT_GT(dmr_r.cycles, baseline.cycles);
}

// Fault counters the engine books, by key.
std::map<std::string, std::uint64_t> fault_counters(const sim::SimResult& r) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [key, value] : r.registry.counters()) {
    if (key.rfind("fault.", 0) == 0) out.emplace(key, value);
  }
  return out;
}

TEST(FaultSim, PoliciesDrawIdenticalFaults) {
  // The level policy prices ops level by level, the ready list in graph index
  // order; the draw is keyed by op index, so both inject the same faults
  // into the same ops and book identical fault.* counters.
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  fault::FaultConfig fc;
  fc.compute_fault_rate = 1e-7;
  fc.sram_fault_rate = 1e-8;
  fc.hbm_fault_rate = 1e-9;
  fc.policy = fault::Policy::DetectRetry;
  const fault::FaultModel model(fc, cfg.num_units);

  workloads::CkksWl resident = workloads::CkksWl::paper(44);
  resident.hbm_stream_fraction = 0.05;
  workloads::TfheWl pbs = workloads::TfheWl::set_i();
  const double bk_mb = pbs.bk_bytes() / 1e6;
  pbs.hbm_stream_fraction = bk_mb <= 33.0 ? 0.0 : 1.0 - 33.0 / bk_mb;
  const metaop::OpGraph p = workloads::build_pbs(pbs);
  const metaop::OpGraph boot_resident = workloads::build_bootstrapping(resident, true);
  const metaop::OpGraph graphs[] = {
      workloads::build_helr_iteration(workloads::CkksWl::paper(30)),
      workloads::build_lola_mnist(true),
      workloads::build_bootstrapping(workloads::CkksWl::paper(44), false),
      sim::merge_graphs({boot_resident, p, p, p, p}, "xs"),
  };
  for (const metaop::OpGraph& g : graphs) {
    const auto level = fault_counters(sim::simulate_alchemist(g, cfg, nullptr, &model));
    const auto ready =
        fault_counters(sim::simulate_alchemist_events(g, cfg, nullptr, &model));
    EXPECT_GT(level.at(fault::metrics::kInjected), 0u) << g.name;
    EXPECT_EQ(level, ready) << g.name;
  }
}

TEST(FaultSim, SharedModelServesConcurrentRuns) {
  // The model is immutable: two threads simulating one faulty graph through
  // one model must each reproduce the sequential result.
  const auto graph = keyswitch_graph(1.0);
  const arch::ArchConfig cfg = arch::ArchConfig::alchemist();
  fault::FaultConfig fc;
  fc.compute_fault_rate = fc.sram_fault_rate = fc.hbm_fault_rate = 1e-8;
  fc.policy = fault::Policy::DetectRetry;
  const fault::FaultModel model(fc, cfg.num_units);
  auto run = [&](bool event) {
    return event ? sim::simulate_alchemist_events(graph, cfg, nullptr, &model)
                 : sim::simulate_alchemist(graph, cfg, nullptr, &model);
  };
  for (bool event : {false, true}) {
    const sim::SimResult ref = run(event);
    ASSERT_GT(ref.registry.counter(fault::metrics::kInjected), 0u);
    sim::SimResult results[2];
    std::thread t0([&] { results[0] = run(event); });
    std::thread t1([&] { results[1] = run(event); });
    t0.join();
    t1.join();
    for (const sim::SimResult& r : results) {
      EXPECT_EQ(r.cycles, ref.cycles);
      EXPECT_EQ(r.registry.counters(), ref.registry.counters());
      EXPECT_EQ(r.registry.gauges(), ref.registry.gauges());
    }
  }
}

TEST(FaultInjector, CorruptsExactlyOneResidue) {
  const auto moduli = generate_ntt_primes(30, 64, 3);
  RnsPoly p(64, moduli);
  RnsPoly q = p;
  fault::Injector injector(7);
  const auto [channel, index] = injector.corrupt(q);
  EXPECT_LT(channel, q.num_channels());
  EXPECT_LT(index, q.degree());
  EXPECT_NE(fault::poly_checksum(p), fault::poly_checksum(q));
  std::size_t diffs = 0;
  for (std::size_t c = 0; c < p.num_channels(); ++c) {
    for (std::size_t i = 0; i < p.degree(); ++i) {
      if (p.channel(c)[i] != q.channel(c)[i]) ++diffs;
    }
  }
  EXPECT_EQ(diffs, 1u);
  EXPECT_EQ(injector.injected(), 1u);
}

class FaultEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_ = std::make_shared<ckks::CkksContext>(ckks::CkksParams::toy(512, 4, 2));
    encoder_ = std::make_unique<ckks::CkksEncoder>(ctx_);
    keygen_ = std::make_unique<ckks::KeyGenerator>(ctx_, 4);
    encryptor_ = std::make_unique<ckks::Encryptor>(ctx_, keygen_->make_public_key());
    decryptor_ = std::make_unique<ckks::Decryptor>(ctx_, keygen_->secret_key());
    relin_ = keygen_->make_relin_keys();
  }

  ckks::Ciphertext encrypt(const std::vector<double>& z) {
    return encryptor_->encrypt(
        encoder_->encode(std::span<const double>(z), 4, ctx_->params().scale()));
  }

  ckks::ContextPtr ctx_;
  std::unique_ptr<ckks::CkksEncoder> encoder_;
  std::unique_ptr<ckks::KeyGenerator> keygen_;
  std::unique_ptr<ckks::Encryptor> encryptor_;
  std::unique_ptr<ckks::Decryptor> decryptor_;
  ckks::RelinKeys relin_;
};

TEST_F(FaultEndToEnd, NoiseGuardFlagsCorruptedCiphertext) {
  ckks::Ciphertext ct = encrypt({1.5, -2.0, 0.25});
  ckks::NoiseGuard guard(ctx_, *decryptor_);
  EXPECT_TRUE(guard.check(ct).healthy);
  EXPECT_NO_THROW(guard.require_healthy(ct));

  // A single flipped residue (the functional image of a lane/SRAM upset with
  // policy `none`) decorrelates decryption; the guard must flag it before the
  // garbage plaintext escapes.
  fault::Injector injector(11);
  injector.corrupt(ct.c0);
  const auto report = guard.check(ct);
  EXPECT_FALSE(report.healthy);
  EXPECT_GT(report.coeff_bits, report.budget_bits);
  EXPECT_THROW(guard.require_healthy(ct), ckks::CorruptCiphertextError);
}

TEST_F(FaultEndToEnd, DetectRetryRecoversCorrectDecryption) {
  const ckks::Ciphertext a = encrypt({0.5, 1.0, -1.5});
  ckks::Evaluator evaluator(ctx_);
  ckks::NoiseGuard guard(ctx_, *decryptor_);
  obs::Registry registry;
  fault::Injector injector(23);
  fault::Retrier retrier(4, &registry);

  // First execution takes a kernel fault; detect-retry's validation catches
  // it and the bounded re-execution produces a clean result.
  std::size_t attempt = 0;
  const ckks::Ciphertext result = retrier.run(
      [&] {
        ckks::Ciphertext sq = evaluator.rescale(evaluator.multiply(a, a, relin_));
        if (attempt++ == 0) injector.corrupt(sq.c1);
        return sq;
      },
      [&](const ckks::Ciphertext& ct) { return guard.check(ct).healthy; });

  EXPECT_EQ(retrier.retries(), 1u);
  EXPECT_EQ(registry.counter(fault::metrics::kRetries), 1u);
  const auto dec = decryptor_->decrypt(result, *encoder_);
  EXPECT_NEAR(dec[0].real(), 0.25, 1e-3);
  EXPECT_NEAR(dec[1].real(), 1.0, 1e-3);
  EXPECT_NEAR(dec[2].real(), 2.25, 1e-3);
}

TEST_F(FaultEndToEnd, RetrierGivesUpAfterMaxRetries) {
  obs::Registry registry;
  fault::Retrier retrier(2, &registry);
  EXPECT_THROW(retrier.run([] { return 0; }, [](int) { return false; }),
               fault::UnrecoverableFaultError);
  EXPECT_EQ(registry.counter(fault::metrics::kRetries), 2u);
}

TEST_F(FaultEndToEnd, DecryptorValidationRejectsCorruption) {
  ckks::Ciphertext ct = encrypt({1.0});
  decryptor_->set_validate(true);
  EXPECT_NO_THROW(decryptor_->decrypt_coeffs(ct));
  // Hand-corrupt a residue to >= q: a structural violation the invariant
  // check rejects before any decryption math runs.
  ct.c1.channel(0)[3] = ct.c1.channel_modulus(0).value();
  EXPECT_THROW(decryptor_->decrypt_coeffs(ct), std::logic_error);
  decryptor_->set_validate(false);
  EXPECT_NO_THROW(decryptor_->decrypt_coeffs(ct));
}

}  // namespace
}  // namespace alchemist
