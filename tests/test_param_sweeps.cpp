// Property sweeps across parameter grids: every supported parameter set must
// keep the schemes correct, not just the defaults the other tests use.
#include <gtest/gtest.h>

#include <memory>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "common/rng.h"
#include "tfhe/bootstrap.h"
#include "metaop/mult_count.h"
#include "workloads/bfv_workloads.h"
#include "workloads/ckks_workloads.h"
#include "workloads/tfhe_workloads.h"

namespace alchemist {
namespace {

// ---------------- CKKS grid ----------------

struct CkksGridParam {
  std::size_t n;
  std::size_t levels;
  std::size_t dnum;
  std::size_t hamming;  // 0 = dense
};

class CkksGrid : public ::testing::TestWithParam<CkksGridParam> {};

TEST_P(CkksGrid, EncryptMultiplyRotateStaysAccurate) {
  const auto [n, levels, dnum, hamming] = GetParam();
  ckks::CkksParams params = ckks::CkksParams::toy(n, levels, dnum);
  params.secret_hamming_weight = hamming;
  auto ctx = std::make_shared<ckks::CkksContext>(params);
  ckks::CkksEncoder encoder(ctx);
  ckks::KeyGenerator keygen(ctx, 100 + n + levels);
  ckks::Encryptor encryptor(ctx, keygen.make_public_key());
  ckks::Decryptor decryptor(ctx, keygen.secret_key());
  ckks::Evaluator evaluator(ctx);
  const ckks::RelinKeys rk = keygen.make_relin_keys();
  const ckks::GaloisKeys gk = keygen.make_galois_keys({1});

  Rng rng(n * 31 + levels);
  std::vector<double> z(encoder.slots());
  for (double& v : z) v = 0.9 * (2 * rng.uniform_real() - 1);
  const ckks::Ciphertext ct = encryptor.encrypt(
      encoder.encode(std::span<const double>(z), levels, params.scale()));

  // Round trip.
  auto dec = decryptor.decrypt(ct, encoder);
  for (std::size_t i = 0; i < z.size(); ++i) {
    ASSERT_NEAR(dec[i].real(), z[i], 1e-4) << "roundtrip slot " << i;
  }
  // Square.
  dec = decryptor.decrypt(evaluator.rescale(evaluator.multiply(ct, ct, rk)), encoder);
  for (std::size_t i = 0; i < z.size(); ++i) {
    ASSERT_NEAR(dec[i].real(), z[i] * z[i], 5e-3) << "square slot " << i;
  }
  // Rotate.
  dec = decryptor.decrypt(evaluator.rotate(ct, 1, gk), encoder);
  for (std::size_t i = 0; i + 1 < z.size(); i += 97) {
    ASSERT_NEAR(dec[i].real(), z[(i + 1) % z.size()], 5e-3) << "rotate slot " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CkksGrid,
    ::testing::Values(CkksGridParam{512, 3, 1, 0}, CkksGridParam{1024, 4, 2, 0},
                      CkksGridParam{1024, 6, 3, 0}, CkksGridParam{2048, 4, 2, 0},
                      CkksGridParam{2048, 8, 4, 0}, CkksGridParam{1024, 4, 4, 0},
                      CkksGridParam{1024, 4, 2, 64}));

// ---------------- TFHE grid ----------------

struct TfheGridParam {
  std::size_t degree;
  int bg_bits;
  std::size_t l;
};

class TfheGrid : public ::testing::TestWithParam<TfheGridParam> {};

TEST_P(TfheGrid, GateBootstrapCorrectAcrossDecompositions) {
  const auto [degree, bg_bits, l] = GetParam();
  tfhe::TfheParams params = tfhe::TfheParams::toy();
  params.degree = degree;
  params.bg_bits = bg_bits;
  params.l = l;
  Rng rng(degree + static_cast<u64>(bg_bits));
  const tfhe::LweKey lwe_key = tfhe::lwe_keygen(params.n_lwe, rng);
  const tfhe::TrlweKey trlwe_key = tfhe::trlwe_keygen(params, rng);
  const tfhe::BootstrapContext ctx =
      tfhe::make_bootstrap_context(params, lwe_key, trlwe_key, rng);

  for (bool a : {false, true}) {
    for (bool b : {false, true}) {
      const auto ea = tfhe::encrypt_bit(a, lwe_key, params.lwe_sigma, rng);
      const auto eb = tfhe::encrypt_bit(b, lwe_key, params.lwe_sigma, rng);
      ASSERT_EQ(tfhe::decrypt_bit(tfhe::gate_nand(ea, eb, ctx), lwe_key), !(a && b))
          << degree << "/" << bg_bits << "/" << l;
      ASSERT_EQ(tfhe::decrypt_bit(tfhe::gate_xor(ea, eb, ctx), lwe_key), a != b)
          << degree << "/" << bg_bits << "/" << l;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, TfheGrid,
                         ::testing::Values(TfheGridParam{64, 8, 4},
                                           TfheGridParam{128, 7, 3},
                                           TfheGridParam{256, 6, 5},
                                           TfheGridParam{128, 4, 8},
                                           TfheGridParam{64, 12, 3}));

// ---------------- Workload-generator grid ----------------

class WorkloadLevelGrid : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorkloadLevelGrid, GraphsValidAtEveryLevel) {
  const std::size_t level = GetParam();
  const workloads::CkksWl w = workloads::CkksWl::paper(level);
  for (const auto& g : {workloads::build_keyswitch(w), workloads::build_cmult(w),
                        workloads::build_rotation(w)}) {
    for (std::size_t i = 0; i < g.ops().size(); ++i) {
      for (std::size_t dep : g.deps(i)) {
        ASSERT_LT(dep, i) << g.name << " level " << level;
      }
    }
    ASSERT_GT(metaop::count(g).meta, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, WorkloadLevelGrid,
                         ::testing::Values(2, 3, 8, 11, 12, 23, 33, 44));

}  // namespace
}  // namespace alchemist
