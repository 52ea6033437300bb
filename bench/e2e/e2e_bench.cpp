// e2e_bench — one workload of the end-to-end benchmark per process.
//
//   e2e_bench --workload <tfhe_gates|ckks_boot|ckks_helr|chip_paper>
//             [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH] [--smoke]
//
// Load model: one client in a closed loop. A request starts once the previous
// one has returned and its output has been checked (checks are not timed).
// The process sets the workload up 5 times (timing each; the last set-up is
// kept), runs 5 untimed warm-up requests, then measures requests for
// --seconds. With --trace 1 the first half of the budget runs untraced, as the
// overhead baseline, and the second half replays each request as spans around
// the library's public calls. --smoke sets up once, skips the warm-up and runs
// exactly 2 requests per phase.
//
// The seed generates every input and key seed; the library only receives the
// generated ciphertexts and keys. Output is one JSON object on stdout, which
// bench/e2e/run.py turns into metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/config.h"
#include "ckks/bootstrap.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "ckks/linear_transform.h"
#include "ckks/poly_eval.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/json.h"
#include "sim/alchemist_sim.h"
#include "sim/event_sim.h"
#include "span_recorder.h"
#include "tfhe/bootstrap.h"
#include "workloads/ckks_workloads.h"
#include "workloads/tfhe_workloads.h"

namespace {

using namespace alchemist;
using e2e::SpanRecorder;
using Clock = std::chrono::steady_clock;
using Scope = SpanRecorder::Scope;
using Complex = std::complex<double>;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Independent streams (keys, encryption noise, inputs) from one workload seed.
u64 derive_seed(u64 seed, u64 stream) {
  u64 z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
enum Stream : u64 { kKeys = 1, kNoise = 2, kInputs = 3, kRequests = 4 };

double precision_bits(double max_err) {
  return max_err > 0 ? -std::log2(max_err) : 64.0;
}

// Per-layer values besides the span shares, filled by the workloads.
using Values = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  // Contexts, keys and precomputation. Called once per set-up sample; each
  // call replaces the previous state.
  virtual void setup(u64 seed) = 0;
  // The timed operation of request i.
  virtual void request(std::size_t i) = 0;
  // Request i replayed as the library's public calls, each under a span.
  virtual void traced_request(std::size_t i, SpanRecorder& rec) = 0;
  // Untimed check of the last request's output: "" when correct.
  virtual std::string check(std::size_t i, bool traced) = 0;
  // Untimed single-call probes after a traced request, recorded as root spans.
  virtual void probe(SpanRecorder&) {}
  // Span names whose per-request call count is reported.
  virtual std::vector<std::string> counted_spans() const { return {}; }
  // Extra per-layer values from the traced phase (span stats per name,
  // mean traced request ns).
  virtual void layer_values(const std::map<std::string, SpanRecorder::NameStats>&,
                            std::size_t, double, Values&) {}
  // Values reported in both modes (precision, simulated results).
  virtual void info(Values&) const {}
};

// ----------------------------------------------------------------------------
// tfhe_gates: bootstrapped 2-input gates over a pool of encrypted wires.

class TfheGates final : public Workload {
 public:
  static constexpr std::size_t kWires = 16;
  static constexpr u64 kEighth = u64{1} << 61;
  enum Gate { kNand, kAnd, kOr, kXor, kXnor, kNor, kNumGates };

  void setup(u64 seed) override {
    st_.reset();  // never hold two bootstrapping keys at once
    auto st = std::make_unique<State>();
    Rng key_rng(derive_seed(seed, kKeys));
    st->params = tfhe::TfheParams::set_i();
    st->lwe_key = tfhe::lwe_keygen(st->params.n_lwe, key_rng);
    st->trlwe_key = tfhe::trlwe_keygen(st->params, key_rng);
    st->ctx = tfhe::make_bootstrap_context(st->params, st->lwe_key, st->trlwe_key,
                                           key_rng);
    Rng noise(derive_seed(seed, kNoise));
    Rng inputs(derive_seed(seed, kInputs));
    for (std::size_t w = 0; w < kWires; ++w) {
      st->bits[w] = (inputs.next() & 1) != 0;
      st->wires.push_back(
          tfhe::encrypt_bit(st->bits[w], st->lwe_key, st->params.lwe_sigma, noise));
    }
    st->requests = Rng(derive_seed(seed, kRequests));
    st_ = std::move(st);
  }

  void request(std::size_t) override {
    draw();
    const auto gate = kGateFns[cur_.gate];
    out_ = gate(st_->wires[cur_.a], st_->wires[cur_.b], st_->ctx);
  }

  void traced_request(std::size_t, SpanRecorder& rec) override {
    draw();
    const tfhe::TfheParams& p = st_->params;
    tfhe::LweSample linear;
    tfhe::TorusPoly test_poly;
    {
      Scope s(rec, "tfhe.gate_linear");
      linear = gate_linear(cur_.gate, st_->wires[cur_.a], st_->wires[cur_.b]);
      test_poly = tfhe::make_constant_test_poly(p.degree, kEighth);
    }
    Scope pbs(rec, "tfhe.pbs");
    std::vector<u64> bara(linear.dimension());
    u64 barb = 0;
    {
      Scope s(rec, "tfhe.modswitch");
      for (std::size_t i = 0; i < bara.size(); ++i) {
        bara[i] = tfhe::torus_to_z2n(linear.a[i], p.degree);
      }
      barb = tfhe::torus_to_z2n(linear.b, p.degree);
    }
    tfhe::TrlweSample acc;
    {
      tfhe::TrlweSample tv;
      {
        Scope s(rec, "tfhe.trivial");
        tv = tfhe::trlwe_trivial(p, test_poly);
      }
      Scope br(rec, "tfhe.blind_rotate");
      const u64 two_n = 2 * static_cast<u64>(p.degree);
      {
        Scope s(rec, "tfhe.rotate");
        acc = tv.rotate((two_n - barb % two_n) % two_n);
      }
      for (std::size_t i = 0; i < bara.size(); ++i) {
        const u64 shift = bara[i] % two_n;
        if (shift == 0) continue;
        tfhe::TrlweSample rotated;
        {
          Scope s(rec, "tfhe.rotate");
          rotated = acc.rotate(shift);
        }
        if (probe_operands_.a.empty()) {
          probe_operands_ = rotated;
          probe_operands_ -= acc;
          probe_bit_ = i;
        }
        Scope s(rec, "tfhe.cmux");
        acc = tfhe::cmux(st_->ctx.bk[i], acc, rotated);
      }
    }
    tfhe::LweSample extracted;
    {
      Scope s(rec, "tfhe.sample_extract");
      extracted = tfhe::sample_extract(acc);
    }
    Scope s(rec, "tfhe.lwe_keyswitch");
    out_ = tfhe::keyswitch(extracted, st_->ctx.ksk);
  }

  // external_product on the operands of the request's first CMux, against
  // that step's key and the next ones, so keys come from memory as they do
  // in the blind rotation.
  void probe(SpanRecorder& rec) override {
    constexpr std::size_t kCalls = 8;
    if (probe_operands_.a.empty()) return;  // the request failed early
    for (std::size_t j = 0; j < kCalls; ++j) {
      const std::size_t bit = (probe_bit_ + j) % st_->ctx.bk.size();
      Scope s(rec, "probe.tfhe.ext_product");
      (void)tfhe::external_product(st_->ctx.bk[bit], probe_operands_);
    }
    probe_operands_ = {};
  }

  std::string check(std::size_t, bool traced) override {
    if (traced) {
      const tfhe::LweSample ref = kGateFns[cur_.gate](st_->wires[cur_.a],
                                                      st_->wires[cur_.b], st_->ctx);
      if (ref.a != out_.a || ref.b != out_.b) {
        return "tfhe_gates: traced replay differs from the gate function";
      }
    }
    const bool expect = eval_gate(cur_.gate, st_->bits[cur_.a], st_->bits[cur_.b]);
    if (tfhe::decrypt_bit(out_, st_->lwe_key) != expect) {
      return "tfhe_gates: gate output decrypts to the wrong bit";
    }
    st_->wires[cur_.dst] = out_;
    st_->bits[cur_.dst] = expect;
    return "";
  }

  std::vector<std::string> counted_spans() const override { return {"tfhe.cmux"}; }

  void layer_values(const std::map<std::string, SpanRecorder::NameStats>& stats,
                    std::size_t requests, double request_ns, Values& out) override {
    auto total = [&](const char* name) {
      auto it = stats.find(name);
      return it == stats.end() ? 0.0 : it->second.total_ns;
    };
    auto count = [&](const char* name) {
      auto it = stats.find(name);
      return it == stats.end() ? 0.0 : static_cast<double>(it->second.count);
    };
    // Share of the request spent in external products, estimated from the
    // probe's mean call time and the CMux count.
    const double probe_ns = total("probe.tfhe.ext_product") / count("probe.tfhe.ext_product");
    out["tfhe.ext_product_share"] =
        probe_ns * count("tfhe.cmux") / static_cast<double>(requests) / request_ns;
    double steps = 0;
    for (const char* step : {"tfhe.modswitch", "tfhe.trivial", "tfhe.rotate", "tfhe.cmux",
                             "tfhe.sample_extract", "tfhe.lwe_keyswitch"}) {
      steps += total(step);
    }
    out["tfhe.replay_coverage"] = steps / total("tfhe.pbs");
  }

 private:
  using GateFn = tfhe::LweSample (*)(const tfhe::LweSample&, const tfhe::LweSample&,
                                     const tfhe::BootstrapContext&);
  static constexpr GateFn kGateFns[kNumGates] = {tfhe::gate_nand, tfhe::gate_and,
                                                 tfhe::gate_or,   tfhe::gate_xor,
                                                 tfhe::gate_xnor, tfhe::gate_nor};

  static bool eval_gate(int gate, bool a, bool b) {
    switch (gate) {
      case kNand: return !(a && b);
      case kAnd: return a && b;
      case kOr: return a || b;
      case kXor: return a != b;
      case kXnor: return a == b;
      default: return !(a || b);
    }
  }

  // The linear combination each gate function bootstraps (tfhe/bootstrap.cpp).
  static tfhe::LweSample gate_linear(int gate, const tfhe::LweSample& a,
                                     const tfhe::LweSample& b) {
    const std::size_t n = a.dimension();
    const u64 quarter = u64{1} << 62;
    tfhe::LweSample out;
    switch (gate) {
      case kNand: out = tfhe::lwe_trivial(n, kEighth); out -= a; out -= b; break;
      case kAnd: out = tfhe::lwe_trivial(n, ~kEighth + 1); out += a; out += b; break;
      case kOr: out = tfhe::lwe_trivial(n, kEighth); out += a; out += b; break;
      case kNor: out = tfhe::lwe_trivial(n, ~kEighth + 1); out -= a; out -= b; break;
      default: {
        tfhe::LweSample sum = a;
        sum += b;
        sum.mul_int(2);
        if (gate == kXor) {
          out = tfhe::lwe_trivial(n, quarter);
          out += sum;
        } else {
          out = tfhe::lwe_trivial(n, ~quarter + 1);
          out -= sum;
        }
      }
    }
    return out;
  }

  void draw() {
    Rng& r = st_->requests;
    cur_.gate = static_cast<int>(r.uniform(kNumGates));
    cur_.a = r.uniform(kWires);
    cur_.b = r.uniform(kWires);
    cur_.dst = r.uniform(kWires);
  }

  struct State {
    tfhe::TfheParams params;
    tfhe::LweKey lwe_key;
    tfhe::TrlweKey trlwe_key;
    tfhe::BootstrapContext ctx;
    std::vector<tfhe::LweSample> wires;
    bool bits[kWires] = {};
    Rng requests;
  };
  struct Draw {
    int gate = 0;
    std::size_t a = 0, b = 0, dst = 0;
  };

  std::unique_ptr<State> st_;
  Draw cur_;
  tfhe::LweSample out_;
  tfhe::TrlweSample probe_operands_;
  std::size_t probe_bit_ = 0;
};

// ----------------------------------------------------------------------------
// CKKS shared set-up: keys, encoder, evaluator for one parameter set.

struct CkksBase {
  explicit CkksBase(const ckks::CkksParams& params, u64 seed)
      : ctx(std::make_shared<ckks::CkksContext>(params)),
        encoder(ctx),
        keygen(ctx, derive_seed(seed, kKeys)),
        encryptor(ctx, keygen.make_public_key(), derive_seed(seed, kNoise)),
        decryptor(ctx, keygen.secret_key()),
        evaluator(ctx),
        relin(keygen.make_relin_keys()) {}

  ckks::ContextPtr ctx;
  ckks::CkksEncoder encoder;
  ckks::KeyGenerator keygen;
  ckks::Encryptor encryptor;
  ckks::Decryptor decryptor;
  ckks::Evaluator evaluator;
  ckks::RelinKeys relin;
  ckks::GaloisKeys galois;
};

bool same_ciphertext(const ckks::Ciphertext& x, const ckks::Ciphertext& y) {
  return x.level == y.level && x.scale == y.scale && x.c0 == y.c0 && x.c1 == y.c1;
}

// ----------------------------------------------------------------------------
// ckks_boot: Bootstrapper::bootstrap of seeded level-1 ciphertexts.

class CkksBoot final : public Workload {
 public:
  static constexpr std::size_t kMessages = 4;
  // 2 bits below the 11.47 bits measured on seed 1.
  static constexpr double kPrecisionFloor = 9.4;

  void setup(u64 seed) override {
    st_.reset();
    ckks::CkksParams params = ckks::CkksParams::toy(256, 20, 4);
    params.prime_bits = 45;
    params.log_scale = 45;
    params.secret_hamming_weight = 32;
    auto st = std::make_unique<State>(params, seed);
    CkksBase& b = st->base;
    b.galois = b.keygen.make_galois_keys(ckks::Bootstrapper::required_rotations(*b.ctx),
                                         /*include_conjugate=*/true);
    ckks::BootstrapConfig config;
    config.i_bound = 9.0;
    config.sine_degree = 140;
    st->boot = std::make_unique<ckks::Bootstrapper>(b.ctx, b.encoder, b.evaluator,
                                                    b.relin, b.galois, config);
    Rng inputs(derive_seed(seed, kInputs));
    for (std::size_t k = 0; k < kMessages; ++k) {
      std::vector<double> msg(params.slots());
      for (double& v : msg) v = 2.0 * inputs.uniform_real() - 1.0;
      const ckks::Ciphertext top = b.encryptor.encrypt(b.encoder.encode(
          std::span<const double>(msg), params.num_levels, params.scale()));
      st->inputs.push_back(b.evaluator.mod_drop(top, 1));
      st->messages.push_back(std::move(msg));
    }
    st->requests = Rng(derive_seed(seed, kRequests));
    st_ = std::move(st);
  }

  void request(std::size_t) override {
    cur_ = st_->requests.uniform(kMessages);
    out_ = st_->boot->bootstrap(st_->inputs[cur_]);
  }

  void traced_request(std::size_t, SpanRecorder& rec) override {
    cur_ = st_->requests.uniform(kMessages);
    const ckks::Bootstrapper& boot = *st_->boot;
    ckks::Ciphertext raised;
    {
      Scope s(rec, "ckks.boot.mod_raise");
      raised = boot.mod_raise(st_->inputs[cur_]);
    }
    std::pair<ckks::Ciphertext, ckks::Ciphertext> t;
    {
      Scope s(rec, "ckks.boot.cts");
      t = boot.coeff_to_slot(raised);
    }
    ckks::Ciphertext m_u, m_v;
    {
      Scope s(rec, "ckks.boot.eval_mod");
      m_u = boot.eval_mod(t.first);
    }
    {
      Scope s(rec, "ckks.boot.eval_mod");
      m_v = boot.eval_mod(t.second);
    }
    Scope s(rec, "ckks.boot.stc");
    out_ = boot.slot_to_coeff(m_u, m_v);
  }

  // One dense encode at the CoeffToSlot level and slot count.
  void probe(SpanRecorder& rec) override {
    const CkksBase& b = st_->base;
    std::vector<Complex> diag(b.encoder.slots());
    for (std::size_t j = 0; j < diag.size(); ++j) {
      diag[j] = {std::cos(0.1 * static_cast<double>(j)), std::sin(0.3 * static_cast<double>(j))};
    }
    Scope s(rec, "probe.ckks.encode");
    (void)b.encoder.encode(std::span<const Complex>(diag), b.ctx->params().num_levels,
                           b.ctx->params().scale());
  }

  std::string check(std::size_t, bool traced) override {
    CkksBase& b = st_->base;
    if (traced && !same_ciphertext(out_, st_->boot->bootstrap(st_->inputs[cur_]))) {
      return "ckks_boot: traced stages differ from bootstrap()";
    }
    const auto dec = b.decryptor.decrypt(out_, b.encoder);
    const auto& msg = st_->messages[cur_];
    double err = 0;
    for (std::size_t j = 0; j < msg.size(); ++j) {
      err = std::max(err, std::abs(dec[j] - Complex(msg[j], 0.0)));
    }
    const double bits = precision_bits(err);
    precision_ = std::min(precision_, bits);
    if (bits < kPrecisionFloor) return "ckks_boot: precision below the floor";
    return "";
  }

  void layer_values(const std::map<std::string, SpanRecorder::NameStats>& stats,
                    std::size_t, double request_ns, Values& out) override {
    // LinearTransform::apply encodes one plaintext per nonzero diagonal, in
    // both CoeffToSlot and SlotToCoeff; estimate their share from the probe.
    const ckks::CkksContext& ctx = *st_->base.ctx;
    const ckks::LinearTransform cts(st_->base.ctx, ckks::coeff_to_slot_matrix(ctx));
    const ckks::LinearTransform stc(st_->base.ctx, ckks::slot_to_coeff_matrix(ctx));
    const auto& p = stats.at("probe.ckks.encode");
    out["ckks.encode_share"] = p.total_ns / static_cast<double>(p.count) *
                               static_cast<double>(cts.num_diagonals() + stc.num_diagonals()) /
                               request_ns;
  }

  void info(Values& out) const override { out["precision_bits"] = precision_; }

 private:
  struct State {
    State(const ckks::CkksParams& p, u64 seed) : base(p, seed) {}
    CkksBase base;
    std::unique_ptr<ckks::Bootstrapper> boot;
    std::vector<ckks::Ciphertext> inputs;
    std::vector<std::vector<double>> messages;
    Rng requests;
  };
  std::unique_ptr<State> st_;
  std::size_t cur_ = 0;
  ckks::Ciphertext out_;
  double precision_ = 64.0;
};

// ----------------------------------------------------------------------------
// ckks_helr: one HELR gradient step (examples/helr_training.cpp).

class CkksHelr final : public Workload {
 public:
  static constexpr std::size_t kSamples = 256;
  static constexpr std::size_t kFeatures = 3;  // bias + 2 features
  static constexpr std::size_t kModels = 4;
  // 2 bits below the 18.34 bits measured on seed 1.
  static constexpr double kPrecisionFloor = 16.3;
  // HELR's degree-3 least-squares sigmoid on [-8, 8].
  static constexpr double kSig0 = 0.5, kSig1 = -1.20096 / 8.0, kSig3 = 0.81562 / 512.0;

  void setup(u64 seed) override {
    st_.reset();
    auto st = std::make_unique<State>(ckks::CkksParams::toy(2048, 18, 3), seed);
    CkksBase& b = st->base;
    const ckks::CkksParams& params = b.ctx->params();
    std::vector<int> rotations;
    for (std::size_t s = 1; s < params.slots(); s <<= 1) {
      rotations.push_back(static_cast<int>(s));
    }
    b.galois = b.keygen.make_galois_keys(rotations);
    st->poly = std::make_unique<ckks::PolyEvaluator>(b.ctx, b.encoder, b.evaluator, b.relin);

    // Linearly separable samples; z = y * (1, x1, x2).
    Rng inputs(derive_seed(seed, kInputs));
    for (auto& f : st->z) f.resize(kSamples);
    for (std::size_t i = 0; i < kSamples; ++i) {
      const bool positive = i % 2 == 0;
      const double y = positive ? 1.0 : -1.0;
      const double x1 = (positive ? 0.6 : -0.6) + 0.4 * (2 * inputs.uniform_real() - 1);
      const double x2 = (positive ? 0.4 : -0.4) + 0.4 * (2 * inputs.uniform_real() - 1);
      st->z[0][i] = y;
      st->z[1][i] = y * x1;
      st->z[2][i] = y * x2;
    }
    const std::size_t top = params.num_levels;
    for (const auto& f : st->z) {
      st->enc_z.push_back(b.encryptor.encrypt(
          b.encoder.encode(std::span<const double>(f), top, params.scale())));
    }
    for (std::size_t m = 0; m < kModels; ++m) {
      for (std::size_t k = 0; k < kFeatures; ++k) {
        const double w = inputs.uniform_real() - 0.5;
        st->models[m][k] = w;
        st->enc_models[m].push_back(
            b.encryptor.encrypt(b.encoder.encode_constant(w, top, params.scale())));
      }
    }
    st->requests = Rng(derive_seed(seed, kRequests));
    st_ = std::move(st);
  }

  void request(std::size_t) override {
    cur_ = st_->requests.uniform(kModels);
    out_ = step(st_->enc_models[cur_], untraced_);
  }

  void traced_request(std::size_t, SpanRecorder& rec) override {
    cur_ = st_->requests.uniform(kModels);
    out_ = step(st_->enc_models[cur_], rec);
  }

  std::string check(std::size_t, bool traced) override {
    if (traced) {
      const auto ref = step(st_->enc_models[cur_], untraced_);
      for (std::size_t k = 0; k < kFeatures; ++k) {
        if (!same_ciphertext(ref[k], out_[k])) {
          return "ckks_helr: traced step differs from the untraced step";
        }
      }
    }
    // Cleartext mirror of the same update.
    const auto& w = st_->models[cur_];
    const auto& z = st_->z;
    double grad[kFeatures] = {};
    for (std::size_t i = 0; i < kSamples; ++i) {
      const double m = w[0] * z[0][i] + w[1] * z[1][i] + w[2] * z[2][i];
      const double t = -m;
      const double s = kSig0 + kSig1 * t + kSig3 * t * t * t;
      for (std::size_t k = 0; k < kFeatures; ++k) grad[k] += s * z[k][i];
    }
    const CkksBase& b = st_->base;
    double err = 0;
    for (std::size_t k = 0; k < kFeatures; ++k) {
      const double expect = w[k] + grad[k] / static_cast<double>(kSamples);
      // Every slot holds the updated weight; decode slot 0 and the last slot.
      const auto coeffs = b.decryptor.decrypt_coeffs(out_[k]);
      for (std::size_t slot : {std::size_t{0}, b.encoder.slots() - 1}) {
        err = std::max(err, std::abs(slot_value(coeffs, out_[k].scale, slot) - expect));
      }
    }
    const double bits = precision_bits(err);
    precision_ = std::min(precision_, bits);
    if (bits < kPrecisionFloor) return "ckks_helr: precision below the floor";
    return "";
  }

  std::vector<std::string> counted_spans() const override {
    return {"ckks.mul", "ckks.rotate"};
  }

  void info(Values& out) const override { out["precision_bits"] = precision_; }

 private:
  using Model = std::vector<ckks::Ciphertext>;

  // w <- w + (1/n) * sum_i sigmoid(-w.z_i) z_i, as in helr_training.cpp.
  Model step(const Model& w, SpanRecorder& r) const {
    const CkksBase& b = st_->base;
    const ckks::Evaluator& ev = b.evaluator;
    const auto& z = st_->enc_z;
    auto mul = [&](const ckks::Ciphertext& x, const ckks::Ciphertext& y) {
      Scope s(r, "ckks.mul");
      return ev.mul_aligned(x, y, b.relin);
    };
    auto add_aligned = [&](const ckks::Ciphertext& x, const ckks::Ciphertext& y) {
      Scope s(r, "ckks.add");
      return ev.add_aligned(x, y);
    };

    ckks::Ciphertext m = mul(w[0], z[0]);
    for (std::size_t k = 1; k < kFeatures; ++k) m = add_aligned(m, mul(w[k], z[k]));
    ckks::Ciphertext neg_m;
    {
      Scope s(r, "ckks.add");
      neg_m = ev.negate(m);
    }
    const std::vector<double> sig = {kSig0, kSig1, 0.0, kSig3};
    ckks::Ciphertext sg;
    {
      Scope s(r, "ckks.poly_eval");
      sg = st_->poly->evaluate(neg_m, std::span<const double>(sig));
    }
    const double inv_n = 1.0 / static_cast<double>(kSamples);
    Model out;
    for (std::size_t k = 0; k < kFeatures; ++k) {
      ckks::Ciphertext g = mul(sg, z[k]);
      for (std::size_t steps = 1; steps < b.encoder.slots(); steps <<= 1) {
        ckks::Ciphertext rotated;
        {
          Scope s(r, "ckks.rotate");
          rotated = ev.rotate(g, static_cast<int>(steps), b.galois);
        }
        Scope s(r, "ckks.add");
        g = ev.add(g, rotated);
      }
      {
        Scope s(r, "ckks.mul_scalar");
        g = ev.mul_scalar(g, inv_n, b.encoder, g.scale);
      }
      {
        Scope s(r, "ckks.rescale");
        g = ev.rescale(g);
      }
      out.push_back(add_aligned(w[k], g));
    }
    return out;
  }

  // Slot `j` of the decoded message: sum_k c_k zeta_j^k / scale with
  // zeta_j = exp(i pi 5^j / N) (ckks/encoder.h), evaluated in O(N).
  static double slot_value(const std::vector<double>& coeffs, double scale, std::size_t j) {
    const std::size_t n = coeffs.size();
    std::size_t g = 1;
    for (std::size_t t = 0; t < j; ++t) g = (g * 5) % (2 * n);
    Complex acc = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const double angle = M_PI * static_cast<double>((g * k) % (2 * n)) / static_cast<double>(n);
      acc += coeffs[k] * Complex(std::cos(angle), std::sin(angle));
    }
    return acc.real() / scale;
  }

  struct State {
    State(const ckks::CkksParams& p, u64 seed) : base(p, seed) {}
    CkksBase base;
    std::unique_ptr<ckks::PolyEvaluator> poly;
    std::vector<double> z[kFeatures];
    std::vector<ckks::Ciphertext> enc_z;
    double models[kModels][kFeatures] = {};
    Model enc_models[kModels];
    Rng requests;
  };
  std::unique_ptr<State> st_;
  SpanRecorder untraced_;  // never enabled
  std::size_t cur_ = 0;
  Model out_;
  double precision_ = 64.0;
};

// ----------------------------------------------------------------------------
// chip_paper: the paper's schedules on the modeled Alchemist chip.

class ChipPaper final : public Workload {
 public:
  // Level-engine schedules, then the event-engine cross-scheme graph.
  enum Sched { kBootFresh, kBoot, kHelr, kLola, kPbsI, kNumLevel };
  static constexpr const char* kNames[kNumLevel] = {"boot_fresh", "boot", "helr", "lola",
                                                    "pbs_i"};

  // Set-up lowers every graph and computes the reference results each pass is
  // checked against: both profilers attached, which must not change the
  // registry of a plain run. The inputs are the paper's fixed schedules, so
  // the seed changes nothing.
  void setup(u64) override {
    cfg_ = arch::ArchConfig::alchemist();
    const Graphs g = lower(untraced_);
    setup_error_.clear();
    for (int s = 0; s < kNumLevel; ++s) {
      sim::UnitProfiler units;
      sim::MemProfiler mem;
      ref_[s] = sim::simulate_alchemist(g.level[s], cfg_, nullptr, nullptr, nullptr, &units,
                                        &mem);
      if (!same_registry(sim::simulate_alchemist(g.level[s], cfg_), ref_[s])) {
        setup_error_ = std::string("chip_paper: profiled run differs from plain run on ") +
                       kNames[s];
      }
      if (ref_[s].mem_profile.attributed_total() !=
          ref_[s].registry.counter(sim::metrics::kHbmBytes)) {
        setup_error_ = std::string("chip_paper: memory.v1 bytes != sim.hbm.bytes on ") +
                       kNames[s];
      }
    }
    ref_xs_ = sim::simulate_alchemist_events(g.xs, cfg_);
    seq_xs_cycles_ = sim::simulate_alchemist_events(g.level[kBoot], cfg_).cycles +
                     4 * sim::simulate_alchemist_events(g.level[kPbsI], cfg_).cycles;
  }

  void request(std::size_t) override { pass(untraced_); }
  void traced_request(std::size_t, SpanRecorder& rec) override { pass(rec); }

  std::string check(std::size_t, bool) override {
    if (!setup_error_.empty()) return setup_error_;
    for (int s = 0; s < kNumLevel; ++s) {
      if (!same_registry(out_[s], ref_[s])) {
        return std::string("chip_paper: registry changed between passes on ") + kNames[s];
      }
    }
    if (!same_registry(out_xs_, ref_xs_)) {
      return "chip_paper: registry changed between passes on xs";
    }
    return "";
  }

  void layer_values(const std::map<std::string, SpanRecorder::NameStats>&, std::size_t,
                    double, Values& out) override {
    using metaop::OpClass;
    for (int s = 0; s < kNumLevel; ++s) {
      const sim::SimResult& r = ref_[s];
      const std::string p = std::string("chip.") + kNames[s] + ".";
      auto by_class = [&](OpClass c) {
        return static_cast<double>(r.cycles_by_class[static_cast<std::size_t>(c)]);
      };
      out[p + "cycles"] = static_cast<double>(r.cycles);
      out[p + "cycles_ntt"] = by_class(OpClass::Ntt);
      out[p + "cycles_bconv"] = by_class(OpClass::Bconv);
      out[p + "cycles_dpm"] = by_class(OpClass::DecompPolyMult);
      out[p + "cycles_elementwise"] = by_class(OpClass::Elementwise);
      out[p + "stall_hbm_cycles"] = static_cast<double>(r.mem_stall_cycles);
      out[p + "transpose_cycles"] = static_cast<double>(r.transpose_cycles);
      out[p + "hbm_bytes"] = static_cast<double>(r.registry.counter(sim::metrics::kHbmBytes));
      out[p + "utilization"] = r.utilization;
      if (s == kBootFresh || s == kBoot || s == kPbsI) {
        const obs::UnitCycles agg = r.profile.aggregate();
        const double unit_cycles = static_cast<double>(agg.total());
        out[p + "key_refetch_bytes"] = static_cast<double>(r.mem_profile.key_refetch_bytes());
        out[p + "evictions"] = static_cast<double>(r.mem_profile.evictions);
        out[p + "idle_frac"] = static_cast<double>(agg.idle) / unit_cycles;
        out[p + "stall_scratchpad_frac"] = static_cast<double>(agg.stall_scratchpad) / unit_cycles;
      }
    }
    out["chip.xs.cycles"] = static_cast<double>(ref_xs_.cycles);
    out["chip.xs.seq_cycles"] = static_cast<double>(seq_xs_cycles_);
    out["chip.xs.overlap_gain"] =
        1.0 - static_cast<double>(ref_xs_.cycles) / static_cast<double>(seq_xs_cycles_);
  }

  // Simulated results in the units the paper reports.
  void info(Values& out) const override {
    const double pbs_batch = static_cast<double>(workloads::TfheWl::set_i().batch);
    out["chip_boot_fresh_ms"] = ref_[kBootFresh].time_us / 1e3;
    out["chip_boot_ms"] = ref_[kBoot].time_us / 1e3;
    out["chip_helr_ms"] = ref_[kHelr].time_us / 1e3;
    out["chip_lola_us"] = ref_[kLola].time_us;
    out["chip_pbs_per_s"] = pbs_batch * 1e6 / ref_[kPbsI].time_us;
    out["chip_xs_ms"] = ref_xs_.time_us / 1e3;
  }

 private:
  struct Graphs {
    metaop::OpGraph level[kNumLevel];
    metaop::OpGraph xs;
  };

  static bool same_registry(const sim::SimResult& a, const sim::SimResult& b) {
    return a.registry.counters() == b.registry.counters() &&
           a.registry.gauges() == b.registry.gauges();
  }

  // Builds every schedule's op graph.
  static Graphs lower(SpanRecorder& rec) {
    auto resident = [](std::size_t level) {
      workloads::CkksWl w = workloads::CkksWl::paper(level);
      w.hbm_stream_fraction = 0.05;  // application steady state (fig6a)
      return w;
    };
    // Half the scratchpad holds bootstrapping key (fig6b).
    workloads::TfheWl pbs = workloads::TfheWl::set_i();
    const double bk_mb = pbs.bk_bytes() / 1e6;
    pbs.hbm_stream_fraction = bk_mb <= 33.0 ? 0.0 : 1.0 - 33.0 / bk_mb;

    const std::function<metaop::OpGraph()> build[kNumLevel] = {
        [] { return workloads::build_bootstrapping(workloads::CkksWl::paper(44), false); },
        [&] { return workloads::build_bootstrapping(resident(44), true); },
        [&] { return workloads::build_helr_iteration(resident(30)); },
        [] { return workloads::build_lola_mnist(true); },
        [&] { return workloads::build_pbs(pbs); },
    };
    Graphs g;
    for (int s = 0; s < kNumLevel; ++s) {
      Scope sc(rec, "sim.lower");
      g.level[s] = build[s]();
    }
    Scope sc(rec, "sim.lower");
    const metaop::OpGraph& p = g.level[kPbsI];
    g.xs = sim::merge_graphs({g.level[kBoot], p, p, p, p}, "xs");
    return g;
  }

  // One pass: lowering, the level engine on every schedule, the event engine
  // on the cross-scheme graph.
  void pass(SpanRecorder& rec) {
    const Graphs g = lower(rec);
    for (int s = 0; s < kNumLevel; ++s) {
      Scope sc(rec, "sim.level");
      out_[s] = sim::simulate_alchemist(g.level[s], cfg_);
    }
    Scope sc(rec, "sim.event");
    out_xs_ = sim::simulate_alchemist_events(g.xs, cfg_);
  }

  SpanRecorder untraced_;  // never enabled
  arch::ArchConfig cfg_;
  std::string setup_error_;
  sim::SimResult ref_[kNumLevel];
  sim::SimResult ref_xs_;
  std::uint64_t seq_xs_cycles_ = 0;
  sim::SimResult out_[kNumLevel];
  sim::SimResult out_xs_;
};

// ----------------------------------------------------------------------------
// Harness.

// CKKS thread-pool width, below the 4 cores of the reference host. TFHE and
// the simulator are single-threaded.
constexpr std::size_t kThreads = 2;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;

  std::size_t setups() const { return smoke ? 1 : 5; }
  std::size_t warmup() const { return smoke ? 0 : 5; }
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "tfhe_gates") return std::make_unique<TfheGates>();
  if (name == "ckks_boot") return std::make_unique<CkksBoot>();
  if (name == "ckks_helr") return std::make_unique<CkksHelr>();
  if (name == "chip_paper") return std::make_unique<ChipPaper>();
  return nullptr;
}

struct Harness {
  Harness(const Options& o, Workload& w) : opt(o), wl(w) {}

  Options opt;
  Workload& wl;
  SpanRecorder rec;
  std::size_t next = 0;  // global request index
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }

  // Runs one request (traced or not) and checks it; returns its wall ms.
  double one(bool traced, bool counted) {
    const std::size_t i = next++;
    double ms = 0;
    std::string err;
    try {
      if (traced) {
        rec.set_request(static_cast<std::uint32_t>(i));
        const auto t0 = Clock::now();
        {
          Scope root(rec, "request");
          wl.traced_request(i, rec);
        }
        ms = ms_between(t0, Clock::now());
      } else {
        const auto t0 = Clock::now();
        wl.request(i);
        ms = ms_between(t0, Clock::now());
      }
      err = wl.check(i, traced);
    } catch (const std::exception& e) {
      err = std::string("exception: ") + e.what();
    }
    if (counted) {
      ++attempted;
      if (!err.empty()) fail(err);
    }
    return ms;
  }

  // Closed loop for `budget_s` seconds (2 requests under --smoke).
  // Given `layers`, the requests are traced and the per-layer values land there.
  std::vector<double> phase(double budget_s, Values* layers) {
    const bool traced = layers != nullptr;
    std::vector<double> ms;
    const std::size_t first_span = rec.size();
    rec.set_enabled(traced);
    SubstrateStats before = ThreadPool::instance().stats();
    std::map<std::string, double> kernel_ns;
    double parallel_fors = 0, tasks = 0;
    const auto t0 = Clock::now();
    while (opt.smoke ? ms.size() < 2
                     : ms.empty() || ms_between(t0, Clock::now()) < budget_s * 1e3) {
      ms.push_back(one(traced, true));
      if (!traced) continue;
      // Substrate deltas cover the request only, not the probes.
      const SubstrateStats after = ThreadPool::instance().stats();
      parallel_fors += static_cast<double>(after.parallel_fors - before.parallel_fors);
      tasks += static_cast<double>(after.tasks - before.tasks);
      for (const auto& [k, ns] : after.kernel_ns) kernel_ns[k] += static_cast<double>(ns);
      for (const auto& [k, ns] : before.kernel_ns) kernel_ns[k] -= static_cast<double>(ns);
      wl.probe(rec);
      before = ThreadPool::instance().stats();
    }
    rec.set_enabled(false);
    if (traced) {
      const auto stats = rec.stats_by_name(first_span);
      const double n = static_cast<double>(ms.size());
      const auto& root = stats.at("request");
      const double request_ns = root.total_ns / n;
      for (const auto& [name, st] : stats) {
        if (name == "request" || name.rfind("probe.", 0) == 0) continue;
        (*layers)[name + "_share"] = st.total_ns / root.total_ns;
      }
      for (const std::string& name : wl.counted_spans()) {
        auto it = stats.find(name);
        (*layers)[name + "_count"] =
            it == stats.end() ? 0.0 : static_cast<double>(it->second.count) / n;
      }
      for (const auto& [k, ns] : kernel_ns) {
        (*layers)["substrate." + k + "_share"] = ns / root.total_ns;
      }
      (*layers)["substrate.parallel_fors"] = parallel_fors / n;
      (*layers)["substrate.tasks"] = tasks / n;
      (*layers)["self_cover_frac"] = 1.0 - root.self_ns / root.total_ns;
      double spans = 0;
      for (const auto& [name, st] : stats) {
        if (name.rfind("probe.", 0) != 0) spans += static_cast<double>(st.count);
      }
      (*layers)["spans_per_op"] = spans / n;
      wl.layer_values(stats, ms.size(), request_ns, *layers);
    }
    return ms;
  }
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += obs::json_number(v[i]);
  }
  return out + "]";
}

std::string json_map(const Values& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ",";
    first = false;
    out += obs::json_string(k) + ":" + obs::json_number(v);
  }
  return out + "}";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload <tfhe_gates|ckks_boot|ckks_helr|"
               "chip_paper> [--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-out PATH] [--smoke]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::stoull(v);
    else if (a == "--seconds") opt.seconds = std::stod(v);
    else if (a == "--trace") opt.trace = v != "0";
    else if (a == "--trace-out") opt.trace_out = v;
    else return usage(("unknown flag " + a).c_str());
  }
  std::unique_ptr<Workload> wl = make_workload(opt.workload);
  if (!wl) return usage("unknown workload");
  ThreadPool::set_threads(kThreads);

  std::vector<double> setup_s;
  for (std::size_t k = 0; k < opt.setups(); ++k) {
    const auto t0 = Clock::now();
    wl->setup(opt.seed);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  Harness h{opt, *wl};
  for (std::size_t i = 0; i < opt.warmup(); ++i) h.one(false, false);

  Values layers;
  const double untraced_budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const std::vector<double> untraced = h.phase(untraced_budget, nullptr);
  std::vector<double> traced;
  if (opt.trace) {
    traced = h.phase(opt.seconds / 2, &layers);
    layers["traced_op_p50_ms"] = median(traced);
    layers["trace_overhead_frac"] = median(traced) / median(untraced) - 1.0;
    if (!opt.trace_out.empty() && !h.rec.write_chrome_trace(opt.trace_out)) {
      h.fail("cannot write " + opt.trace_out);
    }
  }
  Values info;
  wl->info(info);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::string errors = "[";
  for (std::size_t i = 0; i < h.errors.size(); ++i) {
    errors += (i ? "," : "") + obs::json_string(h.errors[i]);
  }
  errors += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"threads\":%zu,\"trace\":%d,\"setup_s\":%s,"
      "\"peak_rss_mb\":%s,\"untraced_ms\":%s,\"traced_ms\":%s,\"attempted\":%zu,"
      "\"failed\":%zu,\"errors\":%s,\"layers\":%s,\"info\":%s}\n",
      obs::json_string(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
      kThreads, opt.trace ? 1 : 0, json_list(setup_s).c_str(),
      obs::json_number(static_cast<double>(ru.ru_maxrss) / 1024.0).c_str(),
      json_list(untraced).c_str(), json_list(traced).c_str(), h.attempted, h.failed,
      errors.c_str(), json_map(layers).c_str(), json_map(info).c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "e2e_bench: %s\n", e.what());
  return 1;
}
