// The analytical HW estimator tier: deterministic gate-calibrated fits,
// dist-wire and checkpoint round-trips, validate() rejection paths, the
// static-power report column, and the three-tier exploration funnel's
// bit-identity contract.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/coestimator.hpp"
#include "core/explorer.hpp"
#include "core/report.hpp"
#include "dist/wire.hpp"
#include "hw/analytical.hpp"
#include "serve/checkpoint.hpp"
#include "serve/session.hpp"
#include "systems/prodcons.hpp"
#include "systems/tcpip.hpp"

namespace socpower::core {
namespace {

systems::TcpIpParams hw_heavy_params() {
  systems::TcpIpParams p;
  p.num_packets = 3;
  p.packet_bytes = 32;
  p.ip_check_in_hw = true;  // two gate-level units: checksum + ip-check
  p.seed = 5;
  return p;
}

CoEstimatorConfig analytical_config(unsigned calib_vectors = 8) {
  CoEstimatorConfig cfg;
  cfg.estimators.hw_gate = "hw.analytical";
  cfg.hw_analytical_calibration_vectors = calib_vectors;
  return cfg;
}

RunResults run_tcpip(const systems::TcpIpParams& p,
                     const CoEstimatorConfig& cfg,
                     CoEstimator::WarmSnapshot* warm_out = nullptr) {
  systems::TcpIpSystem sys(p);
  CoEstimator est(&sys.network(), cfg);
  sys.configure(est);
  est.prepare();
  RunResults res = est.run(sys.stimulus());
  if (warm_out) *warm_out = est.export_warm_state();
  return res;
}

/// All fitted unit models in a snapshot, in backend order (the analytical
/// backend is the only one that exports a non-empty model).
std::vector<hw::AnalyticalUnitModel> fitted_units(
    const CoEstimator::WarmSnapshot& snap) {
  std::vector<hw::AnalyticalUnitModel> out;
  for (const BackendWarmState& b : snap.backends)
    out.insert(out.end(), b.analytical.units.begin(), b.analytical.units.end());
  return out;
}

void expect_models_bit_identical(
    const std::vector<hw::AnalyticalUnitModel>& a,
    const std::vector<hw::AnalyticalUnitModel>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("unit " + std::to_string(i));
    EXPECT_EQ(a[i].task, b[i].task);
    EXPECT_EQ(a[i].calibration_vectors, b[i].calibration_vectors);
    for (std::size_t c = 0; c < hw::kAnalyticalTerms; ++c)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].coeff[c]),
                std::bit_cast<std::uint64_t>(b[i].coeff[c]))
          << "coeff " << c;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].leakage_watts),
              std::bit_cast<std::uint64_t>(b[i].leakage_watts));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].residual_rms_j),
              std::bit_cast<std::uint64_t>(b[i].residual_rms_j));
  }
}

// ---- model fitting ---------------------------------------------------------

TEST(Analytical, FitRecoversExactLinearLaw) {
  // Samples generated from a known linear law with diverse activity
  // vectors: the least-squares fit must recover the coefficients (the
  // ridge damping perturbs well-conditioned systems below 1e-4 relative).
  const double truth[hw::kAnalyticalTerms] = {2e-12, 5e-13, 1e-13, 8e-13};
  std::vector<hw::CalibrationSample> samples;
  for (int i = 0; i < 40; ++i) {
    hw::CalibrationSample s;
    s.activity.input_toggles = (i * 7) % 23;
    s.activity.input_ones = (i * 13) % 17;
    s.activity.state_toggles = (i * 3) % 11;
    s.energy = truth[0] + truth[1] * s.activity.input_toggles +
               truth[2] * s.activity.input_ones +
               truth[3] * s.activity.state_toggles;
    samples.push_back(s);
  }
  const hw::AnalyticalUnitModel m = hw::calibrate_analytical(1, samples);
  EXPECT_EQ(m.task, 1);
  EXPECT_EQ(m.calibration_vectors, 40u);
  for (std::size_t c = 0; c < hw::kAnalyticalTerms; ++c)
    EXPECT_NEAR(m.coeff[c], truth[c], std::abs(truth[c]) * 1e-4) << c;
  EXPECT_LT(m.residual_rms_j, 1e-15);

  // Refitting the same sample stream is bit-identical.
  const hw::AnalyticalUnitModel m2 = hw::calibrate_analytical(1, samples);
  expect_models_bit_identical({m}, {m2});
}

TEST(Analytical, DegenerateFeaturesStaySolvable) {
  // A unit whose inputs never vary makes the toggle columns collinear with
  // the intercept; the deterministic ridge keeps the solve finite.
  std::vector<hw::CalibrationSample> samples(8);
  for (auto& s : samples) s.energy = 3e-12;
  const hw::AnalyticalUnitModel m = hw::calibrate_analytical(0, samples);
  for (const double c : m.coeff) EXPECT_TRUE(std::isfinite(c));
  hw::ReactionActivity quiet;
  EXPECT_NEAR(m.predict(quiet), 3e-12, 3e-12 * 1e-3);
}

TEST(Analytical, PredictClampsAtZero) {
  hw::AnalyticalUnitModel m;
  m.coeff[0] = 1e-12;
  m.coeff[1] = -1e-12;  // hostile coefficients from a pathological fit
  hw::ReactionActivity a;
  a.input_toggles = 10.0;
  EXPECT_EQ(m.predict(a), 0.0);
}

// ---- calibration against the gate-level backend ----------------------------

TEST(Analytical, CalibrationIsDeterministicAcrossEstimators) {
  CoEstimator::WarmSnapshot wa, wb;
  const RunResults ra = run_tcpip(hw_heavy_params(), analytical_config(), &wa);
  const RunResults rb = run_tcpip(hw_heavy_params(), analytical_config(), &wb);
  const auto ma = fitted_units(wa);
  ASSERT_FALSE(ma.empty());
  for (const auto& u : ma) EXPECT_GT(u.calibration_vectors, 0u);
  expect_models_bit_identical(ma, fitted_units(wb));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ra.total_energy),
            std::bit_cast<std::uint64_t>(rb.total_energy));
  EXPECT_EQ(ra.end_time, rb.end_time);
}

TEST(Analytical, TracksGateLevelEnergyLoosely) {
  // The bench enforces the real <=15% bound on full-size workloads; this is
  // the cheap smoke check that the fitted model is in the right ballpark
  // (leakage excluded: the gate backend does not model static power).
  const RunResults gate = run_tcpip(hw_heavy_params(), CoEstimatorConfig{});
  const RunResults ana = run_tcpip(hw_heavy_params(), analytical_config());
  const double dynamic = ana.total_energy - ana.leakage_energy;
  EXPECT_GT(dynamic, 0.0);
  EXPECT_NEAR(dynamic, gate.total_energy, gate.total_energy * 0.5);
  EXPECT_EQ(ana.end_time, gate.end_time);  // timing model is shared
}

TEST(Analytical, OnlinePricingMatchesBatch) {
  // Online transitions and batch entries go through the same price(), so
  // switching hw_batch off changes only the order in which hw_energy sums.
  // The online path (also forced by verify_lowlevel and accelerate_hw) must
  // hand the backend the pre-reaction state its activity features read.
  const CoEstimatorConfig batch = analytical_config();
  CoEstimatorConfig online = batch;
  online.hw_batch = false;
  const RunResults b = run_tcpip(hw_heavy_params(), batch);
  const RunResults o = run_tcpip(hw_heavy_params(), online);
  ASSERT_EQ(o.process_energy.size(), b.process_energy.size());
  for (std::size_t i = 0; i < b.process_energy.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(o.process_energy[i]),
              std::bit_cast<std::uint64_t>(b.process_energy[i]))
        << "process " << i;
  EXPECT_GT(b.gate_sim_cycles, 0u);  // the calibration prefix ran
  EXPECT_EQ(o.gate_sim_cycles, b.gate_sim_cycles);
  EXPECT_NEAR(o.hw_energy, b.hw_energy, 1e-12 * b.hw_energy);

  // verify_lowlevel cross-checks every calibration step against the
  // behavioral reaction and prices exactly like the plain online run.
  CoEstimatorConfig verify = batch;
  verify.verify_lowlevel = true;
  const RunResults v = run_tcpip(hw_heavy_params(), verify);
  EXPECT_EQ(v.process_energy, o.process_energy);
  EXPECT_EQ(v.gate_sim_cycles, o.gate_sim_cycles);

  CoEstimatorConfig accel = batch;
  accel.accelerate_hw = true;
  accel.accel = Acceleration::kCaching;
  const RunResults a = run_tcpip(hw_heavy_params(), accel);
  EXPECT_EQ(a.hw_reactions, b.hw_reactions);
  EXPECT_GT(a.hw_energy, 0.0);
}

TEST(Analytical, LeakageIsPerRunAndScalesWithTemperature) {
  systems::TcpIpSystem sys(hw_heavy_params());
  CoEstimator est(&sys.network(), analytical_config());
  sys.configure(est);
  est.prepare();
  const RunResults cold = est.run(sys.stimulus());
  EXPECT_GT(cold.leakage_energy, 0.0);
  ASSERT_FALSE(cold.process_leakage.empty());
  Joules split = 0.0;
  for (const Joules j : cold.process_leakage) split += j;
  EXPECT_DOUBLE_EQ(split, cold.leakage_energy);

  // Billed per run: a second run on the same estimator bills it again.
  const RunResults again = est.run(sys.stimulus());
  EXPECT_EQ(again.leakage_energy, cold.leakage_energy);

  // +60 K quadruples subthreshold leakage (doubles every 30 K).
  const double at_300k = hw::analytical_leakage_watts(1000, {});
  const double at_360k =
      hw::analytical_leakage_watts(1000, {.temperature_k = 360.0});
  EXPECT_GT(at_300k, 0.0);
  EXPECT_NEAR(at_360k, 4.0 * at_300k, at_300k * 1e-9);
}

TEST(Analytical, StaticColumnAppearsInReportOnlyWhenPresent) {
  systems::TcpIpSystem sys(hw_heavy_params());
  CoEstimator est(&sys.network(), analytical_config());
  sys.configure(est);
  est.prepare();
  const RunResults res = est.run(sys.stimulus());
  const std::string with = render_report(sys.network(), est, res, {});
  EXPECT_NE(with.find("static"), std::string::npos);

  systems::TcpIpSystem gate_sys(hw_heavy_params());
  CoEstimator gate_est(&gate_sys.network(), {});
  gate_sys.configure(gate_est);
  gate_est.prepare();
  const RunResults gate_res = gate_est.run(gate_sys.stimulus());
  const std::string without =
      render_report(gate_sys.network(), gate_est, gate_res, {});
  EXPECT_EQ(without.find("static"), std::string::npos);
}

// ---- warm state, wire, checkpoint ------------------------------------------

TEST(Analytical, WireRoundTripIsBitExact) {
  CoEstimator::WarmSnapshot warm;
  (void)run_tcpip(hw_heavy_params(), analytical_config(), &warm);
  hw::AnalyticalModel model;
  for (const BackendWarmState& b : warm.backends)
    if (!b.analytical.empty()) model = b.analytical;
  ASSERT_FALSE(model.empty());

  dist::WireWriter w;
  dist::encode(w, model);
  const std::vector<std::uint8_t> bytes = w.bytes();
  dist::WireReader r(bytes.data(), bytes.size());
  hw::AnalyticalModel back;
  ASSERT_TRUE(dist::decode(r, &back));
  EXPECT_TRUE(r.at_end());
  expect_models_bit_identical(model.units, back.units);
  // Mid-calibration moments ride along bit-exactly too.
  ASSERT_EQ(back.pending.size(), model.pending.size());
  for (std::size_t i = 0; i < model.pending.size(); ++i) {
    EXPECT_EQ(back.pending[i].task, model.pending[i].task);
    EXPECT_EQ(back.pending[i].moments.n, model.pending[i].moments.n);
    for (std::size_t k = 0; k < hw::kAnalyticalTerms * hw::kAnalyticalTerms;
         ++k)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back.pending[i].moments.xtx[k]),
                std::bit_cast<std::uint64_t>(model.pending[i].moments.xtx[k]));
  }

  // Every strict prefix is rejected, never mis-decoded.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    dist::WireReader tr(bytes.data(), cut);
    hw::AnalyticalModel junk;
    EXPECT_FALSE(dist::decode(tr, &junk) && tr.ok())
        << "cut at " << cut;
  }
}

TEST(Analytical, WarmImportSkipsRecalibration) {
  // Target 4 (= the coefficient count): every unit reaches it in the donor
  // run, so the imported model covers all units.
  CoEstimator::WarmSnapshot warm;
  (void)run_tcpip(hw_heavy_params(), analytical_config(4), &warm);
  ASSERT_FALSE(fitted_units(warm).empty());

  auto warm_run = [&](RunResults* out) {
    systems::TcpIpSystem sys(hw_heavy_params());
    CoEstimator est(&sys.network(), analytical_config(4));
    sys.configure(est);
    est.prepare();
    ASSERT_TRUE(est.import_warm_state(warm));
    *out = est.run(sys.stimulus());
  };
  RunResults rb, rc;
  warm_run(&rb);
  warm_run(&rc);
  // Every unit arrives fitted: the warm session never steps the gate
  // simulator at all.
  EXPECT_EQ(rb.gate_sim_cycles, 0u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rb.total_energy),
            std::bit_cast<std::uint64_t>(rc.total_energy));
  EXPECT_EQ(rb.end_time, rc.end_time);
}

TEST(Analytical, CheckpointRoundTripPreservesModelBits) {
  CoEstimator::WarmSnapshot warm;
  (void)run_tcpip(hw_heavy_params(), analytical_config(), &warm);
  ASSERT_FALSE(fitted_units(warm).empty());

  serve::Checkpoint ckpt;
  ckpt.system.name = "tcpip";
  ckpt.system.set("num_packets", 3);
  ckpt.system.set("packet_bytes", 32);
  ckpt.system.set("ip_check_in_hw", 1);
  ckpt.system.set("seed", 5);
  CoEstimatorConfig cfg = analytical_config();
  ckpt.structural = serve::StructuralConfig::from(cfg);
  ckpt.warm = warm;

  const std::vector<std::uint8_t> blob = serve::encode_checkpoint(ckpt);
  serve::Checkpoint back;
  std::string error;
  ASSERT_TRUE(serve::decode_checkpoint(blob, &back, &error)) << error;
  expect_models_bit_identical(fitted_units(warm), fitted_units(back.warm));
}

TEST(Analytical, ServeSessionRestoreContinuesBitIdentically) {
  // calib=4: every unit fits in run 1, so the restored session never steps
  // the gate simulator. calib=8: one unit is still mid-calibration at the
  // checkpoint — the exported moments must make the restored continuation
  // bit-identical to the uninterrupted session anyway.
  for (const unsigned calib : {4u, 8u}) {
    SCOPED_TRACE("calib " + std::to_string(calib));
    serve::SystemParams sp;
    sp.name = "tcpip";
    sp.set("num_packets", 3);
    sp.set("packet_bytes", 32);
    sp.set("ip_check_in_hw", 1);
    sp.set("seed", 5);
    serve::StructuralConfig sc;
    sc.config.estimators.hw_gate = "hw.analytical";

    std::string error;
    std::unique_ptr<serve::Session> hot =
        serve::Session::create(sp, sc, &error);
    ASSERT_NE(hot, nullptr) << error;
    serve::RunRequest rr;
    // A run knob: rides the wire with every request.
    rr.config.hw_analytical_calibration_vectors = calib;
    RunResults r1, r2;
    ASSERT_TRUE(hot->estimate(rr, &r1, nullptr, &error)) << error;
    EXPECT_GT(r1.gate_sim_cycles, 0u);  // cold session calibrates

    serve::Checkpoint ckpt = hot->checkpoint();
    const std::vector<std::uint8_t> blob = serve::encode_checkpoint(ckpt);
    serve::Checkpoint decoded;
    ASSERT_TRUE(serve::decode_checkpoint(blob, &decoded, &error)) << error;
    std::unique_ptr<serve::Session> restored =
        serve::Session::restore(decoded, &error);
    ASSERT_NE(restored, nullptr) << error;

    ASSERT_TRUE(hot->estimate(rr, &r2, nullptr, &error)) << error;
    RunResults r2b;
    ASSERT_TRUE(restored->estimate(rr, &r2b, nullptr, &error)) << error;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r2b.total_energy),
              std::bit_cast<std::uint64_t>(r2.total_energy));
    EXPECT_EQ(r2b.end_time, r2.end_time);
    EXPECT_EQ(r2b.gate_sim_cycles, r2.gate_sim_cycles);
    if (calib == 4) {
      EXPECT_EQ(r2b.gate_sim_cycles, 0u);
    }
  }
}

// ---- config validation -----------------------------------------------------

using AnalyticalDeathTest = ::testing::Test;

TEST(AnalyticalDeathTest, ZeroCalibrationVectorsAbortsPrepare) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  systems::TcpIpSystem sys(hw_heavy_params());
  CoEstimatorConfig cfg = analytical_config(1);
  cfg.hw_analytical_calibration_vectors = 0;
  CoEstimator est(&sys.network(), cfg);
  sys.configure(est);
  EXPECT_DEATH(est.prepare(), "hw_analytical_calibration_vectors");
}

// ---- three-tier exploration funnel -----------------------------------------

RunResults energy_only(double joules) {
  RunResults r;
  r.total_energy = joules;
  return r;
}

/// Synthetic design points with deterministic energies: analytical ranking
/// agrees with coarse ranking (the calibrated-model assumption the funnel's
/// bit-identity guarantee is conditioned on), exact adds a fixed offset.
std::vector<ExplorationPoint> synthetic_points(std::size_t n) {
  std::vector<ExplorationPoint> pts;
  for (std::size_t i = 0; i < n; ++i) {
    const double coarse = 1e-6 * static_cast<double>((i * 5 + 3) % n + 1);
    ExplorationPoint p;
    p.label = std::string("p").append(std::to_string(i));
    p.run_coarse = [coarse] { return energy_only(coarse); };
    p.run_exact = [coarse] { return energy_only(coarse * 0.875); };
    p.run_analytical = [coarse] { return energy_only(coarse * 1.25); };
    pts.push_back(std::move(p));
  }
  return pts;
}

void expect_top_entries_equal(const ExplorationOutcome& full,
                              const ExplorationOutcome& funneled) {
  ASSERT_LE(funneled.ranked.size(), full.ranked.size());
  for (std::size_t i = 0; i < funneled.ranked.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(funneled.ranked[i].label, full.ranked[i].label);
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(funneled.ranked[i].coarse_energy),
        std::bit_cast<std::uint64_t>(full.ranked[i].coarse_energy));
    ASSERT_EQ(funneled.ranked[i].exact_energy.has_value(),
              full.ranked[i].exact_energy.has_value());
    if (funneled.ranked[i].exact_energy) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(*funneled.ranked[i].exact_energy),
                std::bit_cast<std::uint64_t>(*full.ranked[i].exact_energy));
    }
  }
  EXPECT_EQ(funneled.best().label, full.best().label);
  EXPECT_EQ(funneled.winner_confirmed, full.winner_confirmed);
}

TEST(AnalyticalExplorer, PrefilteredTopKIsBitIdenticalToFullRun) {
  const auto pts = synthetic_points(8);
  const ExplorationOutcome full = explore(pts, /*verify_top=*/3);
  ExploreOptions opt;
  opt.threads = 1;
  opt.analytical_prefilter = 4;
  const ExplorationOutcome funneled = explore(pts, /*verify_top=*/3, opt);
  EXPECT_EQ(funneled.prefilter_kept, 4u);
  EXPECT_EQ(funneled.ranked.size(), 4u);
  expect_top_entries_equal(full, funneled);
  const std::string text = funneled.render();
  EXPECT_NE(text.find("analytical prefilter"), std::string::npos);
}

TEST(AnalyticalExplorer, PrefilterCoveringAllPointsDegradesToTwoPhase) {
  const auto pts = synthetic_points(5);
  const ExplorationOutcome full = explore(pts, /*verify_top=*/2);
  ExploreOptions opt;
  opt.analytical_prefilter = 5;  // K >= size: nothing to cut
  const ExplorationOutcome funneled = explore(pts, /*verify_top=*/2, opt);
  EXPECT_EQ(funneled.prefilter_kept, 0u);
  ASSERT_EQ(funneled.ranked.size(), full.ranked.size());
  expect_top_entries_equal(full, funneled);
}

TEST(AnalyticalExplorer, MissingAnalyticalTierFallsBackToCoarse) {
  auto pts = synthetic_points(6);
  for (auto& p : pts) p.run_analytical = nullptr;
  ExploreOptions opt;
  opt.analytical_prefilter = 3;
  const ExplorationOutcome funneled = explore(pts, /*verify_top=*/1, opt);
  EXPECT_EQ(funneled.prefilter_kept, 3u);
  const ExplorationOutcome full = explore(pts, /*verify_top=*/1);
  expect_top_entries_equal(full, funneled);
}

/// Real-system funnel: coarse = macro-model, exact = full co-simulation,
/// analytical = the calibrated hw.analytical backend.
std::vector<ExplorationPoint> real_points() {
  std::vector<ExplorationPoint> pts;
  for (const unsigned dma : {4u, 16u, 64u}) {
    auto make_run = [dma](int tier) {
      return [dma, tier] {
        systems::TcpIpSystem sys({.num_packets = 3,
                                  .packet_bytes = 32,
                                  .dma_block_size = dma,
                                  .ip_check_in_hw = true,
                                  .seed = 5});
        CoEstimatorConfig cfg;
        if (tier == 0) cfg.accel = Acceleration::kMacroModel;
        if (tier == 2) cfg = analytical_config();
        CoEstimator est(&sys.network(), cfg);
        sys.configure(est);
        est.prepare();
        return est.run(sys.stimulus());
      };
    };
    ExplorationPoint p;
    p.label = "dma=" + std::to_string(dma);
    p.run_coarse = make_run(0);
    p.run_exact = make_run(1);
    p.run_analytical = make_run(2);
    pts.push_back(std::move(p));
  }
  return pts;
}

TEST(AnalyticalExplorer, RealSystemFunnelKeepsWinner) {
  const auto pts = real_points();
  const ExplorationOutcome full = explore(pts, /*verify_top=*/1);
  ExploreOptions opt;
  opt.analytical_prefilter = 2;
  const ExplorationOutcome funneled = explore(pts, /*verify_top=*/1, opt);
  EXPECT_EQ(funneled.prefilter_kept, 2u);
  EXPECT_GT(funneled.analytical_seconds, 0.0);
  expect_top_entries_equal(full, funneled);
}

/// The funnel with its three phases sharded over three pool threads
/// reduces to the serial outcome.
TEST(AnalyticalExplorer, ShardedFunnelMatchesSerial) {
  const auto pts = synthetic_points(8);
  ExploreOptions serial_opt;
  serial_opt.threads = 1;
  serial_opt.analytical_prefilter = 4;
  const ExplorationOutcome serial = explore(pts, /*verify_top=*/2, serial_opt);
  ExploreOptions threaded_opt = serial_opt;
  threaded_opt.threads = 3;
  const ExplorationOutcome threaded =
      explore(pts, /*verify_top=*/2, threaded_opt);
  EXPECT_EQ(threaded.prefilter_kept, serial.prefilter_kept);
  ASSERT_EQ(threaded.ranked.size(), serial.ranked.size());
  for (std::size_t i = 0; i < serial.ranked.size(); ++i) {
    EXPECT_EQ(threaded.ranked[i].label, serial.ranked[i].label);
    EXPECT_EQ(threaded.ranked[i].coarse_energy, serial.ranked[i].coarse_energy);
    EXPECT_EQ(threaded.ranked[i].exact_energy, serial.ranked[i].exact_energy);
  }
  EXPECT_EQ(threaded.winner_confirmed, serial.winner_confirmed);
}

}  // namespace
}  // namespace socpower::core
