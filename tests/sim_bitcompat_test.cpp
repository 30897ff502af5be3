// Bit-compatibility pins for the simulator hot-path overhaul.
//
// The arena event queue, the batched unit-variate sampling, and the fast
// sampler's CDF-threshold filter are all required to be *bit-transparent*:
// same seed, same System, same pattern => the same PatternStats to the
// last bit as the straightforward implementations they replaced. Two
// layers of defense:
//
//  1. Hard pins: fixed-seed totals generated with the pre-overhaul
//     library (commit cdfae90), hex-float exact. Any future change that
//     perturbs a draw, a tie-break, or an accumulation order fails here.
//  2. A reference fast sampler reimplemented here from the paper's
//     semantics (draw-everything, no thresholds, no batching) run
//     against FastProtocolSimulator over many seeds and regimes.
//
// The correlated fast sampler (sim/correlated.hpp) carries the same
// threshold filter and the same two layers: hex pins of two extended
// worlds, generated with the draw-everything loop it replaced, and that
// loop kept below as an in-test reference.
//
// These pins define the *scalar reference tier* (rng/simd.hpp): the
// whole suite runs with the SIMD tier forced off, because the vectorized
// transcendental kernels are allowed to differ from libm by a few ULP
// and carry their own golden tier (tests/failure_dist_simd_test.cpp).
// The exponential fast path never calls a vectorized transform, so its
// pin holds under every tier — one case below checks that explicitly.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "ayd/model/correlated.hpp"
#include "ayd/model/failure_dist.hpp"
#include "ayd/model/system.hpp"
#include "ayd/rng/simd.hpp"
#include "ayd/sim/correlated.hpp"
#include "ayd/sim/protocol.hpp"
#include "ayd/sim/runner.hpp"

namespace ayd::sim {
namespace {

/// Forces the scalar reference tier for every test in this binary.
const int kForceScalarTier = [] {
  rng::simd::force_tier(rng::simd::Tier::kScalar);
  return 0;
}();

using model::CostModel;
using model::FailureDistSpec;
using model::FailureModel;
using model::HeterogeneousSpec;
using model::ResilienceCosts;
using model::Speedup;
using model::System;
using model::TwoTierCostSpec;

System pinned_system(const FailureDistSpec& spec, double lambda = 1e-7) {
  ResilienceCosts costs{CostModel::constant(300.0), CostModel::constant(300.0),
                        CostModel::constant(30.0)};
  return System(FailureModel(lambda, 0.4), costs, 1800.0,
                Speedup::amdahl(0.1))
      .with_failure_dist(spec);
}

struct Pin {
  const char* name;
  Backend backend;
  double wall_time;  ///< hex-float exact, from the pre-overhaul library
  std::uint64_t attempts;
  std::uint64_t fail_stops;
  std::uint64_t recovery_fail_stops;
  std::uint64_t silent_detections;
  std::uint64_t masked_silent;
};

// Generated with the pre-overhaul library at seed 42, pattern
// (T=20000, P=256), 300 patterns (see file comment).
constexpr Pin kPins[] = {
    {"exponential", Backend::kFast, 0x1.150c3454631c6p+23, 481, 80, 0, 101, 8},
    {"exponential", Backend::kDes, 0x1.1117faaff9842p+23, 479, 83, 0, 96, 8},
    {"weibull_07", Backend::kFast, 0x1.80cc94f227779p+23, 751, 266, 13, 198, 40},
    {"weibull_07", Backend::kDes, 0x1.8b842c14d06b4p+23, 757, 248, 12, 221, 49},
    {"weibull_15", Backend::kFast, 0x1.bd186ac4ed94ep+22, 365, 24, 0, 41, 0},
    {"weibull_15", Backend::kDes, 0x1.bbdabd7fd7dabp+22, 363, 21, 0, 42, 1},
    {"lognormal_12", Backend::kFast, 0x1.52078d3e7fdefp+23, 587, 129, 0, 158, 25},
    {"lognormal_12", Backend::kDes, 0x1.6d0dd94723a49p+23, 637, 148, 0, 189, 28},
};

FailureDistSpec spec_for(const std::string& name) {
  if (name == "exponential") return FailureDistSpec::exponential();
  if (name == "weibull_07") return FailureDistSpec::weibull(0.7);
  if (name == "weibull_15") return FailureDistSpec::weibull(1.5);
  return FailureDistSpec::lognormal(1.2);
}

TEST(SimBitCompat, FixedSeedTotalsMatchPreOverhaulLibrary) {
  for (const Pin& pin : kPins) {
    const System sys = pinned_system(spec_for(pin.name));
    PatternStats totals;
    rng::RngStream rng(42);
    if (pin.backend == Backend::kFast) {
      FastProtocolSimulator simulator(sys, {20000.0, 256.0});
      for (int i = 0; i < 300; ++i) {
        totals.merge(simulator.simulate_pattern(rng));
      }
    } else {
      DesProtocolSimulator simulator(sys, {20000.0, 256.0});
      for (int i = 0; i < 300; ++i) {
        totals.merge(simulator.simulate_pattern(rng));
      }
    }
    const std::string label =
        std::string(pin.name) +
        (pin.backend == Backend::kFast ? "/fast" : "/des");
    // Bitwise, not approximate: the overhaul's contract is exactness.
    EXPECT_EQ(totals.wall_time, pin.wall_time) << label;
    EXPECT_EQ(totals.attempts, pin.attempts) << label;
    EXPECT_EQ(totals.fail_stop_errors, pin.fail_stops) << label;
    EXPECT_EQ(totals.recovery_fail_stops, pin.recovery_fail_stops) << label;
    EXPECT_EQ(totals.silent_detections, pin.silent_detections) << label;
    EXPECT_EQ(totals.masked_silent, pin.masked_silent) << label;
  }
}

/// Reference fast sampler: the historical draw-everything loop (one
/// sample per attempt and per recovery try, straight off
/// FailureDistribution::sample), with no threshold filtering and no
/// batching. FastProtocolSimulator must reproduce it bit-for-bit.
PatternStats reference_fast_pattern(const System& sys,
                                    const core::Pattern& pattern,
                                    rng::RngStream& rng) {
  const double lf = sys.fail_stop_rate(pattern.procs);
  const double ls = sys.silent_rate(pattern.procs);
  const double t = pattern.period;
  const double v = sys.verification_cost(pattern.procs);
  const double c = sys.checkpoint_cost(pattern.procs);
  const double r = sys.recovery_cost(pattern.procs);
  const double d = sys.downtime();
  const auto fail_dist = sys.failure().dist().instantiate(lf);
  const auto silent_dist = sys.failure().dist().instantiate(ls);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  PatternStats stats;
  double wall = 0.0;
  const auto sample_fail = [&] {
    return lf > 0.0 ? fail_dist->sample(rng) : kInf;
  };
  const auto sample_silent = [&] {
    return ls > 0.0 ? silent_dist->sample(rng) : kInf;
  };
  const auto run_recovery = [&] {
    for (;;) {
      const double y = sample_fail();
      if (y < r) {
        ++stats.fail_stop_errors;
        ++stats.recovery_fail_stops;
        wall += y + d;
        continue;
      }
      wall += r;
      return;
    }
  };
  for (;;) {
    ++stats.attempts;
    const double x = sample_fail();
    const double s_arrival = sample_silent();
    const bool silent = s_arrival < t;
    if (x < t + v) {
      ++stats.fail_stop_errors;
      if (silent && s_arrival < x) ++stats.masked_silent;
      wall += x + d;
      run_recovery();
      continue;
    }
    if (silent) {
      ++stats.silent_detections;
      wall += t + v;
      run_recovery();
      continue;
    }
    if (x < t + v + c) {
      ++stats.fail_stop_errors;
      wall += x + d;
      run_recovery();
      continue;
    }
    wall += t + v + c;
    stats.wall_time = wall;
    return stats;
  }
}

TEST(SimBitCompat, FastSamplerMatchesReferenceAcrossSeedsAndRegimes) {
  const FailureDistSpec specs[] = {
      FailureDistSpec::exponential(),
      FailureDistSpec::weibull(0.7),
      FailureDistSpec::weibull(1.5),
      FailureDistSpec::lognormal(1.2),
  };
  // Error-heavy and error-light regimes: exercise the no-error fast path,
  // every failure branch, recovery retries, and masking.
  const double lambdas[] = {3e-10, 1e-7, 8e-7};
  for (const auto& spec : specs) {
    for (const double lambda : lambdas) {
      ResilienceCosts costs{CostModel::constant(300.0),
                            CostModel::constant(300.0),
                            CostModel::constant(30.0)};
      const System sys =
          System(FailureModel(lambda, 0.4), costs, 1800.0,
                 Speedup::amdahl(0.1))
              .with_failure_dist(spec);
      const core::Pattern pattern{20000.0, 256.0};
      FastProtocolSimulator simulator(sys, pattern);
      for (std::uint64_t seed = 0; seed < 8; ++seed) {
        rng::RngStream ra(seed), rb(seed);
        for (int p = 0; p < 40; ++p) {
          const PatternStats got = simulator.simulate_pattern(ra);
          const PatternStats want = reference_fast_pattern(sys, pattern, rb);
          ASSERT_EQ(got.wall_time, want.wall_time)
              << "seed " << seed << " pattern " << p << " lambda " << lambda;
          ASSERT_EQ(got.attempts, want.attempts);
          ASSERT_EQ(got.fail_stop_errors, want.fail_stop_errors);
          ASSERT_EQ(got.recovery_fail_stops, want.recovery_fail_stops);
          ASSERT_EQ(got.silent_detections, want.silent_detections);
          ASSERT_EQ(got.masked_silent, want.masked_silent);
        }
        // Both consumed exactly the same words: the streams must be in
        // the same position.
        ASSERT_EQ(ra.next_u64(), rb.next_u64()) << "stream drift, seed "
                                                << seed;
      }
    }
  }
}

TEST(SimBitCompat, DesFiresFailStopOnExactAttemptEndTie) {
  // Trace-replay arrivals have atoms, so an arrival landing EXACTLY on
  // the attempt end (T+V+C) happens with real probability. The pending
  // fail-stop carries an older id than the checkpoint phase-end pushed
  // later, so on the (time, id) tie the fail-stop pops first and must
  // strike — the scheduling skip must not discard it. Gaps {2, 4} at
  // rate 1/6144 rescale to arrivals of exactly 4096 (== T+V+C, a tie
  // every time) or 8192 (beyond the attempt, never fires). Totals
  // generated with the pre-overhaul library at seed 5 (a discard-on-tie
  // bug shows up as fails == 0 and attempts == 100).
  ResilienceCosts costs{CostModel::constant(50.0), CostModel::constant(50.0),
                        CostModel::constant(46.0)};
  const System sys =
      System(FailureModel(1.0 / 6144.0 / 256.0, 1.0), costs, 10.0,
             Speedup::amdahl(0.1))
          .with_failure_dist(FailureDistSpec::trace_replay({2.0, 4.0}));
  DesProtocolSimulator des(sys, {4000.0, 256.0});
  rng::RngStream rng(5);
  PatternStats totals;
  for (int i = 0; i < 100; ++i) totals.merge(des.simulate_pattern(rng));
  EXPECT_EQ(totals.wall_time, 0x1.9f1bp+19);
  EXPECT_EQ(totals.attempts, 206u);
  EXPECT_EQ(totals.fail_stop_errors, 106u);
  EXPECT_EQ(totals.recovery_fail_stops, 0u);
}

TEST(SimBitCompat, WordThresholdIsSoundAtTheBoundary) {
  // Soundness contract of the fast sampler's filter: EVERY word at or
  // above safe_word_threshold(dist, window) must invert to an arrival
  // >= window. The dangerous region is just above the threshold, where
  // a cdf/quantile inconsistency (the lognormal's erfc cdf vs Acklam
  // quantile, ~1e-9 in z-space) could otherwise classify in-window
  // arrivals as "beyond the window". Scan it densely.
  constexpr std::uint64_t kScan = 300'000;
  constexpr std::uint64_t kWordMax = 1ULL << 53;
  const FailureDistSpec specs[] = {
      FailureDistSpec::exponential(),   FailureDistSpec::weibull(0.7),
      FailureDistSpec::weibull(1.5),    FailureDistSpec::lognormal(0.5),
      FailureDistSpec::lognormal(2.0),  FailureDistSpec::lognormal(8.0),
  };
  const double cdf_levels[] = {1e-12, 1e-6, 7e-3, 0.5};
  const auto scan = [&](const model::FailureDistribution& dist,
                        const std::string& label) {
    for (const double level : cdf_levels) {
      const double window = dist.quantile(level);
      if (!(window > 0.0)) continue;
      const std::uint64_t mthr = safe_word_threshold(dist, window);
      std::uint64_t violations = 0;
      const std::uint64_t end = std::min(kWordMax, mthr + kScan);
      for (std::uint64_t m = mthr; m < end; ++m) {
        const double u = static_cast<double>(m) * 0x1.0p-53;
        if (dist.sample_value(u) < window) ++violations;
      }
      EXPECT_EQ(violations, 0u)
          << label << " at cdf level " << level
          << ": words above the threshold invert inside the window";
    }
  };
  for (const auto& spec : specs) {
    scan(*spec.instantiate(1e-6), spec.to_string());
  }

  // The correlated fast sampler thresholds every source of an extended
  // world at that source's own rate: a heterogeneity class carries
  // (1-rho)·lambda_f·share·scale, the shock stream rho·f·lambda/g.
  HeterogeneousSpec hetero;
  hetero.groups = {{0.25, 2.0, FailureDistSpec::lognormal(8.0)},
                   {0.75, 2.0 / 3.0, FailureDistSpec::weibull(0.7)}};
  const System sys = pinned_system(FailureDistSpec::weibull(1.5))
                         .with_heterogeneity(hetero)
                         .with_shock({0.4, 0.02,
                                      FailureDistSpec::lognormal(2.0)});
  const detail::CorrelatedWorld world(sys, {20000.0, 256.0});
  ASSERT_EQ(world.fail_sources().size(), 3u);
  ASSERT_TRUE(world.fail_sources().back().is_shock);
  for (const detail::FailSource& src : world.fail_sources()) {
    scan(*src.dist, (src.is_shock ? "shock source at rate "
                                  : "heterogeneity class at rate ") +
                        std::to_string(src.dist->rate()));
  }
}

TEST(SimBitCompat, DesDetectsStreamSwitchAndDiscardsStalePrefetch) {
  // The DES prefetches unit variates in blocks. Handing the simulator a
  // different RngStream mid-life (without begin_replica) must not serve
  // the new stream variates prefetched from the old one: the engine
  // fingerprint detects the switch and the second stream behaves
  // exactly as it does on a fresh simulator.
  const System sys = pinned_system(FailureDistSpec::weibull(0.7));
  const core::Pattern pattern{20000.0, 256.0};

  DesProtocolSimulator reused(sys, pattern);
  rng::RngStream a(1), b(2);
  (void)reused.simulate_pattern(a);  // leaves prefetch from stream 1
  PatternStats switched;
  for (int i = 0; i < 20; ++i) switched.merge(reused.simulate_pattern(b));

  DesProtocolSimulator fresh(sys, pattern);
  rng::RngStream b2(2);
  PatternStats expect;
  for (int i = 0; i < 20; ++i) expect.merge(fresh.simulate_pattern(b2));

  EXPECT_EQ(switched.wall_time, expect.wall_time);
  EXPECT_EQ(switched.attempts, expect.attempts);
  EXPECT_EQ(switched.fail_stop_errors, expect.fail_stop_errors);
  EXPECT_EQ(switched.silent_detections, expect.silent_detections);
}

TEST(SimBitCompat, SimulateReplicaEqualsPatternLoop) {
  const System sys = pinned_system(FailureDistSpec::weibull(0.7));
  const core::Pattern pattern{20000.0, 256.0};
  for (const Backend backend : {Backend::kFast, Backend::kDes}) {
    rng::RngStream ra(7), rb(7);
    PatternStats loop;
    PatternStats replica;
    if (backend == Backend::kFast) {
      FastProtocolSimulator a(sys, pattern), b(sys, pattern);
      for (int i = 0; i < 50; ++i) loop.merge(a.simulate_pattern(ra));
      replica = b.simulate_replica(rb, 50);
    } else {
      DesProtocolSimulator a(sys, pattern), b(sys, pattern);
      for (int i = 0; i < 50; ++i) loop.merge(a.simulate_pattern(ra));
      replica = b.simulate_replica(rb, 50);
    }
    EXPECT_EQ(loop.wall_time, replica.wall_time);
    EXPECT_EQ(loop.attempts, replica.attempts);
    EXPECT_EQ(loop.fail_stop_errors, replica.fail_stop_errors);
    EXPECT_EQ(loop.silent_detections, replica.silent_detections);
    EXPECT_EQ(loop.masked_silent, replica.masked_silent);
  }
}

// The exponential *fast* path never calls a transcendental (the CDF
// threshold filter decides almost every draw from the raw word, and the
// exceptions go through the pinned scalar sample_value), so its
// pre-overhaul pin must hold under the auto-detected tier too — the
// byte-identical-by-default guarantee for the paper's model on the
// default backend. (The DES backend's batched refill does route -log
// through the tier-dispatched kernel, so its pin is scalar-tier only,
// like the non-exponential ones.)
TEST(SimBitCompat, ExponentialFastPinHoldsUnderAutoDetectedTier) {
  rng::simd::clear_forced_tier();
  const System sys = pinned_system(FailureDistSpec::exponential());
  for (const Pin& pin : kPins) {
    if (std::string(pin.name) != "exponential" || pin.backend != Backend::kFast)
      continue;
    PatternStats totals;
    rng::RngStream rng(42);
    FastProtocolSimulator simulator(sys, {20000.0, 256.0});
    for (int i = 0; i < 300; ++i) {
      totals.merge(simulator.simulate_pattern(rng));
    }
    EXPECT_EQ(totals.wall_time, pin.wall_time) << pin.name;
    EXPECT_EQ(totals.attempts, pin.attempts) << pin.name;
  }
  rng::simd::force_tier(rng::simd::Tier::kScalar);
}

// --- Correlated fast sampler ----------------------------------------------

/// Reference correlated sampler: CorrelatedFastSimulator's replica loop
/// as it was before threshold filtering — every draw of every source, on
/// every attempt and recovery try, straight off
/// FailureDistribution::sample. `tier_flips` (when given) counts recovery
/// chains a shock moved to the PFS tier after they had started on the
/// burst buffer, so the tests can show they exercise that path.
PatternStats reference_correlated_replica(const detail::CorrelatedWorld& world,
                                          rng::RngStream& rng, std::size_t n,
                                          std::uint64_t* tier_flips = nullptr) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  PatternStats totals;
  const auto& sources = world.fail_sources();
  const bool tiered = world.tiered();
  const bool have_silent = world.silent_active();
  const double t = world.t();
  const double tv = world.t() + world.v();
  const double tvc = tv + world.c();
  const double d = world.d();

  bool min_is_shock = false;
  const auto draw_fail = [&]() -> double {
    double best = kInf;
    min_is_shock = false;
    for (const detail::FailSource& src : sources) {
      const double a = src.dist->rate() > 0.0 ? src.dist->sample(rng) : kInf;
      if (a < best) {
        best = a;
        min_is_shock = src.is_shock;
      }
    }
    return best;
  };

  for (std::size_t p = 0; p < n; ++p) {
    double wall = 0.0;
    std::uint64_t attempts = 0;
    std::uint64_t fail_stops = 0;
    std::uint64_t recovery_fails = 0;
    std::uint64_t detections = 0;
    std::uint64_t masked = 0;
    std::uint64_t shocks = 0;

    const auto run_recovery = [&](bool from_shock) {
      bool pfs = tiered && from_shock;
      for (;;) {
        const double r = world.recovery_cost(pfs);
        const double y = draw_fail();
        if (y < r) {
          ++fail_stops;
          ++recovery_fails;
          if (min_is_shock) {
            ++shocks;
            if (tier_flips != nullptr && tiered && !pfs) ++*tier_flips;
            pfs = pfs || tiered;
          }
          wall += y + d;
          continue;
        }
        wall += r;
        return;
      }
    };

    for (;;) {
      ++attempts;
      const double x = draw_fail();
      const bool x_shock = min_is_shock;
      const double s_arrival = have_silent ? world.silent().sample(rng) : kInf;
      const bool silent = s_arrival < t;
      if (x < tv) {
        ++fail_stops;
        if (x_shock) ++shocks;
        if (silent && s_arrival < x) ++masked;
        wall += x + d;
        run_recovery(x_shock);
        continue;
      }
      if (silent) {
        ++detections;
        wall += tv;
        run_recovery(false);
        continue;
      }
      if (x < tvc) {
        ++fail_stops;
        if (x_shock) ++shocks;
        wall += x + d;
        run_recovery(x_shock);
        continue;
      }
      wall += tvc;
      break;
    }

    totals.wall_time += wall;
    totals.attempts += attempts;
    totals.fail_stop_errors += fail_stops;
    totals.recovery_fail_stops += recovery_fails;
    totals.silent_detections += detections;
    totals.masked_silent += masked;
    totals.shock_errors += shocks;
  }
  return totals;
}

void expect_bitwise_equal(const PatternStats& got, const PatternStats& want,
                          const std::string& label) {
  ASSERT_EQ(got.wall_time, want.wall_time) << label;
  ASSERT_EQ(got.attempts, want.attempts) << label;
  ASSERT_EQ(got.fail_stop_errors, want.fail_stop_errors) << label;
  ASSERT_EQ(got.recovery_fail_stops, want.recovery_fail_stops) << label;
  ASSERT_EQ(got.silent_detections, want.silent_detections) << label;
  ASSERT_EQ(got.masked_silent, want.masked_silent) << label;
  ASSERT_EQ(got.shock_errors, want.shock_errors) << label;
}

struct ExtendedWorld {
  std::string name;
  System sys;
};

System with_pfs_penalty(const System& sys, double penalty) {
  return sys.with_two_tier(TwoTierCostSpec::from_penalty(sys.costs(), penalty));
}

/// Extended worlds covering every branch of the filtered loop: analytic
/// shock laws, two-tier chains, mixed class laws, zero-rate classes, and
/// the sample() fallback of a trace-replay class or shock law.
std::vector<ExtendedWorld> extended_worlds(double lambda) {
  const FailureDistSpec weibull = FailureDistSpec::weibull(0.7);
  const FailureDistSpec lognormal = FailureDistSpec::lognormal(1.2);
  const FailureDistSpec trace =
      FailureDistSpec::trace_replay({1.0, 50.0, 1000.0});
  HeterogeneousSpec mixed;
  mixed.groups = {{0.5, 1.5, weibull}, {0.5, 0.5, {}}};
  HeterogeneousSpec zero_rate;
  zero_rate.groups = {{0.5, 0.0, FailureDistSpec::weibull(1.5)},
                      {0.5, 2.0, lognormal}};
  HeterogeneousSpec traced;
  traced.groups = {{0.5, 1.0, trace}, {0.5, 1.0, weibull}};

  std::vector<ExtendedWorld> worlds;
  worlds.push_back(
      {"shock/weibull", pinned_system(weibull, lambda).with_shock({0.5, 0.05})});
  worlds.push_back({"shock/lognormal",
                    pinned_system(lognormal, lambda).with_shock({0.4, 0.02})});
  worlds.push_back(
      {"shock+pfs/weibull",
       with_pfs_penalty(pinned_system(weibull, lambda).with_shock({0.5, 0.05}),
                        4.0)});
  worlds.push_back({"hetero weibull+exponential",
                    pinned_system(weibull, lambda).with_heterogeneity(mixed)});
  worlds.push_back(
      {"shock/exponential",
       pinned_system(FailureDistSpec::exponential(), lambda)
           .with_shock({0.5, 0.05})});
  worlds.push_back(
      {"zero-rate class",
       pinned_system(lognormal, lambda).with_heterogeneity(zero_rate)});
  worlds.push_back(
      {"trace-replay class",
       pinned_system(weibull, lambda).with_heterogeneity(traced)});
  worlds.push_back({"trace-replay shock law",
                    pinned_system(lognormal, lambda)
                        .with_shock({0.4, 0.05, trace})});
  return worlds;
}

/// Runs `world` through CorrelatedFastSimulator and the reference over
/// several seeds, both as whole replicas and pattern by pattern, and
/// asserts bitwise equality, the same stream position afterwards, and
/// returns the reference's totals over everything it ran.
PatternStats expect_matches_reference(const ExtendedWorld& world,
                                      std::uint64_t* tier_flips) {
  const core::Pattern pattern{20000.0, 256.0};
  const detail::CorrelatedWorld reference(world.sys, pattern);
  CorrelatedFastSimulator simulator(world.sys, pattern);
  PatternStats all;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const std::string label = world.name + " seed " + std::to_string(seed) +
                              " tier " +
                              rng::simd::tier_name(rng::simd::active_tier());
    rng::RngStream ra(seed), rb(seed);
    const PatternStats want =
        reference_correlated_replica(reference, rb, 40, tier_flips);
    expect_bitwise_equal(simulator.simulate_replica(ra, 40), want,
                         label + " (replica)");
    all.merge(want);
    for (int p = 0; p < 40; ++p) {
      expect_bitwise_equal(simulator.simulate_pattern(ra),
                           reference_correlated_replica(reference, rb, 1),
                           label + " pattern " + std::to_string(p));
    }
    EXPECT_EQ(ra.next_u64(), rb.next_u64()) << "stream drift, " << label;
  }
  return all;
}

TEST(SimBitCompat, CorrelatedFastSamplerMatchesReferenceAcrossWorlds) {
  // Paper-like and failure-rich rates, under the scalar reference tier
  // and the auto-detected one (the correlated loop never calls a
  // vectorized kernel, so both must match the same reference).
  for (const bool scalar : {true, false}) {
    if (!scalar) rng::simd::clear_forced_tier();
    for (const double lambda : {1e-7, 8e-7}) {
      for (const ExtendedWorld& world : extended_worlds(lambda)) {
        const PatternStats all = expect_matches_reference(world, nullptr);
        if (world.name.find("shock") != std::string::npos) {
          EXPECT_GT(all.shock_errors, 0u) << world.name;
        }
      }
    }
    rng::simd::force_tier(rng::simd::Tier::kScalar);
  }
}

TEST(SimBitCompat, CorrelatedFastSamplerMatchesReferenceOnTierFlips) {
  // A failure-rich two-tier world with small, frequent shocks and slow
  // PFS restores: chains start on the burst buffer and a shock moves
  // them to the PFS mid-chain, so recovery tries switch thresholds.
  for (const bool scalar : {true, false}) {
    if (!scalar) rng::simd::clear_forced_tier();
    const ExtendedWorld world{
        "failure-rich shock+pfs",
        with_pfs_penalty(pinned_system(FailureDistSpec::weibull(0.7), 8e-7)
                             .with_shock({0.6, 0.005}),
                         8.0)};
    std::uint64_t flips = 0;
    const PatternStats all = expect_matches_reference(world, &flips);
    EXPECT_GT(flips, 0u) << "no chain moved from burst buffer to PFS";
    EXPECT_GT(all.recovery_fail_stops, 0u);
    rng::simd::force_tier(rng::simd::Tier::kScalar);
  }
}

struct CorrelatedPin {
  const char* name;
  double wall_time;  ///< hex-float exact, from the draw-everything loop
  std::uint64_t attempts;
  std::uint64_t fail_stops;
  std::uint64_t recovery_fail_stops;
  std::uint64_t silent_detections;
  std::uint64_t masked_silent;
  std::uint64_t shock_errors;
};

System correlated_pin_system(const std::string& name) {
  if (name == "shock_pfs_weibull_07") {
    return with_pfs_penalty(
        pinned_system(FailureDistSpec::weibull(0.7)).with_shock({0.5, 0.05}),
        4.0);
  }
  HeterogeneousSpec hetero;
  hetero.groups = {{0.5, 1.5, FailureDistSpec::lognormal(1.2)},
                   {0.5, 0.5, {}}};
  return pinned_system(FailureDistSpec::lognormal(1.2))
      .with_heterogeneity(hetero)
      .with_shock({0.3, 0.02, FailureDistSpec::weibull(0.7)});
}

TEST(SimBitCompat, CorrelatedFastFixedSeedTotalsMatchDrawEverythingLoop) {
  // Generated with the draw-everything CorrelatedFastSimulator at seed
  // 42, pattern (T=20000, P=256), 300 patterns.
  constexpr CorrelatedPin kCorrelatedPins[] = {
      {"shock_pfs_weibull_07", 0x1.5ce5e5206086p+23, 632, 149, 7, 190, 32, 5},
      {"hetero_shock_lognormal_12", 0x1.41d02cd29c84p+23, 557, 103, 1, 155,
       18, 19},
  };
  for (const CorrelatedPin& pin : kCorrelatedPins) {
    CorrelatedFastSimulator simulator(correlated_pin_system(pin.name),
                                      {20000.0, 256.0});
    rng::RngStream rng(42);
    PatternStats totals;
    for (int i = 0; i < 300; ++i) {
      totals.merge(simulator.simulate_pattern(rng));
    }
    EXPECT_EQ(totals.wall_time, pin.wall_time) << pin.name;
    EXPECT_EQ(totals.attempts, pin.attempts) << pin.name;
    EXPECT_EQ(totals.fail_stop_errors, pin.fail_stops) << pin.name;
    EXPECT_EQ(totals.recovery_fail_stops, pin.recovery_fail_stops)
        << pin.name;
    EXPECT_EQ(totals.silent_detections, pin.silent_detections) << pin.name;
    EXPECT_EQ(totals.masked_silent, pin.masked_silent) << pin.name;
    EXPECT_EQ(totals.shock_errors, pin.shock_errors) << pin.name;
  }
}

}  // namespace
}  // namespace ayd::sim
