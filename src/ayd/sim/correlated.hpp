// Simulators for the correlated / multi-level failure worlds
// (model/correlated.hpp).
//
// A plain System has one fail-stop renewal source and one silent source;
// the bit-pinned simulators in sim/protocol.hpp own that world and are
// never touched by this extension. An *extended* System (sys.extended())
// instead carries up to three more axes, and the replication driver
// (sim/runner.cpp) routes it here:
//
//  * Fail-stop arrivals are the superposition of K per-component renewal
//    streams (one per heterogeneity class; K = 1 when homogeneous) plus
//    an optional platform-wide shock stream. Every source renews at each
//    attempt start and each recovery try — the same renewal points the
//    plain simulators use for non-memoryless laws — drawing one arrival
//    per source in a fixed order (component classes in spec order, the
//    shock last); the earliest strictly-smallest arrival strikes. Any
//    strike interrupts the whole coordinated application, so what the
//    origin changes is telemetry (PatternStats::shock_errors) and, under
//    a two-tier cost spec, the recovery path.
//  * Silent errors stay one homogeneous stream at the System's base law
//    (detectors are application-level, not component-level); see
//    docs/theory.md.
//  * Two-tier recovery: a rollback chain triggered by an individual
//    failure or a silent detection restores from the burst buffer
//    (sys.recovery_cost); a shock wipes its victims' burst buffers, so a
//    chain that contains a shock restores from the PFS
//    (TwoTierCostSpec::pfs_recovery). The PFS tier is sticky within one
//    rollback chain — a failed restore leaves the burst buffer stale —
//    and resets once a recovery completes and a fresh attempt begins.
//
// Draw discipline: zero-rate sources consume no engine words (the
// NeverFails discipline of the plain simulators), every other source
// draws once per renewal in the fixed source order, and replica i always
// reads RNG substream (seed, i) — so results are byte-identical across
// runs and thread counts. The fast backend draws word-then-threshold:
// when every active source is unit-samplable, each draw takes one engine
// word and runs the quantile inversion (sample_value) only when the word
// lies below that source's CDF threshold for the window being decided —
// the same filter FastProtocolSimulator uses, bit-transparent for a
// minimum over sources (see simulate_replica). A world with a source
// that is not unit-samplable (trace replay) draws every arrival through
// FailureDistribution::sample instead, as the DES backend always does.
// There is no CRN pool mode: an extended world's draw sequence
// interleaves several laws, so the engine's variate cache excludes
// extended systems (engine/evaluator.cpp) and the replication driver
// rejects a shared pool for them. The two backends below make
// independent draw sequences but identical distributional assumptions;
// tests/sim_backend_equivalence_test.cpp holds them together,
// tests/model_correlated_test.cpp validates the samplers against
// closed-form marginals, and tests/sim_bitcompat_test.cpp pins the fast
// backend to the draw-everything loop it replaced.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "ayd/core/pattern.hpp"
#include "ayd/model/system.hpp"
#include "ayd/rng/stream.hpp"
#include "ayd/sim/event_queue.hpp"
#include "ayd/sim/protocol.hpp"
#include "ayd/sim/variate_pool.hpp"

namespace ayd::sim {

namespace detail {

/// One fail-stop arrival source of an extended world.
struct FailSource {
  std::unique_ptr<const model::FailureDistribution> dist;
  bool is_shock = false;
};

/// Everything both correlated backends share: the resolved sources, the
/// per-pattern segment costs, and the two recovery tiers.
class CorrelatedWorld {
 public:
  CorrelatedWorld(const model::System& sys, const core::Pattern& pattern);

  [[nodiscard]] const std::vector<FailSource>& fail_sources() const {
    return fail_sources_;
  }
  [[nodiscard]] const model::FailureDistribution& silent() const {
    return *silent_dist_;
  }
  [[nodiscard]] double t() const { return t_; }
  [[nodiscard]] double v() const { return v_; }
  [[nodiscard]] double c() const { return c_; }
  [[nodiscard]] double d() const { return d_; }
  /// Recovery cost of the tier a rollback chain is on.
  [[nodiscard]] double recovery_cost(bool pfs) const {
    return pfs ? r_pfs_ : r_bb_;
  }
  /// True when a shock strike escalates the chain to the PFS tier (a
  /// two-tier spec is active; without one both tiers read the same).
  [[nodiscard]] bool tiered() const { return r_pfs_ != r_bb_; }
  [[nodiscard]] bool silent_active() const { return ls_ > 0.0; }
  /// For divergence diagnostics.
  [[nodiscard]] double total_fail_rate() const { return lf_total_; }
  [[nodiscard]] double silent_rate() const { return ls_; }

 private:
  std::vector<FailSource> fail_sources_;
  std::unique_ptr<const model::FailureDistribution> silent_dist_;
  double t_, v_, c_, d_;
  double r_bb_, r_pfs_;
  double lf_total_ = 0.0;
  double ls_ = 0.0;
};

}  // namespace detail

/// Closed-form per-segment sampler for extended worlds, modeled on
/// FastProtocolSimulator's threshold-filtered loop: one fresh arrival per
/// source per attempt / per recovery try, earliest strike wins. The
/// default backend.
class CorrelatedFastSimulator {
 public:
  CorrelatedFastSimulator(const model::System& sys,
                          const core::Pattern& pattern);

  [[nodiscard]] PatternStats simulate_pattern(rng::RngStream& rng);
  /// n patterns back to back, stats merged (the replication driver's
  /// loop; equivalent to n simulate_pattern calls, bitwise).
  [[nodiscard]] PatternStats simulate_replica(rng::RngStream& rng,
                                              std::size_t n);

  /// Nothing is prefetched across replicas, so this is a no-op; it
  /// exists so the replication driver's template fits.
  void begin_replica() {}
  /// Extended worlds have no CRN pool mode (see file header); only the
  /// nullptr reset is accepted.
  void set_unit_cursor(UnitVariatePool::Cursor* cursor);

  [[nodiscard]] const core::Pattern& pattern() const { return pattern_; }

 private:
  /// Windows an arrival is decided against: the attempt, (T+V)+C, and a
  /// recovery try on the burst-buffer or the PFS tier.
  enum Window : std::size_t { kAttempt = 0, kRecoveryBb = 1, kRecoveryPfs = 2 };

  /// An active (rate > 0) fail source as the replica loop draws it.
  struct ActiveSource {
    const model::FailureDistribution* dist;
    bool is_shock;
    /// safe_word_threshold per Window (only set when filtered_).
    std::array<std::uint64_t, 3> mthr{};
  };

  core::Pattern pattern_;
  detail::CorrelatedWorld world_;
  std::vector<ActiveSource> sources_;  ///< draw order of the world
  /// Every active source (fail and silent) is unit-samplable, so draws
  /// go word-then-threshold; otherwise every draw goes through sample().
  bool filtered_ = false;
  std::uint64_t mthr_silent_ = 0;  ///< silent arrival before T possible
};

/// Event-queue reference backend for extended worlds: the phase machine
/// of DesProtocolSimulator with one pending arrival per source, all
/// sources renewed at each attempt start and each recovery try (arrivals
/// at or beyond their renewal boundary are discarded unscheduled, so a
/// boundary tie never strikes — matching the fast loop's strict-<
/// windows). Distributionally identical to CorrelatedFastSimulator
/// (tests/sim_backend_equivalence_test.cpp).
class CorrelatedDesSimulator {
 public:
  CorrelatedDesSimulator(const model::System& sys,
                         const core::Pattern& pattern);

  [[nodiscard]] PatternStats simulate_pattern(rng::RngStream& rng);
  [[nodiscard]] PatternStats simulate_replica(rng::RngStream& rng,
                                              std::size_t n);

  void begin_replica() {}
  /// See CorrelatedFastSimulator::set_unit_cursor.
  void set_unit_cursor(UnitVariatePool::Cursor* cursor);

  [[nodiscard]] const core::Pattern& pattern() const { return pattern_; }

 private:
  core::Pattern pattern_;
  detail::CorrelatedWorld world_;
  EventQueue queue_;
  /// Pending fail-stop event id per source (kNoEvent when none); the
  /// popped event id identifies its source by lookup here.
  std::vector<std::uint64_t> pending_;
};

}  // namespace ayd::sim
