#include "ayd/sim/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "ayd/rng/simd.hpp"
#include "ayd/sim/write_back.hpp"
#include "ayd/util/contracts.hpp"
#include "ayd/util/error.hpp"

namespace ayd::sim {

namespace {

constexpr std::uint64_t kNoEvent = std::numeric_limits<std::uint64_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Minimum mean fraction of below-threshold (transform-needing) draws
/// for the fast simulator's SIMD block pipeline to beat the
/// scalar-dispatch loop. The block path transforms every lane, so it
/// wins once the scalar loop would pay the per-element transform on
/// roughly half the draws; measured crossover on the reference container
/// is ~0.5 for the Weibull (the only shape whose transform is expensive
/// enough to vectorize profitably), and the gate adds margin.
constexpr double kBlockModeMinTransformFraction = 0.55;

[[noreturn]] void throw_diverged(const core::Pattern& pattern, double lf,
                                 double ls) {
  std::ostringstream os;
  os << "pattern did not complete within " << kMaxPatternAttempts
     << " attempts (T=" << pattern.period << ", P=" << pattern.procs
     << ", lambda_f=" << lf << ", lambda_s=" << ls
     << "); the per-attempt success probability is too small";
  throw util::SimulationDiverged(os.str());
}

/// True when every *active* error source (rate > 0) draws exactly one
/// uniform per sample and factors through the unit-variate API.
bool sources_unit_samplable(double lf, const model::FailureDistribution& fd,
                            double ls, const model::FailureDistribution& sd) {
  if (lf > 0.0 && !fd.unit_samplable()) return false;
  if (ls > 0.0 && !sd.unit_samplable()) return false;
  return true;
}

}  // namespace

std::uint64_t safe_word_threshold(const model::FailureDistribution& dist,
                                  double window) {
  // The margin must dominate the *inconsistency* between cdf() and the
  // quantile inversion behind sample_value(), not just rounding noise.
  // Exponential and Weibull use algebraically matched expm1/log1p/pow
  // forms (disagreement ~1e-15 relative in u). The lognormal is the
  // hard case: its cdf uses accurate erfc while its quantile uses
  // Acklam's approximation (|rel err| ~1.15e-9 in z-space), which maps
  // to a u-space disagreement of up to ~1.15e-9 * z^2 relative to the
  // cdf value; words never reach below u = 2^-53, so |z| <= 8.2 and the
  // worst case is ~8e-8. The 1e-4 relative margin clears that by three
  // orders of magnitude, and its only cost is that a 1e-4 sliver of
  // below-threshold draws computes the exact arrival unnecessarily
  // (tests/sim_bitcompat_test.cpp scans the boundary for violations).
  const double c = dist.cdf(window);
  const double thr = std::min(1.0, c + (c * 1e-4 + 1e-300));
  return static_cast<std::uint64_t>(std::ceil(thr * 0x1.0p53));
}

DesProtocolSimulator::DesProtocolSimulator(const model::System& sys,
                                           const core::Pattern& pattern)
    : pattern_(pattern),
      lf_(sys.fail_stop_rate(pattern.procs)),
      ls_(sys.silent_rate(pattern.procs)),
      t_(pattern.period),
      v_(sys.verification_cost(pattern.procs)),
      c_(sys.checkpoint_cost(pattern.procs)),
      r_(sys.recovery_cost(pattern.procs)),
      d_(sys.downtime()),
      fail_dist_(sys.failure().dist().instantiate(lf_)),
      silent_dist_(sys.failure().dist().instantiate(ls_)),
      renewal_(!fail_dist_->memoryless()),
      batched_(sources_unit_samplable(lf_, *fail_dist_, ls_, *silent_dist_)) {
  core::validate(pattern);
  if (batched_) {
    unit_src_ = lf_ > 0.0 ? fail_dist_.get() : silent_dist_.get();
  }
  queue_.reserve(8);
}

void DesProtocolSimulator::set_unit_cursor(UnitVariatePool::Cursor* cursor) {
  AYD_REQUIRE(cursor == nullptr || batched_,
              "set_unit_cursor: an active source does not factor through "
              "unit variates");
  pool_cursor_ = cursor;
}

double DesProtocolSimulator::draw(const model::FailureDistribution& dist,
                                  rng::RngStream& rng) {
  // Pool (CRN) mode: the unit variate comes from the shared sequence and
  // the stream is left untouched; only the cheap scaling runs here.
  if (pool_cursor_ != nullptr) return dist.from_unit(pool_cursor_->next());
  if (!batched_) return dist.sample(rng);
  // Shared unit block: uniforms leave the stream in the historical draw
  // order, the expensive inversion runs in bulk (tier-dispatched: the
  // scalar reference transform or the vectorized kernels), and each draw
  // is dist.from_unit(z) == the value dist.sample() would have produced
  // under the scalar tier.
  return dist.from_unit(units_.next([&](double* z, std::size_t n) {
    unit_src_->sample_units_fast(rng, z, n);
    expected_state_ = rng.engine().state();
  }));
}

PatternStats DesProtocolSimulator::simulate_pattern(rng::RngStream& rng,
                                                    Trace* trace,
                                                    double start_time) {
  enum class Phase { kWork, kVerify, kCheckpoint, kRecovery };

  PatternStats stats;
  // Fresh id epoch per pattern: ids (and so tie-breaks) are identical to
  // the historical fresh-queue-per-pattern behaviour, but the arena is
  // reused — no allocation once warm.
  queue_.clear();
  // Stale-prefetch guard: variates buffered from a previous call are
  // only valid if `rng` is the same stream at the same position. A
  // fingerprint mismatch means the caller switched streams without
  // begin_replica(); discard the buffer so the new stream's own words
  // are consumed in order.
  if (batched_ && units_.buffered() > 0 &&
      rng.engine().state() != expected_state_) {
    units_.reset();
  }
  double clock = start_time;

  Phase phase = Phase::kWork;
  double phase_start = clock;
  bool silent_struck = false;
  std::uint64_t phase_end_id = kNoEvent;
  std::uint64_t silent_id = kNoEvent;
  std::uint64_t fail_stop_id = kNoEvent;

  // `discard_at` is the exact event time at which the scheduled arrival
  // would be discarded anyway: under renewal the pending fail-stop dies
  // at the next renewal point (attempt end ((clock+T)+V)+C or recovery
  // end clock+R — computed with the same additions the phase-end chain
  // will perform, so the comparison is exact). An arrival strictly
  // beyond that point can never fire, so skipping its push spares the
  // heap the schedule-then-discard round trip; the draw still consumed
  // its words. The comparison must be strict: a fail-stop pushed at an
  // attempt start carries an *older* id than the verify/checkpoint
  // phase-ends pushed later, so on an exact time tie at the attempt end
  // the fail-stop pops first and must strike (trace-replay
  // distributions have atoms, so exact ties carry real probability).
  // At a tie on a recovery end the recovery phase-end is older and pops
  // first, and the pushed arrival is then cancelled by the renewal —
  // bit-identical to the historical schedule-then-cancel path.
  // Memoryless sources keep their pending arrival across renewal points
  // and are always pushed.
  const auto schedule_fail_stop = [&](double discard_at) {
    if (lf_ > 0.0) {
      const double arrival = clock + draw(*fail_dist_, rng);
      if (renewal_ && arrival > discard_at) return;
      fail_stop_id = queue_.push(arrival, EventType::kFailStop);
    }
  };
  const auto attempt_end = [&] { return ((clock + t_) + v_) + c_; };
  const auto begin_phase = [&](Phase next, double duration) {
    phase = next;
    phase_start = clock;
    phase_end_id = queue_.push(clock + duration, EventType::kPhaseEnd);
  };
  const auto begin_attempt = [&] {
    if (stats.attempts >= kMaxPatternAttempts) {
      throw_diverged(pattern_, lf_, ls_);
    }
    ++stats.attempts;
    silent_struck = false;
    begin_phase(Phase::kWork, t_);
    if (ls_ > 0.0) {
      const double arrival = clock + draw(*silent_dist_, rng);
      // A silent arrival at or beyond the work phase-end can never fire:
      // the phase-end (same time or earlier, and the older id) pops
      // first and cancels it. Skipping the push spares the heap the
      // schedule-then-cancel round trip of almost every silent arrival;
      // the draw itself still happened, so the stream is unchanged.
      if (arrival < clock + t_) {
        silent_id = queue_.push(arrival, EventType::kSilent);
      }
    }
  };
  const auto cancel_if_pending = [&](std::uint64_t& id) {
    if (id != kNoEvent) {
      queue_.cancel(id);
      id = kNoEvent;
    }
  };
  // Renewal point for non-memoryless distributions: discard the pending
  // arrival and draw a fresh one, mirroring the fast sampler's one-draw-
  // per-attempt / per-recovery-try structure. Memoryless arrivals keep
  // their pending draw (the historical exponential path, bit-for-bit).
  const auto renew_fail_stop = [&](double discard_at) {
    if (!renewal_) return;
    cancel_if_pending(fail_stop_id);
    schedule_fail_stop(discard_at);
  };
  const auto trace_segment = [&](double begin, double end, SegmentKind kind) {
    if (trace != nullptr) trace->add(begin, end, kind);
  };
  const auto phase_kind = [&]() -> SegmentKind {
    switch (phase) {
      case Phase::kWork: return SegmentKind::kCompute;
      case Phase::kVerify: return SegmentKind::kVerify;
      case Phase::kCheckpoint: return SegmentKind::kCheckpoint;
      case Phase::kRecovery: return SegmentKind::kRecovery;
    }
    AYD_ENSURE(false, "unreachable phase");
  };

  begin_attempt();
  schedule_fail_stop(attempt_end());

  for (;;) {
    const auto event = queue_.pop();
    AYD_ENSURE(event.has_value(), "protocol simulation ran out of events");
    clock = event->time;

    switch (event->type) {
      case EventType::kSilent: {
        silent_id = kNoEvent;
        // Fires only during the work phase: it is scheduled at work start
        // and cancelled when the phase ends or is preempted.
        AYD_ENSURE(phase == Phase::kWork, "silent error outside computation");
        silent_struck = true;
        break;
      }

      case EventType::kFailStop: {
        fail_stop_id = kNoEvent;
        if (stats.fail_stop_errors >= kMaxPatternAttempts) {
          throw_diverged(pattern_, lf_, ls_);
        }
        ++stats.fail_stop_errors;
        if (phase == Phase::kRecovery) ++stats.recovery_fail_stops;
        if (silent_struck) {
          // Masked: the rollback the fail-stop forces also repairs the
          // corruption, so the verification never has to catch it.
          ++stats.masked_silent;
          silent_struck = false;
        }
        cancel_if_pending(phase_end_id);
        cancel_if_pending(silent_id);
        // The partial phase execution is lost.
        trace_segment(phase_start, clock,
                      phase == Phase::kWork ? SegmentKind::kWasted
                                            : phase_kind());
        // Downtime: nothing can fail, no events pending by construction.
        trace_segment(clock, clock + d_, SegmentKind::kDowntime);
        clock += d_;
        begin_phase(Phase::kRecovery, r_);
        schedule_fail_stop(clock + r_);  // fresh arrival after downtime
        break;
      }

      case EventType::kPhaseEnd: {
        phase_end_id = kNoEvent;
        switch (phase) {
          case Phase::kWork:
            cancel_if_pending(silent_id);
            trace_segment(phase_start, clock,
                          silent_struck ? SegmentKind::kWasted
                                        : SegmentKind::kCompute);
            begin_phase(Phase::kVerify, v_);
            break;
          case Phase::kVerify:
            trace_segment(phase_start, clock, SegmentKind::kVerify);
            if (silent_struck) {
              ++stats.silent_detections;
              silent_struck = false;
              begin_phase(Phase::kRecovery, r_);
              renew_fail_stop(clock + r_);  // fresh draw per recovery try
            } else {
              begin_phase(Phase::kCheckpoint, c_);
            }
            break;
          case Phase::kCheckpoint:
            trace_segment(phase_start, clock, SegmentKind::kCheckpoint);
            stats.wall_time = clock - start_time;
            return stats;
          case Phase::kRecovery:
            trace_segment(phase_start, clock, SegmentKind::kRecovery);
            begin_attempt();
            renew_fail_stop(attempt_end());  // fresh draw per attempt
            break;
        }
        break;
      }
    }
  }
}

FastProtocolSimulator::FastProtocolSimulator(const model::System& sys,
                                             const core::Pattern& pattern)
    : pattern_(pattern),
      lf_(sys.fail_stop_rate(pattern.procs)),
      ls_(sys.silent_rate(pattern.procs)),
      t_(pattern.period),
      v_(sys.verification_cost(pattern.procs)),
      c_(sys.checkpoint_cost(pattern.procs)),
      r_(sys.recovery_cost(pattern.procs)),
      d_(sys.downtime()),
      tv_(t_ + v_),
      tvc_(t_ + v_ + c_),
      fail_dist_(sys.failure().dist().instantiate(lf_)),
      silent_dist_(sys.failure().dist().instantiate(ls_)),
      lazy_(sources_unit_samplable(lf_, *fail_dist_, ls_, *silent_dist_)) {
  core::validate(pattern);
  if (lazy_) {
    if (lf_ > 0.0) {
      mthr_fail_ = safe_word_threshold(*fail_dist_, tvc_);
      mthr_rec_ = safe_word_threshold(*fail_dist_, r_);
    }
    if (ls_ > 0.0) mthr_silent_ = safe_word_threshold(*silent_dist_, t_);

    // Devirtualized from_unit scaling for the pool and block loops. The
    // expressions reproduce the scalar from_unit bit-for-bit: the
    // Weibull multiplies by its scale (from_unit(1.0) == the scale
    // exactly), the exponential divides by its rate, and the lognormal
    // stays a virtual call (its scaling is an exp, not a constant).
    const auto scaling_of = [](const model::FailureDistribution& dist,
                               UnitScaling& scaling, double& factor) {
      switch (dist.kind()) {
        case model::FailureDistKind::kWeibull:
          scaling = UnitScaling::kLinear;
          factor = dist.from_unit(1.0);
          break;
        case model::FailureDistKind::kExponential:
          scaling = UnitScaling::kDivide;
          factor = dist.rate();
          break;
        default:
          scaling = UnitScaling::kVirtual;
          factor = 0.0;
          break;
      }
    };
    if (lf_ > 0.0) scaling_of(*fail_dist_, fail_scaling_, fail_factor_);
    if (ls_ > 0.0) scaling_of(*silent_dist_, silent_scaling_, silent_factor_);

    if (lf_ > 0.0 || ls_ > 0.0) {
      unit_src_ = lf_ > 0.0 ? fail_dist_.get() : silent_dist_.get();
      // The block pipeline pays a fixed per-draw staging cost (engine
      // words staged through arrays instead of registers) and transforms
      // every lane, so it only beats the scalar-dispatch loop when the
      // unit transform is genuinely expensive per element — the
      // Weibull's pow; the lognormal's scalar quantile is already cheap
      // — AND enough draws land below threshold that the historical loop
      // would pay that cost often. Each attempt draws once per active
      // channel, so the mean of the active thresholds (as a fraction of
      // the 2^53 word space) is exactly the expected transformed-draw
      // rate. The exponential never enables it, so its fast path stays
      // byte-identical to the scalar tier under every tier; the shapes
      // that stay scalar here still reach the vectorized kernels through
      // the DES prefetcher and the CRN variate pools, which batch
      // naturally with no staging penalty.
      std::uint64_t thr_sum = 0;
      int channels = 0;
      if (lf_ > 0.0) thr_sum += mthr_fail_, ++channels;
      if (ls_ > 0.0) thr_sum += mthr_silent_, ++channels;
      const double mean_transform_fraction =
          static_cast<double>(thr_sum) * 0x1.0p-53 /
          static_cast<double>(channels);
      block_mode_ = !unit_src_->memoryless() &&
                    unit_src_->kind() == model::FailureDistKind::kWeibull &&
                    mean_transform_fraction >= kBlockModeMinTransformFraction &&
                    rng::simd::active_tier() != rng::simd::Tier::kScalar;
    }
  }
}

void FastProtocolSimulator::set_unit_cursor(UnitVariatePool::Cursor* cursor) {
  AYD_REQUIRE(cursor == nullptr || lazy_,
              "set_unit_cursor: an active source does not factor through "
              "unit variates");
  pool_cursor_ = cursor;
}

PatternStats FastProtocolSimulator::simulate_pattern(rng::RngStream& rng) {
  if (!lazy_) return simulate_pattern_general(rng);
  // One pattern is the n == 1 replica (merging into zeroed totals is the
  // identity, bitwise: every counter starts at 0 and wall_time > 0).
  return simulate_replica(rng, 1);
}

PatternStats FastProtocolSimulator::simulate_pattern_general(
    rng::RngStream& rng) {
  PatternStats stats;
  double wall = 0.0;

  // A fresh arrival per attempt / per recovery try. Exponential draws go
  // through the historical inverse-CDF path (identical words consumed);
  // other distributions sample by quantile inversion. Zero-rate sources
  // skip the stream entirely, as they always did.
  const auto sample_fail = [&] {
    return lf_ > 0.0 ? fail_dist_->sample(rng) : kInf;
  };
  const auto sample_silent = [&] {
    return ls_ > 0.0 ? silent_dist_->sample(rng) : kInf;
  };
  // Repeated recovery attempts until one completes without a fail-stop.
  const auto run_recovery = [&] {
    for (;;) {
      const double y = sample_fail();
      if (y < r_) {
        if (stats.fail_stop_errors >= kMaxPatternAttempts) {
          throw_diverged(pattern_, lf_, ls_);
        }
        ++stats.fail_stop_errors;
        ++stats.recovery_fail_stops;
        wall += y + d_;
        continue;
      }
      wall += r_;
      return;
    }
  };

  for (;;) {
    if (stats.attempts >= kMaxPatternAttempts) {
      throw_diverged(pattern_, lf_, ls_);
    }
    ++stats.attempts;
    const double x = sample_fail();
    const double s_arrival = sample_silent();
    const bool silent = s_arrival < t_;

    if (x < t_ + v_) {
      // Fail-stop during compute or verification.
      ++stats.fail_stop_errors;
      if (silent && s_arrival < x) ++stats.masked_silent;
      wall += x + d_;
      run_recovery();
      continue;
    }
    if (silent) {
      // Survived to the end of verification; the silent error is caught.
      ++stats.silent_detections;
      wall += t_ + v_;
      run_recovery();
      continue;
    }
    if (x < t_ + v_ + c_) {
      // Fail-stop while storing the checkpoint.
      ++stats.fail_stop_errors;
      wall += x + d_;
      run_recovery();
      continue;
    }
    wall += t_ + v_ + c_;
    stats.wall_time = wall;
    return stats;
  }
}

PatternStats DesProtocolSimulator::simulate_replica(rng::RngStream& rng,
                                                    std::size_t n) {
  PatternStats totals;
  for (std::size_t p = 0; p < n; ++p) {
    totals.merge(simulate_pattern(rng));
  }
  return totals;
}

PatternStats FastProtocolSimulator::simulate_replica(rng::RngStream& rng,
                                                     std::size_t n) {
  PatternStats totals;
  if (!lazy_) {
    for (std::size_t p = 0; p < n; ++p) {
      totals.merge(simulate_pattern_general(rng));
    }
    return totals;
  }
  if (pool_cursor_ != nullptr) return simulate_replica_pool(n);
  if (block_mode_) return simulate_replica_block(rng, n);

  // The threshold-filtered replica loop. Each draw consumes exactly the
  // word the historical sampler would have, but the expensive quantile
  // inversion only happens when the word lands below the precomputed CDF
  // threshold — i.e. when the arrival *can* strike inside the window the
  // decision needs. A draw left at +inf behaves in every comparison
  // below exactly like the exact value would (the threshold guarantees
  // the exact value lies beyond every window it is compared against).
  //
  // The engine state is copied into a local so the common case — two
  // words, two integer compares, one accumulate per pattern — runs
  // entirely in registers; the guard object writes the state back even
  // if the divergence bound throws mid-replica.
  rng::Xoshiro256 eng = rng.engine();
  const detail::WriteBack<rng::Xoshiro256> sync(eng, rng.engine());

  const bool have_fail = lf_ > 0.0;
  const bool have_silent = ls_ > 0.0;
  const std::uint64_t mthr_fail = mthr_fail_;
  const std::uint64_t mthr_silent = mthr_silent_;
  const std::uint64_t mthr_rec = mthr_rec_;
  const double t = t_, tv = tv_, tvc = tvc_, r = r_, d = d_;

  for (std::size_t p = 0; p < n; ++p) {
    // Per-pattern accumulators live in registers; PatternStats is only
    // touched once per pattern, at the merge below.
    double wall = 0.0;
    std::uint64_t attempts = 0;
    std::uint64_t fail_stops = 0;
    std::uint64_t recovery_fails = 0;
    std::uint64_t detections = 0;
    std::uint64_t masked = 0;

    const auto run_recovery = [&] {
      for (;;) {
        double y = kInf;
        if (have_fail) {
          const std::uint64_t m = eng() >> 11;
          if (m < mthr_rec) {
            y = fail_dist_->sample_value(static_cast<double>(m) * 0x1.0p-53);
          }
        }
        if (y < r) {
          if (fail_stops >= kMaxPatternAttempts) {
            throw_diverged(pattern_, lf_, ls_);
          }
          ++fail_stops;
          ++recovery_fails;
          wall += y + d;
          continue;
        }
        wall += r;
        return;
      }
    };

    for (;;) {
      if (attempts >= kMaxPatternAttempts) {
        throw_diverged(pattern_, lf_, ls_);
      }
      ++attempts;
      // First fail-stop arrival within this attempt (the renewal point;
      // for the exponential, memorylessness makes this equivalent to a
      // persistent arrival clock).
      double x = kInf;
      if (have_fail) {
        const std::uint64_t m = eng() >> 11;
        if (m < mthr_fail) {
          x = fail_dist_->sample_value(static_cast<double>(m) * 0x1.0p-53);
        }
      }
      // First silent arrival within the computation.
      double s_arrival = kInf;
      if (have_silent) {
        const std::uint64_t m = eng() >> 11;
        if (m < mthr_silent) {
          s_arrival =
              silent_dist_->sample_value(static_cast<double>(m) * 0x1.0p-53);
        }
      }
      const bool silent = s_arrival < t;

      if (x < tv) {
        // Fail-stop during compute or verification.
        ++fail_stops;
        if (silent && s_arrival < x) ++masked;
        wall += x + d;
        run_recovery();
        continue;
      }
      if (silent) {
        // Survived to the end of verification; the silent error is
        // caught.
        ++detections;
        wall += tv;
        run_recovery();
        continue;
      }
      if (x < tvc) {
        // Fail-stop while storing the checkpoint.
        ++fail_stops;
        wall += x + d;
        run_recovery();
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
  }
  return totals;
}

PatternStats FastProtocolSimulator::simulate_replica_pool(std::size_t n) {
  // Under a SIMD tier the unit-space walk below is preferred: it makes
  // the same decisions up to the rounding of the rescaled window bounds,
  // which is exactly the freedom the SIMD golden tier declares. The
  // scalar reference tier must stay bit-identical to per-point sampling
  // (tests/engine_crn_test.cpp), so it keeps the exact loop.
  if (rng::simd::active_tier() != rng::simd::Tier::kScalar &&
      (lf_ <= 0.0 || fail_scaling_ != UnitScaling::kVirtual) &&
      (ls_ <= 0.0 || silent_scaling_ != UnitScaling::kVirtual)) {
    return simulate_replica_pool_units(n);
  }
  // CRN replica loop: the expensive unit transforms were paid once, in
  // the shared pool; each draw here is one cursor read plus the cheap
  // from_unit scaling. Computing every arrival exactly (no threshold
  // filter) is bit-identical to the filtered loop in the scalar tier:
  // the filter only ever suppresses computing values that lose every
  // comparison they appear in, and here the value is nearly free.
  // The cursor is walked through a local copy (as the filtered loop does
  // with the engine state) so its position and chunk pointer live in
  // registers between the rare refills; the guard writes the position
  // back even if the divergence bound throws mid-replica. The scaling
  // selectors and factors are hoisted for the same reason — they are
  // loop-invariant, but the compiler cannot prove that across the stats
  // stores without the local copies.
  UnitVariatePool::Cursor cur = *pool_cursor_;
  const detail::WriteBack<UnitVariatePool::Cursor> sync(cur, *pool_cursor_);
  PatternStats totals;

  const bool have_fail = lf_ > 0.0;
  const bool have_silent = ls_ > 0.0;
  const UnitScaling fail_scaling = fail_scaling_;
  const UnitScaling silent_scaling = silent_scaling_;
  const double fail_factor = fail_factor_;
  const double silent_factor = silent_factor_;
  const double t = t_, tv = tv_, tvc = tvc_, r = r_, d = d_;

  const auto fail_arrival = [&]() -> double {
    if (!have_fail) return kInf;
    const double z = cur.next();
    switch (fail_scaling) {
      case UnitScaling::kLinear: return fail_factor * z;
      case UnitScaling::kDivide: return z / fail_factor;
      default: return fail_dist_->from_unit(z);
    }
  };
  const auto silent_arrival = [&]() -> double {
    if (!have_silent) return kInf;
    const double z = cur.next();
    switch (silent_scaling) {
      case UnitScaling::kLinear: return silent_factor * z;
      case UnitScaling::kDivide: return z / silent_factor;
      default: return silent_dist_->from_unit(z);
    }
  };

  for (std::size_t p = 0; p < n; ++p) {
    double wall = 0.0;
    std::uint64_t attempts = 0;
    std::uint64_t fail_stops = 0;
    std::uint64_t recovery_fails = 0;
    std::uint64_t detections = 0;
    std::uint64_t masked = 0;

    const auto run_recovery = [&] {
      for (;;) {
        const double y = fail_arrival();
        if (y < r) {
          if (fail_stops >= kMaxPatternAttempts) {
            throw_diverged(pattern_, lf_, ls_);
          }
          ++fail_stops;
          ++recovery_fails;
          wall += y + d;
          continue;
        }
        wall += r;
        return;
      }
    };

    for (;;) {
      if (attempts >= kMaxPatternAttempts) {
        throw_diverged(pattern_, lf_, ls_);
      }
      ++attempts;
      const double x = fail_arrival();
      const double s_arrival = silent_arrival();
      const bool silent = s_arrival < t;

      if (x < tv) {
        ++fail_stops;
        if (silent && s_arrival < x) ++masked;
        wall += x + d;
        run_recovery();
        continue;
      }
      if (silent) {
        ++detections;
        wall += tv;
        run_recovery();
        continue;
      }
      if (x < tvc) {
        ++fail_stops;
        wall += x + d;
        run_recovery();
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
  }
  return totals;
}

PatternStats FastProtocolSimulator::simulate_replica_pool_units(
    std::size_t n) {
  // Unit-space CRN walk (SIMD golden tier). Instead of scaling every
  // pool read into an arrival time and comparing it against the pattern
  // windows, the windows are rescaled into unit space once — z < w/f
  // decides what f·z < w decides, up to one rounding of the bound — so
  // the hot path is a raw sequential read and a compare. Arrival times
  // are materialized (with the exact from_unit expressions) only on the
  // branches that add them to the wall clock or compare across channels,
  // i.e. at the failure rate, not the draw rate. Decisions can differ
  // from the exact loop only when a draw lands within an ulp of a
  // window bound; that freedom belongs to the SIMD tier, whose results
  // are its own golden tier — the scalar reference tier never routes
  // here.
  UnitVariatePool::Cursor cur = *pool_cursor_;
  const detail::WriteBack<UnitVariatePool::Cursor> sync(cur, *pool_cursor_);
  PatternStats totals;

  const bool have_fail = lf_ > 0.0;
  const bool have_silent = ls_ > 0.0;
  const bool both = have_fail && have_silent;
  const UnitScaling fsc = fail_scaling_;
  const UnitScaling ssc = silent_scaling_;
  const double ff = fail_factor_;
  const double sf = silent_factor_;
  // A window bound in unit space; inactive channels draw kInf, which
  // loses against any finite (or zero) bound just as the exact loop's
  // kInf arrival loses against any window.
  const auto unit_bound = [](UnitScaling sc, double factor, double window) {
    return sc == UnitScaling::kLinear ? window / factor : window * factor;
  };
  const auto arrival_of = [](UnitScaling sc, double factor, double z) {
    return sc == UnitScaling::kLinear ? factor * z : z / factor;
  };
  const double tv_z = have_fail ? unit_bound(fsc, ff, tv_) : 0.0;
  const double tvc_z = have_fail ? unit_bound(fsc, ff, tvc_) : 0.0;
  const double r_z = have_fail ? unit_bound(fsc, ff, r_) : 0.0;
  const double t_z = have_silent ? unit_bound(ssc, sf, t_) : 0.0;
  const double tv = tv_, tvc = tvc_, r = r_, d = d_;

  for (std::size_t p = 0; p < n; ++p) {
    // The wall clock decomposes into counter-weighted constants plus the
    // sum of the consumed arrivals: every fail stop adds its arrival and
    // one downtime d, every recovery that ends clean adds one r (each
    // non-completing attempt runs recovery exactly once, so that count
    // is attempts - 1), every detection adds one tv, and the completing
    // attempt adds tvc. Accumulating the raw unit variates and scaling
    // the sum once per pattern keeps the hot loop's only loop-carried
    // float chain at one add per fail stop; the resulting rounding
    // differs from the exact loop's running sum, which is within the
    // SIMD tier's golden freedom.
    double z_sum = 0.0;
    std::uint64_t attempts = 0;
    std::uint64_t fail_stops = 0;
    std::uint64_t recovery_fails = 0;
    std::uint64_t detections = 0;
    std::uint64_t masked = 0;

    const auto run_recovery = [&] {
      for (;;) {
        const double y_z = have_fail ? cur.next() : kInf;
        if (y_z < r_z) {
          if (fail_stops >= kMaxPatternAttempts) {
            throw_diverged(pattern_, lf_, ls_);
          }
          ++fail_stops;
          ++recovery_fails;
          z_sum += y_z;
          continue;
        }
        return;
      }
    };

    for (;;) {
      if (attempts >= kMaxPatternAttempts) {
        throw_diverged(pattern_, lf_, ls_);
      }
      ++attempts;
      double x_z, s_z;
      if (both) {
        cur.next2(x_z, s_z);
      } else {
        x_z = have_fail ? cur.next() : kInf;
        s_z = have_silent ? cur.next() : kInf;
      }
      const bool silent = s_z < t_z;

      if (x_z < tv_z) {
        ++fail_stops;
        if (silent &&
            arrival_of(ssc, sf, s_z) < arrival_of(fsc, ff, x_z)) {
          ++masked;
        }
        z_sum += x_z;
        run_recovery();
        continue;
      }
      if (silent) {
        ++detections;
        run_recovery();
        continue;
      }
      if (x_z < tvc_z) {
        ++fail_stops;
        z_sum += x_z;
        run_recovery();
        continue;
      }
      break;
    }

    totals.wall_time += arrival_of(fsc, ff, z_sum) +
                        d * static_cast<double>(fail_stops) +
                        r * static_cast<double>(attempts - 1) +
                        tv * static_cast<double>(detections) + tvc;
    totals.attempts += attempts;
    totals.fail_stop_errors += fail_stops;
    totals.recovery_fail_stops += recovery_fails;
    totals.silent_detections += detections;
    totals.masked_silent += masked;
  }
  return totals;
}

PatternStats FastProtocolSimulator::simulate_replica_block(rng::RngStream& rng,
                                                           std::size_t n) {
  // SIMD-tier block pipeline for expensive non-memoryless transforms.
  // Words leave the engine in the historical order but in blocks of
  // kVariateBlockSize, and every lane is pushed through one full-width
  // vectorized units_from_uniforms call — transforming all lanes beats
  // compacting the below-threshold ones, because the vector kernel at
  // full width costs less than the scatter/gather and the ragged-count
  // calls the compaction needs. The attempt loop below then never calls
  // a transcendental: a draw is two array reads, and a below-threshold
  // arrival is one multiply (Weibull) away.
  //
  // Like the DES prefetcher, buffered words survive call boundaries via
  // the engine-state fingerprint, so simulate_pattern n times ==
  // simulate_replica(rng, n) and stream switches self-heal.
  if (block_len_ > block_pos_ && rng.engine().state() != expected_state_) {
    block_pos_ = block_len_ = 0;
  }

  rng::Xoshiro256 eng = rng.engine();
  const detail::WriteBack<rng::Xoshiro256> sync(eng, rng.engine());

  PatternStats totals;
  const bool have_fail = lf_ > 0.0;
  const bool have_silent = ls_ > 0.0;
  const std::uint64_t mthr_fail = mthr_fail_;
  const std::uint64_t mthr_silent = mthr_silent_;
  const std::uint64_t mthr_rec = mthr_rec_;
  const double t = t_, tv = tv_, tvc = tvc_, r = r_, d = d_;

  const auto refill = [&] {
    for (std::size_t i = 0; i < rng::kVariateBlockSize; ++i) {
      const std::uint64_t m = eng() >> 11;
      block_m_[i] = m;
      block_z_[i] = static_cast<double>(m) * 0x1.0p-53;
    }
    unit_src_->units_from_uniforms(block_z_.data(), rng::kVariateBlockSize);
    block_pos_ = 0;
    block_len_ = rng::kVariateBlockSize;
    expected_state_ = eng.state();
  };
  // Every lane carries a valid unit variate; above-threshold draws just
  // never read theirs.
  const auto next_draw = [&](std::uint64_t& m, double& z) {
    if (block_pos_ == block_len_) refill();
    m = block_m_[block_pos_];
    z = block_z_[block_pos_];
    ++block_pos_;
  };
  const auto scale_fail = [&](double z) {
    switch (fail_scaling_) {
      case UnitScaling::kLinear: return fail_factor_ * z;
      case UnitScaling::kDivide: return z / fail_factor_;
      default: return fail_dist_->from_unit(z);
    }
  };
  const auto scale_silent = [&](double z) {
    switch (silent_scaling_) {
      case UnitScaling::kLinear: return silent_factor_ * z;
      case UnitScaling::kDivide: return z / silent_factor_;
      default: return silent_dist_->from_unit(z);
    }
  };

  for (std::size_t p = 0; p < n; ++p) {
    double wall = 0.0;
    std::uint64_t attempts = 0;
    std::uint64_t fail_stops = 0;
    std::uint64_t recovery_fails = 0;
    std::uint64_t detections = 0;
    std::uint64_t masked = 0;

    const auto run_recovery = [&] {
      for (;;) {
        double y = kInf;
        if (have_fail) {
          std::uint64_t m;
          double z;
          next_draw(m, z);
          if (m < mthr_rec) y = scale_fail(z);
        }
        if (y < r) {
          if (fail_stops >= kMaxPatternAttempts) {
            throw_diverged(pattern_, lf_, ls_);
          }
          ++fail_stops;
          ++recovery_fails;
          wall += y + d;
          continue;
        }
        wall += r;
        return;
      }
    };

    for (;;) {
      if (attempts >= kMaxPatternAttempts) {
        throw_diverged(pattern_, lf_, ls_);
      }
      ++attempts;
      double x = kInf;
      if (have_fail) {
        std::uint64_t m;
        double z;
        next_draw(m, z);
        if (m < mthr_fail) x = scale_fail(z);
      }
      double s_arrival = kInf;
      if (have_silent) {
        std::uint64_t m;
        double z;
        next_draw(m, z);
        if (m < mthr_silent) s_arrival = scale_silent(z);
      }
      const bool silent = s_arrival < t;

      if (x < tv) {
        ++fail_stops;
        if (silent && s_arrival < x) ++masked;
        wall += x + d;
        run_recovery();
        continue;
      }
      if (silent) {
        ++detections;
        wall += tv;
        run_recovery();
        continue;
      }
      if (x < tvc) {
        ++fail_stops;
        wall += x + d;
        run_recovery();
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
  }
  return totals;
}

}  // namespace ayd::sim
