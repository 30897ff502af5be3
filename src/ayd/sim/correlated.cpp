#include "ayd/sim/correlated.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "ayd/sim/write_back.hpp"
#include "ayd/util/contracts.hpp"
#include "ayd/util/error.hpp"

namespace ayd::sim {

namespace {

constexpr std::uint64_t kNoEvent = std::numeric_limits<std::uint64_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

[[noreturn]] void throw_diverged(const core::Pattern& pattern,
                                 const detail::CorrelatedWorld& world) {
  std::ostringstream os;
  os << "correlated pattern did not complete within " << kMaxPatternAttempts
     << " attempts (T=" << pattern.period << ", P=" << pattern.procs
     << ", total lambda_f=" << world.total_fail_rate()
     << ", lambda_s=" << world.silent_rate()
     << "); the per-attempt success probability is too small";
  throw util::SimulationDiverged(os.str());
}

}  // namespace

namespace detail {

CorrelatedWorld::CorrelatedWorld(const model::System& sys,
                                 const core::Pattern& pattern)
    : t_(pattern.period),
      v_(sys.verification_cost(pattern.procs)),
      c_(sys.checkpoint_cost(pattern.procs)),
      d_(sys.downtime()),
      r_bb_(sys.recovery_cost(pattern.procs)),
      r_pfs_(sys.recovery_cost(pattern.procs)) {
  core::validate(pattern);
  const model::CorrelatedSpec* ext = sys.extension();
  AYD_REQUIRE(ext != nullptr,
              "CorrelatedWorld requires an extended system; plain systems "
              "take the bit-pinned simulators in sim/protocol.hpp");

  const double p = pattern.procs;
  const double lf = sys.fail_stop_rate(p);
  const double rho =
      ext->shock.has_value() ? ext->shock->correlation : 0.0;

  // Per-component (individual) sources carry the (1-rho) remainder of
  // the fail-stop intensity, split across the heterogeneity classes
  // (one homogeneous class at the base law otherwise).
  const double individual = (1.0 - rho) * lf;
  if (ext->heterogeneity.has_value()) {
    for (const model::ComponentGroup& g : ext->heterogeneity->groups) {
      FailSource src;
      src.dist = g.dist.instantiate(individual * g.share * g.rate_scale);
      fail_sources_.push_back(std::move(src));
    }
  } else {
    FailSource src;
    src.dist = sys.failure().dist().instantiate(individual);
    fail_sources_.push_back(std::move(src));
  }

  // The shock stream, last in draw order. Its rate is per platform, not
  // per processor (ShockSpec::shock_rate).
  if (ext->shock.has_value()) {
    FailSource src;
    src.dist = ext->shock->dist.instantiate(ext->shock->shock_rate(
        sys.failure().lambda_ind(), sys.failure().fail_stop_fraction()));
    src.is_shock = true;
    fail_sources_.push_back(std::move(src));
  }

  for (const FailSource& src : fail_sources_) {
    lf_total_ += src.dist->rate();
  }

  ls_ = sys.silent_rate(p);
  silent_dist_ = sys.failure().dist().instantiate(ls_);

  if (ext->two_tier.has_value()) {
    r_pfs_ = ext->two_tier->pfs_recovery.cost(p);
  }
}

}  // namespace detail

// --- CorrelatedFastSimulator ---------------------------------------------

CorrelatedFastSimulator::CorrelatedFastSimulator(const model::System& sys,
                                                 const core::Pattern& pattern)
    : pattern_(pattern), world_(sys, pattern) {
  // Zero-rate sources never strike and consume no words: leave them out.
  filtered_ = !world_.silent_active() || world_.silent().unit_samplable();
  for (const detail::FailSource& src : world_.fail_sources()) {
    if (src.dist->rate() <= 0.0) continue;
    sources_.push_back({src.dist.get(), src.is_shock, {}});
    filtered_ = filtered_ && src.dist->unit_samplable();
  }
  if (!filtered_) return;
  // Each window with the expression the replica loop compares against.
  const double tvc = (world_.t() + world_.v()) + world_.c();
  for (ActiveSource& src : sources_) {
    src.mthr[kAttempt] = safe_word_threshold(*src.dist, tvc);
    src.mthr[kRecoveryBb] =
        safe_word_threshold(*src.dist, world_.recovery_cost(false));
    src.mthr[kRecoveryPfs] =
        safe_word_threshold(*src.dist, world_.recovery_cost(true));
  }
  if (world_.silent_active()) {
    mthr_silent_ = safe_word_threshold(world_.silent(), world_.t());
  }
}

void CorrelatedFastSimulator::set_unit_cursor(
    UnitVariatePool::Cursor* cursor) {
  AYD_REQUIRE(cursor == nullptr,
              "extended worlds have no CRN pool mode (their draw sequence "
              "interleaves several laws)");
}

PatternStats CorrelatedFastSimulator::simulate_pattern(rng::RngStream& rng) {
  return simulate_replica(rng, 1);
}

PatternStats CorrelatedFastSimulator::simulate_replica(rng::RngStream& rng,
                                                       std::size_t n) {
  // The threshold filter of FastProtocolSimulator::simulate_replica,
  // applied per source. A draw takes the word sample() would have taken
  // and runs the quantile inversion only when the word lies below the
  // source's CDF threshold for the window being decided; above it, the
  // arrival stays +inf, because its exact value is guaranteed to lie at
  // or beyond that window. Replacing such an arrival by +inf cannot
  // change anything the loop reads:
  //  * the minimum's comparisons: an attempt compares the minimum
  //    against T+V and (T+V)+C (the threshold window; T+V <= it), a
  //    recovery try against its R. If the exact minimum lies inside the
  //    window, the filtered sources all lost to it (strict <, so they
  //    cannot tie it either) and the minimum and its source are exact;
  //    if not, the filtered minimum lies beyond the window too and
  //    every comparison fails alike;
  //  * the origin of the minimum (x_shock / min_is_shock) and the
  //    masked-silent test s < x are only read on branches where the
  //    minimum lies inside its window, i.e. where it is exact;
  //  * the silent arrival is decided against T, its threshold window,
  //    and compared against x only when it lies below T, i.e. exact.
  // Recovery tries read the threshold of the chain's current tier, so a
  // shock that moves the chain to the PFS switches thresholds on the
  // next try. The engine runs on a register-resident copy.
  rng::Xoshiro256 eng = rng.engine();
  const detail::WriteBack<rng::Xoshiro256> sync(eng, rng.engine());

  PatternStats totals;
  const bool filtered = filtered_;
  const bool tiered = world_.tiered();
  const bool have_silent = world_.silent_active();
  const model::FailureDistribution& silent_dist = world_.silent();
  const std::uint64_t mthr_silent = mthr_silent_;
  const double t = world_.t();
  const double tv = world_.t() + world_.v();
  const double tvc = tv + world_.c();
  const double d = world_.d();

  // One arrival of `dist`, decided against the window of threshold mthr.
  const auto draw = [&](const model::FailureDistribution& dist,
                        std::uint64_t mthr) -> double {
    if (!filtered) {
      // sample() may consume any number of words (trace replay). Every
      // draw of such a world comes here, so the stream is current; only
      // the local copy, which the guard writes back, needs refreshing.
      const double a = dist.sample(rng);
      eng = rng.engine();
      return a;
    }
    const std::uint64_t m = eng() >> 11;
    return m < mthr ? dist.sample_value(static_cast<double>(m) * 0x1.0p-53)
                    : kInf;
  };

  // Earliest arrival over all fail sources this renewal interval, and
  // whether it came from the shock stream; strict < keeps the first
  // source on a tie (ties have measure zero for the analytic laws).
  bool min_is_shock = false;
  const auto draw_fail = [&](Window window) -> double {
    double best = kInf;
    min_is_shock = false;
    for (const ActiveSource& src : sources_) {
      const double a = draw(*src.dist, src.mthr[window]);
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

    // One rollback chain: repeated recovery tries until one completes
    // without a fail-stop. The PFS tier is sticky within the chain.
    const auto run_recovery = [&](bool from_shock) {
      bool pfs = tiered && from_shock;
      for (;;) {
        const double r = world_.recovery_cost(pfs);
        const double y = draw_fail(pfs ? kRecoveryPfs : kRecoveryBb);
        if (y < r) {
          if (fail_stops >= kMaxPatternAttempts) {
            throw_diverged(pattern_, world_);
          }
          ++fail_stops;
          ++recovery_fails;
          if (min_is_shock) {
            ++shocks;
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
      if (attempts >= kMaxPatternAttempts) {
        throw_diverged(pattern_, world_);
      }
      ++attempts;
      const double x = draw_fail(kAttempt);
      const bool x_shock = min_is_shock;
      const double s_arrival =
          have_silent ? draw(silent_dist, mthr_silent) : kInf;
      const bool silent = s_arrival < t;

      if (x < tv) {
        // Fail-stop during compute or verification.
        ++fail_stops;
        if (x_shock) ++shocks;
        if (silent && s_arrival < x) ++masked;
        wall += x + d;
        run_recovery(x_shock);
        continue;
      }
      if (silent) {
        // Survived to the end of verification; the silent error is
        // caught. Silent recoveries restore from the burst buffer.
        ++detections;
        wall += tv;
        run_recovery(/*from_shock=*/false);
        continue;
      }
      if (x < tvc) {
        // Fail-stop while storing the checkpoint.
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

// --- CorrelatedDesSimulator ----------------------------------------------

CorrelatedDesSimulator::CorrelatedDesSimulator(const model::System& sys,
                                               const core::Pattern& pattern)
    : pattern_(pattern), world_(sys, pattern) {
  pending_.assign(world_.fail_sources().size(), kNoEvent);
  queue_.reserve(8 + world_.fail_sources().size());
}

void CorrelatedDesSimulator::set_unit_cursor(
    UnitVariatePool::Cursor* cursor) {
  AYD_REQUIRE(cursor == nullptr,
              "extended worlds have no CRN pool mode (their draw sequence "
              "interleaves several laws)");
}

PatternStats CorrelatedDesSimulator::simulate_replica(rng::RngStream& rng,
                                                      std::size_t n) {
  PatternStats totals;
  for (std::size_t p = 0; p < n; ++p) {
    totals.merge(simulate_pattern(rng));
  }
  return totals;
}

PatternStats CorrelatedDesSimulator::simulate_pattern(rng::RngStream& rng) {
  enum class Phase { kWork, kVerify, kCheckpoint, kRecovery };

  PatternStats stats;
  queue_.clear();
  pending_.assign(pending_.size(), kNoEvent);

  const auto& sources = world_.fail_sources();
  const bool tiered = world_.tiered();
  const double t = world_.t();
  const double v = world_.v();
  const double c = world_.c();
  const double d = world_.d();

  double clock = 0.0;
  Phase phase = Phase::kWork;
  bool silent_struck = false;
  bool pfs_chain = false;  ///< sticky PFS tier of the current rollback chain
  std::uint64_t phase_end_id = kNoEvent;
  std::uint64_t silent_id = kNoEvent;

  // Every source renews at each attempt start and each recovery try: any
  // pending arrival is cancelled and a fresh one drawn (the draw always
  // consumes its words). An arrival at or beyond `discard_at` — the
  // renewal boundary, computed with the same additions the phase-end
  // chain performs — can never strike, so it is discarded unscheduled;
  // the strict < matches the fast loop's windows even on trace atoms.
  const auto renew_fail_sources = [&](double discard_at) {
    for (std::size_t j = 0; j < sources.size(); ++j) {
      if (pending_[j] != kNoEvent) {
        queue_.cancel(pending_[j]);
        pending_[j] = kNoEvent;
      }
      if (sources[j].dist->rate() <= 0.0) continue;
      const double arrival = clock + sources[j].dist->sample(rng);
      if (arrival < discard_at) {
        pending_[j] = queue_.push(arrival, EventType::kFailStop);
      }
    }
  };
  const auto attempt_end = [&] { return ((clock + t) + v) + c; };
  const auto begin_phase = [&](Phase next, double duration) {
    phase = next;
    phase_end_id = queue_.push(clock + duration, EventType::kPhaseEnd);
  };
  const auto cancel_if_pending = [&](std::uint64_t& id) {
    if (id != kNoEvent) {
      queue_.cancel(id);
      id = kNoEvent;
    }
  };
  const auto begin_attempt = [&] {
    if (stats.attempts >= kMaxPatternAttempts) {
      throw_diverged(pattern_, world_);
    }
    ++stats.attempts;
    silent_struck = false;
    pfs_chain = false;  // a completed recovery restored the burst buffer
    begin_phase(Phase::kWork, t);
    if (world_.silent_active()) {
      const double arrival = clock + world_.silent().sample(rng);
      if (arrival < clock + t) {
        silent_id = queue_.push(arrival, EventType::kSilent);
      }
    }
    renew_fail_sources(attempt_end());
  };
  const auto begin_recovery = [&] {
    const double r = world_.recovery_cost(pfs_chain);
    begin_phase(Phase::kRecovery, r);
    renew_fail_sources(clock + r);
  };

  begin_attempt();

  for (;;) {
    const auto event = queue_.pop();
    AYD_ENSURE(event.has_value(),
               "correlated simulation ran out of events");
    clock = event->time;

    switch (event->type) {
      case EventType::kSilent: {
        silent_id = kNoEvent;
        AYD_ENSURE(phase == Phase::kWork, "silent error outside computation");
        silent_struck = true;
        break;
      }

      case EventType::kFailStop: {
        // Identify the striking source by its pending id.
        std::size_t src = sources.size();
        for (std::size_t j = 0; j < sources.size(); ++j) {
          if (pending_[j] == event->id) {
            src = j;
            break;
          }
        }
        AYD_ENSURE(src < sources.size(), "fail-stop event without a source");
        pending_[src] = kNoEvent;
        if (stats.fail_stop_errors >= kMaxPatternAttempts) {
          throw_diverged(pattern_, world_);
        }
        ++stats.fail_stop_errors;
        if (phase == Phase::kRecovery) ++stats.recovery_fail_stops;
        if (sources[src].is_shock) {
          ++stats.shock_errors;
          pfs_chain = pfs_chain || tiered;
        }
        if (silent_struck) {
          ++stats.masked_silent;
          silent_struck = false;
        }
        cancel_if_pending(phase_end_id);
        cancel_if_pending(silent_id);
        // Downtime: nothing can fail; all sources renew after it.
        clock += d;
        begin_recovery();
        break;
      }

      case EventType::kPhaseEnd: {
        phase_end_id = kNoEvent;
        switch (phase) {
          case Phase::kWork:
            cancel_if_pending(silent_id);
            begin_phase(Phase::kVerify, v);
            break;
          case Phase::kVerify:
            if (silent_struck) {
              ++stats.silent_detections;
              silent_struck = false;
              // Silent recoveries restore from the burst buffer; the
              // attempt's pending fail arrivals die at this renewal.
              begin_recovery();
            } else {
              begin_phase(Phase::kCheckpoint, c);
            }
            break;
          case Phase::kCheckpoint:
            stats.wall_time = clock;
            return stats;
          case Phase::kRecovery:
            begin_attempt();
            break;
        }
        break;
      }
    }
  }
}

}  // namespace ayd::sim
