// sweep-crn: a paper-scale figure sweep (500 replicas x 500 patterns per
// point) over scenarios x lambda x failure shape, fanned out by the engine
// over a two-worker pool with common random numbers on (EvalSpec.crn).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "ayd/engine/engine.hpp"
#include "ayd/exec/thread_pool.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/sim/variate_pool.hpp"
#include "bench.hpp"

namespace pb {

namespace {

constexpr std::size_t kReplicas = 500;
constexpr std::size_t kPatterns = 500;
constexpr unsigned kWorkers = 2;
constexpr int kLambdas = 8;
constexpr int kWeibullShapes = 3;  // plus the exponential column

struct Grid {
  std::vector<ayd::engine::Point> points;
  std::uint64_t sim_seed = 0;
};

/// The grid: every scenario x kLambdas error rates x (exponential + Weibull
/// shapes). The seed jitters each rate and shape inside a fixed stratum
/// and picks the simulation seed, so two seeds' grids carry the same work.
Grid make_grid(std::uint64_t seed) {
  InputRng rng(seed);
  Grid g;
  g.sim_seed = rng.word() % 1000000007ULL;
  std::vector<double> lambdas;
  for (int i = 0; i < kLambdas; ++i) {
    // Quarter-decade strata from 1e-9 to 1e-7 per node, 1/8 decade wide.
    const double centre = 1e-9 * std::pow(10.0, 0.25 * (i + 0.5));
    lambdas.push_back(InputRng::round_sig(
        centre * std::pow(10.0, rng.uniform(-0.0625, 0.0625)), 3));
  }
  std::vector<double> shapes = {0.0};  // 0 = exponential column
  for (int i = 0; i < kWeibullShapes; ++i) {
    shapes.push_back(InputRng::round_sig(
        0.5 + 0.15 * i + rng.uniform(-0.02, 0.02), 3));
  }
  for (ayd::model::Scenario sc : ayd::model::all_scenarios()) {
    for (double lambda : lambdas) {
      for (double k : shapes) {
        ayd::engine::Point pt;
        pt.index = g.points.size();
        pt.platform = ayd::model::hera();
        pt.scenario = sc;
        pt.vars.emplace_back("lambda", lambda);
        if (k > 0.0) pt.vars.emplace_back("weibull_k", k);
        g.points.push_back(std::move(pt));
      }
    }
  }
  return g;
}

ayd::model::System point_system(const ayd::engine::Point& pt) {
  return ayd::engine::apply_axes(
      ayd::model::System::from_platform(*pt.platform, *pt.scenario), pt);
}

ayd::engine::EvalSpec eval_spec(std::uint64_t sim_seed,
                                ayd::sim::VariateCache* crn) {
  ayd::engine::EvalSpec spec;
  spec.numerical = true;
  spec.simulate_numerical = true;
  spec.replication.replicas = kReplicas;
  spec.replication.patterns_per_replica = kPatterns;
  spec.replication.seed = sim_seed;
  spec.crn = crn;
  return spec;
}

ayd::engine::Record evaluate(const ayd::engine::Point& pt,
                             const ayd::engine::EvalSpec& spec) {
  const double procs = pt.platform->measured_procs;
  const ayd::engine::PointEval ev =
      ayd::engine::evaluate_point(point_system(pt), spec, procs);
  ayd::engine::Record r;
  r.set("index", static_cast<double>(pt.index));
  r.set("procs", procs);
  r.set("period", ev.period->period);
  r.set("analytic_overhead", ev.period->overhead);
  r.set("sim_overhead", ev.sim_numerical->overhead.mean);
  r.set("sim_ci_lo", ev.sim_numerical->overhead.ci.lo);
  r.set("sim_ci_hi", ev.sim_numerical->overhead.ci.hi);
  r.set("sim_patterns", static_cast<double>(ev.sim_numerical->total_patterns));
  return r;
}

const char* const kFields[] = {"procs",       "period",    "analytic_overhead",
                               "sim_overhead", "sim_ci_lo", "sim_ci_hi",
                               "sim_patterns"};

bool same_record(const ayd::engine::Record& a, const ayd::engine::Record& b) {
  for (const char* f : kFields) {
    const double x = a.num(f);
    const double y = b.num(f);
    if (std::memcmp(&x, &y, sizeof x) != 0) return false;
  }
  return true;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

WorkloadReport run_sweep(const Options& opt) {
  WorkloadReport report;
  std::vector<std::string> failures;
  std::vector<ayd::engine::Record> first;
  Grid grid;

  report.outcome = run_rounds(opt.seconds, 3, [&](int round) {
    RoundSample s;
    const auto t0 = Clock::now();
    grid = make_grid(opt.seed);
    ayd::sim::VariateCache crn;
    const ayd::engine::EvalSpec spec = eval_spec(grid.sim_seed, &crn);
    ayd::exec::ThreadPool pool(kWorkers);
    {
      // Warm-up: the first point of each column on the pool, against a
      // throw-away variate cache and another seed.
      ayd::sim::VariateCache warm_crn;
      const ayd::engine::EvalSpec warm = eval_spec(grid.sim_seed + 1, &warm_crn);
      const std::vector<ayd::engine::Point> warm_pts(grid.points.begin(),
                                                     grid.points.begin() + 2);
      (void)ayd::engine::run_points(
          warm_pts, &pool,
          [&](const ayd::engine::Point& pt) { return evaluate(pt, warm); });
    }
    s.setup_s = seconds_since(t0);

    std::mutex mu;
    std::vector<double> point_ms(grid.points.size());
    double busy_s = 0.0;
    const auto t1 = Clock::now();
    const std::vector<ayd::engine::Record> records = ayd::engine::run_points(
        grid.points, &pool, [&](const ayd::engine::Point& pt) {
          const Tracer::Scope span("engine.evaluate_point", pt.index + 1);
          const auto p0 = Clock::now();
          ayd::engine::Record r = evaluate(pt, spec);
          const double sec = seconds_since(p0);
          const std::lock_guard lock(mu);
          point_ms[pt.index] = 1e3 * sec;
          busy_s += sec;
          return r;
        });
    s.wall_s = seconds_since(t1);
    s.ops = records.size();
    s.answer_ms = point_ms;
    s.extra.emplace_back("worker_busy_share", busy_s / (s.wall_s * kWorkers));
    s.extra.emplace_back("crn_pools_built", static_cast<double>(crn.size()));

    // Checks, outside the timed phase.
    const auto fail = [&](std::size_t i, const std::string& why) {
      ++s.failed;
      failures.push_back("point " + std::to_string(i) + ": " + why);
    };
    if (round == 0) {
      for (std::size_t i = 0; i < records.size(); ++i) {
        const ayd::engine::Point& pt = grid.points[i];
        if (pt.has_var("weibull_k")) continue;
        // Exponential column: the simulation must agree with the
        // benchmark's own Proposition 1 at the simulated pattern.
        const double h = prop1_overhead(point_system(pt),
                                        records[i].num("period"),
                                        records[i].num("procs"));
        const double mean = records[i].num("sim_overhead");
        const double half =
            0.5 * (records[i].num("sim_ci_hi") - records[i].num("sim_ci_lo"));
        if (!(std::abs(mean - h) <= 4.0 * half)) {
          fail(i, "simulated " + fmt(mean) + " +- " + fmt(half) +
                      " vs Proposition 1 " + fmt(h));
        }
      }
      // A few points re-run serially with a fresh cache must match the
      // two-worker records bit for bit.
      ayd::sim::VariateCache serial_crn;
      const ayd::engine::EvalSpec serial = eval_spec(grid.sim_seed, &serial_crn);
      const std::size_t n = records.size();
      for (std::size_t i : {std::size_t{0}, std::size_t{1}, n / 2 + 3, n - 1}) {
        if (!same_record(evaluate(grid.points[i], serial), records[i])) {
          fail(i, "serial re-run differs from the two-worker record");
        }
      }
      first = records;
    } else {
      for (std::size_t i = 0; i < records.size(); ++i) {
        if (!same_record(records[i], first[i])) {
          fail(i, "record differs from round 0");
        }
      }
    }
    return s;
  });
  report.outcome.failures = std::move(failures);

  if (opt.trace) {
    // Reference figure for the README: the same grid on one worker.
    ayd::sim::VariateCache crn;
    const ayd::engine::EvalSpec spec = eval_spec(grid.sim_seed, &crn);
    const auto t0 = Clock::now();
    (void)ayd::engine::run_points(grid.points, nullptr,
                                  [&](const ayd::engine::Point& pt) { return evaluate(pt, spec); });
    report.outcome.rounds.back().extra.emplace_back(
        "one_worker_points_per_s",
        static_cast<double>(grid.points.size()) / seconds_since(t0));
  }

  for (const ayd::engine::Point& pt : grid.points) {
    const ayd::model::System sys = point_system(pt);
    std::string line =
        "{\"id\":" + std::to_string(pt.index + 1) +
        ",\"op\":\"optimize\",\"platform\":\"hera\",\"scenario\":" +
        std::to_string(ayd::model::scenario_number(*pt.scenario)) +
        ",\"lambda\":" + fmt(pt.var("lambda")) + ",\"procs\":512" +
        (pt.has_var("weibull_k")
             ? ",\"failure_dist\":\"weibull:k=" + fmt(pt.var("weibull_k")) + "\""
             : std::string()) +
        ",\"simulate\":true,\"seed\":" + std::to_string(grid.sim_seed) + "}";
    report.probe_cases.push_back(
        {sys, pt.platform->measured_procs, false, line, grid.sim_seed});
  }
  return report;
}

}  // namespace pb
