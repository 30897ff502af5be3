// plan-plain and plan-extended: seeded lists of distinct cold
// `ayd optimize --simulate --json` requests, answered one at a time on one
// thread through tool::write_optimize_record (the entry the CLI and the
// service's optimize op share).
#include <cmath>
#include <cstdio>
#include <sstream>

#include "ayd/cli/args.hpp"
#include "ayd/core/optimizer.hpp"
#include "ayd/io/json.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/sim/runner.hpp"
#include "ayd/tool/commands.hpp"
#include "ayd/tool/optimize_json.hpp"
#include "bench.hpp"

namespace pb {

namespace {

constexpr double kCiRelTol = 0.02;
constexpr std::uint64_t kWarmupSeed = 20160901;

const char* const kPlatforms[] = {"hera", "atlas", "coastal", "coastal-ssd"};
constexpr std::size_t kPairs = 24;  // 4 Table II platforms x 6 scenarios

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// The kinds of request a list is made of. Which kind lands on which
/// (platform, scenario) pair is fixed, so the lists of two seeds differ
/// only in jitter and simulation seeds and carry the same work.
enum class Kind {
  kWeibull,          ///< fixed P, Weibull
  kLognormal,        ///< fixed P, lognormal
  kExponential,      ///< fixed P, exponential: the closed-form path
  kJointWeibull,     ///< joint (P, T), Weibull
  kJointLognormal,   ///< joint (P, T), lognormal
  kShock,            ///< extended: shock mixture, Weibull or lognormal
  kShockPfs,         ///< extended: shock + two-tier cost
  kHetero,           ///< extended: heterogeneous classes
  kShockExponential, ///< extended: all-exponential shock, no tiers
  kJointShock,       ///< extended, joint: shock mixture
  kJointHetero,      ///< extended, joint: heterogeneous classes
};

/// Kinds per pair: plan-plain has a Weibull and a lognormal fixed-P
/// request on every pair plus one of {joint Weibull, joint lognormal,
/// exponential} (16 joint of 72); plan-extended takes two consecutive
/// slots of an eight-slot cycle (11 joint of 48).
std::vector<Kind> kinds_for(std::size_t pair, bool extended) {
  const std::size_t platform = pair / 6;
  const std::size_t scenario = pair % 6;
  if (!extended) {
    const Kind third[] = {Kind::kJointWeibull, Kind::kJointLognormal,
                          Kind::kExponential};
    return {Kind::kWeibull, Kind::kLognormal, third[(platform + scenario) % 3]};
  }
  const Kind kinds[] = {Kind::kShock,       Kind::kShockPfs,
                        Kind::kHetero,      Kind::kShockExponential,
                        Kind::kShock,       Kind::kShockPfs,
                        Kind::kJointShock,  Kind::kJointHetero};
  return {kinds[(2 * pair + platform) % 8], kinds[(2 * pair + platform + 1) % 8]};
}

/// Stratified draw: slot `i` of `n` covers [lo, hi] once per list, in a
/// fixed scrambled order, with seeded jitter inside its stratum.
double stratified(InputRng& rng, std::size_t i, std::size_t n, double lo,
                  double hi) {
  const std::size_t slot = (i * 7 + 3) % n;
  return lo + (hi - lo) * (static_cast<double>(slot) + rng.uniform(0.0, 1.0)) /
                  static_cast<double>(n);
}

PlanRequest make_request(InputRng& rng, std::size_t pair, std::size_t index,
                         std::size_t n, Kind kind) {
  PlanRequest r;
  const std::string platform = kPlatforms[pair / 6];
  r.argv = {"--platform=" + platform,
            "--scenario=" + std::to_string(pair % 6 + 1), "--simulate",
            "--ci-rel-tol=" + fmt(kCiRelTol),
            "--seed=" + std::to_string(rng.word() % 1000000007ULL)};
  r.joint = kind == Kind::kJointWeibull || kind == Kind::kJointLognormal ||
            kind == Kind::kJointShock || kind == Kind::kJointHetero;
  double procs = 0.0;
  if (!r.joint) {
    procs = ayd::model::platform_by_name(platform).measured_procs *
            std::ldexp(1.0, static_cast<int>(index % 4) - 1);
    r.argv.push_back("--procs=" + fmt(procs));
  }
  const std::string weibull =
      "weibull:k=" + fmt(InputRng::round_sig(stratified(rng, index, n, 0.5, 0.9), 3));
  const std::string lognormal =
      "lognormal:sigma=" + fmt(InputRng::round_sig(stratified(rng, index, n, 1.0, 2.0), 3));
  const std::string shape = index % 2 == 0 ? weibull : lognormal;
  // Group sizes keep g·P >= 1 for every P drawn here.
  const double rho = InputRng::round_sig(stratified(rng, index, n, 0.2, 0.9), 3);
  const double groups[] = {0.01, 0.02, 0.05, 0.1};
  const double group = groups[(index / 2) % 4];
  const std::string shock = "--shock=rho=" + fmt(rho) + ",group=" + fmt(group);
  const double scales[] = {0.5, 0.75, 1.25, 1.5};
  const double a = scales[(index / 3) % 4];
  const std::string hetero = "--hetero=0.5*" + fmt(a) + "*" + shape + ";0.5*" +
                             fmt(2.0 - a) + "*exponential";
  switch (kind) {
    case Kind::kWeibull:
    case Kind::kJointWeibull:
      r.argv.push_back("--failure-dist=" + weibull);
      break;
    case Kind::kLognormal:
    case Kind::kJointLognormal:
      r.argv.push_back("--failure-dist=" + lognormal);
      break;
    case Kind::kExponential:
      r.exponential = true;
      break;
    case Kind::kShock:
    case Kind::kJointShock:
      r.argv.push_back("--failure-dist=" + shape);
      r.argv.push_back(shock);
      break;
    case Kind::kShockPfs:
      r.argv.push_back("--failure-dist=" + shape);
      r.argv.push_back(shock);
      r.argv.push_back("--pfs-penalty=" +
                       fmt(InputRng::round_sig(stratified(rng, index, n, 2.0, 8.0), 3)));
      break;
    case Kind::kHetero:
    case Kind::kJointHetero:
      r.argv.push_back(hetero);
      break;
    case Kind::kShockExponential:
      r.argv.push_back(shock);
      r.shock_closed_form = true;
      r.shock_rho = rho;
      r.shock_group = group;
      break;
  }
  return r;
}

/// The seeded request list, in a seeded order.
std::vector<PlanRequest> make_requests(std::uint64_t seed, bool extended) {
  InputRng rng(seed);
  std::vector<std::pair<std::size_t, Kind>> slots;
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    for (Kind k : kinds_for(pair, extended)) slots.emplace_back(pair, k);
  }
  std::vector<PlanRequest> list;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    list.push_back(make_request(rng, slots[i].first, i, slots.size(), slots[i].second));
  }
  for (std::size_t i = list.size(); i > 1; --i) {
    std::swap(list[i - 1], list[rng.index(i)]);
  }
  return list;
}

struct Resolved {
  ayd::model::System sys;
  ayd::tool::OptimizeRequest req;
};

Resolved resolve(const PlanRequest& r) {
  ayd::cli::ArgParser parser("ayd optimize", "benchmark request");
  ayd::tool::add_optimize_options(parser);
  parser.parse_args(r.argv);
  return {ayd::tool::system_from_args(parser),
          ayd::tool::optimize_request_from_args(parser)};
}

/// One answer, exactly as `ayd optimize --simulate --json` computes it.
std::string answer(const PlanRequest& r, std::uint64_t request_id) {
  const Tracer::Scope span("request", request_id);
  Resolved in = [&] {
    const Tracer::Scope s("cli.resolve", request_id);
    return resolve(r);
  }();
  const Tracer::Scope s("tool.write_optimize_record", request_id);
  std::ostringstream os;
  ayd::io::JsonWriter w(os, /*pretty=*/false);
  ayd::tool::write_optimize_record(w, in.sys, in.req, nullptr);
  return os.str();
}

/// The checks of one answer; returns an empty string when all pass.
std::string check_answer(const PlanRequest& r, const std::string& rec) {
  const Resolved in = resolve(r);
  const double mean = json_number(rec, "simulated", "overhead");
  const double lo = json_number(rec, "simulated", "overhead_ci_lo");
  const double hi = json_number(rec, "simulated", "overhead_ci_hi");
  const double half = 0.5 * (hi - lo);
  if (!(std::isfinite(mean) && lo <= mean && mean <= hi)) {
    return "simulated overhead missing or outside its CI";
  }
  if (json_bool(rec, "simulated", "ci_converged") &&
      half > kCiRelTol * mean * (1.0 + 1e-9)) {
    return "ci_converged but half-width " + fmt(half) + " > tol x mean";
  }
  const double procs = r.joint ? json_number(rec, "simulated", "procs")
                               : json_number(rec, "", "procs");

  if (r.exponential) {
    // Closed-form path: the period must be the Proposition 1 optimum.
    const Prop1Optimum own = prop1_optimum(in.sys, procs);
    const double period = json_number(rec, "simulated", "period");
    const double num_h = json_number(rec, "numerical", "overhead");
    if (!json_bool(rec, "simulated", "used_closed_form")) {
      return "exponential request did not take the closed-form path";
    }
    if (std::abs(period - own.period) > 1e-3 * own.period) {
      return "period " + fmt(period) + " != Proposition 1 optimum " +
             fmt(own.period);
    }
    if (std::abs(num_h - own.overhead) > 1e-8 * own.overhead) {
      return "overhead " + fmt(num_h) + " != Proposition 1 minimum " +
             fmt(own.overhead);
    }
    if (std::abs(mean - own.overhead) > 4.0 * half) {
      return "simulated overhead " + fmt(mean) + " +- " + fmt(half) +
             " disagrees with Proposition 1 " + fmt(own.overhead);
    }
    return "";
  }

  if (r.shock_closed_form) {
    // All-exponential shock world: an i.i.d. process at the effective
    // interruption rate λ·[(1−ρ) + ρ/(gP)] (docs/theory.md §6.1).
    const double scale =
        (1.0 - r.shock_rho) + r.shock_rho / (r.shock_group * procs);
    const Prop1Optimum own = prop1_optimum(in.sys, procs, scale);
    if (std::abs(mean - own.overhead) > 3.0 * half) {
      return "shock world: simulated optimum " + fmt(mean) + " +- " +
             fmt(half) + " disagrees with the closed form " +
             fmt(own.overhead);
    }
  }

  // A search must never return a period worse than its start: compare
  // with a fresh adaptive simulation at the exponential seed pattern.
  double seed_procs = procs;
  if (r.joint) {
    ayd::core::AllocationSearchOptions aopt;
    aopt.max_procs = in.req.sim_search.max_procs;
    seed_procs = std::clamp(
        std::round(ayd::core::optimal_allocation(in.sys, aopt).procs), 1.0,
        aopt.max_procs);
  }
  const double seed_period =
      ayd::core::optimal_period(in.sys, seed_procs).period;
  const ayd::core::SimSearchOptions& so = in.req.sim_search.period;
  const ayd::sim::ReplicationResult fresh =
      ayd::sim::simulate_overhead_adaptive(in.sys, {seed_period, seed_procs},
                                           so.replication, so.adaptive);
  if (lo > fresh.overhead.ci.hi) {
    return "returned overhead " + fmt(mean) + " (CI lo " + fmt(lo) +
           ") is worse than the seed pattern's " + fmt(fresh.overhead.mean) +
           " (CI hi " + fmt(fresh.overhead.ci.hi) + ")";
  }
  return "";
}

}  // namespace

WorkloadReport run_plan(const Options& opt, bool extended) {
  WorkloadReport report;
  std::vector<std::string> first;  // round-0 answers
  std::vector<std::string> failures;
  std::vector<PlanRequest> list;
  std::uint64_t next_request = 1;

  report.outcome = run_rounds(opt.seconds, 3, [&](int round) {
    RoundSample s;
    const auto t0 = Clock::now();
    list = make_requests(opt.seed, extended);
    // Warm-up: two fixed-P requests on hera that are the same for every
    // seed, so set-up time does not depend on the seed.
    InputRng warm_rng(kWarmupSeed);
    (void)answer(make_request(warm_rng, 0, 0, 2, Kind::kWeibull), 0);
    (void)answer(make_request(warm_rng, 1, 1, 2,
                              extended ? Kind::kShock : Kind::kLognormal), 0);
    s.setup_s = seconds_since(t0);

    std::vector<std::string> answers(list.size());
    std::vector<double> joint_ms;
    const auto t1 = Clock::now();
    for (std::size_t i = 0; i < list.size(); ++i) {
      const auto a0 = Clock::now();
      answers[i] = answer(list[i], next_request++);
      const double ms = 1e3 * seconds_since(a0);
      s.answer_ms.push_back(ms);
      if (list[i].joint) joint_ms.push_back(ms);
    }
    s.wall_s = seconds_since(t1);
    s.ops = list.size();
    s.extra.emplace_back("joint_ms_p50", median(joint_ms));
    double replicas = 0.0;
    for (const std::string& a : answers) {
      replicas += json_number(a, "simulated", "total_replicas");
    }
    s.extra.emplace_back("replicas_per_answer",
                         replicas / static_cast<double>(answers.size()));

    // Checks run outside the timed phase: every answer of round 0 is
    // checked; later rounds must repeat it byte for byte.
    for (std::size_t i = 0; i < list.size(); ++i) {
      std::string why;
      if (round == 0) {
        why = check_answer(list[i], answers[i]);
      } else if (answers[i] != first[i]) {
        why = "answer differs from round 0";
      }
      if (!why.empty()) {
        ++s.failed;
        failures.push_back("request " + std::to_string(i) + " [" +
                           plan_request_line(list[i], i) + "]: " + why);
      }
    }
    if (round == 0) first = answers;
    return s;
  });
  report.outcome.failures = std::move(failures);

  for (std::size_t i = 0; i < list.size(); ++i) {
    const Resolved in = resolve(list[i]);
    const double procs =
        list[i].joint ? json_number(first[i], "simulated", "procs")
                      : json_number(first[i], "", "procs");
    report.probe_cases.push_back({in.sys, procs, list[i].joint,
                                  plan_request_line(list[i], i + 1),
                                  in.req.sim_search.period.replication.seed});
  }
  return report;
}

}  // namespace pb
