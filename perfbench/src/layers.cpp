// Per-layer metrics of the traced run. Each figure times or counts calls
// into one layer's public functions on the workload's own inputs (its
// probe cases); README.md maps every figure to the end-to-end metric and
// workload it should move.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <sstream>

#include "ayd/cli/args.hpp"
#include "ayd/core/optimizer.hpp"
#include "ayd/core/sim_optimizer.hpp"
#include "ayd/engine/engine.hpp"
#include "ayd/io/json.hpp"
#include "ayd/io/json_parse.hpp"
#include "ayd/model/correlated.hpp"
#include "ayd/rng/simd.hpp"
#include "ayd/rng/stream.hpp"
#include "ayd/service/canonical.hpp"
#include "ayd/service/memo_cache.hpp"
#include "ayd/service/protocol.hpp"
#include "ayd/service/server.hpp"
#include "ayd/service/shm_transport.hpp"
#include "ayd/service/store.hpp"
#include "ayd/sim/runner.hpp"
#include "ayd/sim/variate_pool.hpp"
#include "ayd/tool/commands.hpp"
#include "ayd/tool/optimize_json.hpp"
#include "bench.hpp"

namespace pb {

namespace {

constexpr std::size_t kMaxCases = 12;

/// Calls fn() `reps` times per sample, `samples` times; returns the median
/// per-call time in seconds.
template <class Fn>
double per_call_s(int samples, int reps, Fn&& fn) {
  std::vector<double> t;
  for (int s = 0; s < samples; ++s) {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) fn();
    t.push_back(seconds_since(t0) / reps);
  }
  return median(t);
}

/// Spread of the probe over the workload's cases: every case when few,
/// else an evenly spaced subset.
std::vector<const ProbeCase*> pick(const std::vector<ProbeCase>& cases) {
  std::vector<const ProbeCase*> out;
  const std::size_t n = cases.size();
  const std::size_t k = std::min(n, kMaxCases);
  for (std::size_t i = 0; i < k; ++i) out.push_back(&cases[i * n / k]);
  return out;
}

ayd::sim::ReplicationOptions replication(std::uint64_t seed) {
  ayd::sim::ReplicationOptions o;
  o.replicas = 120;
  o.patterns_per_replica = 160;
  o.seed = seed;
  return o;
}

/// The case's system without correlated extensions, for the i.i.d.
/// simulator paths.
ayd::model::System base_of(const ayd::model::System& sys) {
  return ayd::model::System(sys.failure(), sys.costs(), sys.downtime(),
                            sys.speedup_model());
}

/// A correlated world for the correlated simulator: the case's own when
/// it has one, else its system with a shock mixture added.
ayd::model::System correlated_of(const ProbeCase& c) {
  if (c.sys.extended()) return c.sys;
  return c.sys.with_shock(ayd::model::ShockSpec::parse(
      "rho=0.5,group=" + std::to_string(std::max(0.01, 2.0 / c.procs))));
}

double analytic_period(const ProbeCase& c) {
  return ayd::core::optimal_period(base_of(c.sys), c.procs).period;
}

/// Re-emits a parsed JSON value through io::JsonWriter.
void rewrite(ayd::io::JsonWriter& w, const ayd::io::JsonValue& v) {
  using K = ayd::io::JsonValue::Kind;
  switch (v.kind()) {
    case K::kNull: w.null(); break;
    case K::kBool: w.value(v.as_bool()); break;
    case K::kNumber:
      if (v.is_integer()) {
        w.value(static_cast<std::int64_t>(v.as_int()));
      } else {
        w.value(v.as_double());
      }
      break;
    case K::kString: w.value(v.as_string()); break;
    case K::kArray:
      w.begin_array();
      for (const auto& e : v.as_array()) rewrite(w, e);
      w.end_array();
      break;
    case K::kObject:
      w.begin_object();
      for (const auto& [k, e] : v.members()) {
        w.key(k);
        rewrite(w, e);
      }
      w.end_object();
      break;
  }
}

void measure_rng(std::uint64_t seed, std::vector<Metric>& out) {
  std::vector<std::uint64_t> buf(1 << 16);
  ayd::rng::RngStream s(seed, 1);
  const double t = per_call_s(9, 20, [&] { s.fill_u64(buf.data(), buf.size()); });
  out.push_back({"rng.fill_words_per_s", static_cast<double>(buf.size()) / t, "1/s"});
}

void measure_model(const std::vector<const ProbeCase*>& cases,
                   std::vector<Metric>& out) {
  // Shapes from the workload's cases where it has them.
  double k = 0.7;
  double sigma = 1.5;
  for (const ProbeCase* c : cases) {
    const auto& d = c->sys.failure().dist();
    if (d.kind() == ayd::model::FailureDistKind::kWeibull) k = d.shape();
    if (d.kind() == ayd::model::FailureDistKind::kLogNormal) sigma = d.shape();
  }
  const std::pair<const char*, ayd::model::FailureDistSpec> families[] = {
      {"exponential", ayd::model::FailureDistSpec::exponential()},
      {"weibull", ayd::model::FailureDistSpec::weibull(k)},
      {"lognormal", ayd::model::FailureDistSpec::lognormal(sigma)}};
  constexpr std::size_t kN = 4096;
  std::vector<double> uniforms(kN);
  ayd::rng::RngStream s(12345, 7);
  s.fill_uniform01(uniforms.data(), kN);
  std::vector<double> z(kN);
  for (const auto& [name, spec] : families) {
    for (const bool scalar : {false, true}) {
      if (scalar) ayd::rng::simd::force_tier(ayd::rng::simd::Tier::kScalar);
      const auto dist = spec.instantiate(1.0);
      const double t = per_call_s(9, 50, [&] {
        std::copy(uniforms.begin(), uniforms.end(), z.begin());
        dist->units_from_uniforms(z.data(), kN);
      });
      ayd::rng::simd::clear_forced_tier();
      out.push_back({std::string("model.transform_ns.") + name +
                         (scalar ? ".scalar" : ".dispatched"),
                     1e9 * t / kN, "ns"});
    }
  }
}

void measure_sim(const std::vector<const ProbeCase*>& cases,
                 std::vector<Metric>& out) {
  double fast_s = 0, fast_n = 0, crn_s = 0, crn_n = 0, corr_s = 0, corr_n = 0;
  double adapt_s = 0, adapt_n = 0;
  std::vector<double> build_ms;
  for (const ProbeCase* c : cases) {
    const ayd::model::System base = base_of(c->sys);
    const ayd::core::Pattern pat{analytic_period(*c), c->procs};
    ayd::sim::ReplicationOptions o = replication(c->seed);
    const double patterns =
        static_cast<double>(o.replicas * o.patterns_per_replica);

    auto t0 = Clock::now();
    (void)ayd::sim::simulate_overhead(base, pat, o);
    fast_s += seconds_since(t0);
    fast_n += patterns;

    ayd::sim::VariateCache cache;
    o.shared_units = cache.pool_for(base.failure().dist(), o.seed).get();
    t0 = Clock::now();
    (void)ayd::sim::simulate_overhead(base, pat, o);  // generates the pool
    const double cold = seconds_since(t0);
    t0 = Clock::now();
    (void)ayd::sim::simulate_overhead(base, pat, o);
    const double warm = seconds_since(t0);
    crn_s += warm;
    crn_n += patterns;
    build_ms.push_back(1e3 * (cold - warm));
    o.shared_units = nullptr;

    const ayd::model::System corr = correlated_of(*c);
    t0 = Clock::now();
    (void)ayd::sim::simulate_overhead(corr, pat, o);
    corr_s += seconds_since(t0);
    corr_n += patterns;

    ayd::sim::AdaptiveOptions a;
    a.ci_rel_tol = 0.02;
    a.min_replicas = o.replicas;
    t0 = Clock::now();
    const ayd::sim::ReplicationResult r =
        ayd::sim::simulate_overhead_adaptive(c->sys, pat, o, a);
    adapt_s += seconds_since(t0);
    adapt_n += static_cast<double>(r.overhead.count);
  }
  out.push_back({"sim.fast.patterns_per_s", fast_n / fast_s, "1/s"});
  out.push_back({"sim.fast_crn.patterns_per_s", crn_n / crn_s, "1/s"});
  out.push_back({"sim.pool_build_ms", median(build_ms), "ms"});
  out.push_back({"sim.correlated.patterns_per_s", corr_n / corr_s, "1/s"});
  out.push_back({"sim.adaptive.replicas_per_s", adapt_n / adapt_s, "1/s"});
}

void measure_core(const std::vector<const ProbeCase*>& cases,
                  std::vector<Metric>& out) {
  double probes = 0, probe_answers = 0, replicas = 0, search_s = 0;
  std::vector<double> analytic_us;
  for (const ProbeCase* c : cases) {
    ayd::core::SimAllocationSearchOptions opt;
    opt.period.replication = replication(c->seed);
    opt.period.adaptive.ci_rel_tol = 0.02;
    opt.period.adaptive.min_replicas = 120;
    const auto t0 = Clock::now();
    if (c->joint) {
      const ayd::core::SimAllocationOptimum r =
          ayd::core::sim_optimal_allocation(c->sys, opt);
      replicas += static_cast<double>(r.total_replicas);
    } else {
      const ayd::core::SimPeriodOptimum r =
          ayd::core::sim_optimal_period(c->sys, c->procs, opt.period);
      replicas += static_cast<double>(r.total_replicas);
      probes += r.evaluations;
      probe_answers += 1;
    }
    search_s += seconds_since(t0);
    analytic_us.push_back(1e6 * per_call_s(3, 5, [&] {
      if (c->joint) {
        (void)ayd::core::optimal_allocation(c->sys);
      } else {
        (void)ayd::core::optimal_period(c->sys, c->procs);
      }
    }));
  }
  const double n = static_cast<double>(cases.size());
  out.push_back({"core.probes_per_answer",
                 probe_answers > 0 ? probes / probe_answers : 0.0, "count"});
  out.push_back({"core.replicas_per_answer", replicas / n, "count"});
  out.push_back({"core.search_ms_per_answer", 1e3 * search_s / n, "ms"});
  out.push_back({"core.analytic_us_per_answer", median(analytic_us), "us"});
}

void measure_engine(const std::vector<ProbeCase>& all, std::vector<Metric>& out) {
  // The sweep's evaluation (numerical optimum + a 500 x 500 simulation
  // with common random numbers) over the cases, on a two-worker pool.
  std::vector<ayd::engine::Point> pts(std::min<std::size_t>(all.size(), 48));
  for (std::size_t i = 0; i < pts.size(); ++i) pts[i].index = i;
  ayd::sim::VariateCache crn;
  ayd::engine::EvalSpec spec;
  spec.numerical = true;
  spec.simulate_numerical = true;
  spec.replication.replicas = 500;
  spec.replication.patterns_per_replica = 500;
  spec.replication.seed = all.front().seed;
  spec.crn = &crn;
  ayd::exec::ThreadPool pool(2);
  std::mutex mu;
  double busy = 0.0;
  const auto t0 = Clock::now();
  (void)ayd::engine::run_points(pts, &pool, [&](const ayd::engine::Point& pt) {
    const ProbeCase& c = all[pt.index * all.size() / pts.size()];
    const auto p0 = Clock::now();
    const ayd::engine::PointEval ev =
        ayd::engine::evaluate_point(c.sys, spec, c.procs);
    const double s = seconds_since(p0);
    const std::lock_guard lock(mu);
    busy += s;
    ayd::engine::Record r;
    r.set("overhead", ev.sim_numerical->overhead.mean);
    return r;
  });
  const double wall = seconds_since(t0);
  out.push_back({"engine.eval_ms_per_point",
                 1e3 * busy / static_cast<double>(pts.size()), "ms"});
  out.push_back({"engine.worker_busy_share", busy / (2.0 * wall), "ratio"});
  out.push_back({"engine.crn_pools_built", static_cast<double>(crn.size()), "count"});
}

void measure_service(const Options& opt, const std::vector<const ProbeCase*>& cases,
                     std::vector<Metric>& out) {
  namespace fs = std::filesystem;
  std::vector<std::string> lines;
  for (const ProbeCase* c : cases) lines.push_back(c->line);
  const auto mean_us = [&](auto&& fn) {
    return 1e6 * per_call_s(5, 1, [&] {
             for (const std::string& l : lines) fn(l);
           }) / static_cast<double>(lines.size());
  };

  out.push_back({"service.parse_us", mean_us([](const std::string& l) {
                   (void)ayd::service::parse_request(l);
                 }), "us"});
  // System resolution + canonical key, on the optimize requests.
  std::vector<ayd::service::Request> optimize_reqs;
  for (const std::string& l : lines) {
    ayd::service::Request req = ayd::service::parse_request(l);
    if (req.op == "optimize") optimize_reqs.push_back(std::move(req));
  }
  out.push_back({"service.key_us", 1e6 * per_call_s(5, 1, [&] {
                   for (const ayd::service::Request& req : optimize_reqs) {
                     ayd::cli::ArgParser parser("ayd serve: optimize", "probe");
                     ayd::tool::add_optimize_options(parser);
                     parser.parse_args(ayd::service::params_to_argv(req.params));
                     const ayd::model::System sys = ayd::tool::system_from_args(parser);
                     (void)ayd::service::optimize_canonical_key(
                         sys, ayd::tool::optimize_request_from_args(parser));
                   }
                 }) / static_cast<double>(std::max<std::size_t>(1, optimize_reqs.size())),
                 "us"});

  const std::string dir = opt.scratch + "/layer-store";
  ayd::service::ServiceOptions so;
  so.threads = 1;
  so.cache_entries = 4096;
  so.cache_dir = dir;
  std::vector<std::string> replies;
  {
    ayd::service::PlanningService svc(so);
    for (const std::string& l : lines) replies.push_back(svc.handle_line(l));
    out.push_back({"service.handle_hit_us", mean_us([&](const std::string& l) {
                     (void)svc.handle_line(l);
                   }), "us"});
    // Transport: shm round trip of the same (resident) requests minus
    // handle_line.
    const std::string name = "aydpb-layers-" + std::to_string(::getpid());
    ayd::service::ShmServer server(name, svc);
    ayd::service::ShmClient client(name);
    const double rt = mean_us([&](const std::string& l) { (void)client.call(l); });
    out.push_back({"service.shm.transport_us", rt - out.back().value, "us"});
  }
  {
    // A fresh service on the same directory serves every line from disk.
    std::vector<double> t;
    for (int rep = 0; rep < 5; ++rep) {
      ayd::service::PlanningService svc(so);
      const auto t0 = Clock::now();
      for (const std::string& l : lines) (void)svc.handle_line(l);
      t.push_back(1e6 * seconds_since(t0) / static_cast<double>(lines.size()));
    }
    out.push_back({"service.handle_disk_hit_us", median(t), "us"});
  }
  const std::string store_path = ayd::service::AnswerStore::path_in_dir(dir);
  out.push_back({"service.store.open_ms", 1e3 * per_call_s(5, 1, [&] {
                   ayd::service::AnswerStore s(store_path);
                 }), "ms"});
  {
    ayd::service::AnswerStore store(store_path);
    std::vector<std::string> key_texts;
    store.for_each([&](const std::string& k, const std::string&) { key_texts.push_back(k); });
    out.push_back({"service.store.get_us", 1e6 * per_call_s(5, 1, [&] {
                     for (const std::string& k : key_texts) (void)store.get(k);
                   }) / static_cast<double>(std::max<std::size_t>(1, key_texts.size())), "us"});
    const std::string append_path = opt.scratch + "/layer-append.aydstore";
    ayd::service::AnswerStore sink(append_path);
    std::uint64_t salt = 0;
    out.push_back({"service.store.append_us", 1e6 * per_call_s(5, 1, [&] {
                     for (std::size_t i = 0; i < replies.size(); ++i) {
                       const std::string key = std::to_string(++salt) + lines[i];
                       sink.put(key, ayd::service::fnv1a64(key), replies[i]);
                     }
                   }) / static_cast<double>(replies.size()), "us"});
    // Memo cache lookup on resident keys.
    ayd::service::MemoCache cache(4096, 16);
    std::vector<ayd::service::CanonicalKey> ck;
    for (const std::string& k : key_texts) ck.push_back({k, ayd::service::fnv1a64(k)});
    for (const auto& k : ck) (void)cache.get_or_compute(k, [] { return std::string("x"); });
    out.push_back({"service.cache_get_us", 1e6 * per_call_s(5, 20, [&] {
                     for (const auto& k : ck) {
                       (void)cache.get_or_compute(k, [] { return std::string("x"); });
                     }
                   }) / static_cast<double>(std::max<std::size_t>(1, ck.size())), "us"});
  }
  {
    // Cache effectiveness under a Zipf-repeated stream of the cases
    // through a memo cache holding a quarter of them (serve-zipf replaces
    // these two figures with its own traffic's counters).
    ayd::service::ServiceOptions zo = so;
    zo.cache_entries = std::max<std::size_t>(1, lines.size() / 4);
    zo.cache_shards = 1;
    zo.cache_dir = opt.scratch + "/layer-zipf";
    ayd::service::PlanningService svc(zo);
    InputRng rng(cases.front()->seed);
    for (std::size_t i = 0; i < 4 * lines.size(); ++i) {
      const double u = rng.uniform(0.0, 1.0);
      const auto k = static_cast<std::size_t>(
          std::floor(std::pow(static_cast<double>(lines.size()) + 1.0, u))) - 1;
      (void)svc.handle_line(lines[std::min(k, lines.size() - 1)]);
    }
    const ayd::service::CacheStats st = svc.cache_stats();
    out.push_back({"service.cache.hit_ratio",
                   static_cast<double>(st.hits) /
                       static_cast<double>(st.hits + st.disk_hits + st.misses),
                   "ratio"});
    out.push_back({"service.cache.evictions", static_cast<double>(st.evictions), "count"});
  }
  out.push_back({"io.json_parse_us", mean_us([](const std::string& l) {
                   (void)ayd::io::parse_json(l);
                 }), "us"});
  std::vector<ayd::io::JsonValue> parsed;
  for (const std::string& r : replies) parsed.push_back(ayd::io::parse_json(r));
  out.push_back({"io.json_write_us", 1e6 * per_call_s(5, 5, [&] {
                   for (const auto& v : parsed) {
                     std::ostringstream os;
                     ayd::io::JsonWriter w(os, false);
                     rewrite(w, v);
                   }
                 }) / static_cast<double>(parsed.size()), "us"});
  fs::remove_all(dir);
}

}  // namespace

std::vector<Metric> measure_layers(const Options& opt, const WorkloadReport& report) {
  const std::vector<const ProbeCase*> cases = pick(report.probe_cases);
  std::vector<Metric> out;
  measure_rng(cases.front()->seed, out);
  measure_model(cases, out);
  measure_sim(cases, out);
  measure_core(cases, out);
  measure_engine(report.probe_cases, out);
  measure_service(opt, cases, out);
  for (const Metric& m : report.layer_overrides) {
    for (Metric& o : out) {
      if (o.name == m.name) o = m;
    }
  }
  return out;
}

}  // namespace pb
