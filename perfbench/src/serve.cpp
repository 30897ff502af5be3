// serve-zipf: one closed-loop client sends a seeded, Zipf-repeated stream
// of optimize / simulate / plan requests (plus an occasional stats) in
// varying spellings to a one-worker PlanningService whose answer store
// starts pre-filled with part of the catalogue and whose memo cache holds
// less than the whole catalogue. Requests go through
// PlanningService::handle_line: over the shared-memory transport the
// warm-hit latency of identical runs moved by up to 8x with host load
// (README.md), so the transport is measured by the traced run's layer
// probe (service.shm.transport_us) instead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>

#include "ayd/cli/args.hpp"
#include "ayd/core/optimizer.hpp"
#include "ayd/io/json.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/service/server.hpp"
#include "ayd/tool/commands.hpp"
#include "ayd/tool/optimize_json.hpp"
#include "bench.hpp"

namespace pb {

namespace {

constexpr std::size_t kCatalogue = 240;  // distinct scenarios
constexpr std::size_t kStream = 2000;    // requests per round
constexpr double kZipfS = 1.1;
constexpr std::size_t kStatsEvery = 250;  // every Nth request is "stats"
constexpr std::size_t kCacheEntries = 64;
constexpr std::size_t kCacheShards = 4;

const char* const kPlatforms[] = {"hera", "atlas", "coastal", "coastal-ssd"};

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string short_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// One distinct scenario of the catalogue. Its rate is always given, as
/// an MTBF in seconds; spellings differ in how (see render()).
struct Scenario {
  std::string op;
  std::string platform;
  std::string dist;  ///< failure law without the rate entry
  double mtbf = 0.0;
  std::vector<std::pair<std::string, std::string>> params;  ///< JSON texts
  bool prefilled = false;
};

std::vector<Scenario> make_catalogue(std::uint64_t seed) {
  InputRng rng(seed);
  std::vector<Scenario> cat;
  for (std::size_t i = 0; i < kCatalogue; ++i) {
    // Catalogue index = popularity rank. Op (i % 4), platform, scenario,
    // allocation and pre-fill (alternate blocks of four ranks) follow the
    // rank, so two seeds' catalogues carry the same work; the seed
    // jitters the rates and shapes and picks the simulation seeds.
    Scenario s;
    s.platform = kPlatforms[(i / 8) % 4];
    const ayd::model::Platform pf = ayd::model::platform_by_name(s.platform);
    s.mtbf = InputRng::round_sig(rng.uniform(0.5, 2.0) / pf.lambda_ind, 3);
    s.dist = "exponential";
    s.params.emplace_back("scenario", std::to_string(1 + (i / 32 + i / 4) % 6));
    const double procs = pf.measured_procs * std::ldexp(1.0, static_cast<int>((i / 4) % 4) - 1);
    switch (i % 4) {
      case 0:  // analytic optimize, joint or fixed P
        s.op = "optimize";
        if ((i / 4) % 3 != 0) s.params.emplace_back("procs", short_num(procs));
        break;
      case 1:  // optimize --simulate: closed form + an adaptive CI
        s.op = "optimize";
        s.params.emplace_back("procs", short_num(procs));
        s.params.emplace_back("simulate", "true");
        s.params.emplace_back("seed", std::to_string(rng.word() % 1000000007ULL));
        break;
      case 2:  // simulate at the numerical optimum
        s.op = "simulate";
        s.params.emplace_back("procs", short_num(procs));
        s.params.emplace_back("runs", "40");
        s.params.emplace_back("patterns", "100");
        s.params.emplace_back("seed", std::to_string(rng.word() % 1000000007ULL));
        if ((i / 8) % 2 == 0) {
          s.dist = "weibull:k=" + short_num(InputRng::round_sig(rng.uniform(0.5, 0.9), 2));
        }
        break;
      default:  // capacity plan
        s.op = "plan";
        s.params.emplace_back("work", short_num(InputRng::round_sig(rng.log_uniform(1e6, 1e9), 3)));
        s.params.emplace_back("name", "\"job" + std::to_string(i) + "\"");
        break;
    }
    s.prefilled = (i / 4) % 2 == 0;
    cat.push_back(std::move(s));
  }
  return cat;
}

/// Spells scenario `s` as a request line: member order, platform case and
/// mtbf-vs-lambda vary with `variant`; the canonical key must not.
std::string render(const Scenario& s, std::uint64_t id, std::uint64_t variant) {
  std::vector<std::pair<std::string, std::string>> members = s.params;
  std::string platform = s.platform;
  if (variant % 3 == 1) {
    std::transform(platform.begin(), platform.end(), platform.begin(), ::toupper);
  } else if (variant % 3 == 2) {
    platform[0] = static_cast<char>(std::toupper(platform[0]));
  }
  members.emplace_back("platform", "\"" + platform + "\"");
  if ((variant / 3) % 2 == 0) {
    members.emplace_back("failure_dist",
                         "\"" + s.dist + ",mtbf=" + short_num(s.mtbf) + "\"");
  } else {
    members.emplace_back("failure_dist", "\"" + s.dist + "\"");
    members.emplace_back("lambda", num(1.0 / s.mtbf));
  }
  members.emplace_back("op", "\"" + s.op + "\"");
  members.emplace_back("id", std::to_string(id));
  // Member order: a rotation picked by the variant.
  std::rotate(members.begin(),
              members.begin() + static_cast<long>((variant / 6) % members.size()),
              members.end());
  std::string line = "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) line += ',';
    line += "\"" + members[i].first + "\":" + members[i].second;
  }
  return line + "}";
}

struct Stream {
  std::vector<std::size_t> scenario;  ///< catalogue index, or kCatalogue for stats
  std::vector<std::string> lines;
};

Stream make_stream(const std::vector<Scenario>& cat, std::uint64_t seed) {
  InputRng rng(seed ^ 0x5851f42d4c957f2dULL);
  std::vector<double> cdf;
  double total = 0.0;
  for (std::size_t r = 0; r < cat.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    cdf.push_back(total);
  }
  Stream st;
  for (std::size_t i = 0; i < kStream; ++i) {
    const std::uint64_t id = i + 1;
    if (i % kStatsEvery == kStatsEvery - 1) {
      st.scenario.push_back(kCatalogue);
      st.lines.push_back("{\"id\":" + std::to_string(id) + ",\"op\":\"stats\"}");
      continue;
    }
    const double u = rng.uniform(0.0, total);
    const std::size_t k = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const std::size_t idx = std::min(k, cat.size() - 1);
    st.scenario.push_back(idx);
    st.lines.push_back(render(cat[idx], id, rng.word()));
  }
  return st;
}

/// The service params of a request line as argv, the way the service
/// bridges them (the benchmark's own copy of the simple cases it sends).
std::vector<std::string> line_argv(const Scenario& s) {
  std::vector<std::string> argv;
  for (const auto& [k, v] : s.params) {
    if (v == "true") {
      argv.push_back("--" + k);
      continue;
    }
    std::string val = v;
    if (!val.empty() && val.front() == '"') val = val.substr(1, val.size() - 2);
    argv.push_back("--" + k + "=" + val);
  }
  argv.push_back("--platform=" + s.platform);
  argv.push_back("--failure-dist=" + s.dist + ",mtbf=" + short_num(s.mtbf));
  return argv;
}

/// The optimize record the service must have returned for `s`, computed
/// directly through tool::write_optimize_record.
std::string direct_optimize(const Scenario& s) {
  ayd::cli::ArgParser parser("ayd optimize", "benchmark check");
  ayd::tool::add_optimize_options(parser);
  parser.parse_args(line_argv(s));
  const ayd::model::System sys = ayd::tool::system_from_args(parser);
  const ayd::tool::OptimizeRequest req = ayd::tool::optimize_request_from_args(parser);
  std::ostringstream os;
  ayd::io::JsonWriter w(os, false);
  ayd::tool::write_optimize_record(w, sys, req, nullptr);
  return os.str();
}

std::string result_of(const std::string& reply) {
  const auto at = reply.find(",\"result\":");
  return at == std::string::npos ? std::string() : reply.substr(at + 10, reply.size() - at - 11);
}

ayd::service::ServiceOptions service_options(const std::string& dir) {
  ayd::service::ServiceOptions o;
  o.threads = 1;
  o.cache_entries = kCacheEntries;
  o.cache_shards = kCacheShards;
  o.cache_dir = dir;
  return o;
}

}  // namespace

WorkloadReport run_serve(const Options& opt) {
  namespace fs = std::filesystem;
  WorkloadReport report;
  std::vector<std::string> failures;
  const std::vector<Scenario> cat = make_catalogue(opt.seed);

  // The pre-filled answer store is built before the runs, by a service
  // of its own answering the pre-filled scenarios once.
  const std::string master = opt.scratch + "/master";
  {
    ayd::service::PlanningService svc(service_options(master));
    std::uint64_t id = 1;
    for (const Scenario& s : cat) {
      if (!s.prefilled) continue;
      const std::string reply = svc.handle_line(render(s, id++, 0));
      if (reply.find("\"ok\":true") == std::string::npos) {
        throw std::runtime_error("pre-fill request failed: " + reply);
      }
    }
  }
  const std::string store_file = ayd::service::AnswerStore::path_in_dir(master);

  std::map<std::size_t, std::string> canonical;  // scenario -> first result
  std::size_t direct_checked = 0;
  ayd::service::CacheStats last_stats;

  report.outcome = run_rounds(opt.seconds, 3, [&](int round) {
    RoundSample s;
    const auto t0 = Clock::now();
    const Stream st = make_stream(cat, opt.seed);
    const std::string dir = opt.scratch + "/round" + std::to_string(round);
    fs::create_directories(dir);
    fs::copy_file(store_file, ayd::service::AnswerStore::path_in_dir(dir));
    std::vector<double> hit_us, disk_us, miss_ms;
    std::set<std::size_t> seen;
    std::size_t cacheable = 0;
    const auto fail = [&](std::size_t i, const std::string& why) {
      ++s.failed;
      failures.push_back("request " + std::to_string(i) + ": " + why);
    };
    {
      ayd::service::PlanningService svc(service_options(dir));
      for (int w = 0; w < 3; ++w) {
        (void)svc.handle_line("{\"id\":0,\"op\":\"stats\"}");
      }
      s.setup_s = seconds_since(t0);

      ayd::service::CacheStats before = svc.cache_stats();
      const auto t1 = Clock::now();
      double untimed = 0.0;  // classification and checks between requests
      for (std::size_t i = 0; i < st.lines.size(); ++i) {
        const Tracer::Scope span("serve.request", i + 1);
        const auto a0 = Clock::now();
        std::string reply;
        {
          const Tracer::Scope call("service.handle_line", i + 1);
          reply = svc.handle_line(st.lines[i]);
        }
        const auto a1 = Clock::now();
        const double us = std::chrono::duration<double, std::micro>(a1 - a0).count();
        const ayd::service::CacheStats after = svc.cache_stats();
        const std::size_t sc = st.scenario[i];
        const std::string head = "{\"id\":" + std::to_string(i + 1) + ",\"ok\":true,";
        if (reply.compare(0, head.size(), head) != 0) {
          fail(i, "not an ok envelope with its id: " + reply.substr(0, 200));
        } else if (sc < kCatalogue) {
          ++cacheable;
          seen.insert(sc);
          if (after.misses > before.misses) {
            miss_ms.push_back(us / 1e3);
          } else if (after.disk_hits > before.disk_hits) {
            disk_us.push_back(us);
          } else {
            hit_us.push_back(us);
          }
          const std::string result = result_of(reply);
          auto [it, fresh] = canonical.emplace(sc, result);
          if (!fresh && it->second != result) {
            fail(i, "repeat of scenario " + std::to_string(sc) +
                        " is not byte-identical to its first reply");
          }
          if (round == 0 && after.misses > before.misses && cat[sc].op == "optimize" &&
              direct_checked < 6) {
            ++direct_checked;
            if (direct_optimize(cat[sc]) != result) {
              fail(i, "miss differs from tool::write_optimize_record");
            }
          }
        }
        before = after;
        untimed += seconds_since(a1);
      }
      s.wall_s = seconds_since(t1) - untimed;
      s.ops = st.lines.size();

      // Counter checks against the benchmark's own generator.
      const ayd::service::CacheStats end = svc.cache_stats();
      std::size_t expect_misses = 0;
      for (std::size_t sc : seen) expect_misses += cat[sc].prefilled ? 0 : 1;
      if (end.hits + end.disk_hits + end.misses != cacheable) {
        fail(st.lines.size(), "hits + disk_hits + misses = " +
                                  std::to_string(end.hits + end.disk_hits + end.misses) +
                                  ", cacheable requests sent = " + std::to_string(cacheable));
      }
      if (end.misses != expect_misses) {
        fail(st.lines.size(), "misses = " + std::to_string(end.misses) +
                                  ", distinct non-pre-filled scenarios = " +
                                  std::to_string(expect_misses));
      }
      last_stats = end;
    }
    fs::remove_all(dir);
    for (double us : hit_us) s.answer_ms.push_back(us / 1e3);
    s.extra.emplace_back("hit_us_p50", quantile(hit_us, 0.5));
    s.extra.emplace_back("hit_us_p90", quantile(hit_us, 0.9));
    s.extra.emplace_back("disk_hit_us_p50", quantile(disk_us, 0.5));
    s.extra.emplace_back("miss_ms_p50", quantile(miss_ms, 0.5));
    s.extra.emplace_back("hits", static_cast<double>(hit_us.size()));
    s.extra.emplace_back("disk_hits", static_cast<double>(disk_us.size()));
    s.extra.emplace_back("misses", static_cast<double>(miss_ms.size()));
    return s;
  });
  report.outcome.failures = std::move(failures);

  const double requests =
      static_cast<double>(last_stats.hits + last_stats.disk_hits + last_stats.misses);
  report.layer_overrides.push_back(
      {"service.cache.hit_ratio", static_cast<double>(last_stats.hits) / requests, "ratio"});
  report.layer_overrides.push_back(
      {"service.cache.evictions", static_cast<double>(last_stats.evictions), "count"});

  for (std::size_t i = 0; i < cat.size(); ++i) {
    ayd::cli::ArgParser parser("ayd serve", "benchmark probe");
    ayd::tool::add_system_options(parser);
    ayd::tool::add_simulation_options(parser);
    parser.add_option("procs", "", "fixed allocation");
    parser.add_flag("simulate", "optimize --simulate");
    parser.add_option("work", "", "plan work");
    parser.add_option("name", "", "plan name");
    parser.parse_args(line_argv(cat[i]));
    const ayd::model::System sys = ayd::tool::system_from_args(parser);
    const double procs = parser.option("procs").empty()
                             ? std::max(1.0, std::round(ayd::core::optimal_allocation(sys).procs))
                             : parser.option_double("procs");
    report.probe_cases.push_back({sys, procs, false, render(cat[i], i + 1, 0),
                                  parser.option_uint("seed")});
  }
  return report;
}

}  // namespace pb
