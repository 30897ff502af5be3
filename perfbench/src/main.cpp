// ayd_perfbench — the planner benchmark.
//
//   ayd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --scratch DIR
//
// Runs one workload (plan-plain, plan-extended, sweep-crn, serve-zipf) in
// rounds for about S seconds and prints, as the last line of stdout, one
// JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Earlier
// lines carry the environment fingerprint, the calibration scores and
// the workload's detail figures. Exits non-zero when any check failed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "ayd/rng/simd.hpp"
#include "bench.hpp"

namespace {

/// A fixed integer + floating-point loop in the benchmark's own code.
/// Its time at the start and end of a run tells a slow host from a slow
/// change.
double calibration_ms() {
  const auto t0 = pb::Clock::now();
  std::uint64_t x = 88172645463325252ULL;
  double acc = 0.0;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc = acc * 0.999999 + static_cast<double>(x >> 11) * 0x1p-53;
  }
  const double ms = 1e3 * pb::seconds_since(t0);
  if (acc < 0.0) std::printf("%g\n", acc);  // keeps the loop observable
  return ms;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<pb::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += json_str(metrics[i].name) + ": {\"value\": " + buf +
           ", \"unit\": " + json_str(metrics[i].unit) + "}";
  }
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "ayd_perfbench: %s\nusage: ayd_perfbench --workload "
               "plan-plain|plan-extended|sweep-crn|serve-zipf --seed N "
               "--seconds S --trace 0|1 --scratch DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--scratch") {
      opt.scratch = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (opt.scratch.empty()) return usage("--scratch is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be > 0");

  const double calib_start = calibration_ms();
  std::printf(
      "perfbench-env {\"cpu\": %s, \"nproc\": %u, \"rng_tier\": %s, "
      "\"build_type\": %s, \"compiler\": %s}\n",
      json_str(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      json_str(ayd::rng::simd::tier_name(ayd::rng::simd::active_tier())).c_str(),
      json_str(PERFBENCH_BUILD_TYPE).c_str(),
      json_str(PERFBENCH_COMPILER).c_str());
  std::fflush(stdout);

  std::filesystem::create_directories(opt.scratch);
  if (opt.trace) pb::tracer().enable();

  pb::WorkloadReport report;
  try {
    if (opt.workload == "plan-plain") {
      report = pb::run_plan(opt, /*extended=*/false);
    } else if (opt.workload == "plan-extended") {
      report = pb::run_plan(opt, /*extended=*/true);
    } else if (opt.workload == "sweep-crn") {
      report = pb::run_sweep(opt);
    } else if (opt.workload == "serve-zipf") {
      report = pb::run_serve(opt);
    } else {
      std::filesystem::remove_all(opt.scratch);
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ayd_perfbench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    std::filesystem::remove_all(opt.scratch);
    return 1;
  }

  const pb::WorkloadOutcome& out = report.outcome;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup, rate, p50, p90;
  std::map<std::string, std::vector<double>> extra;
  for (const pb::RoundSample& r : out.rounds) {
    attempted += r.ops;
    failed += r.failed;
    setup.push_back(r.setup_s);
    rate.push_back(static_cast<double>(r.ops) / r.wall_s);
    p50.push_back(pb::quantile(r.answer_ms, 0.5));
    p90.push_back(pb::quantile(r.answer_ms, 0.9));
    for (const auto& [name, v] : r.extra) extra[name].push_back(v);
  }
  for (const std::string& f : out.failures) {
    std::fprintf(stderr, "FAILED CHECK: %s\n", f.c_str());
  }

  const std::vector<pb::Metric> e2e = {
      {"setup_s", pb::median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"answers_per_s", pb::median(rate), "1/s"},
      {"answer_ms_p50", pb::median(p50), "ms"},
      {"answer_ms_p90", pb::median(p90), "ms"},
  };
  std::vector<pb::Metric> detail;
  for (const auto& [name, v] : extra) detail.push_back({name, pb::median(v), ""});
  std::printf("perfbench-detail {\"workload\": %s, \"rounds\": %zu, "
              "\"extra\": %s}\n",
              json_str(opt.workload).c_str(), out.rounds.size(),
              metrics_json(detail).c_str());

  std::vector<pb::Metric> final_metrics = e2e;
  if (opt.trace) {
    // The end-to-end figures of the traced run; their difference to an
    // untraced run of the same seed is the tracing overhead.
    std::printf("perfbench-traced-e2e %s\n", metrics_json(e2e).c_str());
    final_metrics = pb::measure_layers(opt, report);
    const std::string span_path = opt.scratch + "/../spans-" + opt.workload +
                                  "-" + std::to_string(opt.seed) + ".jsonl";
    std::vector<pb::Metric> self;
    for (const pb::Tracer::Totals& t : pb::tracer().write(span_path)) {
      self.push_back({t.name + ".self_ms", t.self_us / 1e3, "ms"});
      self.push_back({t.name + ".calls", static_cast<double>(t.calls), "count"});
    }
    std::printf("perfbench-spans {\"file\": %s, \"totals\": %s}\n",
                json_str(std::filesystem::weakly_canonical(span_path).string())
                    .c_str(),
                metrics_json(self).c_str());
  }

  const double calib_end = calibration_ms();
  std::printf("perfbench-calibration {\"start_ms\": %.3f, \"end_ms\": %.3f}\n",
              calib_start, calib_end);

  std::filesystem::remove_all(opt.scratch);
  const bool correct = failed == 0 && out.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(final_metrics).c_str());
  return correct ? 0 : 1;
}
