// Shared declarations of the planner benchmark (ayd_perfbench).
//
// Every workload runs its seeded input list in rounds. A round is a set-up
// phase (inputs, program objects, warm-up operations) followed by the
// timed phase; a run reports the median round, so one burst of host noise
// moves one round instead of the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "ayd/model/system.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile q in [0, 1] (NaN on an empty sample).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// The benchmark's own input generator: a fixed engine, independent of
/// the library's RNG, so inputs depend on --seed alone.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : engine_(seed) {}
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * std::uniform_real_distribution<double>(0, 1)(engine_);
  }
  [[nodiscard]] double log_uniform(double lo, double hi);
  [[nodiscard]] std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(engine_() % n);
  }
  [[nodiscard]] std::uint64_t word() { return engine_(); }
  /// A value rounded to `digits` significant decimal digits, so request
  /// texts stay short and every spelling parses to the same double.
  [[nodiscard]] static double round_sig(double x, int digits);

 private:
  std::mt19937_64 engine_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one round of a workload measured.
struct RoundSample {
  double setup_s = 0.0;
  double wall_s = 0.0;            ///< timed phase
  std::uint64_t ops = 0;          ///< operations in the timed phase
  std::uint64_t failed = 0;       ///< operations whose check failed
  std::vector<double> answer_ms;  ///< latencies of the primary class
  /// Workload-specific extra figures of this round (reported as the
  /// median over rounds on the detail line).
  std::vector<std::pair<std::string, double>> extra;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;  ///< per-run scratch directory (removed at exit)
};

/// Outcome of a workload run (all rounds).
struct WorkloadOutcome {
  std::vector<RoundSample> rounds;
  std::vector<std::string> failures;  ///< one line per failed check
};

// ---- tracing -------------------------------------------------------------

/// In-memory span recorder. Spans carry a name, start/end (µs since the
/// tracer started), their parent span and a request id shared by the
/// spans of one request. Written out once, at the end of the run.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0 = root
    std::uint64_t request = 0;
  };
  /// RAII span; a no-op when tracing is off.
  class Scope {
   public:
    Scope(const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::size_t index_ = 0;
    std::uint64_t saved_parent_ = 0;
    bool on_ = false;
  };

  void enable() { on_ = true; }
  /// Writes the spans (one JSON object per line) and returns the
  /// per-name totals: {name, calls, total µs, self µs}.
  struct Totals {
    std::string name;
    std::uint64_t calls = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::vector<Totals> write(const std::string& path);

 private:
  friend class Scope;
  bool on_ = false;
  Clock::time_point t0_ = Clock::now();
  std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

[[nodiscard]] Tracer& tracer();

// ---- the benchmark's own reference computations --------------------------

/// Proposition 1 (docs/theory.md §2), written with expm1 independently of
/// the library's core/expected_time: overhead H = E / (T·S(P)) at (T, P)
/// for `sys`, with the fail-stop rate scaled by `lf_scale` (1 for the
/// i.i.d. world; the shock mixture's (1−ρ)+ρ/(gP) for docs/theory.md §6.1).
[[nodiscard]] double prop1_overhead(const ayd::model::System& sys, double T,
                                    double P, double lf_scale = 1.0);

/// Golden-section minimisation of prop1_overhead over log T at fixed P.
struct Prop1Optimum {
  double period = 0.0;
  double overhead = 0.0;
};
[[nodiscard]] Prop1Optimum prop1_optimum(const ayd::model::System& sys,
                                         double P, double lf_scale = 1.0);

// ---- small helpers ---------------------------------------------------------

/// Number following `"key":` after the first occurrence of `"object":`
/// in a compact JSON text (NaN when absent). Used by the checks, so they
/// do not lean on the library's own JSON parser.
[[nodiscard]] double json_number(const std::string& text,
                                 const std::string& object,
                                 const std::string& key);
/// Same for a boolean member (false when absent).
[[nodiscard]] bool json_bool(const std::string& text,
                             const std::string& object,
                             const std::string& key);

/// An `ayd optimize --simulate` style request: its argv (service params
/// map 1:1 onto these flags) plus what the checks need to know.
struct PlanRequest {
  std::vector<std::string> argv;
  bool joint = false;           ///< no --procs: joint (P, T) search
  bool exponential = false;     ///< i.i.d. exponential: closed-form path
  bool shock_closed_form = false;  ///< all-exponential shock, no tiers
  double shock_rho = 0.0;
  double shock_group = 0.0;
};

/// The NDJSON optimize request equivalent to `req` (params spelled as
/// the service expects them).
[[nodiscard]] std::string plan_request_line(const PlanRequest& req,
                                            std::uint64_t id);

/// A probe input: one system/pattern of the workload, with the request
/// line that asks the service for it.
struct ProbeCase {
  ayd::model::System sys;
  double procs = 0.0;
  bool joint = false;
  std::string line;  ///< NDJSON request
  std::uint64_t seed = 0;
};

// ---- workloads --------------------------------------------------------------

using RoundFn = std::function<RoundSample(int round)>;

/// Runs rounds until `seconds` have passed (at least `min_rounds`).
WorkloadOutcome run_rounds(double seconds, int min_rounds, const RoundFn& fn);

struct WorkloadReport {
  WorkloadOutcome outcome;
  std::vector<ProbeCase> probe_cases;
  /// Extra per-layer figures only the workload itself can give (e.g. the
  /// service's cache counters on serve-zipf), keyed by metric name.
  std::vector<Metric> layer_overrides;
};

WorkloadReport run_plan(const Options& opt, bool extended);
WorkloadReport run_sweep(const Options& opt);
WorkloadReport run_serve(const Options& opt);

/// The traced run's per-layer metrics, measured by calling each layer's
/// public functions on the workload's own inputs.
std::vector<Metric> measure_layers(const Options& opt,
                                   const WorkloadReport& report);

}  // namespace pb
