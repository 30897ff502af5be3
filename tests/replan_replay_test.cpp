// Replay test tier (ctest label `replay`): the online re-planning loop
// replayed over committed regime-switch failure logs (tests/data/). The
// tier pins three contracts:
//   1. Determinism — the NDJSON record stream is byte-identical across
//      repeated runs and across thread counts (the loop is a pure
//      function of the gap sequence and the options).
//   2. Detection — the Weibull k 0.7 -> 1.4 shape switch embedded in
//      replay_weibull_shift.csv is detected within a bounded number of
//      events after it happens, and never before.
//   3. Guarding — the stationary trace produces zero re-plans, and the
//      service's "subscribe" op replays the exact records `ayd watch`
//      streams while turning malformed telemetry into error envelopes
//      instead of wedging.

#include "ayd/service/replan.hpp"

#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <vector>

#include "ayd/io/json.hpp"
#include "ayd/io/json_parse.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/service/server.hpp"
#include "ayd/tool/tool.hpp"
#include "ayd/util/error.hpp"

namespace ayd {
namespace {

std::string data_path(const std::string& name) {
  return std::string(AYD_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

struct ToolRun {
  int code = 0;
  std::string out;
  std::string err;
};

ToolRun run(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = tool::run_tool(args, out, err);
  return {code, out.str(), err.str()};
}

// Quick-scale simulation knobs: enough replicas for the optimizer to
// converge, small enough that one replay of a 1200-event trace stays in
// the tens of milliseconds. The exact values are irrelevant to the
// byte-identity assertions — what matters is every run uses the same.
std::vector<std::string> watch_args(const std::string& trace,
                                    const std::string& threads) {
  return {"watch",        "--trace",   trace,
          "--lambda",     "2.78e-4",   "--failure-dist",
          "weibull:k=0.7", "--procs",  "1",
          "--runs",       "8",         "--patterns",
          "32",           "--max-reps", "64",
          "--ci-rel-tol", "0.2",       "--threads",
          threads};
}

std::string record_type(const std::string& line) {
  const io::JsonValue v = io::parse_json(line);
  return v.at("type").as_string();
}

// -- 1. Determinism ------------------------------------------------------

TEST(ReplanReplay, ByteIdenticalAcrossRunsAndThreadCounts) {
  const std::string trace = data_path("replay_weibull_shift.csv");
  const ToolRun first = run(watch_args(trace, "1"));
  const ToolRun again = run(watch_args(trace, "1"));
  const ToolRun wide = run(watch_args(trace, "4"));
  ASSERT_EQ(first.code, 0) << first.err;
  ASSERT_EQ(again.code, 0) << again.err;
  ASSERT_EQ(wide.code, 0) << wide.err;
  // The whole NDJSON stream, byte for byte: same records, same number
  // formatting, same order — a run is a pure function of trace + options.
  EXPECT_EQ(first.out, again.out);
  EXPECT_EQ(first.out, wide.out);
}

// -- 2. Detection of the embedded regime switch --------------------------

TEST(ReplanReplay, DetectsShapeSwitchWithinBoundedDelayAndNotBefore) {
  const std::string trace = data_path("replay_weibull_shift.csv");
  const ToolRun r = run(watch_args(trace, "1"));
  ASSERT_EQ(r.code, 0) << r.err;
  const std::vector<std::string> lines = split_lines(r.out);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(record_type(lines.front()), "plan");
  EXPECT_EQ(record_type(lines.back()), "summary");

  std::vector<io::JsonValue> replans;
  for (const std::string& line : lines) {
    if (record_type(line) == "replan") replans.push_back(io::parse_json(line));
  }
  // The switch is at event 600; the default window is 256. Detection
  // must happen, must not pre-date the switch (the first 600 events are
  // stationary and exactly match the deployed model), and must land
  // within two windows of it.
  ASSERT_FALSE(replans.empty());
  const double first_event = replans.front().at("event").as_double();
  EXPECT_GT(first_event, 600.0);
  EXPECT_LE(first_event, 600.0 + 2.0 * 256.0);

  // Once the window is fully post-switch, the fitted law must be the
  // wear-out Weibull: last accepted fit has family "weibull" and a shape
  // on the k = 1.4 side of the k = 0.7 baseline.
  const io::JsonValue& fit = replans.back().at("fit");
  EXPECT_EQ(fit.at("family").as_string(), "weibull");
  const double shape = fit.at("shape").as_double();
  EXPECT_GT(shape, 1.1);
  EXPECT_LT(shape, 1.8);
  // Wear-out failures tolerate a longer period than bursty ones: the
  // re-published period moves up from the cold plan.
  const io::JsonValue plan = io::parse_json(lines.front());
  EXPECT_GT(replans.back().at("new_period").as_double(),
            plan.at("period").as_double());
}

TEST(ReplanReplay, StationaryStreamPublishesNoReplans) {
  const std::string trace = data_path("replay_stationary_exp.csv");
  const ToolRun r = run({"watch", "--trace", trace, "--lambda", "2.78e-4",
                         "--procs", "1", "--runs", "8", "--patterns", "32",
                         "--max-reps", "64", "--ci-rel-tol", "0.2",
                         "--threads", "1"});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::vector<std::string> lines = split_lines(r.out);
  ASSERT_GE(lines.size(), 2u);
  for (const std::string& line : lines) {
    EXPECT_NE(record_type(line), "replan") << line;
  }
  const io::JsonValue summary = io::parse_json(lines.back());
  EXPECT_EQ(summary.at("replans").as_int(), 0);
  EXPECT_EQ(summary.at("events").as_int(), 800);
}

TEST(ReplanReplay, RateStepRetunesPeriodDownward) {
  // MTBF drops 2 h -> 30 min at event 450: the loop must re-plan and the
  // final period must shrink (Young-Daly scaling: T* ~ sqrt(MTBF)).
  const std::string trace = data_path("replay_rate_step.csv");
  const ToolRun r = run({"watch", "--trace", trace, "--lambda", "1.389e-4",
                         "--procs", "1", "--runs", "8", "--patterns", "32",
                         "--max-reps", "64", "--ci-rel-tol", "0.2",
                         "--threads", "1"});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::vector<std::string> lines = split_lines(r.out);
  const io::JsonValue plan = io::parse_json(lines.front());
  const io::JsonValue summary = io::parse_json(lines.back());
  ASSERT_GE(summary.at("replans").as_int(), 1);
  EXPECT_LT(summary.at("period").as_double(), plan.at("period").as_double());
}

// -- 3. The service front-end: subscribe == watch ------------------------

TEST(ReplanReplay, SubscribeRepliesWithTheExactWatchRecords) {
  const std::string trace = data_path("replay_weibull_shift.csv");
  const ToolRun watch = run(watch_args(trace, "1"));
  ASSERT_EQ(watch.code, 0) << watch.err;
  const std::vector<std::string> lines = split_lines(watch.out);
  ASSERT_GE(lines.size(), 3u);

  std::ostringstream req;
  req << R"({"op":"subscribe","id":1,"lambda":"2.78e-4",)"
      << R"("failure-dist":"weibull:k=0.7","procs":"1","runs":"8",)"
      << R"("patterns":"32","max-reps":"64","ci-rel-tol":"0.2",)";
  req << "\"telemetry\":\"" << io::json_escape(read_file(trace)) << "\"}";

  service::PlanningService service({.threads = 1, .cache_dir = ""});
  const std::string reply = service.handle_line(req.str());
  const io::JsonValue v = io::parse_json(reply);
  ASSERT_TRUE(v.at("ok").as_bool()) << reply;
  const io::JsonValue& result = v.at("result");
  EXPECT_EQ(result.at("events").as_int(), 1200);

  // Every plan/replan record `ayd watch` printed appears verbatim in the
  // reply (the records are spliced into the result unmodified), and the
  // counts line up. The summary record is the CLI's end-of-stream
  // framing and is deliberately absent from the one-shot reply.
  std::size_t watch_replans = 0;
  for (const std::string& line : lines) {
    const std::string type = record_type(line);
    if (type == "summary") continue;
    if (type == "replan") ++watch_replans;
    EXPECT_NE(reply.find(line), std::string::npos) << line;
  }
  EXPECT_EQ(result.at("replans").as_int(),
            static_cast<std::int64_t>(watch_replans));
  EXPECT_EQ(result.at("records").as_array().size(), lines.size() - 1);
}

TEST(ReplanReplay, SubscribeAcceptsInlineEventArrays) {
  service::PlanningService service({.threads = 1, .cache_dir = ""});
  const std::string reply = service.handle_line(
      R"({"op":"subscribe","id":2,"lambda":"2.78e-4","procs":"1",)"
      R"("runs":"8","patterns":"32","max-reps":"64","ci-rel-tol":"0.2",)"
      R"("events":[3600,1800,7200,3600,900,5400]})");
  const io::JsonValue v = io::parse_json(reply);
  ASSERT_TRUE(v.at("ok").as_bool()) << reply;
  const io::JsonValue& result = v.at("result");
  EXPECT_EQ(result.at("events").as_int(), 6);
  // Six events never reach the min-events warm-up: plan record only.
  EXPECT_EQ(result.at("replans").as_int(), 0);
  ASSERT_EQ(result.at("records").as_array().size(), 1u);
  EXPECT_EQ(result.at("records").as_array()[0].at("type").as_string(),
            "plan");
}

// -- Malformed telemetry: error envelopes, never a wedge -----------------

std::string error_code_of(const std::string& reply) {
  const io::JsonValue v = io::parse_json(reply);
  EXPECT_FALSE(v.at("ok").as_bool()) << reply;
  return v.at("error").at("code").as_string();
}

TEST(ReplanReplay, SubscribeMalformedTelemetryIsBadRequestNotAWedge) {
  service::PlanningService service({.threads = 1, .cache_dir = ""});
  const std::string prefix =
      R"({"op":"subscribe","id":3,"lambda":"2.78e-4","procs":"1",)"
      R"("runs":"8","patterns":"32","max-reps":"64",)";

  // A non-numeric gap value.
  const std::string bogus = service.handle_line(
      prefix + R"("telemetry":"gap_seconds\n3600\nbogus\n"})");
  EXPECT_EQ(error_code_of(bogus), "bad_request");
  EXPECT_NE(bogus.find("bad time value"), std::string::npos) << bogus;

  // Overflowing and non-finite literals are rejected the same way.
  EXPECT_EQ(error_code_of(service.handle_line(
                prefix + R"("telemetry":"gap_seconds\n1e999\n"})")),
            "bad_request");
  EXPECT_EQ(error_code_of(service.handle_line(
                prefix + R"("telemetry":"gap_seconds\nnan\n"})")),
            "bad_request");

  // Absolute timestamps running backwards.
  const std::string backwards = service.handle_line(
      prefix + R"("telemetry":"failure_time\n100\n250\n200\n"})");
  EXPECT_EQ(error_code_of(backwards), "bad_request");
  EXPECT_NE(backwards.find("non-decreasing"), std::string::npos) << backwards;

  // Wrong payload types.
  EXPECT_EQ(error_code_of(service.handle_line(
                prefix + R"("events":[3600,"oops"]})")),
            "bad_request");
  EXPECT_EQ(error_code_of(service.handle_line(
                prefix + R"("telemetry":42})")),
            "bad_request");

  // The service is still fully alive afterwards — no wedge.
  const io::JsonValue stats =
      io::parse_json(service.handle_line(R"({"op":"stats","id":9})"));
  EXPECT_TRUE(stats.at("ok").as_bool());
}

TEST(ReplanReplay, SubscribeNeedsExactlyOneTelemetrySource) {
  service::PlanningService service({.threads = 1, .cache_dir = ""});
  const std::string neither = service.handle_line(
      R"({"op":"subscribe","id":4,"procs":"1"})");
  EXPECT_EQ(error_code_of(neither), "bad_request");
  EXPECT_NE(neither.find("exactly one"), std::string::npos) << neither;
  const std::string both = service.handle_line(
      R"({"op":"subscribe","id":5,"procs":"1","events":[1],)"
      R"("telemetry":"gap_seconds\n1\n"})");
  EXPECT_EQ(error_code_of(both), "bad_request");
}

// -- Direct Replanner API guards -----------------------------------------

TEST(ReplanReplay, ReplannerEnforcesItsLifecycle) {
  const model::System sys =
      model::System::from_platform(model::hera(), model::Scenario::kS3)
          .with_failure_dist(model::FailureDistSpec::weibull(0.7))
          .with_lambda(1.0 / 3600.0);
  service::ReplanOptions opts;
  opts.procs = 1.0;
  opts.search.replication.patterns_per_replica = 32;
  opts.search.adaptive.min_replicas = 8;
  opts.search.adaptive.max_replicas = 64;
  opts.search.adaptive.ci_rel_tol = 0.2;

  service::Replanner replanner(sys, opts, nullptr);
  // on_gap before the cold plan is a contract violation.
  EXPECT_THROW((void)replanner.on_gap(3600.0), util::Error);
  const std::string plan = replanner.initial_record();
  EXPECT_NE(plan.find("\"type\":\"plan\""), std::string::npos);
  // The cold plan runs exactly once.
  EXPECT_THROW((void)replanner.initial_record(), util::Error);
  EXPECT_GT(replanner.deployed_period(), 0.0);
  EXPECT_EQ(replanner.replans(), 0u);

  // procs is required.
  service::ReplanOptions bad = opts;
  bad.procs = 0.0;
  EXPECT_THROW(service::Replanner(sys, bad, nullptr), util::Error);
}

}  // namespace
}  // namespace ayd
