#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>

#include "bench.hpp"

namespace pb {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double InputRng::log_uniform(double lo, double hi) {
  return std::exp(uniform(std::log(lo), std::log(hi)));
}

double InputRng::round_sig(double x, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, x);
  return std::strtod(buf, nullptr);
}

// ---- tracing ----------------------------------------------------------------

namespace {
thread_local std::uint64_t t_current_span = 0;
}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

Tracer::Scope::Scope(const char* name, std::uint64_t request) {
  Tracer& t = tracer();
  if (!t.on_) return;
  on_ = true;
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - t.t0_).count();
  const std::lock_guard lock(t.mu_);
  index_ = t.spans_.size();
  Span s;
  s.name = name;
  s.start_us = now;
  s.id = t.next_id_++;
  s.parent = t_current_span;
  s.request = request;
  t.spans_.push_back(std::move(s));
  saved_parent_ = t_current_span;
  t_current_span = t.spans_.back().id;
}

Tracer::Scope::~Scope() {
  if (!on_) return;
  Tracer& t = tracer();
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - t.t0_).count();
  const std::lock_guard lock(t.mu_);
  t.spans_[index_].end_us = now;
  t_current_span = saved_parent_;
}

std::vector<Tracer::Totals> Tracer::write(const std::string& path) {
  const std::lock_guard lock(mu_);
  std::ofstream out(path);
  for (const Span& s : spans_) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                  "\"request\":%llu,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.start_us,
                  s.end_us);
    out << buf;
  }
  // Self time: a span's duration minus the union of its children's
  // intervals (children of one parent may overlap when they ran on
  // different threads).
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, Totals> by_name;
  for (const Span& s : spans_) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = iv.front().first;
      double cur_hi = iv.front().second;
      for (const auto& [lo, hi] : iv) {
        if (lo > cur_hi) {
          covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      covered += cur_hi - cur_lo;
    }
    Totals& t = by_name[s.name];
    t.name = s.name;
    t.calls += 1;
    t.total_us += s.end_us - s.start_us;
    t.self_us += (s.end_us - s.start_us) - covered;
  }
  std::vector<Totals> totals;
  for (auto& [name, t] : by_name) totals.push_back(t);
  return totals;
}

// ---- Proposition 1, independently of core/ ---------------------------------

namespace {

/// Proposition 1 (docs/theory.md §2): expected pattern time with fail-stop
/// rate lf, silent rate ls, work T, checkpoint C, recovery R, verification
/// V and downtime D.
double prop1_pattern_time(double lf, double ls, double T, double C, double R,
                          double V, double D) {
  // E = (1/λf + D)·[e^{λf R}(e^{λf(C+T+V)+λs T} − 1) − e^{λf C}(e^{λs T} − 1)]
  const double a = std::exp(lf * R) * std::expm1(lf * (C + T + V) + ls * T);
  const double b = std::exp(lf * C) * std::expm1(ls * T);
  return (1.0 / lf + D) * (a - b);
}

}  // namespace

double prop1_overhead(const ayd::model::System& sys, double T, double P,
                      double lf_scale) {
  const double lf = sys.fail_stop_rate(P) * lf_scale;
  const double ls = sys.silent_rate(P);
  const double e = prop1_pattern_time(
      lf, ls, T, sys.checkpoint_cost(P), sys.recovery_cost(P),
      sys.verification_cost(P), sys.downtime());
  return e / (T * sys.speedup(P));
}

Prop1Optimum prop1_optimum(const ayd::model::System& sys, double P,
                           double lf_scale) {
  const auto h = [&](double x) {
    const double v = prop1_overhead(sys, std::exp(x), P, lf_scale);
    return std::isfinite(v) ? v : std::numeric_limits<double>::max();
  };
  // Coarse scan over the library's period domain [1e-3, 1e13] s, then a
  // golden-section refinement around the best grid point.
  const double lo = std::log(1e-3);
  const double hi = std::log(1e13);
  constexpr int kGrid = 400;
  const double step = (hi - lo) / kGrid;
  int best = 0;
  double best_h = h(lo);
  for (int i = 1; i <= kGrid; ++i) {
    const double v = h(lo + step * i);
    if (v < best_h) {
      best_h = v;
      best = i;
    }
  }
  double a = lo + step * std::max(0, best - 1);
  double b = lo + step * std::min(kGrid, best + 1);
  constexpr double kG = 0.6180339887498949;
  double c = b - kG * (b - a);
  double d = a + kG * (b - a);
  double hc = h(c);
  double hd = h(d);
  for (int it = 0; it < 200 && b - a > 1e-12; ++it) {
    if (hc < hd) {
      b = d;
      d = c;
      hd = hc;
      c = b - kG * (b - a);
      hc = h(c);
    } else {
      a = c;
      c = d;
      hc = hd;
      d = a + kG * (b - a);
      hd = h(d);
    }
  }
  const double x = 0.5 * (a + b);
  return {std::exp(x), prop1_overhead(sys, std::exp(x), P, lf_scale)};
}

// ---- helpers ----------------------------------------------------------------

namespace {
std::size_t member_value(const std::string& text, const std::string& object,
                         const std::string& key) {
  std::size_t from = 0;
  if (!object.empty()) {
    from = text.find("\"" + object + "\":{");
    if (from == std::string::npos) return std::string::npos;
  }
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return std::string::npos;
  // The member must belong to `object`, not to a later sibling.
  if (!object.empty()) {
    int depth = 0;
    for (std::size_t i = text.find('{', from); i < at; ++i) {
      if (text[i] == '{') ++depth;
      if (text[i] == '}' && --depth == 0) return std::string::npos;
    }
  }
  return at + needle.size();
}
}  // namespace

double json_number(const std::string& text, const std::string& object,
                   const std::string& key) {
  const std::size_t at = member_value(text, object, key);
  if (at == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  return std::strtod(text.c_str() + at, nullptr);
}

bool json_bool(const std::string& text, const std::string& object,
               const std::string& key) {
  const std::size_t at = member_value(text, object, key);
  return at != std::string::npos && text.compare(at, 4, "true") == 0;
}

std::string plan_request_line(const PlanRequest& req, std::uint64_t id) {
  std::string line = "{\"id\":" + std::to_string(id) + ",\"op\":\"optimize\"";
  for (const std::string& arg : req.argv) {
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    line += ',';
    if (eq == std::string::npos) {
      line += "\"" + body + "\":true";
    } else {
      line += "\"" + body.substr(0, eq) + "\":\"" + body.substr(eq + 1) + "\"";
    }
  }
  return line + "}";
}

WorkloadOutcome run_rounds(double seconds, int min_rounds, const RoundFn& fn) {
  WorkloadOutcome out;
  const auto t0 = Clock::now();
  for (int r = 0;; ++r) {
    if (r >= min_rounds && seconds_since(t0) >= seconds) break;
    out.rounds.push_back(fn(r));
  }
  return out;
}

}  // namespace pb
