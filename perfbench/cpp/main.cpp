// perfbench: the end-to-end tuning benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// Runs whole run_ppatuner sessions of one workload, closed-loop, for about S
// seconds (at least two iterations, each on inputs of its own derived from
// the seed), then runs the correctness checks. The last stdout line is one
// JSON object {correct, attempted, failed, metrics}. --trace 0 reports the
// end-to-end metrics; --trace 1 traces every iteration and reports the
// per-layer metrics, including the tracing overhead. Exit status is 0 only
// when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

/// Each iteration runs on inputs of its own, so two average out part of the
/// seed-to-seed variation of the work.
constexpr std::size_t kMinIterations = 2;
/// Set-ups timed before the window (see run()).
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 100;
constexpr double kMinSetupSeconds = 0.25;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".perfbench_out";
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args.seconds > 0.0;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      args.trace = value[0] == '1';
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Per-layer figures of one traced iteration, from its spans, its session
/// logs and the services' counters.
std::map<std::string, double> layer_metrics(const IterationResult& it,
                                            const std::vector<Span>& spans) {
  std::map<std::uint32_t, std::vector<const Span*>> by_session;
  for (const Span& s : spans) by_session[s.session].push_back(&s);

  std::map<std::string, double> m;
  const bool fleet = it.counters.count("dist.batches") > 0;
  const bool live = fleet || it.counters.count("flow.batches") > 0;
  const std::string rv = fleet ? "dist" : "flow";
  double predict_busy = 0.0, predict_candidates = 0.0, rounds = 0.0;
  double batches = 0.0, dispatch_ms = 0.0, span_count = 0.0;
  for (const SessionLog& log : it.sessions) {
    std::vector<Interval> per_layer[kNumLayers];
    std::vector<Interval> children;
    double work[kNumLayers] = {};
    double predict_calls = 0.0;
    for (const Span* s : by_session[log.id]) {
      const auto l = static_cast<std::size_t>(s->layer);
      per_layer[l].push_back({s->t0, s->t1});
      work[l] += static_cast<double>(s->work);
      if (s->layer != Layer::kTool) children.push_back({s->t0, s->t1});
      if (s->layer == Layer::kPredict) predict_calls += 1.0;
      span_count += 1.0;
    }
    auto at = [&](Layer l) -> std::vector<Interval>& {
      return per_layer[static_cast<std::size_t>(l)];
    };
    // Only execute_refit spans carry work, so this counts executions.
    m["gp.refit.calls"] += work[static_cast<std::size_t>(Layer::kRefit)];
    m["gp.refit.busy_s"] += busy_length(at(Layer::kRefit));
    m["gp.refit.blocked_s"] += union_length(at(Layer::kRefit));
    m["gp.predict.calls"] += predict_calls;
    m["gp.predict.candidates"] += work[static_cast<std::size_t>(Layer::kPredict)];
    m["gp.predict.blocked_s"] += union_length(at(Layer::kPredict));
    predict_busy += busy_length(at(Layer::kPredict));
    predict_candidates += work[static_cast<std::size_t>(Layer::kPredict)];
    m["gp.append.points"] += work[static_cast<std::size_t>(Layer::kAppend)];
    m["gp.append.blocked_s"] += union_length(at(Layer::kAppend));
    m["gp.fit.blocked_s"] += union_length(at(Layer::kFit));
    m["tuner.self_s"] += self_time({log.t0, log.t1}, children);
    rounds += static_cast<double>(log.rounds);
    if (live) {
      m[rv + ".reveal.blocked_s"] += union_length(at(Layer::kReveal));
      batches += static_cast<double>(log.batches);
      for (double d : log.dispatch_ms) dispatch_ms += d;
    }
    if (!fleet) m["flow.tool.busy_s"] += busy_length(at(Layer::kTool));
  }
  m["gp.predict.ns_per_candidate"] =
      predict_candidates > 0.0 ? 1e9 * predict_busy / predict_candidates : 0.0;
  m["tuner.rounds"] = rounds;
  m["tuner.self_ms_per_round"] = rounds > 0.0 ? 1e3 * m["tuner.self_s"] / rounds : 0.0;
  if (live) {
    m[rv + ".dispatch_ms_per_batch"] = batches > 0.0 ? dispatch_ms / batches : 0.0;
  }
  for (const auto& [key, value] : it.counters) m[key] = value;

  const double tune = it.tune_s();
  m["trace.spans"] = span_count;
  m["gp.refit.blocked_frac"] = m["gp.refit.blocked_s"] / tune;
  m["gp.predict.blocked_frac"] = m["gp.predict.blocked_s"] / tune;
  m["flow.reveal.blocked_frac"] = m["flow.reveal.blocked_s"] / tune;
  m["dist.reveal.blocked_frac"] = m["dist.reveal.blocked_s"] / tune;
  return m;
}

/// Seconds one span costs: two clock reads and one record into a tracer.
double span_cost_s() {
  constexpr int kSpans = 20000;
  Tracer probe(true);
  const double t0 = now_s();
  for (int i = 0; i < kSpans; ++i) {
    const double s0 = now_s();
    probe.record({0, Layer::kFit, s0, now_s(), 1});
  }
  return (now_s() - t0) / kSpans;
}

struct Metric {
  const char* name;
  const char* unit;
};

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> k = {
      {"setup_s", "s"},      {"tune_s", "s"},         {"gap_ms.mean", "ms"},
      {"peak_rss_mb", "MB"}, {"tool_runs", "count"},
  };
  return k;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> k = {
      {"trace.tune_s", "s"},
      {"gap_ms.p50", "ms"},
      {"gap_ms.tail", "ms"},
      {"quality.adrs", "ratio"},
      {"quality.hv_error", "ratio"},
      {"gp.refit.calls", "count"},
      {"gp.refit.busy_s", "s"},
      {"gp.refit.blocked_s", "s"},
      {"gp.refit.blocked_frac", "ratio"},
      {"gp.predict.calls", "count"},
      {"gp.predict.candidates", "count"},
      {"gp.predict.blocked_s", "s"},
      {"gp.predict.blocked_frac", "ratio"},
      {"gp.predict.ns_per_candidate", "ns"},
      {"gp.append.points", "count"},
      {"gp.append.blocked_s", "s"},
      {"gp.fit.blocked_s", "s"},
      {"tuner.rounds", "count"},
      {"tuner.self_s", "s"},
      {"tuner.self_ms_per_round", "ms"},
      {"flow.batches", "count"},
      {"flow.attempts", "count"},
      {"flow.retries", "count"},
      {"flow.reveal.blocked_s", "s"},
      {"flow.reveal.blocked_frac", "ratio"},
      {"flow.tool.busy_s", "s"},
      {"flow.dispatch_ms_per_batch", "ms"},
      {"dist.batches", "count"},
      {"dist.attempts", "count"},
      {"dist.reveal.blocked_s", "s"},
      {"dist.reveal.blocked_frac", "ratio"},
      {"dist.dispatch_ms_per_batch", "ms"},
      {"dist.heartbeats", "count"},
      {"dist.worker_deaths", "count"},
      {"journal.write_s", "s"},
      {"journal.commits", "count"},
      {"journal.bytes", "bytes"},
      {"journal.replay_s", "s"},
      {"journal.replayed_reveals", "count"},
      {"trace.spans", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  return k;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Writes every recorded span, grouped by session id.
void write_spans(const std::string& path, const Args& args,
                 const std::vector<IterationResult>& iterations,
                 const std::vector<Span>& spans) {
  std::map<std::uint32_t, std::vector<const Span*>> by_session;
  for (const Span& s : spans) by_session[s.session].push_back(&s);
  std::ofstream out(path, std::ios::trunc);
  out << "{\"workload\": " << json_string(args.workload)
      << ", \"seed\": " << args.seed << ", \"sessions\": [";
  bool first = true;
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    for (const SessionLog& log : iterations[i].sessions) {
      const auto it = by_session.find(log.id);
      if (it == by_session.end()) continue;
      out << (first ? "\n" : ",\n") << "{\"session\": " << log.id
          << ", \"iteration\": " << i << ", \"t0\": " << json_number(log.t0)
          << ", \"t1\": " << json_number(log.t1) << ", \"spans\": [";
      first = false;
      for (std::size_t k = 0; k < it->second.size(); ++k) {
        const Span& s = *it->second[k];
        out << (k ? ", " : "") << "[" << json_string(layer_name(s.layer))
            << ", " << json_number(s.t0) << ", " << json_number(s.t1) << ", "
            << s.work << "]";
      }
      out << "]}";
    }
  }
  out << "\n]}\n";
}

int run(const Args& args) {
  auto workload = make_workload(args.workload, args.seed, args.out_dir);
  if (!workload) {
    std::string names;
    for (const std::string& n : workload_names()) names += " " + n;
    std::fprintf(stderr, "unknown workload %s; one of:%s\n", args.workload.c_str(),
                 names.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);

  // Set-up is timed several times, at least kMinSetups and kMinSetupSeconds
  // in total, so its median is steady even when one set-up takes a
  // millisecond.
  const double setups0 = now_s();
  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (setup_s.size() < kMinSetups ||
         (setup_total < kMinSetupSeconds && setup_s.size() < kMaxSetups)) {
    const double t0 = now_s();
    workload->setup(0);
    setup_s.push_back(now_s() - t0);
    setup_total += setup_s.back();
    workload->teardown();
  }

  Tracer tracer(args.trace);
  std::vector<IterationResult> iterations;
  const double window0 = now_s();
  std::fprintf(stderr, "set-up: %zu times, %.3f s\n", setup_s.size(), window0 - setups0);
  while (iterations.size() < kMinIterations || now_s() - window0 < args.seconds) {
    const double t0 = now_s();
    workload->setup(iterations.size());
    setup_s.push_back(now_s() - t0);
    iterations.push_back(workload->run(tracer, false));
    workload->teardown();
  }

  // ---- Correctness ----
  // Iteration 0's inputs are set up again for the workload's checks and
  // for scoring.
  std::vector<Check> checks;
  Quality quality;
  const double post0 = now_s();
  std::fprintf(stderr, "window: %.3f s\n", post0 - window0);
  try {
    workload->setup(0);
    workload->check(iterations.front(), checks);
    // Quality is deterministic per seed but varies far more from seed to
    // seed than any bound allows, so it is a traced-run figure only.
    if (args.trace) quality = workload->score();
    workload->teardown();
  } catch (const std::exception& e) {
    checks.push_back({"verify", false, e.what()});
  }
  std::fprintf(stderr, "checks: %.3f s\n", now_s() - post0);

  std::uint64_t attempts = 0, failed_attempts = 0;
  for (const IterationResult& it : iterations) {
    for (const SessionLog& s : it.sessions) {
      attempts += s.attempts;
      failed_attempts += s.failed_attempts;
    }
  }

  // ---- Metrics ----
  std::map<std::string, double> values;
  std::vector<double> gaps, tune_s, runs, gap_means;
  std::size_t first_gaps = 0;
  for (const SessionLog& s : iterations.front().sessions) first_gaps += s.gaps_ms.size();
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    double ok_runs = 0.0;
    const std::size_t gaps0 = gaps.size();
    for (const SessionLog& s : iterations[i].sessions) {
      gaps.insert(gaps.end(), s.gaps_ms.begin(), s.gaps_ms.end());
      ok_runs += static_cast<double>(s.attempts - s.failed_attempts);
    }
    gap_means.push_back(mean(std::vector<double>(gaps.begin() + gaps0, gaps.end())));
    runs.push_back(ok_runs);
    tune_s.push_back(iterations[i].tune_s());
    std::fprintf(stderr, "iteration %zu: %.3f s, %.0f runs, sessions (s, gap p50 ms):",
                 i, tune_s.back(), ok_runs);
    for (const SessionLog& s : iterations[i].sessions) {
      std::fprintf(stderr, " (%.3f, %.3f)", s.t1 - s.t0, percentile(s.gaps_ms, 50.0));
    }
    std::fprintf(stderr, "\n");
  }
  // The tail level is fixed by what the guaranteed minimum of iterations
  // yields, so it does not change with how many iterations fit the window.
  const double tail_pct = tail_percentile(first_gaps * kMinIterations);
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);

  if (!args.trace) {
    values["setup_s"] = median(setup_s);
    values["tune_s"] = median(tune_s);
    values["gap_ms.mean"] = median(gap_means);
    values["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
    values["tool_runs"] = median(runs);
  } else {
    const std::vector<Span> spans = tracer.spans();
    std::map<std::string, std::vector<double>> per_iteration;
    for (const IterationResult& it : iterations) {
      for (const auto& [k, v] : layer_metrics(it, spans)) per_iteration[k].push_back(v);
    }
    for (const Metric& m : per_layer_metrics()) {
      values[m.name] = median(per_iteration[m.name]);
    }
    values["trace.tune_s"] = median(tune_s);
    values["gap_ms.p50"] = percentile(gaps, 50.0);
    values["gap_ms.tail"] = percentile(gaps, tail_pct);
    values["quality.adrs"] = quality.adrs;
    values["quality.hv_error"] = quality.hv_error;
    // The direct cost of the recorded spans, as a share of the traced wall
    // time. Differencing a traced and an untraced run cannot resolve it:
    // it is far below their run-to-run noise.
    values["trace.overhead_frac"] =
        values["trace.spans"] * span_cost_s() / values["trace.tune_s"];
    write_spans(args.out_dir + "/trace-" + args.workload + "-" +
                    std::to_string(args.seed) + ".json",
                args, iterations, spans);
  }
  bool finite = true;
  for (const auto& [k, v] : values) finite = finite && std::isfinite(v);
  checks.push_back({"metrics_finite", finite, {}});

  std::uint64_t failed_checks = 0;
  for (const Check& c : checks) {
    if (!c.ok) {
      ++failed_checks;
      std::fprintf(stderr, "CHECK FAILED: %s %s\n", c.name.c_str(), c.detail.c_str());
    }
  }
  const std::uint64_t attempted = attempts + checks.size();
  const std::uint64_t failed = failed_attempts + failed_checks;
  const bool correct = failed == 0;

  double load[3] = {0.0, 0.0, 0.0};
  if (::getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
  std::printf(
      "perfbench-stamp {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"iterations\": %zu, \"nproc\": %u, \"build_type\": %s, "
      "\"compiler\": %s, \"loadavg\": [%.2f, %.2f, %.2f], "
      "\"gap_samples\": %zu, \"gap_tail_pct\": %s, \"failed_frac\": %s}\n",
      json_string(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      iterations.size(), std::thread::hardware_concurrency(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(), load[0], load[1], load[2],
      gaps.size(), json_number(tail_pct).c_str(),
      json_number(static_cast<double>(failed) / static_cast<double>(attempted))
          .c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  const auto& list = args.trace ? per_layer_metrics() : end_to_end_metrics();
  for (std::size_t i = 0; i < list.size(); ++i) {
    const double v = std::isfinite(values[list[i].name]) ? values[list[i].name] : 0.0;
    json += (i ? ", " : "") + json_string(list[i].name) + ": {\"value\": " +
            json_number(v) + ", \"unit\": " + json_string(list[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
