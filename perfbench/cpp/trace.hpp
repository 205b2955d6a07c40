// Span recording and span arithmetic for the end-to-end benchmark.
//
// Spans are recorded from outside the library, around the calls the bench
// forwards into each layer (surrogate, candidate pool, oracle). They stay in
// memory until the run ends. The tuner runs per-objective surrogate work as
// concurrent tasks, so spans of one layer overlap in time: a layer's busy
// time is the SUM of its spans, while the time the session was blocked on it
// is the length of their UNION. Self time of a session is its wall interval
// minus the union of every child span inside it.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

enum class Layer : std::uint8_t {
  kFit,      ///< Surrogate::fit
  kRefit,    ///< Surrogate::prepare_refit / execute_refit
  kPredict,  ///< Surrogate::predict_batch(_cached)
  kAppend,   ///< Surrogate::add_observation(_batch)
  kReveal,   ///< CandidatePool::reveal_batch
  kTool,     ///< one oracle evaluation (in-process tools only)
};
inline constexpr std::size_t kNumLayers = 6;
const char* layer_name(Layer layer);

struct Span {
  std::uint32_t session = 0;
  Layer layer = Layer::kFit;
  double t0 = 0.0;
  double t1 = 0.0;
  /// Work the span did: candidates predicted, points appended, refits run.
  std::uint64_t work = 0;
};

/// Thread-safe in-memory span sink. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void record(const Span& span);
  /// Spans recorded so far, in recording order.
  std::vector<Span> spans() const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

struct Interval {
  double t0 = 0.0;
  double t1 = 0.0;
};

/// Sum of interval lengths (overlaps counted once per interval).
double busy_length(const std::vector<Interval>& intervals);
/// Length of the union of the intervals (overlaps counted once).
double union_length(std::vector<Interval> intervals);
/// Length of `parent` not covered by any child (children are clipped to the
/// parent first). Never negative.
double self_time(Interval parent, std::vector<Interval> children);

/// Nearest-rank percentile of `values` (p in [0, 100]); 0 when empty.
double percentile(std::vector<double> values, double p);
/// The highest of {99.9, 99, 95, 90, 75, 50} that leaves at least ten of
/// `samples` values beyond it; 50 when none does.
double tail_percentile(std::size_t samples);

}  // namespace perfbench
