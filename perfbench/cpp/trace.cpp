#include "trace.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kFit:
      return "gp.fit";
    case Layer::kRefit:
      return "gp.refit";
    case Layer::kPredict:
      return "gp.predict";
    case Layer::kAppend:
      return "gp.append";
    case Layer::kReveal:
      return "pool.reveal";
    case Layer::kTool:
      return "tool";
  }
  return "?";
}

void Tracer::record(const Span& span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double busy_length(const std::vector<Interval>& intervals) {
  double sum = 0.0;
  for (const Interval& iv : intervals) sum += std::max(0.0, iv.t1 - iv.t0);
  return sum;
}

double union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.t0 < b.t0; });
  double total = 0.0;
  bool open = false;
  double cur0 = 0.0, cur1 = 0.0;
  for (const Interval& iv : intervals) {
    if (iv.t1 <= iv.t0) continue;
    if (open && iv.t0 <= cur1) {
      cur1 = std::max(cur1, iv.t1);
      continue;
    }
    if (open) total += cur1 - cur0;
    cur0 = iv.t0;
    cur1 = iv.t1;
    open = true;
  }
  if (open) total += cur1 - cur0;
  return total;
}

double self_time(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.t0 = std::max(c.t0, parent.t0);
    c.t1 = std::min(c.t1, parent.t1);
  }
  return std::max(0.0, (parent.t1 - parent.t0) - union_length(std::move(children)));
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank, computed in per-mille integers (see tail_percentile).
  const auto permille = static_cast<std::size_t>(std::lround(p * 10.0));
  const std::size_t rank = (permille * values.size() + 999) / 1000;
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double tail_percentile(std::size_t samples) {
  // Per-mille levels in integer arithmetic, so the nearest rank (and the
  // count beyond it) is exact for every sample count.
  for (std::size_t permille : {999, 990, 950, 900, 750}) {
    const std::size_t rank = (permille * samples + 999) / 1000;
    if (samples - rank >= 10) return static_cast<double>(permille) / 10.0;
  }
  return 50.0;
}

}  // namespace perfbench
