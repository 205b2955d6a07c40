// Tests of the span arithmetic on hand-built spans. Exit status 0 when every
// case passes.
//
//   cmake --build <build> --target trace_test && <build>/bin/trace_test
#include <cmath>
#include <cstdio>
#include <vector>

#include "trace.hpp"

namespace {

using perfbench::Interval;

int g_failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-12) {
    std::printf("FAIL %s: got %.15g, want %.15g\n", what, got, want);
    ++g_failures;
  }
}

void union_and_busy() {
  // Three objectives refitting concurrently: [0,4], [1,5], [2,3] overlap
  // into one 5 s stretch of wall, while the summed busy time is 9 s.
  const std::vector<Interval> refits = {{0, 4}, {1, 5}, {2, 3}};
  expect_near("busy of overlapping", perfbench::busy_length(refits), 9.0);
  expect_near("union of overlapping", perfbench::union_length(refits), 5.0);

  // Disjoint and touching intervals, out of order.
  const std::vector<Interval> spread = {{6, 7}, {0, 1}, {1, 2}, {4, 4.5}};
  expect_near("union of disjoint", perfbench::union_length(spread), 3.5);
  expect_near("busy of disjoint", perfbench::busy_length(spread), 3.5);

  // One interval nested inside another counts once.
  expect_near("union of nested", perfbench::union_length({{0, 10}, {2, 3}}), 10.0);
  expect_near("union of empty", perfbench::union_length({}), 0.0);
  expect_near("zero-length ignored", perfbench::union_length({{1, 1}, {2, 2}}), 0.0);
}

void self_time() {
  // A 10 s session with predict tasks [1,3] and [2,4] in parallel, an
  // append [4,5] and a reveal [7,8]: children cover [1,5] and [7,8].
  const Interval session{0, 10};
  const std::vector<Interval> children = {{1, 3}, {2, 4}, {4, 5}, {7, 8}};
  expect_near("self time", perfbench::self_time(session, children), 5.0);

  // Children sticking out of the parent are clipped to it.
  expect_near("self time clipped",
              perfbench::self_time({2, 6}, {{0, 3}, {5, 9}}), 2.0);
  // Children covering everything leave no self time, never a negative one.
  expect_near("self time covered",
              perfbench::self_time({0, 2}, {{0, 1.5}, {1, 2}, {0.5, 2}}), 0.0);
  expect_near("self time no children", perfbench::self_time({3, 4}, {}), 1.0);
}

void percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  expect_near("p50 nearest rank", perfbench::percentile(v, 50.0), 50.0);
  expect_near("p95 nearest rank", perfbench::percentile(v, 95.0), 95.0);
  expect_near("p100", perfbench::percentile(v, 100.0), 100.0);
  expect_near("p0 is the minimum", perfbench::percentile(v, 0.0), 1.0);
  expect_near("empty", perfbench::percentile({}, 50.0), 0.0);

  // Highest level with at least ten samples beyond it.
  expect_near("tail of 100", perfbench::tail_percentile(100), 90.0);
  expect_near("tail of 199", perfbench::tail_percentile(199), 90.0);
  expect_near("tail of 200", perfbench::tail_percentile(200), 95.0);
  expect_near("tail of 1000", perfbench::tail_percentile(1000), 99.0);
  expect_near("tail of 10000", perfbench::tail_percentile(10000), 99.9);
  expect_near("tail of 40", perfbench::tail_percentile(40), 75.0);
  expect_near("tail of 12", perfbench::tail_percentile(12), 50.0);
}

}  // namespace

int main() {
  union_and_busy();
  self_time();
  percentiles();
  if (g_failures == 0) std::printf("trace_test: all cases passed\n");
  return g_failures == 0 ? 0 : 1;
}
