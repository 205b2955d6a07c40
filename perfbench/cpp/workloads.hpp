// The benchmark's four workloads. Each iteration runs whole
// tuner::run_ppatuner sessions closed-loop: one session at a time, and each
// reveal batch is issued only after the previous one returned.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// One run_ppatuner call as the bench saw it from outside.
struct SessionLog {
  std::uint32_t id = 0;
  double t0 = 0.0;  ///< session start (before any journal is opened)
  double t1 = 0.0;  ///< run_ppatuner returned
  /// Idle time between one reveal_batch returning and the next starting.
  std::vector<double> gaps_ms;
  std::size_t batches = 0;
  /// Per batch: reveal wall minus the slowest tool record behind it.
  std::vector<double> dispatch_ms;
  std::uint64_t attempts = 0;         ///< tool attempts behind the reveals
  std::uint64_t failed_attempts = 0;  ///< attempts that did not succeed
  std::size_t rounds = 0;             ///< PPATunerDiagnostics::rounds
  std::size_t replayed_reveals = 0;
  double first_live_reveal = -1.0;  ///< time of the first reveal_batch
  /// Reveal outcomes (value bits), per-round counts, Pareto indices and run
  /// accounting.
  std::uint64_t fingerprint = 0;
  /// Pareto indices and run accounting only (what a resume must reproduce).
  std::uint64_t result_fingerprint = 0;
};

struct IterationResult {
  std::vector<SessionLog> sessions;
  /// Layer counters read from the services (EvalServiceStats,
  /// DistributedStats, RunJournal), keyed by metric name.
  std::map<std::string, double> counters;

  /// Wall time of the iteration's sessions.
  double tune_s() const;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Quality {
  double adrs = 0.0;
  double hv_error = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds iteration `iteration`'s inputs (timed as set-up). Every
  /// iteration of a run gets inputs of its own, derived from the seed.
  virtual void setup(std::size_t iteration) = 0;
  /// Runs the sessions on the inputs setup() built; `first_only` runs just
  /// the first one (for a stop-and-resume workload, the first pair).
  virtual IterationResult run(Tracer& tracer, bool first_only) = 0;
  /// Releases what setup() acquired (fleet workers and their sockets).
  virtual void teardown() {}
  /// After the timed window, with iteration 0's inputs set up again: the
  /// correctness checks of that iteration, each appended to `checks`. The
  /// default re-runs the first session (see check_repeat).
  virtual void check(const IterationResult& first, std::vector<Check>& checks) {
    check_repeat(first, checks);
  }
  /// Scores iteration 0's results against the golden front (called after
  /// check(), on the same set-up).
  virtual Quality score() = 0;

 protected:
  /// Re-runs the first session untraced and checks that its fingerprints
  /// repeat those of `first` (in a traced run this also shows that tracing
  /// does not change the results).
  void check_repeat(const IterationResult& first, std::vector<Check>& checks);
};

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
/// The workload called `name`, or null. `out_dir` holds the run's scratch
/// files (journals, fleet sockets).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& out_dir);

}  // namespace perfbench
