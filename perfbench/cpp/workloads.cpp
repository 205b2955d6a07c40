#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "dist/coordinator.hpp"
#include "dist/oracles.hpp"
#include "flow/benchmark.hpp"
#include "flow/eval_service.hpp"
#include "hls/systolic.hpp"
#include "journal/journal.hpp"
#include "sample/sampling.hpp"
#include "tuner/live_pool.hpp"
#include "tuner/ppatuner.hpp"

#ifndef PERFBENCH_DATA_DIR
#define PERFBENCH_DATA_DIR "data"
#endif

namespace perfbench {

double IterationResult::tune_s() const {
  double sum = 0.0;
  for (const SessionLog& s : sessions) sum += s.t1 - s.t0;
  return sum;
}

namespace {

using namespace ppat;
namespace fs = std::filesystem;

/// splitmix64 over (seed, iteration, salt): every input of a workload
/// derives from the run's --seed through this, so the same seed rebuilds the
/// same inputs, and each iteration of a run gets inputs of its own.
std::uint64_t derive_seed(std::uint64_t seed, std::size_t iteration,
                          std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull +
                    (1000 * iteration + salt) * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0xFFFFFFFFull;
}

/// The tuner's own seed for a workload's s-th session. It is fixed, as the
/// paper's tables fix it, while --seed draws the inputs (pools, source
/// subsamples, golden tables): on mac_serial the tuner seed alone moves a
/// session between 17 and 70 tool runs, and no affordable number of
/// sessions per run averages that out of a wall-time metric.
std::uint64_t tuner_seed(std::size_t session) { return 1 + session; }

std::string data_path(const char* file) {
  return std::string(PERFBENCH_DATA_DIR) + "/" + file;
}

std::uint64_t mix_doubles(std::uint64_t h, const std::vector<double>& v) {
  return journal::hash_doubles(h, std::span<const double>(v.data(), v.size()));
}

// ---- Forwarding layers -------------------------------------------------

/// Forwards every call to the real surrogate and records a span around it.
/// Installed through the SurrogateFactory, so the tuner cannot tell.
class TracedSurrogate final : public tuner::Surrogate {
 public:
  TracedSurrogate(std::unique_ptr<tuner::Surrogate> inner, Tracer& tracer,
                  std::uint32_t session)
      : inner_(std::move(inner)), tracer_(tracer), session_(session) {}

  void fit(const std::vector<linalg::Vector>& xs,
           const linalg::Vector& ys) override {
    const double t0 = now_s();
    inner_->fit(xs, ys);
    done(Layer::kFit, t0, xs.size());
  }
  void add_observation(const linalg::Vector& x, double y) override {
    const double t0 = now_s();
    inner_->add_observation(x, y);
    done(Layer::kAppend, t0, 1);
  }
  void add_observation_batch(const std::vector<linalg::Vector>& xs,
                             const linalg::Vector& ys) override {
    const double t0 = now_s();
    inner_->add_observation_batch(xs, ys);
    done(Layer::kAppend, t0, xs.size());
  }
  // The randomized half of a refit carries work 0 so refit calls count
  // executions only; its time still belongs to the refit layer.
  void prepare_refit(common::Rng& rng) override {
    const double t0 = now_s();
    inner_->prepare_refit(rng);
    done(Layer::kRefit, t0, 0);
  }
  void execute_refit() override {
    const double t0 = now_s();
    inner_->execute_refit();
    done(Layer::kRefit, t0, 1);
  }
  void predict_batch(const std::vector<linalg::Vector>& xs,
                     linalg::Vector& means,
                     linalg::Vector& variances) const override {
    const double t0 = now_s();
    inner_->predict_batch(xs, means, variances);
    done(Layer::kPredict, t0, xs.size());
  }
  void predict_batch_cached(const std::vector<std::size_t>& ids,
                            const std::vector<linalg::Vector>& xs,
                            linalg::Vector& means,
                            linalg::Vector& variances) override {
    const double t0 = now_s();
    inner_->predict_batch_cached(ids, xs, means, variances);
    done(Layer::kPredict, t0, xs.size());
  }
  void set_tiled_prediction(bool enabled) override {
    inner_->set_tiled_prediction(enabled);
  }
  std::size_t num_target_points() const override {
    return inner_->num_target_points();
  }

 private:
  void done(Layer layer, double t0, std::uint64_t work) const {
    tracer_.record({session_, layer, t0, now_s(), work});
  }

  std::unique_ptr<tuner::Surrogate> inner_;
  Tracer& tracer_;
  std::uint32_t session_;
};

/// Forwards to the real pool and watches every reveal batch: the idle gap
/// before it, its wall time, the tool records behind it, and the outcome
/// values (fingerprinted bit for bit). Always installed: the gaps are an
/// end-to-end metric, and two clock reads per batch cost nothing.
class ObservedPool final : public tuner::CandidatePool {
 public:
  ObservedPool(tuner::CandidatePool& inner, Tracer& tracer, SessionLog& log,
               std::uint64_t& fingerprint)
      : inner_(inner), tracer_(tracer), log_(log), fp_(fingerprint) {}

  std::size_t size() const override { return inner_.size(); }
  std::size_t num_objectives() const override {
    return inner_.num_objectives();
  }
  const std::vector<linalg::Vector>& encoded() const override {
    return inner_.encoded();
  }
  const std::vector<std::size_t>& objectives() const override {
    return inner_.objectives();
  }
  pareto::Point reveal(std::size_t i) override { return inner_.reveal(i); }
  std::vector<RevealOutcome> reveal_batch(
      const std::vector<std::size_t>& indices) override {
    const double t0 = now_s();
    if (last_return_ >= 0.0) log_.gaps_ms.push_back(1e3 * (t0 - last_return_));
    if (log_.first_live_reveal < 0.0) log_.first_live_reveal = t0;
    std::vector<RevealOutcome> out = inner_.reveal_batch(indices);
    const double t1 = now_s();
    last_return_ = t1;
    tracer_.record({log_.id, Layer::kReveal, t0, t1, indices.size()});

    double slowest_ms = 0.0;
    for (std::size_t j = 0; j < out.size(); ++j) {
      const RevealOutcome& o = out[j];
      slowest_ms = std::max(slowest_ms, o.elapsed_ms);
      log_.attempts += o.attempts;
      log_.failed_attempts += o.ok ? o.attempts - 1 : o.attempts;
      fp_ = journal::mix_hash(fp_, indices[j]);
      fp_ = journal::mix_hash(fp_, o.ok ? 1 : 0);
      fp_ = journal::mix_hash(fp_, o.attempts);
      if (o.ok) fp_ = mix_doubles(fp_, o.value);
    }
    ++log_.batches;
    log_.dispatch_ms.push_back(1e3 * (t1 - t0) - slowest_ms);
    return out;
  }
  bool is_revealed(std::size_t i) const override {
    return inner_.is_revealed(i);
  }
  std::size_t runs() const override { return inner_.runs(); }
  std::size_t failed_evaluations() const override {
    return inner_.failed_evaluations();
  }

 private:
  tuner::CandidatePool& inner_;
  Tracer& tracer_;
  SessionLog& log_;
  std::uint64_t& fp_;
  double last_return_ = -1.0;
};

/// The bench's tool: an in-process oracle behind a fixed per-run sleep that
/// models a remote tool farm. hls::SystolicOracle::evaluate increments an
/// unsynchronized run counter, so calls into it are serialized here; the
/// sleep, which stands for the remote run, stays concurrent across licenses.
class FarmOracle final : public flow::QorOracle {
 public:
  FarmOracle(flow::QorOracle& tool, std::chrono::milliseconds sleep)
      : tool_(tool), sleep_(sleep) {}

  flow::QoR evaluate(const flow::ParameterSpace& space,
                     const flow::Config& config) override {
    const double t0 = now_s();
    flow::QoR q;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      q = tool_.evaluate(space, config);
    }
    if (sleep_.count() > 0) std::this_thread::sleep_for(sleep_);
    if (Tracer* tracer = tracer_.load()) {
      tracer->record({session_.load(), Layer::kTool, t0, now_s(), 1});
    }
    return q;
  }
  std::size_t run_count() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return tool_.run_count();
  }
  /// Attributes later evaluations to `session` (tracer may be null).
  void set_session(Tracer* tracer, std::uint32_t session) {
    session_.store(session);
    tracer_.store(tracer != nullptr && tracer->enabled() ? tracer : nullptr);
  }

 private:
  flow::QorOracle& tool_;
  std::chrono::milliseconds sleep_;
  mutable std::mutex mutex_;
  std::atomic<Tracer*> tracer_{nullptr};
  std::atomic<std::uint32_t> session_{0};
};

// ---- One session ---------------------------------------------------------

std::atomic<std::uint32_t> g_next_session{1};

SessionLog start_session() {
  SessionLog log;
  log.id = g_next_session.fetch_add(1);
  log.t0 = now_s();
  return log;
}

/// Runs one run_ppatuner call on `pool`, with the surrogates wrapped when
/// tracing. `log` comes from start_session(), so work done before the call
/// (opening a journal) counts toward the session.
SessionLog run_session(SessionLog log, tuner::CandidatePool& pool,
                       const tuner::SurrogateFactory& factory,
                       tuner::PPATunerOptions options, Tracer& tracer,
                       tuner::TuningResult* result_out = nullptr) {
  std::uint64_t fp = 0x53455353494f4e31ull;
  ObservedPool observed(pool, tracer, log, fp);
  tuner::SurrogateFactory used = factory;
  if (tracer.enabled()) {
    const std::uint32_t id = log.id;
    used = [&factory, &tracer, id](std::size_t k) {
      return std::make_unique<TracedSurrogate>(factory(k), tracer, id);
    };
  }
  auto chained = options.on_round;
  options.on_round = [&fp, chained](const tuner::PPATunerProgress& p) {
    for (std::size_t v : {p.round, p.runs, p.dropped, p.classified_pareto,
                          p.undecided}) {
      fp = journal::mix_hash(fp, v);
    }
    if (chained) chained(p);
  };
  tuner::PPATunerDiagnostics diag;
  const tuner::TuningResult result =
      tuner::run_ppatuner(observed, used, options, &diag);
  log.t1 = now_s();

  std::uint64_t rfp = 0x524553554c543031ull;
  rfp = journal::mix_hash(rfp, result.pareto_indices.size());
  for (std::size_t i : result.pareto_indices) rfp = journal::mix_hash(rfp, i);
  rfp = journal::mix_hash(rfp, result.tool_runs);
  rfp = journal::mix_hash(rfp, result.failed_runs);
  log.result_fingerprint = rfp;
  log.fingerprint = journal::mix_hash(fp, rfp);
  log.rounds = diag.rounds;
  log.replayed_reveals = diag.replayed_reveals;
  if (result_out != nullptr) *result_out = result;
  return log;
}

Quality mean_quality(const flow::BenchmarkSet& golden,
                     const std::vector<std::vector<std::size_t>>& spaces,
                     const std::vector<tuner::TuningResult>& results) {
  Quality q;
  for (std::size_t s = 0; s < results.size(); ++s) {
    tuner::BenchmarkCandidatePool scoring(&golden, spaces[s]);
    const auto r = tuner::evaluate_result(scoring, results[s]);
    q.adrs += r.adrs;
    q.hv_error += r.hv_error;
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, results.size()));
  q.adrs /= n;
  q.hv_error /= n;
  return q;
}

void add_check(std::vector<Check>& checks, std::string name, bool ok) {
  checks.push_back({std::move(name), ok, {}});
}

}  // namespace

void Workload::check_repeat(const IterationResult& first,
                            std::vector<Check>& checks) {
  Tracer off(false);
  const IterationResult again = run(off, true);
  bool repeat = !again.sessions.empty();
  for (std::size_t k = 0; k < again.sessions.size(); ++k) {
    repeat = repeat && k < first.sessions.size() &&
             again.sessions[k].fingerprint == first.sessions[k].fingerprint;
  }
  add_check(checks, "fingerprint_repeats", repeat);
}

namespace {

// ---- mac_serial ----------------------------------------------------------

/// The paper's Table-3 PPATuner cell: Source2 -> Target2, all three
/// objective spaces, 70 tool runs each, one license (batch 1).
class MacSerial final : public Workload {
 public:
  explicit MacSerial(std::uint64_t seed) : seed_(seed) {}

  void setup(std::size_t iteration) override {
    iteration_ = iteration;
    source_ = flow::load_benchmark_csv(data_path("source2.csv"), "source2",
                                       flow::source2_space());
    target_ = flow::load_benchmark_csv(data_path("target2.csv"), "target2",
                                       flow::target2_space());
    sources_.clear();
    for (std::size_t s = 0; s < spaces().size(); ++s) {
      sources_.push_back(tuner::SourceData::from_benchmark(
          source_, spaces()[s], 200, derive_seed(seed_, iteration_, 10 + s)));
    }
  }

  IterationResult run(Tracer& tracer, bool first_only) override {
    IterationResult it;
    const bool keep = results_.empty();
    const std::size_t n = first_only ? 1 : spaces().size();
    for (std::size_t s = 0; s < n; ++s) {
      tuner::BenchmarkCandidatePool pool(&target_, spaces()[s]);
      tuner::PPATunerOptions opt;
      opt.batch_size = 1;
      opt.max_runs = 70;
      opt.seed = tuner_seed(s);
      tuner::TuningResult result;
      it.sessions.push_back(run_session(start_session(), pool,
                                        tuner::make_transfer_gp_factory(sources_[s]),
                                        opt, tracer, &result));
      if (keep) results_.push_back(result);
    }
    return it;
  }

  Quality score() override { return mean_quality(target_, spaces(), results_); }

 private:
  static const std::vector<std::vector<std::size_t>>& spaces() {
    static const std::vector<std::vector<std::size_t>> kSpaces = {
        tuner::kAreaDelay, tuner::kPowerDelay, tuner::kAreaPowerDelay};
    return kSpaces;
  }

  std::uint64_t seed_;
  std::size_t iteration_ = 0;
  flow::BenchmarkSet source_, target_;
  std::vector<tuner::SourceData> sources_;
  std::vector<tuner::TuningResult> results_;
};

// ---- pool_50k ------------------------------------------------------------

flow::ParameterSpace synthetic_space() {
  return flow::ParameterSpace({
      flow::ParamSpec::real("u0", 0.0, 1.0),
      flow::ParamSpec::real("u1", 0.0, 1.0),
      flow::ParamSpec::real("u2", 0.0, 1.0),
  });
}

/// bench_pal_scaling's analytic QoR: a genuine three-way trade-off; `shift`
/// perturbs it into a correlated source task.
flow::QoR synthetic_qor(const linalg::Vector& u, double shift) {
  flow::QoR q;
  const double u0 = u[0], u1 = u[1], u2 = u[2];
  q.area_um2 = 120.0 * (1.4 - u0 + 0.25 * std::sin(3.0 * u1) + shift * u2);
  q.power_mw = 12.0 * (1.0 + 0.7 * u0 - 0.5 * u1 + 0.15 * u2 +
                       shift * 0.25 * std::cos(2.0 * u0));
  q.delay_ns = 1.0 + 0.9 * u1 + 0.2 * std::sin(4.0 * u0) + shift * 0.1 * u2;
  return q;
}

flow::BenchmarkSet synthetic_benchmark(const std::string& name, std::size_t n,
                                       std::uint64_t seed, double shift) {
  flow::BenchmarkSet set;
  set.name = name;
  set.space = synthetic_space();
  common::Rng rng(seed);
  const auto points = sample::latin_hypercube(n, set.space.size(), rng);
  set.configs.reserve(n);
  set.qor.reserve(n);
  for (const auto& u : points) {
    set.configs.push_back(set.space.decode(u));
    set.qor.push_back(synthetic_qor(set.space.encode(set.configs.back()), shift));
  }
  return set;
}

/// A 50,000-candidate synthetic pool: prediction over the alive set, not
/// refits, is what a round costs.
class Pool50k final : public Workload {
 public:
  /// Two tuner seeds per iteration: more seeds per run steady the figures.
  static constexpr std::size_t kSessions = 2;

  explicit Pool50k(std::uint64_t seed) : seed_(seed) {}

  void setup(std::size_t iteration) override {
    iteration_ = iteration;
    const auto source = synthetic_benchmark(
        "pool_source", 600, derive_seed(seed_, iteration_, 1), 0.35);
    source_ = tuner::SourceData::from_benchmark(source, tuner::kAreaPowerDelay,
                                                200, derive_seed(seed_, iteration_, 2));
    target_ = synthetic_benchmark("pool_50k", 50000,
                                  derive_seed(seed_, iteration_, 3), 0.0);
  }

  IterationResult run(Tracer& tracer, bool first_only) override {
    IterationResult it;
    const bool keep = results_.empty();
    for (std::size_t s = 0; s < (first_only ? 1 : kSessions); ++s) {
      tuner::BenchmarkCandidatePool pool(&target_, tuner::kAreaPowerDelay);
      tuner::PPATunerOptions opt;
      opt.batch_size = 8;
      opt.min_init = 20;
      opt.init_fraction = 0.0;
      opt.refit_every = 5;
      opt.max_runs = 120;
      opt.seed = tuner_seed(s);
      tuner::TuningResult result;
      it.sessions.push_back(run_session(start_session(), pool,
                                        tuner::make_transfer_gp_factory(source_),
                                        opt, tracer, &result));
      if (keep) results_.push_back(result);
    }
    return it;
  }

  Quality score() override {
    return mean_quality(target_, std::vector<std::vector<std::size_t>>(
                                     results_.size(), tuner::kAreaPowerDelay),
                        results_);
  }

 private:
  std::uint64_t seed_;
  std::size_t iteration_ = 0;
  tuner::SourceData source_;
  flow::BenchmarkSet target_;
  std::vector<tuner::TuningResult> results_;
};

// ---- hls_live ------------------------------------------------------------

/// HLS small_gemm -> large_gemm over the mixed/constrained space, revealed
/// live through an in-process EvalService (4 licenses, batch 4) behind the
/// sleeping farm oracle, with a durable journal. Every session stops
/// gracefully after kStopRound rounds and resumes from its journal.
class HlsLive final : public Workload {
 public:
  static constexpr std::size_t kSessions = 5;
  static constexpr std::size_t kLicenses = 4;
  static constexpr std::size_t kStopRound = 4;
  static constexpr std::chrono::milliseconds kToolSleep{60};

  HlsLive(std::uint64_t seed, std::string out_dir)
      : seed_(seed), out_dir_(std::move(out_dir)) {}

  void setup(std::size_t iteration) override {
    iteration_ = iteration;
    const std::uint64_t target_seed = derive_seed(seed_, iteration_, 2);
    space_ = hls::systolic_space(hls::large_gemm());
    const auto source = hls::build_systolic_benchmark(
        "hls_src", hls::small_gemm(), 300, derive_seed(seed_, iteration_, 1));
    source_ = tuner::SourceData::from_benchmark(source, tuner::kAreaPowerDelay,
                                                200, derive_seed(seed_, iteration_, 3));
    target_ = hls::build_systolic_benchmark("hls_tgt", hls::large_gemm(), 250,
                                            target_seed);
    // Same workload and seed as the golden table, so live values match it.
    tool_ = std::make_unique<hls::SystolicOracle>(hls::large_gemm(), target_seed);
    farm_ = std::make_unique<FarmOracle>(*tool_, kToolSleep);
    flow::EvalServiceOptions svc;
    svc.licenses = kLicenses;
    service_ = std::make_unique<flow::EvalService>(*farm_, space_, svc);
    factory_ = tuner::default_transfer_gp_factory_for(space_, source_);
  }

  IterationResult run(Tracer& tracer, bool first_only) override {
    IterationResult it;
    const bool keep = results_.empty();
    const flow::EvalServiceStats before = service_->stats();
    double write_s = 0.0, replay_s = 0.0, commits = 0.0, bytes = 0.0;
    double replayed = 0.0;
    for (std::size_t s = 0; s < (first_only ? 1 : kSessions); ++s) {
      const std::string dir = out_dir_ + "/hls-" + std::to_string(::getpid()) +
                              "-" + std::to_string(s) + ".journal";
      fs::remove_all(dir);
      const tuner::PPATunerOptions opt = options(s);

      {  // Fresh run, stopped gracefully mid-run.
        SessionLog log = start_session();
        auto jnl = journal::RunJournal::create(dir);
        tuner::LiveCandidatePool live(target_.configs, tuner::kAreaPowerDelay,
                                      *service_);
        live.set_journal(jnl.get());
        farm_->set_session(&tracer, log.id);
        auto o = opt;
        o.journal = jnl.get();
        std::size_t rounds_done = 0;
        o.on_round = [&rounds_done](const tuner::PPATunerProgress& p) {
          rounds_done = p.round;
        };
        o.should_stop = [&rounds_done] { return rounds_done >= kStopRound; };
        it.sessions.push_back(run_session(log, live, factory_, o, tracer));
        write_s += jnl->write_seconds();
      }
      {  // Resumed from the journal and run to the end.
        SessionLog log = start_session();
        auto jnl = journal::RunJournal::open_resume(dir);
        tuner::LiveCandidatePool live(target_.configs, tuner::kAreaPowerDelay,
                                      *service_);
        live.set_journal(jnl.get());
        farm_->set_session(&tracer, log.id);
        auto o = opt;
        o.journal = jnl.get();
        tuner::TuningResult result;
        it.sessions.push_back(run_session(log, live, factory_, o, tracer, &result));
        const SessionLog& done = it.sessions.back();
        write_s += jnl->write_seconds();
        replay_s += (done.first_live_reveal >= 0.0 ? done.first_live_reveal
                                                    : done.t1) - done.t0;
        replayed += static_cast<double>(done.replayed_reveals);
        jnl.reset();
        if (tracer.enabled()) {
          for (const auto& e : journal::read_journal(dir).entries) {
            if (e.kind == journal::JournalEntry::Kind::kBatchCommit) commits += 1.0;
          }
          for (const auto& f : fs::directory_iterator(dir)) {
            if (f.is_regular_file()) bytes += static_cast<double>(f.file_size());
          }
        }
        if (keep) {
          results_.push_back(result);
          resumed_fps_.push_back(done.result_fingerprint);
        }
      }
      fs::remove_all(dir);
    }
    farm_->set_session(nullptr, 0);
    const flow::EvalServiceStats after = service_->stats();
    it.counters["flow.batches"] = static_cast<double>(after.batches - before.batches);
    it.counters["flow.attempts"] = static_cast<double>(after.attempts - before.attempts);
    it.counters["flow.retries"] = static_cast<double>(after.retries - before.retries);
    it.counters["journal.write_s"] = write_s;
    it.counters["journal.replay_s"] = replay_s;
    it.counters["journal.replayed_reveals"] = replayed;
    it.counters["journal.commits"] = commits;
    it.counters["journal.bytes"] = bytes;
    return it;
  }

  void teardown() override {
    service_.reset();
    farm_.reset();
  }

  void check(const IterationResult& first, std::vector<Check>& checks) override {
    check_repeat(first, checks);
    // Uninterrupted reference runs: same tool, no sleep, no journal.
    hls::SystolicOracle tool(hls::large_gemm(), derive_seed(seed_, iteration_, 2));
    FarmOracle farm(tool, std::chrono::milliseconds(0));
    flow::EvalServiceOptions svc;
    svc.licenses = kLicenses;
    flow::EvalService service(farm, space_, svc);
    Tracer off(false);
    for (std::size_t s = 0; s < resumed_fps_.size(); ++s) {
      tuner::LiveCandidatePool live(target_.configs, tuner::kAreaPowerDelay,
                                    service);
      const SessionLog ref =
          run_session(start_session(), live, factory_, options(s), off);
      add_check(checks, "hls_live.resume_equals_uninterrupted." + std::to_string(s),
                ref.result_fingerprint == resumed_fps_[s]);
    }
  }

  Quality score() override {
    return mean_quality(target_,
                        std::vector<std::vector<std::size_t>>(
                            results_.size(), tuner::kAreaPowerDelay),
                        results_);
  }

 private:
  tuner::PPATunerOptions options(std::size_t session) const {
    tuner::PPATunerOptions opt;
    opt.batch_size = 4;
    opt.max_runs = 40;
    opt.seed = tuner_seed(session);
    return opt;
  }

  std::uint64_t seed_;
  std::string out_dir_;
  std::size_t iteration_ = 0;
  flow::ParameterSpace space_;
  tuner::SourceData source_;
  flow::BenchmarkSet target_;
  tuner::SurrogateFactory factory_;
  std::unique_ptr<hls::SystolicOracle> tool_;
  std::unique_ptr<FarmOracle> farm_;
  std::unique_ptr<flow::EvalService> service_;
  std::vector<tuner::TuningResult> results_;
  std::vector<std::uint64_t> resumed_fps_;
};

// ---- mac_fleet -----------------------------------------------------------

/// Target2's configurations evaluated live by the mini PD flow in
/// ppatuner_worker processes, through dist::DistributedEvalService.
class MacFleet final : public Workload {
 public:
  static constexpr std::uint64_t kPdsimSeed = 42;
  /// Two tuner seeds per iteration (see Pool50k::kSessions).
  static constexpr std::size_t kSessions = 2;

  MacFleet(std::uint64_t seed, std::string out_dir)
      : seed_(seed), out_dir_(std::move(out_dir)) {
    workers_ = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  }

  void setup(std::size_t iteration) override {
    iteration_ = iteration;
    const auto source = flow::load_benchmark_csv(
        data_path("source2.csv"), "source2", flow::source2_space());
    const auto target = flow::load_benchmark_csv(
        data_path("target2.csv"), "target2", flow::target2_space());
    configs_ = target.configs;
    space_ = target.space;
    source_ = tuner::SourceData::from_benchmark(source, tuner::kAreaPowerDelay,
                                                200, derive_seed(seed_, iteration_, 1));
    start_fleet();
    // One untimed warm-up evaluation per worker: first-run costs (page
    // faults, lazily built designs) belong to set-up, not to the session.
    const std::vector<flow::Config> warm(configs_.begin(),
                                         configs_.begin() + workers_);
    for (const auto& r : fleet_->evaluate_batch(warm)) {
      if (!r.ok()) throw std::runtime_error("mac_fleet warm-up failed: " + r.error);
    }
    baseline_ = fleet_->stats();
  }

  IterationResult run(Tracer& tracer, bool first_only) override {
    IterationResult it;
    const bool keep = results_.empty();
    for (std::size_t s = 0; s < (first_only ? 1 : kSessions); ++s) {
      tuner::LiveCandidatePool live(configs_, tuner::kAreaPowerDelay, *fleet_);
      tuner::TuningResult result;
      it.sessions.push_back(run_session(start_session(), live,
                                        tuner::make_transfer_gp_factory(source_),
                                        options(s), tracer, &result));
      if (keep) results_.push_back(result);
    }
    const dist::DistributedStats st = fleet_->stats();
    it.counters["dist.batches"] = static_cast<double>(st.batches - baseline_.batches);
    it.counters["dist.attempts"] = static_cast<double>(st.attempts - baseline_.attempts);
    it.counters["dist.heartbeats"] =
        static_cast<double>(st.heartbeats - baseline_.heartbeats);
    it.counters["dist.worker_deaths"] =
        static_cast<double>(st.worker_deaths - baseline_.worker_deaths);
    baseline_ = st;
    return it;
  }

  /// SIGTERMs and reaps the workers and unlinks the socket.
  void teardown() override { fleet_.reset(); }

  /// Re-runs the first session through an in-process EvalService at one
  /// license (PDTool is not safe under more than one): it must match the
  /// fleet session bit for bit, which also shows the fingerprint repeats.
  void check(const IterationResult& first, std::vector<Check>& checks) override {
    auto named = dist::make_named_oracle("pdsim", kPdsimSeed, 0);
    flow::EvalService service(*named->oracle, named->space);
    tuner::LiveCandidatePool live(configs_, tuner::kAreaPowerDelay, service);
    Tracer off(false);
    const SessionLog ref = run_session(start_session(), live,
                                       tuner::make_transfer_gp_factory(source_),
                                       options(0), off);
    add_check(checks, "mac_fleet.equals_in_process",
              !first.sessions.empty() &&
                  ref.fingerprint == first.sessions.front().fingerprint);
  }

  /// The golden table is every candidate through the fleet.
  Quality score() override {
    if (!fleet_) start_fleet();
    const auto records = fleet_->evaluate_batch(configs_);
    flow::BenchmarkSet golden;
    golden.name = "target2_pdsim";
    golden.space = space_;
    golden.configs = configs_;
    for (const auto& r : records) {
      if (!r.ok()) throw std::runtime_error("mac_fleet golden run failed: " + r.error);
      golden.qor.push_back(r.qor);
    }
    return mean_quality(golden, std::vector<std::vector<std::size_t>>(
                                    results_.size(), tuner::kAreaPowerDelay),
                        results_);
  }

 private:
  tuner::PPATunerOptions options(std::size_t session) const {
    tuner::PPATunerOptions opt;
    opt.batch_size = workers_;
    opt.max_runs = 70;
    opt.seed = tuner_seed(session);
    return opt;
  }

  void start_fleet() {
    dist::DistributedOptions dopt;
    dopt.socket_path = out_dir_ + "/fleet-" + std::to_string(::getpid()) + "-" +
                       std::to_string(fleets_++) + ".sock";
    fleet_ = std::make_unique<dist::DistributedEvalService>(space_, dopt);
    const std::string worker =
        (fs::read_symlink("/proc/self/exe").parent_path() / "ppatuner_worker")
            .string();
    for (std::size_t w = 0; w < workers_; ++w) {
      fleet_->spawn_local_worker(worker, {"--oracle", "pdsim", "--dim", "0",
                                          "--seed", std::to_string(kPdsimSeed)});
    }
    if (!fleet_->wait_for_workers(workers_, std::chrono::seconds(20))) {
      throw std::runtime_error("mac_fleet: workers did not connect");
    }
  }

  std::uint64_t seed_;
  std::string out_dir_;
  std::size_t iteration_ = 0;
  std::size_t workers_ = 1;
  std::size_t fleets_ = 0;
  flow::ParameterSpace space_;
  std::vector<flow::Config> configs_;
  tuner::SourceData source_;
  std::unique_ptr<dist::DistributedEvalService> fleet_;
  dist::DistributedStats baseline_;
  std::vector<tuner::TuningResult> results_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"mac_serial", "pool_50k",
                                                  "hls_live", "mac_fleet"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& out_dir) {
  if (name == "mac_serial") return std::make_unique<MacSerial>(seed);
  if (name == "pool_50k") return std::make_unique<Pool50k>(seed);
  if (name == "hls_live") return std::make_unique<HlsLive>(seed, out_dir);
  if (name == "mac_fleet") return std::make_unique<MacFleet>(seed, out_dir);
  return nullptr;
}

}  // namespace perfbench
