// The execution engine's resource and determinism bounds (core/engine.h):
//
//   - CloneFootprint: every built-in shardable sink's clone holds only its
//     own user's slot, so a clone's footprint does not depend on the study
//     size or on which user it runs.
//   - EngineWindow: at most W = 2 × threads user tasks are in flight
//     (clamped to [1, users]; 1 thread runs inline), each holding one chain
//     per scenario — so a pipeline keeps ≤ W chains alive and an S-scenario
//     sweep ≤ W × S — and fault-plan arming — hence retries, skipped users
//     and per-shard attempts — is identical at every thread count.
//   - EngineDecodeOnce: a run replays each user's stream once for all its
//     scenarios — the source's emit_user is called once per user, plus once
//     per retried chain.
//   - KillRecoverFoldSweep: a checkpointed sweep with an account directory
//     killed between user tasks resumes bit-identically to an uninterrupted
//     one, account-file read-back included.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ledger_compare.h"
#include "analysis/case_studies.h"
#include "analysis/longitudinal.h"
#include "analysis/persistence.h"
#include "analysis/time_since_fg.h"
#include "analysis/waste.h"
#include "core/engine.h"
#include "core/pipeline.h"
#include "core/policy.h"
#include "core/sweep.h"
#include "energy/account_cursor.h"
#include "energy/attributor.h"
#include "energy/ledger.h"
#include "fault/plan.h"
#include "radio/burst_machine.h"
#include "sim/generator.h"
#include "sim/study_config.h"
#include "trace/sink.h"
#include "trace/spilling_store.h"
#include "trace/trace_source.h"
#include "util/time.h"

namespace wildenergy {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ clone footprint

/// Forwards one generated user's stream under another user id and study
/// size, so two clones can see the same events as different users.
class Relabel final : public trace::TraceSink {
 public:
  Relabel(trace::TraceSink* downstream, trace::UserId user, std::uint32_t num_users)
      : downstream_(downstream), user_(user), num_users_(num_users) {}

  void on_study_begin(const trace::StudyMeta& meta) override {
    trace::StudyMeta relabeled = meta;
    relabeled.num_users = num_users_;
    downstream_->on_study_begin(relabeled);
  }
  void on_user_begin(trace::UserId) override { downstream_->on_user_begin(user_); }
  void on_batch(const trace::EventBatch& batch) override {
    trace::EventBatch relabeled = batch;
    relabeled.user = user_;
    for (auto& p : relabeled.packets) p.user = user_;
    for (auto& t : relabeled.transitions) t.user = user_;
    downstream_->on_batch(relabeled);
  }
  void on_user_end(trace::UserId) override { downstream_->on_user_end(user_); }
  void on_study_end() override { downstream_->on_study_end(); }

 private:
  trace::TraceSink* downstream_;
  trace::UserId user_;
  std::uint32_t num_users_;
};

/// Stream generated user 0 into `sink` as user `user` of a `num_users` study,
/// energy-annotated unless the sink is itself an attributor.
void feed_one_user(const sim::StudyGenerator& generator, trace::TraceSink& sink,
                   trace::UserId user, std::uint32_t num_users, bool annotate) {
  energy::EnergyAttributor attributor{radio::make_lte_model, &sink};
  Relabel relabel{annotate ? static_cast<trace::TraceSink*>(&attributor) : &sink, user,
                  num_users};
  generator.run_user(0, relabel);
}

TEST(CloneFootprint, ClonesHoldOnlyTheirOwnUserWhateverTheStudySize) {
  sim::StudyConfig cfg = sim::small_study(/*seed=*/5);
  cfg.num_users = 1;
  cfg.num_days = 10;
  const sim::StudyGenerator generator{cfg};
  const std::vector<trace::AppId> tracked{0, 1, 2, 3, 4};

  struct Case {
    const char* name;
    std::function<std::unique_ptr<trace::TraceSink>()> make_parent;
  };
  const std::vector<Case> cases = {
      {"ledger", [] { return std::make_unique<energy::EnergyLedger>(); }},
      {"persistence", [] { return std::make_unique<analysis::PersistenceAnalysis>(); }},
      {"time_since_fg", [] { return std::make_unique<analysis::TimeSinceForegroundAnalysis>(); }},
      {"waste", [&] { return std::make_unique<analysis::WastedUpdateAnalysis>(tracked); }},
      {"case_studies", [&] { return std::make_unique<analysis::CaseStudyAnalysis>(tracked); }},
      {"longitudinal", [&] { return std::make_unique<analysis::LongitudinalAnalysis>(tracked); }},
      {"collector", [] { return std::make_unique<trace::TraceCollector>(); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto parent = c.make_parent();
    auto* shardable = trace::as_shardable(parent.get());
    ASSERT_NE(shardable, nullptr);
    const auto first = shardable->clone_shard();
    const auto last = shardable->clone_shard();
    feed_one_user(generator, *first, /*user=*/0, /*num_users=*/1, /*annotate=*/true);
    feed_one_user(generator, *last, /*user=*/9'999, /*num_users=*/10'000, /*annotate=*/true);
    EXPECT_EQ(first->memory_use().resident_bytes, last->memory_use().resident_bytes);
  }

  // The attributor is not a ShardableSink — chains clone it explicitly.
  trace::TraceMulticast none;
  const energy::EnergyAttributor parent{radio::make_lte_model, &none};
  const auto first = parent.clone_shard(&none);
  const auto last = parent.clone_shard(&none);
  feed_one_user(generator, *first, 0, 1, /*annotate=*/false);
  feed_one_user(generator, *last, 9'999, 10'000, /*annotate=*/false);
  EXPECT_EQ(first->memory_use().resident_bytes, last->memory_use().resident_bytes);
  EXPECT_EQ(first->device_joules(), last->device_joules());
}

// ------------------------------------------------------------- window bound

/// Counts live shard clones (never the parent) and their high-water.
class CloneCounter final : public trace::TraceSink, public trace::ShardableSink {
 public:
  static inline std::atomic<int> live{0};
  static inline std::atomic<int> peak{0};

  static void reset() {
    live = 0;
    peak = 0;
  }
  ~CloneCounter() override {
    if (clone_) live.fetch_sub(1);
  }
  [[nodiscard]] std::unique_ptr<trace::TraceSink> clone_shard() const override {
    auto clone = std::make_unique<CloneCounter>();
    clone->clone_ = true;
    const int now = live.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    return clone;
  }
  void merge_from(trace::TraceSink&) override {}

 private:
  bool clone_ = false;
};

std::size_t window_for(unsigned threads, std::size_t users) {
  return threads <= 1 ? 1 : std::min<std::size_t>(2 * threads, users);
}

TEST(EngineWindow, LiveClonesNeverExceedTheWindow) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    {
      sim::StudyConfig cfg = sim::small_study(/*seed=*/3);
      cfg.num_users = 200;
      cfg.num_days = 1;
      sim::StudyGenerator generator{cfg};
      core::StudyPipeline pipeline{&generator, {{.num_threads = threads}}};
      CloneCounter counter;
      pipeline.add_analysis("counter", &counter);
      CloneCounter::reset();
      ASSERT_TRUE(pipeline.run().ok());
      EXPECT_EQ(CloneCounter::live.load(), 0);
      EXPECT_GE(CloneCounter::peak.load(), 1);
      EXPECT_LE(static_cast<std::size_t>(CloneCounter::peak.load()), window_for(threads, 200));
    }
    {
      sim::StudyConfig cfg = sim::small_study(/*seed=*/4);
      cfg.num_users = 50;
      cfg.num_days = 1;
      sim::StudyGenerator generator{cfg};
      core::SweepEngine sweep{&generator, {{.num_threads = threads}}};
      std::vector<std::unique_ptr<CloneCounter>> counters;
      for (const char* name : {"a", "b", "c"}) {
        counters.push_back(std::make_unique<CloneCounter>());
        core::Scenario scenario;
        scenario.name = name;
        scenario.analyses.emplace_back("counter", counters.back().get());
        sweep.add_scenario(std::move(scenario));
      }
      CloneCounter::reset();
      ASSERT_TRUE(sweep.run().ok());
      EXPECT_EQ(CloneCounter::live.load(), 0);
      // Each user task holds one chain per scenario.
      EXPECT_LE(static_cast<std::size_t>(CloneCounter::peak.load()),
                window_for(threads, 50) * counters.size());
    }
  }
}

/// Per-scenario failure accounting a sweep reports.
struct FaultOutcome {
  std::uint64_t shard_retries = 0;
  std::vector<std::uint64_t> failed_users;
  std::vector<unsigned> attempts;  ///< per shard row, stream order
  double joules = 0.0;

  bool operator==(const FaultOutcome&) const = default;
};

std::vector<FaultOutcome> run_faulted_sweep(const fault::ShardFaultSpec& spec,
                                            unsigned max_retries, unsigned threads) {
  fault::FaultPlan plan;
  plan.add(spec);
  core::SweepOptions options;
  options.num_threads = threads;
  options.failure_policy = core::FailurePolicy::kRetryThenSkip;
  options.max_shard_retries = max_retries;
  options.fault_plan = &plan;
  sim::StudyConfig cfg = sim::small_study(/*seed=*/19);
  cfg.num_days = 20;
  sim::StudyGenerator generator{cfg};
  core::SweepEngine sweep{&generator, options};
  sweep.add_scenario({.name = "baseline"});
  sweep.add_scenario({.name = "kill-3d", .policy = [](trace::TraceSink* d) {
                        return std::make_unique<core::KillAfterIdlePolicy>(d, days(3.0));
                      }});
  sweep.add_scenario({.name = "doze", .policy = [](trace::TraceSink* d) {
                        return std::make_unique<core::DozeLikePolicy>(d);
                      }});
  const auto stats = sweep.run();
  EXPECT_TRUE(stats.ok());
  std::vector<FaultOutcome> out;
  for (const auto& result : sweep.results()) {
    FaultOutcome o{result.stats.shard_retries, result.stats.failed_users, {},
                   result.ledger.total_joules()};
    for (const auto& shard : result.stats.shards) o.attempts.push_back(shard.attempts);
    out.push_back(o);
  }
  return out;
}

TEST(EngineWindow, SweepFaultArmingIsIdenticalAtEveryThreadCount) {
  struct Script {
    const char* name;
    fault::ShardFaultSpec spec;
    unsigned max_retries;
  };
  // A transient fault, an exhausted one, and one whose armed attempts span
  // scenarios — which only stays deterministic because the calling thread
  // builds a user's chains in scenario order, then its retries in scenario
  // order.
  const std::vector<Script> scripts = {
      {"transient", {/*user=*/1, /*nth_callback=*/40, /*fail_attempts=*/1}, 2},
      {"exhausted", {/*user=*/2, /*nth_callback=*/10, /*fail_attempts=*/99}, 2},
      {"spanning", {/*user=*/3, /*nth_callback=*/5, /*fail_attempts=*/3}, 1},
  };
  for (const Script& script : scripts) {
    SCOPED_TRACE(script.name);
    const auto reference = run_faulted_sweep(script.spec, script.max_retries, 1);
    ASSERT_EQ(reference.size(), 3u);
    for (const unsigned threads : {2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      EXPECT_TRUE(run_faulted_sweep(script.spec, script.max_retries, threads) == reference);
    }
  }
  // The spanning script: user 3's task builds its three chains as attempts
  // 1-3, all armed; the retries rebuild them in scenario order as attempts
  // 4-6, all clean. Each scenario retries once and none skips the user.
  const auto spanning = run_faulted_sweep(scripts[2].spec, scripts[2].max_retries, 8);
  for (const FaultOutcome& outcome : spanning) {
    EXPECT_EQ(outcome.shard_retries, 1u);
    EXPECT_TRUE(outcome.failed_users.empty());
  }
}

// ---------------------------------------------------------- decode once

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("wildenergy_engine_" + name);
  fs::remove_all(dir);
  return dir;
}

/// Counts emit_user() calls per user over a wrapped source.
class CountingSource final : public trace::TraceSource {
 public:
  explicit CountingSource(trace::TraceSource& inner) : inner_(inner) {}

  util::Status emit(trace::TraceSink& sink, std::size_t batch_size) override {
    return inner_.emit(sink, batch_size);
  }
  [[nodiscard]] trace::StudyMeta meta() const override { return inner_.meta(); }
  [[nodiscard]] bool supports_user_access() const override {
    return inner_.supports_user_access();
  }
  [[nodiscard]] std::vector<trace::UserId> users() const override { return inner_.users(); }
  util::Status emit_user(trace::UserId user, trace::TraceSink& sink,
                         std::size_t batch_size) override {
    {
      const std::lock_guard<std::mutex> lock{mu_};
      ++calls_[user];
    }
    return inner_.emit_user(user, sink, batch_size);
  }

  [[nodiscard]] std::map<trace::UserId, unsigned> calls() const {
    const std::lock_guard<std::mutex> lock{mu_};
    return calls_;
  }

 private:
  trace::TraceSource& inner_;
  mutable std::mutex mu_;
  std::map<trace::UserId, unsigned> calls_;
};

/// What one engine scenario needs alive while the engine runs.
struct EngineParts {
  energy::EnergyLedger ledger;
  trace::TraceMulticast none;
  energy::EnergyAttributor attributor{radio::make_lte_model, &none};
  energy::AccountSpill spill{energy::AccountSpill::Options{}};
  obs::RunStats stats;
};

/// Run `num_scenarios` scenarios (baseline, kill-3d, doze, ...) over
/// `source` through the engine; the per-scenario stats land in `parts`.
void run_engine(trace::TraceSource& source, std::size_t num_scenarios,
                const core::RunOptions& options,
                std::vector<std::unique_ptr<EngineParts>>& parts) {
  const std::vector<core::PolicyFactory> policies = {
      {},
      [](trace::TraceSink* d) { return std::make_unique<core::KillAfterIdlePolicy>(d, days(3.0)); },
      [](trace::TraceSink* d) { return std::make_unique<core::DozeLikePolicy>(d); },
  };
  parts.clear();
  std::vector<core::internal::EngineScenario> scenarios(num_scenarios);
  for (std::size_t si = 0; si < num_scenarios; ++si) {
    parts.push_back(std::make_unique<EngineParts>());
    core::internal::EngineScenario& sc = scenarios[si];
    sc.name = "s" + std::to_string(si);
    sc.attributor = &parts.back()->attributor;
    sc.policy = policies[si % policies.size()];
    sc.sinks.emplace_back("ledger", &parts.back()->ledger);
    sc.spill = &parts.back()->spill;
    sc.stats = &parts.back()->stats;
  }
  const auto run = core::internal::run_scenarios(source, scenarios, options);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
}

/// A small generated study sealed into WESG segments, one per user.
struct SealedStudy {
  fs::path dir;
  trace::SpillingTraceStore store;

  explicit SealedStudy(const std::string& name)
      : dir(scratch_dir(name)), store({.dir = dir.string(), .budget_bytes = 0}) {
    sim::StudyConfig cfg = sim::small_study(/*seed=*/29);
    cfg.num_days = 5;
    sim::StudyGenerator generator{cfg};
    EXPECT_TRUE(store.capture(generator, 512, 1).ok());
    EXPECT_GT(store.num_segments(), 1u);
  }
  ~SealedStudy() { fs::remove_all(dir); }
};

TEST(EngineDecodeOnce, EachUserIsReplayedOnceForEveryScenario) {
  SealedStudy sealed{"decode_once"};
  const std::vector<trace::UserId> users = sealed.store.users();
  for (const std::size_t num_scenarios : {std::size_t{1}, std::size_t{3}}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::to_string(num_scenarios) + " scenario(s), threads=" +
                   std::to_string(threads));
      CountingSource source{sealed.store};
      core::RunOptions options;
      options.num_threads = threads;
      std::vector<std::unique_ptr<EngineParts>> parts;
      run_engine(source, num_scenarios, options, parts);
      const auto calls = source.calls();
      ASSERT_EQ(calls.size(), users.size());
      for (const trace::UserId user : users) {
        EXPECT_EQ(calls.at(user), 1u) << "user " << user;
      }
      for (const auto& p : parts) EXPECT_GT(p->stats.packets, 0u);
    }
  }
}

TEST(EngineDecodeOnce, EachRetriedChainAddsOneReplay) {
  SealedStudy sealed{"decode_once_retry"};
  struct Script {
    const char* name;
    fault::ShardFaultSpec spec;
    unsigned max_retries;
  };
  // Scenario order builds user 1's chains as attempts 1-3: two armed
  // chains retry once each; the always-failing user retries every chain.
  const std::vector<Script> scripts = {
      {"two armed chains", {/*user=*/1, /*nth_callback=*/3, /*fail_attempts=*/2}, 2},
      {"exhausted", {/*user=*/2, /*nth_callback=*/3, /*fail_attempts=*/99}, 1},
  };
  for (const Script& script : scripts) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::string{script.name} + ", threads=" + std::to_string(threads));
      fault::FaultPlan plan;
      plan.add(script.spec);
      core::RunOptions options;
      options.num_threads = threads;
      options.failure_policy = core::FailurePolicy::kRetryThenSkip;
      options.max_shard_retries = script.max_retries;
      options.fault_plan = &plan;
      CountingSource source{sealed.store};
      std::vector<std::unique_ptr<EngineParts>> parts;
      run_engine(source, 3, options, parts);
      std::map<trace::UserId, unsigned> retries;
      std::uint64_t total_retries = 0;
      for (const auto& p : parts) {
        total_retries += p->stats.shard_retries;
        for (const auto& row : p->stats.shards) {
          retries[static_cast<trace::UserId>(row.user)] += row.attempts - 1;
        }
      }
      EXPECT_GT(total_retries, 0u);
      for (const auto& [user, count] : source.calls()) {
        EXPECT_EQ(count, 1u + retries[user]) << "user " << user;
      }
      const unsigned expected_retries = script.spec.fail_attempts == 2 ? 2u : 3u;
      EXPECT_EQ(total_retries, expected_retries);
      EXPECT_EQ(source.calls().at(script.spec.user), 1u + expected_retries);
    }
  }
}

// ------------------------------------------------ checkpointed fold sweeps

struct FoldSweep {
  analysis::PersistenceAnalysis baseline_persist;
  analysis::PersistenceAnalysis killed_persist;
  std::unique_ptr<core::SweepEngine> sweep;

  FoldSweep(sim::StudyGenerator* generator, core::SweepOptions options) {
    sweep = std::make_unique<core::SweepEngine>(generator, std::move(options));
    core::Scenario baseline;
    baseline.name = "baseline";
    baseline.analyses.emplace_back("persistence", &baseline_persist);
    sweep->add_scenario(std::move(baseline));
    core::Scenario killed;
    killed.name = "kill-3d";
    killed.policy = [](trace::TraceSink* d) {
      return std::make_unique<core::KillAfterIdlePolicy>(d, days(3.0));
    };
    killed.analyses.emplace_back("persistence", &killed_persist);
    sweep->add_scenario(std::move(killed));
  }
};

TEST(KillRecoverFoldSweep, ResumedFoldSweepBitIdenticalAtEveryThreadCount) {
  sim::StudyConfig cfg = sim::small_study(/*seed=*/23);
  cfg.num_days = 30;
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const fs::path reference_accounts = scratch_dir("ref_accounts_t" + std::to_string(threads));
    const fs::path ckpt_dir = scratch_dir("ckpt_t" + std::to_string(threads));
    const fs::path accounts = scratch_dir("accounts_t" + std::to_string(threads));
    core::SweepOptions base;
    base.num_threads = threads;
    base.account_budget_bytes = 8 * 1024;  // several sealed files per scenario

    // Reference: the same fold sweep, uninterrupted and unchecked.
    sim::StudyGenerator reference_gen{cfg};
    core::SweepOptions reference_options = base;
    reference_options.account_dir = reference_accounts.string();
    FoldSweep reference{&reference_gen, reference_options};
    ASSERT_TRUE(reference.sweep->run().ok());

    // Kill: one snapshot per settled user task, each covering both
    // scenarios, so write 4 lands after user 3.
    fault::FaultPlan plan;
    plan.add_checkpoint_fault(fault::parse_checkpoint_fault_spec("nth=4,kind=hard-stop").value());
    {
      sim::StudyGenerator killed_gen{cfg};
      core::SweepOptions options = base;
      options.account_dir = accounts.string();
      options.checkpoint_dir = ckpt_dir.string();
      options.checkpoint_every_users = 1;
      options.fault_plan = &plan;
      FoldSweep killed{&killed_gen, options};
      EXPECT_THROW((void)killed.sweep->run(), fault::ShardFault);
    }

    sim::StudyGenerator resumed_gen{cfg};
    core::SweepOptions options = base;
    options.account_dir = accounts.string();
    options.checkpoint_dir = ckpt_dir.string();
    options.resume = true;
    FoldSweep resumed{&resumed_gen, options};
    const auto stats = resumed.sweep->run();
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    EXPECT_EQ(stats->resumed_users, 4u);

    for (std::size_t i = 0; i < 2; ++i) {
      const core::ScenarioResult& a = reference.sweep->results()[i];
      const core::ScenarioResult& b = resumed.sweep->results()[i];
      SCOPED_TRACE(a.name);
      EXPECT_EQ(a.ledger.total_joules(), b.ledger.total_joules());
      EXPECT_EQ(a.ledger.total_bytes(), b.ledger.total_bytes());
      EXPECT_EQ(b.ledger.num_accounts(), 0u);  // every slab folded and released
      EXPECT_EQ(a.stats.radio_promotions, b.stats.radio_promotions);
      EXPECT_EQ(a.stats.off_interface_bytes, b.stats.off_interface_bytes);
      expect_identical_rows(cursor_accounts(a.ledger), cursor_accounts(b.ledger));
    }
    for (const trace::AppId app : reference.baseline_persist.tracked_apps()) {
      const auto ra = reference.killed_persist.durations(app).sorted_samples();
      const auto rb = resumed.killed_persist.durations(app).sorted_samples();
      ASSERT_TRUE(resumed.killed_persist.hydrate_status().ok());
      EXPECT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()));
    }
    fs::remove_all(reference_accounts);
    fs::remove_all(ckpt_dir);
    fs::remove_all(accounts);
  }
}

}  // namespace
}  // namespace wildenergy
