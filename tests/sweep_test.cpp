// Scenario sweep engine (core/sweep.h) and the trace layer behind it
// (trace/trace_source.h, trace/spilling_store.h).
//
// The hard requirements under test:
//   - TraceSource conformance: the generator, the CSV reader, and a resident
//     SpillingTraceStore emit byte-identical canonical streams for the same
//     study.
//   - Store replay == live generation: a pipeline fed from a captured store
//     produces EXPECT_EQ-identical ledgers, figures, and analyses.
//   - A K-scenario sweep == K independent StudyPipeline runs, scenario by
//     scenario, for every thread count.
//   - Retry-then-skip semantics per scenario under scripted shard faults.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ledger_compare.h"
#include "analysis/case_studies.h"
#include "analysis/figures.h"
#include "analysis/longitudinal.h"
#include "analysis/persistence.h"
#include "analysis/time_since_fg.h"
#include "analysis/waste.h"
#include "core/pipeline.h"
#include "core/policy.h"
#include "core/sweep.h"
#include "energy/attributor.h"
#include "energy/ledger.h"
#include "fault/plan.h"
#include "radio/burst_machine.h"
#include "sim/generator.h"
#include "sim/study_config.h"
#include "trace/batch.h"
#include "trace/csv_io.h"
#include "trace/sink.h"
#include "trace/trace_source.h"
#include "trace/spilling_store.h"
#include "util/time.h"

namespace wildenergy {
namespace {

// ------------------------------------------------------- stream comparison

void expect_identical_streams(const trace::TraceCollector& a, const trace::TraceCollector& b) {
  EXPECT_EQ(a.meta().num_users, b.meta().num_users);
  EXPECT_EQ(a.meta().num_apps, b.meta().num_apps);
  EXPECT_EQ(a.meta().study_begin.us, b.meta().study_begin.us);
  EXPECT_EQ(a.meta().study_end.us, b.meta().study_end.us);
  ASSERT_EQ(a.packets().size(), b.packets().size());
  for (std::size_t i = 0; i < a.packets().size(); ++i) {
    const trace::PacketRecord& pa = a.packets()[i];
    const trace::PacketRecord& pb = b.packets()[i];
    ASSERT_EQ(pa.time.us, pb.time.us);
    ASSERT_EQ(pa.user, pb.user);
    ASSERT_EQ(pa.app, pb.app);
    ASSERT_EQ(pa.flow, pb.flow);
    ASSERT_EQ(pa.bytes, pb.bytes);
    ASSERT_EQ(pa.direction, pb.direction);
    ASSERT_EQ(pa.interface, pb.interface);
    ASSERT_EQ(pa.state, pb.state);
    ASSERT_EQ(pa.joules, pb.joules);
  }
  ASSERT_EQ(a.transitions().size(), b.transitions().size());
  for (std::size_t i = 0; i < a.transitions().size(); ++i) {
    const trace::StateTransition& ta = a.transitions()[i];
    const trace::StateTransition& tb = b.transitions()[i];
    ASSERT_EQ(ta.time.us, tb.time.us);
    ASSERT_EQ(ta.user, tb.user);
    ASSERT_EQ(ta.app, tb.app);
    ASSERT_EQ(ta.from, tb.from);
    ASSERT_EQ(ta.to, tb.to);
  }
}

// --------------------------------------------------- output comparison kit
// Same assertions as parallel_pipeline_test.cpp: EXPECT_EQ everywhere, never
// NEAR — replay must be bit-identical, not merely close.

void expect_identical_figures(const energy::EnergyLedger& a, const energy::EnergyLedger& b) {
  const auto pop_a = analysis::top10_popularity(a);
  const auto pop_b = analysis::top10_popularity(b);
  ASSERT_EQ(pop_a.size(), pop_b.size());
  for (std::size_t i = 0; i < pop_a.size(); ++i) {
    EXPECT_EQ(pop_a[i].app, pop_b[i].app);
    EXPECT_EQ(pop_a[i].users_with_app_in_top10, pop_b[i].users_with_app_in_top10);
  }
  for (const bool by_energy : {false, true}) {
    const auto cons_a =
        by_energy ? analysis::top_consumers_by_energy(a) : analysis::top_consumers_by_data(a);
    const auto cons_b =
        by_energy ? analysis::top_consumers_by_energy(b) : analysis::top_consumers_by_data(b);
    ASSERT_EQ(cons_a.size(), cons_b.size());
    for (std::size_t i = 0; i < cons_a.size(); ++i) {
      EXPECT_EQ(cons_a[i].app, cons_b[i].app);
      EXPECT_EQ(cons_a[i].bytes, cons_b[i].bytes);
      EXPECT_EQ(cons_a[i].joules, cons_b[i].joules);
    }
  }
  const auto brk_a = analysis::overall_state_breakdown(a);
  const auto brk_b = analysis::overall_state_breakdown(b);
  EXPECT_EQ(brk_a.total_joules, brk_b.total_joules);
  for (std::size_t s = 0; s < brk_a.fraction.size(); ++s) {
    EXPECT_EQ(brk_a.fraction[s], brk_b.fraction[s]);
  }
}

/// Every paper analysis plus a raw-stream collector. All of these sinks are
/// shardable now, so sweep comparisons cover the dense-merge path for every
/// sink kind (persistence, time-since-fg, waste, cases, longitudinal) and
/// verify the collector reassembles the exact serial stream.
struct AnalysisSet {
  std::vector<trace::AppId> tracked{0, 1, 2, 3, 4};
  analysis::PersistenceAnalysis persistence;
  analysis::TimeSinceForegroundAnalysis time_since_fg;
  analysis::WastedUpdateAnalysis waste{tracked};
  analysis::CaseStudyAnalysis cases{tracked};
  analysis::LongitudinalAnalysis longitudinal{tracked};
  trace::TraceCollector collector;

  void attach(core::StudyPipeline& pipeline) {
    pipeline.add_analysis("persistence", &persistence);
    pipeline.add_analysis("time_since_fg", &time_since_fg);
    pipeline.add_analysis("waste", &waste);
    pipeline.add_analysis("cases", &cases);
    pipeline.add_analysis("longitudinal", &longitudinal);
    pipeline.add_analysis("collector", &collector);
  }

  void attach(core::Scenario& scenario) {
    scenario.analyses.emplace_back("persistence", &persistence);
    scenario.analyses.emplace_back("time_since_fg", &time_since_fg);
    scenario.analyses.emplace_back("waste", &waste);
    scenario.analyses.emplace_back("cases", &cases);
    scenario.analyses.emplace_back("longitudinal", &longitudinal);
    scenario.analyses.emplace_back("collector", &collector);
  }
};

void expect_identical_analyses(AnalysisSet& a, AnalysisSet& b) {
  for (const trace::AppId app : a.tracked) {
    auto sa = a.persistence.durations(app).sorted_samples();
    auto sb = b.persistence.durations(app).sorted_samples();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
    const auto wa = a.waste.result(app);
    const auto wb = b.waste.result(app);
    EXPECT_EQ(wa.updates, wb.updates);
    EXPECT_EQ(wa.wasted_updates, wb.wasted_updates);
    EXPECT_EQ(wa.joules, wb.joules);
    EXPECT_EQ(wa.wasted_joules, wb.wasted_joules);
    const auto ca = a.cases.result(app);
    const auto cb = b.cases.result(app);
    EXPECT_EQ(ca.joules_total, cb.joules_total);
    EXPECT_EQ(ca.bytes_total, cb.bytes_total);
    EXPECT_EQ(ca.flows, cb.flows);
    EXPECT_EQ(ca.days_active, cb.days_active);
    EXPECT_EQ(ca.early_period_s, cb.early_period_s);
    EXPECT_EQ(ca.late_period_s, cb.late_period_s);
    const auto ea = a.longitudinal.era_comparison(app);
    const auto eb = b.longitudinal.era_comparison(app);
    EXPECT_EQ(ea.early_uj_per_byte, eb.early_uj_per_byte);
    EXPECT_EQ(ea.late_uj_per_byte, eb.late_uj_per_byte);
  }
  const auto ha = a.time_since_fg.bytes_histogram().masses();
  const auto hb = b.time_since_fg.bytes_histogram().masses();
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i) EXPECT_EQ(ha[i], hb[i]);
  EXPECT_EQ(a.time_since_fg.fraction_of_apps_frontloaded(),
            b.time_since_fg.fraction_of_apps_frontloaded());
  ASSERT_EQ(a.longitudinal.overall().weeks(), b.longitudinal.overall().weeks());
  for (std::size_t w = 0; w < a.longitudinal.overall().weeks(); ++w) {
    EXPECT_EQ(a.longitudinal.overall().fg_joules[w], b.longitudinal.overall().fg_joules[w]);
    EXPECT_EQ(a.longitudinal.overall().bg_joules[w], b.longitudinal.overall().bg_joules[w]);
  }
  expect_identical_streams(a.collector, b.collector);
}

// ----------------------------------------------- TraceSource conformance

TEST(TraceSourceConformance, GeneratorStoreAndReadersEmitIdenticalStreams) {
  sim::StudyGenerator generator{sim::small_study(/*seed=*/3)};

  trace::TraceCollector baseline;
  ASSERT_TRUE(generator.emit(baseline, /*batch_size=*/1).ok());
  ASSERT_GT(baseline.packets().size(), 0u);
  EXPECT_TRUE(generator.supports_user_access());
  const auto ids = generator.users();
  ASSERT_EQ(ids.size(), generator.config().num_users);
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);

  // A store with no directory: capture once, replay identically from RAM.
  trace::SpillingTraceStore store;
  ASSERT_TRUE(store.capture(generator).ok());
  EXPECT_TRUE(store.supports_user_access());
  EXPECT_EQ(store.num_users(), generator.config().num_users);
  EXPECT_EQ(store.event_count(), baseline.packets().size() + baseline.transitions().size());
  EXPECT_GT(store.memory_use().resident_bytes, 0u);
  EXPECT_EQ(store.memory_use().spilled_bytes, 0u);
  trace::TraceCollector from_store;
  ASSERT_TRUE(store.emit(from_store, trace::kDefaultBatchSize).ok());
  expect_identical_streams(baseline, from_store);

  // CSV reader: forward-only source over a serialized copy; rewindable.
  std::ostringstream csv_text;
  {
    trace::CsvTraceWriter writer{csv_text};
    generator.run(writer);
  }
  std::istringstream csv_in{csv_text.str()};
  trace::CsvTraceSource csv_source{csv_in};
  EXPECT_FALSE(csv_source.supports_user_access());
  EXPECT_EQ(csv_source.meta().num_users, 0u);  // header not seen yet
  trace::TraceCollector from_csv;
  ASSERT_TRUE(csv_source.emit(from_csv, /*batch_size=*/7).ok());
  EXPECT_EQ(csv_source.meta().num_users, generator.config().num_users);
  EXPECT_FALSE(csv_source.summary().degraded());
  expect_identical_streams(baseline, from_csv);
  trace::TraceCollector csv_again;
  ASSERT_TRUE(csv_source.emit(csv_again, /*batch_size=*/1).ok());  // seekable: rewinds
  expect_identical_streams(baseline, csv_again);
}

TEST(TraceSourceConformance, EmitUserStreamsOneBracketedUser) {
  sim::StudyGenerator generator{sim::small_study(/*seed=*/4)};
  trace::SpillingTraceStore store;
  ASSERT_TRUE(store.capture(generator).ok());

  for (const trace::UserId user : store.users()) {
    trace::TraceCollector from_generator;
    trace::TraceCollector from_store;
    ASSERT_TRUE(generator.emit_user(user, from_generator, /*batch_size=*/1).ok());
    ASSERT_TRUE(store.emit_user(user, from_store, /*batch_size=*/5).ok());
    expect_identical_streams(from_generator, from_store);
    for (const auto& p : from_store.packets()) EXPECT_EQ(p.user, user);
    for (const auto& t : from_store.transitions()) EXPECT_EQ(t.user, user);
  }
  trace::TraceCollector unused;
  const util::Status missing = store.emit_user(/*user=*/9999, unused, 1);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), util::StatusCode::kNotFound);
}

TEST(TraceStore, ReplayIsBatchSizeInvariant) {
  sim::StudyGenerator generator{sim::small_study(/*seed=*/5)};
  trace::SpillingTraceStore store;
  ASSERT_TRUE(store.capture(generator, /*batch_size=*/64).ok());

  trace::TraceCollector one_by_one;
  ASSERT_TRUE(store.emit(one_by_one, 1).ok());
  for (const std::size_t batch_size : {std::size_t{3}, trace::kDefaultBatchSize,
                                       std::size_t{1u << 20}}) {
    trace::TraceCollector batched;
    ASSERT_TRUE(store.emit(batched, batch_size).ok());
    expect_identical_streams(one_by_one, batched);
  }
}

TEST(TraceStore, BatchedAndPerRecordCaptureProduceTheSameStore) {
  sim::StudyGenerator generator{sim::small_study(/*seed=*/6)};
  trace::SpillingTraceStore batched;
  trace::SpillingTraceStore one_by_one;
  ASSERT_TRUE(batched.capture(generator, /*batch_size=*/33).ok());
  ASSERT_TRUE(one_by_one.capture(generator, /*batch_size=*/1).ok());
  ASSERT_EQ(batched.num_users(), one_by_one.num_users());
  EXPECT_EQ(batched.event_count(), one_by_one.event_count());
  trace::TraceCollector a;
  trace::TraceCollector b;
  ASSERT_TRUE(batched.emit(a, 1).ok());
  ASSERT_TRUE(one_by_one.emit(b, 1).ok());
  expect_identical_streams(a, b);
}

// ----------------------------------------- store replay == live generation

TEST(TraceStore, PipelineOverStoreMatchesLiveGeneration) {
  const sim::StudyConfig config = sim::small_study(/*seed=*/7);

  sim::StudyGenerator live_gen{config};
  core::StudyPipeline live{&live_gen};
  AnalysisSet live_set;
  live_set.attach(live);
  const auto live_stats = live.run();
  ASSERT_TRUE(live_stats.ok());
  ASSERT_GT(live.ledger().total_joules(), 0.0);

  sim::StudyGenerator generator{config};
  trace::SpillingTraceStore store;
  ASSERT_TRUE(store.capture(generator).ok());
  core::StudyPipeline replayed{&store};
  AnalysisSet replay_set;
  replay_set.attach(replayed);
  const auto replay_stats = replayed.run();
  ASSERT_TRUE(replay_stats.ok());
  EXPECT_EQ(replay_stats->users, live_stats->users);
  EXPECT_EQ(replay_stats->packets, live_stats->packets);

  expect_identical_ledgers(live.ledger(), replayed.ledger());
  expect_identical_figures(live.ledger(), replayed.ledger());
  expect_identical_analyses(live_set, replay_set);
}

TEST(TraceStore, ShardedPipelineOverStoreMatchesLiveGeneration) {
  const sim::StudyConfig config = sim::small_study(/*seed=*/8);

  sim::StudyGenerator live_gen{config};
  core::StudyPipeline live{&live_gen};
  live.run();

  sim::StudyGenerator generator{config};
  trace::SpillingTraceStore store;
  ASSERT_TRUE(store.capture(generator).ok());
  core::PipelineOptions options;
  options.num_threads = 4;
  core::StudyPipeline replayed{&store, options};
  const auto stats = replayed.run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_threads, 4u);
  expect_identical_ledgers(live.ledger(), replayed.ledger());
}

// Forward-only reader sources run the serial engine even when threads are
// requested, and still match live generation.
TEST(TraceSourcePipeline, CsvReaderSourceRunsSerialAndMatches) {
  const sim::StudyConfig config = sim::small_study(/*seed=*/9);
  sim::StudyGenerator live_gen{config};
  core::StudyPipeline live{&live_gen};
  live.run();

  std::ostringstream csv_text;
  {
    trace::CsvTraceWriter writer{csv_text};
    sim::StudyGenerator generator{config};
    generator.run(writer);
  }
  std::istringstream csv_in{csv_text.str()};
  trace::CsvTraceSource source{csv_in};
  core::PipelineOptions options;
  options.num_threads = 8;  // ignored: the reader is forward-only
  core::StudyPipeline replayed{&source, options};
  const auto stats = replayed.run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_threads, 1u);
  expect_identical_ledgers(live.ledger(), replayed.ledger());
}

// --------------------------------- sweep == K independent pipeline runs

struct ScenarioSpec {
  std::string name;
  core::PolicyFactory policy;
  energy::RadioModelFactory radio_factory;
  energy::TailPolicy tail_policy = energy::TailPolicy::kLastPacket;
};

std::vector<ScenarioSpec> test_scenarios() {
  std::vector<ScenarioSpec> specs;
  specs.push_back({"baseline", {}, {}, energy::TailPolicy::kLastPacket});
  specs.push_back({"kill-3d",
                   [](trace::TraceSink* d) {
                     return std::make_unique<core::KillAfterIdlePolicy>(d, days(3.0));
                   },
                   {},
                   energy::TailPolicy::kLastPacket});
  specs.push_back({"doze", [](trace::TraceSink* d) { return std::make_unique<core::DozeLikePolicy>(d); },
                   {}, energy::TailPolicy::kLastPacket});
  specs.push_back({"fast-dormancy-proportional", {}, radio::make_lte_fast_dormancy_model,
                   energy::TailPolicy::kProportional});
  return specs;
}

TEST(SweepEngine, MatchesIndependentPipelineRunsPerScenario) {
  const sim::StudyConfig config = sim::small_study(/*seed=*/13);
  const auto specs = test_scenarios();

  // K independent pipelines, each regenerating the study from scratch.
  std::vector<std::unique_ptr<sim::StudyGenerator>> pipeline_gens;
  std::vector<std::unique_ptr<core::StudyPipeline>> pipelines;
  std::vector<std::unique_ptr<AnalysisSet>> pipeline_sets;
  std::vector<obs::RunStats> pipeline_stats;
  for (const auto& spec : specs) {
    core::PipelineOptions options;
    options.radio_factory = spec.radio_factory;
    options.tail_policy = spec.tail_policy;
    pipeline_gens.push_back(std::make_unique<sim::StudyGenerator>(config));
    auto pipeline = std::make_unique<core::StudyPipeline>(pipeline_gens.back().get(), options);
    if (spec.policy) pipeline->set_policy(spec.policy);
    pipeline_sets.push_back(std::make_unique<AnalysisSet>());
    pipeline_sets.back()->attach(*pipeline);
    const auto run = pipeline->run();
    ASSERT_TRUE(run.ok());
    pipeline_stats.push_back(run.value());
    pipelines.push_back(std::move(pipeline));
  }

  // One sweep: simulate once, replay K times.
  sim::StudyGenerator generator{config};
  core::SweepEngine sweep{&generator};
  std::vector<std::unique_ptr<AnalysisSet>> sweep_sets;
  for (const auto& spec : specs) {
    core::Scenario scenario;
    scenario.name = spec.name;
    scenario.policy = spec.policy;
    scenario.radio_factory = spec.radio_factory;
    scenario.tail_policy = spec.tail_policy;
    sweep_sets.push_back(std::make_unique<AnalysisSet>());
    sweep_sets.back()->attach(scenario);
    sweep.add_scenario(std::move(scenario));
  }
  const auto stats = sweep.run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->users, config.num_users);
  EXPECT_GT(sweep.store().event_count(), 0u);
  ASSERT_EQ(sweep.results().size(), specs.size());

  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].name);
    const core::ScenarioResult* result = sweep.result(specs[i].name);
    ASSERT_NE(result, nullptr);
    EXPECT_TRUE(result->status.ok());
    expect_identical_ledgers(pipelines[i]->ledger(), result->ledger);
    expect_identical_figures(pipelines[i]->ledger(), result->ledger);
    expect_identical_analyses(*pipeline_sets[i], *sweep_sets[i]);
    // Per-scenario RunStats counters match the standalone run too.
    const obs::RunStats& expect = pipeline_stats[i];
    EXPECT_EQ(result->stats.packets, expect.packets);
    EXPECT_EQ(result->stats.bytes, expect.bytes);
    EXPECT_EQ(result->stats.joules, expect.joules);
    EXPECT_EQ(result->stats.transitions, expect.transitions);
    EXPECT_EQ(result->stats.tail_attributions, expect.tail_attributions);
    EXPECT_EQ(result->stats.radio_bursts, expect.radio_bursts);
    EXPECT_EQ(result->stats.radio_promotions, expect.radio_promotions);
  }
}

TEST(SweepEngine, ThreadCountsProduceBitIdenticalScenarios) {
  const sim::StudyConfig config = sim::small_study(/*seed=*/17);
  const auto specs = test_scenarios();

  // One generator; each engine captures it into its own resident store.
  sim::StudyGenerator generator{config};

  std::vector<energy::EnergyLedger> reference;
  std::unique_ptr<std::vector<std::unique_ptr<AnalysisSet>>> reference_sets;
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    core::SweepOptions options;
    options.num_threads = threads;
    core::SweepEngine sweep{&generator, options};
    auto sets = std::make_unique<std::vector<std::unique_ptr<AnalysisSet>>>();
    for (const auto& spec : specs) {
      core::Scenario scenario;
      scenario.name = spec.name;
      scenario.policy = spec.policy;
      scenario.radio_factory = spec.radio_factory;
      scenario.tail_policy = spec.tail_policy;
      sets->push_back(std::make_unique<AnalysisSet>());
      sets->back()->attach(scenario);
      sweep.add_scenario(std::move(scenario));
    }
    const auto stats = sweep.run();
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(sweep.results().size(), specs.size());
    // Every attached analysis (including the collector) is shardable, so no
    // scenario needs a collect-splice adapter at any thread count.
    for (const auto& result : sweep.results()) {
      EXPECT_EQ(result.stats.serial_fallback_sinks, 0u);
    }
    if (reference.empty()) {
      for (const auto& result : sweep.results()) reference.push_back(result.ledger);
      reference_sets = std::move(sets);
    } else {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].name);
        expect_identical_ledgers(reference[i], sweep.results()[i].ledger);
        expect_identical_analyses(*(*reference_sets)[i], *(*sets)[i]);
      }
    }
  }
}

// ------------------------------------------- fault handling per scenario

TEST(SweepEngine, RetryRecoversMidScenarioFault) {
  const sim::StudyConfig config = sim::small_study(/*seed=*/19);

  // Fault-free reference for both scenarios.
  sim::StudyGenerator baseline_gen{config};
  core::StudyPipeline baseline{&baseline_gen};
  baseline.run();
  sim::StudyGenerator killed_gen{config};
  core::StudyPipeline killed{&killed_gen};
  killed.set_policy(
      [](trace::TraceSink* d) { return std::make_unique<core::KillAfterIdlePolicy>(d, days(3.0)); });
  killed.run();

  // One transient fault: user 1 throws mid-stream on its first attempt only.
  // Chains build in scenario order, so scenario 0 absorbs the armed attempt
  // and its retry (a fresh, disarmed build) must recover bit-identically.
  fault::FaultPlan plan;
  plan.add({/*user=*/1, /*nth_callback=*/40, /*fail_attempts=*/1});
  core::SweepOptions options;
  options.failure_policy = core::FailurePolicy::kRetryThenSkip;
  options.fault_plan = &plan;
  options.num_threads = 2;

  sim::StudyGenerator generator{config};
  core::SweepEngine sweep{&generator, options};
  core::Scenario s_baseline;
  s_baseline.name = "baseline";
  sweep.add_scenario(std::move(s_baseline));
  core::Scenario s_killed;
  s_killed.name = "kill-3d";
  s_killed.policy = [](trace::TraceSink* d) {
    return std::make_unique<core::KillAfterIdlePolicy>(d, days(3.0));
  };
  sweep.add_scenario(std::move(s_killed));
  const auto stats = sweep.run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->shard_retries, 1u);

  const core::ScenarioResult* s0 = sweep.result("baseline");
  const core::ScenarioResult* s1 = sweep.result("kill-3d");
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s0->stats.shard_retries, 1u);
  EXPECT_TRUE(s0->stats.failed_users.empty());
  EXPECT_TRUE(s1->stats.failed_users.empty());
  expect_identical_ledgers(baseline.ledger(), s0->ledger);
  expect_identical_ledgers(killed.ledger(), s1->ledger);
}

TEST(SweepEngine, ExhaustedRetriesSkipTheUserInThatScenarioOnly) {
  const sim::StudyConfig config = sim::small_study(/*seed=*/23);
  const trace::UserId victim = 2;

  // Reference: a pipeline run with an equivalent always-failing fault skips
  // the same user (merge over the survivors is the contract from PR 3).
  fault::FaultPlan pipeline_plan;
  pipeline_plan.add({victim, /*nth_callback=*/10, /*fail_attempts=*/99});
  core::PipelineOptions pipeline_options;
  pipeline_options.failure_policy = core::FailurePolicy::kRetryThenSkip;
  pipeline_options.fault_plan = &pipeline_plan;
  sim::StudyGenerator reference_gen{config};
  core::StudyPipeline reference{&reference_gen, pipeline_options};
  const auto reference_stats = reference.run();
  ASSERT_TRUE(reference_stats.ok());
  ASSERT_EQ(reference_stats->failed_users, std::vector<std::uint64_t>{victim});

  fault::FaultPlan sweep_plan;
  sweep_plan.add({victim, /*nth_callback=*/10, /*fail_attempts=*/99});
  core::SweepOptions options;
  options.failure_policy = core::FailurePolicy::kRetryThenSkip;
  options.fault_plan = &sweep_plan;
  sim::StudyGenerator generator{config};
  core::SweepEngine sweep{&generator, options};
  for (const char* name : {"a", "b"}) {
    core::Scenario scenario;
    scenario.name = name;
    sweep.add_scenario(std::move(scenario));
  }
  const auto stats = sweep.run();
  ASSERT_TRUE(stats.ok());

  for (const char* name : {"a", "b"}) {
    SCOPED_TRACE(name);
    const core::ScenarioResult* result = sweep.result(name);
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->stats.failed_users, std::vector<std::uint64_t>{victim});
    expect_identical_ledgers(reference.ledger(), result->ledger);
    // The skipped shard is visible in per-shard stats.
    bool found = false;
    for (const auto& shard : result->stats.shards) {
      if (shard.user == victim) {
        EXPECT_TRUE(shard.skipped);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

// The capture is its own figure inside the wall time: a CSV sweep reports
// it, and a second run over the filled store captures nothing. A sealed
// sweep also reports how long its segment seals were busy and how long the
// capturing thread waited on one in flight.
TEST(SweepEngine, CaptureIsTimedInsideTheWallTime) {
  sim::StudyConfig config = sim::small_study(/*seed=*/17);
  config.num_users = 3;
  config.num_days = 10;
  std::ostringstream csv_text;
  {
    trace::CsvTraceWriter writer{csv_text};
    sim::StudyGenerator{config}.run(writer);
  }
  std::istringstream csv_in{csv_text.str()};
  trace::CsvTraceSource source{csv_in};
  core::SweepOptions options;
  options.num_threads = 2;
  core::SweepEngine sweep{&source, options};
  core::Scenario scenario;
  scenario.name = "baseline";
  sweep.add_scenario(std::move(scenario));

  const auto first = sweep.run();
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_GT(first->capture_ms, 0.0);
  EXPECT_LE(first->capture_ms, first->wall_ms);
  EXPECT_EQ(first->capture_seal_ms, 0.0);  // resident: nothing sealed
  EXPECT_GE(first->capture_wait_ms, 0.0);
  EXPECT_LE(first->capture_wait_ms, first->capture_ms);
  EXPECT_GT(first->capture_parse_ms, 0.0);  // two parse workers
  // The peak as the capture ended: part of the run's, which the replay may raise.
  EXPECT_GT(first->capture_peak_rss_bytes, 0u);
  EXPECT_LE(first->capture_peak_rss_bytes, first->memory.peak_rss_bytes);
  EXPECT_NE(first->to_json().find("\"capture_ms\":"), std::string::npos);
  EXPECT_NE(first->to_json().find("\"capture_peak_rss_bytes\":"), std::string::npos);
  EXPECT_NE(first->to_json().find("\"capture_parse_ms\":"), std::string::npos);
  std::ostringstream printed;
  first->print(printed);
  EXPECT_NE(printed.str().find("capture:"), std::string::npos);
  EXPECT_NE(printed.str().find("parse workers busy"), std::string::npos);
  EXPECT_NE(printed.str().find("peak RSS at its end"), std::string::npos);

  const auto second = sweep.run();
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_EQ(second->capture_ms, 0.0);
  EXPECT_EQ(second->capture_peak_rss_bytes, 0u);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "wildenergy_sweep_capture_timed";
  std::filesystem::remove_all(dir);
  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE("sealed, threads " + std::to_string(threads));
    std::filesystem::remove_all(dir);
    std::istringstream sealed_in{csv_text.str()};
    trace::CsvTraceSource sealed_source{sealed_in};
    core::SweepOptions sealed_options;
    sealed_options.num_threads = threads;
    sealed_options.store_dir = dir.string();
    sealed_options.store_budget_bytes = 0;  // every user seals
    core::SweepEngine sealed{&sealed_source, sealed_options};
    core::Scenario baseline;
    baseline.name = "baseline";
    sealed.add_scenario(std::move(baseline));
    const auto run = sealed.run();
    ASSERT_TRUE(run.ok()) << run.status().to_string();
    EXPECT_GT(sealed.store().num_segments(), 1u);
    EXPECT_GT(run->capture_seal_ms, 0.0);
    EXPECT_GE(run->capture_wait_ms, 0.0);
    EXPECT_LE(run->capture_wait_ms, run->capture_ms);
    EXPECT_GT(run->capture_peak_rss_bytes, 0u);
    EXPECT_LE(run->capture_peak_rss_bytes, run->memory.peak_rss_bytes);
    if (threads == 1) {
      EXPECT_EQ(run->capture_wait_ms, 0.0);   // inline seals never wait
      EXPECT_EQ(run->capture_parse_ms, 0.0);  // and lines parse inline
    } else {
      EXPECT_GT(run->capture_parse_ms, 0.0);
    }
    EXPECT_NE(run->to_json().find("\"capture_seal_ms\":"), std::string::npos);
    EXPECT_NE(run->to_json().find("\"capture_wait_ms\":"), std::string::npos);
    EXPECT_NE(run->to_json().find("\"capture_parse_ms\":"), std::string::npos);
    std::ostringstream sealed_printed;
    run->print(sealed_printed);
    EXPECT_NE(sealed_printed.str().find("segment seals busy"), std::string::npos);
    EXPECT_EQ(sealed_printed.str().find("parse workers busy") != std::string::npos,
              threads > 1);
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepEngine, EmptyStoreWithoutBaseFails) {
  core::SweepEngine sweep{nullptr};
  core::Scenario scenario;
  scenario.name = "x";
  sweep.add_scenario(std::move(scenario));
  const auto stats = sweep.run();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), util::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace wildenergy
