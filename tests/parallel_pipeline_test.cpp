// Sharded execution engine (core/engine.h, trace/shardable.h).
//
// The hard requirement under test: for ANY num_threads, every output —
// ledger totals, per-account values, attributor totals, and the Fig. 1-3
// queries — is bit-identical to the serial run, and repeated run() calls are
// idempotent. Plus unit coverage for the pieces: util::OrderedWindow,
// ScopedMetricsRegistry, EnergyLedger::merge, and the serial-replay fallback
// for non-shardable sinks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "ledger_compare.h"
#include "analysis/case_studies.h"
#include "analysis/figures.h"
#include "analysis/longitudinal.h"
#include "analysis/persistence.h"
#include "analysis/time_since_fg.h"
#include "analysis/waste.h"
#include "core/pipeline.h"
#include "energy/attributor.h"
#include "energy/ledger.h"
#include "obs/metrics.h"
#include "radio/burst_machine.h"
#include "sim/generator.h"
#include "sim/study_config.h"
#include "trace/csv_io.h"
#include "trace/sink.h"
#include "util/ordered_window.h"

namespace wildenergy {
namespace {

// ------------------------------------------------------------- OrderedWindow

TEST(OrderedWindow, ReturnsJobsInPushOrderWhenLaterJobsFinishFirst) {
  // Job 0 waits until jobs 1..3 have finished, so it finishes last.
  std::latch later_done{3};
  std::mutex mu;
  std::vector<int> finished;
  util::OrderedWindow<int> window{4, 4, [&](int& job, unsigned) {
                                    if (job == 0) later_done.wait();
                                    {
                                      const std::lock_guard<std::mutex> lock{mu};
                                      finished.push_back(job);
                                    }
                                    if (job != 0) later_done.count_down();
                                  }};
  EXPECT_EQ(window.workers(), 4u);
  for (int i = 0; i < 4; ++i) {
    window.next() = i;
    window.push();
  }
  EXPECT_TRUE(window.full());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(window.front(), i);
    window.pop();
  }
  EXPECT_TRUE(window.empty());
  EXPECT_EQ(finished.back(), 0);
}

TEST(OrderedWindow, ThrowingJobRethrowsAtItsOwnTurn) {
  std::latch thrown{1};
  util::OrderedWindow<int> window{2, 4, [&](int& job, unsigned) {
                                    if (job == 1) {
                                      thrown.count_down();
                                      throw std::runtime_error{"job 1 failed"};
                                    }
                                    if (job == 0) thrown.wait();  // finishes after job 1 threw
                                  }};
  for (int i = 0; i < 4; ++i) {
    window.next() = i;
    window.push();
  }
  EXPECT_EQ(window.front(), 0);  // job 1's exception is not job 0's
  window.pop();
  EXPECT_THROW(window.front(), std::runtime_error);
  EXPECT_EQ(window.front(), 1);  // rethrown once; the job stays at the front
  window.pop();
  // Destroyed with jobs 2 and 3 in the window: nothing else is thrown.
}

TEST(OrderedWindow, OneThreadRunsEveryJobInlineInPush) {
  for (const unsigned threads : {0u, 1u}) {
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran_on;
    util::OrderedWindow<int> window{threads, 3, [&](int& job, unsigned worker) {
                                      EXPECT_EQ(worker, 0u);
                                      ran_on.push_back(std::this_thread::get_id());
                                      if (job == 2) throw std::runtime_error{"inline"};
                                    }};
    EXPECT_EQ(window.workers(), 0u);
    for (int i = 0; i < 3; ++i) {
      window.next() = i;
      window.push();
      EXPECT_EQ(ran_on.size(), static_cast<std::size_t>(i + 1));  // ran inside push()
    }
    for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
    EXPECT_EQ(window.front(), 0);
    window.pop();
    EXPECT_EQ(window.front(), 1);
    window.pop();
    EXPECT_THROW(window.front(), std::runtime_error);  // at its turn, not in push()
  }
}

TEST(OrderedWindow, DestructorWaitsForRunningJobs) {
  std::latch started{2};
  std::latch release{1};
  std::atomic<int> finished{0};
  std::thread releaser;
  {
    util::OrderedWindow<std::vector<int>> window{2, 2, [&](std::vector<int>& job, unsigned) {
                                                   started.count_down();
                                                   release.wait();
                                                   job.assign(1000, 7);  // writes its own slot
                                                   finished.fetch_add(1);
                                                 }};
    for (int i = 0; i < 2; ++i) {
      window.next().clear();
      window.push();
    }
    started.wait();
    // Both jobs are running and blocked; the destructor must wait for them
    // while another thread lets them go. The pause only gives a destructor
    // that does not wait the time to return before the release.
    releaser = std::thread{[&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds{20});
      release.count_down();
    }};
  }
  EXPECT_EQ(finished.load(), 2);
  releaser.join();
}

TEST(OrderedWindow, WorkerIdsStayBelowTheWorkerCount) {
  // min(threads, capacity) workers: 3 here, 2 when the window is smaller.
  for (const auto& [threads, capacity] :
       {std::pair{3u, std::size_t{6}}, std::pair{8u, std::size_t{2}}}) {
    util::OrderedWindow<unsigned> window{threads, capacity,
                                         [](unsigned& job, unsigned worker) { job = worker; }};
    const unsigned workers = std::min<unsigned>(threads, static_cast<unsigned>(capacity));
    EXPECT_EQ(window.workers(), workers);
    for (int i = 0; i < 64; ++i) {
      while (!window.full()) {
        window.next() = 999;
        window.push();
      }
      EXPECT_LT(window.front(), workers);
      window.pop();
    }
  }
}

// ---------------------------------------------------- per-shard metrics cells

TEST(ScopedMetricsRegistry, RedirectsCurrentAndRestores) {
  obs::MetricsRegistry shard;
  EXPECT_EQ(&obs::MetricsRegistry::current(), &obs::MetricsRegistry::global());
  {
    const obs::ScopedMetricsRegistry scoped{&shard};
    EXPECT_EQ(&obs::MetricsRegistry::current(), &shard);
    obs::MetricsRegistry::current().counter("scoped.test").inc(5);
  }
  EXPECT_EQ(&obs::MetricsRegistry::current(), &obs::MetricsRegistry::global());
  EXPECT_EQ(shard.counter_value("scoped.test"), 5u);
  EXPECT_EQ(obs::MetricsRegistry::global().counter_value("scoped.test"), 0u);
}

TEST(MetricsRegistryMerge, FoldsCountersGaugesAndHistograms) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("c").inc(2);
  b.counter("c").inc(3);
  b.counter("only_b").inc(1);
  a.gauge("g").add(1.5);
  b.gauge("g").add(2.5);
  a.histogram("h").record(4);
  b.histogram("h").record(1024);
  a.merge_from(b);
  EXPECT_EQ(a.counter_value("c"), 5u);
  EXPECT_EQ(a.counter_value("only_b"), 1u);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 4.0);
  EXPECT_EQ(a.histogram("h").count(), 2u);
  EXPECT_EQ(a.histogram("h").min(), 4u);
  EXPECT_EQ(a.histogram("h").max(), 1024u);
}

// ------------------------------------------------------------- ledger merge

TEST(EnergyLedgerMerge, PerUserShardsMergeToTheSerialLedger) {
  const sim::StudyGenerator generator{sim::small_study(/*seed=*/11)};

  energy::EnergyLedger serial;
  energy::EnergyAttributor serial_attr{radio::make_lte_model, &serial};
  generator.run(serial_attr);

  energy::EnergyLedger merged;
  merged.on_study_begin(generator.meta());
  for (trace::UserId user = 0; user < generator.config().num_users; ++user) {
    energy::EnergyLedger shard;
    energy::EnergyAttributor shard_attr{radio::make_lte_model, &shard};
    generator.run_user(user, shard_attr);
    merged.merge_from(shard);
  }
  EXPECT_GT(serial.total_joules(), 0.0);
  expect_identical_ledgers(serial, merged);
}

// ----------------------------------------------- full-pipeline determinism

/// All paper analyses wired into one pipeline, so the determinism assertion
/// covers every sink: persistence, time-since-fg, waste, case studies, and
/// longitudinal — all shardable since the flat data-plane refactor.
struct AnalysisSet {
  std::vector<trace::AppId> tracked{0, 1, 2, 3, 4};
  analysis::PersistenceAnalysis persistence;
  analysis::TimeSinceForegroundAnalysis time_since_fg;
  analysis::WastedUpdateAnalysis waste{tracked};
  analysis::CaseStudyAnalysis cases{tracked};
  analysis::LongitudinalAnalysis longitudinal{tracked};

  void attach(core::StudyPipeline& pipeline) {
    pipeline.add_analysis("persistence", &persistence);
    pipeline.add_analysis("time_since_fg", &time_since_fg);
    pipeline.add_analysis("waste", &waste);
    pipeline.add_analysis("cases", &cases);
    pipeline.add_analysis("longitudinal", &longitudinal);
  }
};

void expect_identical_figures(const energy::EnergyLedger& a, const energy::EnergyLedger& b) {
  // Fig. 1: top-10 popularity.
  const auto pop_a = analysis::top10_popularity(a);
  const auto pop_b = analysis::top10_popularity(b);
  ASSERT_EQ(pop_a.size(), pop_b.size());
  for (std::size_t i = 0; i < pop_a.size(); ++i) {
    EXPECT_EQ(pop_a[i].app, pop_b[i].app);
    EXPECT_EQ(pop_a[i].users_with_app_in_top10, pop_b[i].users_with_app_in_top10);
  }
  // Fig. 2: top consumers by data and by energy.
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
  // Fig. 3: process-state energy breakdown.
  const auto brk_a = analysis::overall_state_breakdown(a);
  const auto brk_b = analysis::overall_state_breakdown(b);
  EXPECT_EQ(brk_a.total_joules, brk_b.total_joules);
  for (std::size_t s = 0; s < brk_a.fraction.size(); ++s) {
    EXPECT_EQ(brk_a.fraction[s], brk_b.fraction[s]);
  }
}

void expect_identical_analyses(AnalysisSet& a, AnalysisSet& b) {
  for (const trace::AppId app : a.tracked) {
    // Persistence (Fig. 5): same samples in the same order.
    auto sa = a.persistence.durations(app).sorted_samples();
    auto sb = b.persistence.durations(app).sorted_samples();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
    // Waste (§4.2): counts exactly, energy bit-identically.
    const auto wa = a.waste.result(app);
    const auto wb = b.waste.result(app);
    EXPECT_EQ(wa.updates, wb.updates);
    EXPECT_EQ(wa.wasted_updates, wb.wasted_updates);
    EXPECT_EQ(wa.joules, wb.joules);
    EXPECT_EQ(wa.wasted_joules, wb.wasted_joules);
    // Case studies (Table 1).
    const auto ca = a.cases.result(app);
    const auto cb = b.cases.result(app);
    EXPECT_EQ(ca.joules_total, cb.joules_total);
    EXPECT_EQ(ca.bytes_total, cb.bytes_total);
    EXPECT_EQ(ca.flows, cb.flows);
    EXPECT_EQ(ca.days_active, cb.days_active);
    EXPECT_EQ(ca.early_period_s, cb.early_period_s);
    EXPECT_EQ(ca.late_period_s, cb.late_period_s);
    // Longitudinal (per-user week-cell partials merged in user-id order).
    const auto ea = a.longitudinal.era_comparison(app);
    const auto eb = b.longitudinal.era_comparison(app);
    EXPECT_EQ(ea.early_uj_per_byte, eb.early_uj_per_byte);
    EXPECT_EQ(ea.late_uj_per_byte, eb.late_uj_per_byte);
  }
  // Time-since-foreground (Fig. 6): histogram masses and headline fraction.
  const auto ha = a.time_since_fg.bytes_histogram().masses();
  const auto hb = b.time_since_fg.bytes_histogram().masses();
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i) EXPECT_EQ(ha[i], hb[i]);
  EXPECT_EQ(a.time_since_fg.fraction_of_apps_frontloaded(),
            b.time_since_fg.fraction_of_apps_frontloaded());
  // Longitudinal weekly series.
  ASSERT_EQ(a.longitudinal.overall().weeks(), b.longitudinal.overall().weeks());
  for (std::size_t w = 0; w < a.longitudinal.overall().weeks(); ++w) {
    EXPECT_EQ(a.longitudinal.overall().fg_joules[w], b.longitudinal.overall().fg_joules[w]);
    EXPECT_EQ(a.longitudinal.overall().bg_joules[w], b.longitudinal.overall().bg_joules[w]);
  }
}

TEST(ParallelDeterminism, ThreadCountsProduceBitIdenticalOutputs) {
  sim::StudyGenerator serial_gen{sim::small_study(/*seed=*/7)};
  core::StudyPipeline serial{&serial_gen};
  AnalysisSet serial_set;
  serial_set.attach(serial);
  const auto serial_run = serial.run();
  ASSERT_TRUE(serial_run.ok());
  ASSERT_GT(serial.ledger().total_joules(), 0.0);
  EXPECT_EQ(serial_run->num_threads, 1u);

  for (const unsigned threads : {2u, 8u}) {
    core::PipelineOptions options;
    options.num_threads = threads;
    sim::StudyGenerator sharded_gen{sim::small_study(/*seed=*/7)};
    core::StudyPipeline sharded{&sharded_gen, options};
    AnalysisSet sharded_set;
    sharded_set.attach(sharded);
    const auto sharded_run = sharded.run();
    ASSERT_TRUE(sharded_run.ok());

    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    expect_identical_ledgers(serial.ledger(), sharded.ledger());
    expect_identical_figures(serial.ledger(), sharded.ledger());
    expect_identical_analyses(serial_set, sharded_set);

    // Attributor totals and counters survive the per-user merge bit-exactly.
    EXPECT_EQ(serial.attributor().device_joules(), sharded.attributor().device_joules());
    EXPECT_EQ(serial.attributor().attributed_joules(), sharded.attributor().attributed_joules());
    EXPECT_EQ(serial.attributor().baseline_joules(), sharded.attributor().baseline_joules());
    EXPECT_EQ(serial.attributor().tail_joules(), sharded.attributor().tail_joules());
    EXPECT_EQ(serial.attributor().counters().packets, sharded.attributor().counters().packets);
    EXPECT_EQ(serial.attributor().counters().transitions,
              sharded.attributor().counters().transitions);
    EXPECT_EQ(serial.attributor().counters().tail_attributions,
              sharded.attributor().counters().tail_attributions);

    // Per-shard stats cover every user and add up to the stream totals.
    const obs::RunStats& stats = sharded_run.value();
    EXPECT_EQ(stats.num_threads, std::min<unsigned>(threads, 6));  // capped at num_users
    ASSERT_EQ(stats.shards.size(), 6u);
    std::uint64_t shard_packets = 0;
    for (std::size_t i = 0; i < stats.shards.size(); ++i) {
      EXPECT_EQ(stats.shards[i].user, i);  // user-id order
      shard_packets += stats.shards[i].packets;
    }
    EXPECT_EQ(shard_packets, stats.packets);
    EXPECT_EQ(stats.serial_fallback_sinks, 0u);  // every analysis is shardable now
  }
}

// The engine's forward-only path hands its thread count to the source: a
// CSV replay parses its lines on that many workers and applies them in
// order, so every output is the serial replay's, bit for bit.
TEST(ParallelDeterminism, CsvReplayParsedOnWorkersIsBitIdentical) {
  sim::StudyConfig config = sim::small_study(/*seed=*/7);
  config.num_users = 4;
  config.num_days = 4;
  std::ostringstream csv;
  {
    trace::CsvTraceWriter writer{csv};
    sim::StudyGenerator{config}.run(writer);
  }
  ASSERT_GT(csv.str().size(), std::size_t{2} << 20);  // many reader blocks

  std::istringstream serial_in{csv.str()};
  trace::CsvTraceSource serial_source{serial_in};
  core::StudyPipeline serial{&serial_source};
  AnalysisSet serial_set;
  serial_set.attach(serial);
  ASSERT_TRUE(serial.run().ok());
  ASSERT_GT(serial.ledger().total_joules(), 0.0);

  std::istringstream parallel_in{csv.str()};
  trace::CsvTraceSource parallel_source{parallel_in};
  core::StudyPipeline parallel{&parallel_source, {{.num_threads = 4}}};
  AnalysisSet parallel_set;
  parallel_set.attach(parallel);
  ASSERT_TRUE(parallel.run().ok());

  EXPECT_EQ(serial_source.emit_worker_ms(), 0.0);  // threads 1 parses inline
  EXPECT_GT(parallel_source.emit_worker_ms(), 0.0);
  EXPECT_EQ(parallel_source.summary().records, serial_source.summary().records);
  expect_identical_ledgers(serial.ledger(), parallel.ledger());
  expect_identical_figures(serial.ledger(), parallel.ledger());
  expect_identical_analyses(serial_set, parallel_set);
  EXPECT_EQ(serial.attributor().device_joules(), parallel.attributor().device_joules());
  EXPECT_EQ(serial.attributor().counters().packets, parallel.attributor().counters().packets);
}

TEST(ParallelDeterminism, RepeatedShardedRunsAreIdempotent) {
  core::PipelineOptions options;
  options.num_threads = 8;
  sim::StudyGenerator generator{sim::small_study(/*seed=*/7)};
  core::StudyPipeline pipeline{&generator, options};
  pipeline.run();
  const double joules = pipeline.ledger().total_joules();
  const std::uint64_t bytes = pipeline.ledger().total_bytes();
  const std::uint64_t tails = pipeline.attributor().counters().tail_attributions;
  pipeline.run();
  EXPECT_EQ(pipeline.ledger().total_joules(), joules);
  EXPECT_EQ(pipeline.ledger().total_bytes(), bytes);
  EXPECT_EQ(pipeline.attributor().counters().tail_attributions, tails);

  // And flipping back to a serial pipeline still agrees.
  sim::StudyGenerator serial_gen{sim::small_study(/*seed=*/7)};
  core::StudyPipeline serial{&serial_gen};
  serial.run();
  expect_identical_ledgers(serial.ledger(), pipeline.ledger());
}

TEST(ParallelDeterminism, TraceCollectorSeesTheExactSerialStream) {
  trace::TraceCollector serial_collector;
  sim::StudyGenerator serial_gen{sim::small_study(/*seed=*/3)};
  core::StudyPipeline serial{&serial_gen};
  serial.add_analysis("collector", &serial_collector);
  serial.run();

  trace::TraceCollector sharded_collector;
  core::PipelineOptions options;
  options.num_threads = 4;
  sim::StudyGenerator sharded_gen{sim::small_study(/*seed=*/3)};
  core::StudyPipeline sharded{&sharded_gen, options};
  sharded.add_analysis("collector", &sharded_collector);
  const auto sharded_run = sharded.run();
  ASSERT_TRUE(sharded_run.ok());
  // The collector shards natively now: per-shard capture, ordered splice.
  EXPECT_EQ(sharded_run->serial_fallback_sinks, 0u);

  ASSERT_EQ(serial_collector.packets().size(), sharded_collector.packets().size());
  for (std::size_t i = 0; i < serial_collector.packets().size(); ++i) {
    const auto& p = serial_collector.packets()[i];
    const auto& q = sharded_collector.packets()[i];
    EXPECT_EQ(p.time.us, q.time.us);
    EXPECT_EQ(p.user, q.user);
    EXPECT_EQ(p.app, q.app);
    EXPECT_EQ(p.bytes, q.bytes);
    EXPECT_EQ(p.joules, q.joules);  // replay attribution is bit-identical too
  }
  ASSERT_EQ(serial_collector.transitions().size(), sharded_collector.transitions().size());

  // The ledger itself was sharded — and still matches the serial run.
  expect_identical_ledgers(serial.ledger(), sharded.ledger());
}

// ------------------------------------------- off-interface byte accounting

TEST(OffInterfaceBytes, ResetAtRunStartNotAccumulatedAcrossRuns) {
  sim::StudyConfig config = sim::small_study(/*seed=*/5);
  config.wifi_availability = 0.3;  // so the cellular filter actually drops bytes
  sim::StudyGenerator generator{config};
  core::StudyPipeline pipeline{&generator};
  pipeline.run();
  const std::uint64_t dropped = pipeline.off_interface_bytes();
  EXPECT_GT(dropped, 0u);
  pipeline.run();
  EXPECT_EQ(pipeline.off_interface_bytes(), dropped);  // not 2x

  // Sharded runs account the same drops by summing per-shard filters.
  core::PipelineOptions options;
  options.num_threads = 8;
  sim::StudyGenerator sharded_gen{config};
  core::StudyPipeline sharded{&sharded_gen, options};
  sharded.run();
  EXPECT_EQ(sharded.off_interface_bytes(), dropped);
  sharded.run();
  EXPECT_EQ(sharded.off_interface_bytes(), dropped);
}

}  // namespace
}  // namespace wildenergy
