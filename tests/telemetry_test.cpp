// Telemetry v2 tests (DESIGN.md §11): the JSON writer/parser pair, the
// structured RunStats export and its schema, memory accounting, the
// shard-aware stage profile (self times and batch-latency histogram counts
// across thread counts), the sweep progress callback, and the bench_diff
// perf-regression comparator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/persistence.h"
#include "core/pipeline.h"
#include "core/policy.h"
#include "core/sweep.h"
#include "obs/bench_diff.h"
#include "obs/json.h"
#include "obs/memory.h"
#include "obs/run_stats.h"
#include "sim/generator.h"
#include "trace/spilling_store.h"

namespace wildenergy {
namespace {

// ------------------------------------------------------------- JSON layer --

TEST(TelemetryJson, WriterProducesParseableNestedDocument) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("name", "telemetry");
  w.kv("count", std::uint64_t{42});
  w.kv("ratio", 0.5);
  w.kv("on", true);
  w.key("list");
  w.begin_array();
  w.value(std::uint64_t{1});
  w.value(std::uint64_t{2});
  w.begin_object();
  w.kv("nested", std::int64_t{-3});
  w.end_object();
  w.end_array();
  w.key("nothing");
  w.null_value();
  w.end_object();

  const auto doc = obs::JsonValue::parse(w.str());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->string_or("name", ""), "telemetry");
  EXPECT_EQ(doc->number_or("count", 0), 42.0);
  EXPECT_EQ(doc->number_or("ratio", 0), 0.5);
  ASSERT_NE(doc->get("on"), nullptr);
  EXPECT_TRUE(doc->get("on")->as_bool());
  const obs::JsonValue* list = doc->get("list");
  ASSERT_NE(list, nullptr);
  ASSERT_TRUE(list->is_array());
  ASSERT_EQ(list->as_array().size(), 3u);
  EXPECT_EQ(list->as_array()[2].number_or("nested", 0), -3.0);
  ASSERT_NE(doc->get("nothing"), nullptr);
  EXPECT_EQ(doc->get("nothing")->type(), obs::JsonValue::Type::kNull);
}

TEST(TelemetryJson, WriterEscapesStringsAndParserUnescapes) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("s", "quote \" backslash \\ newline \n tab \t");
  w.end_object();
  const auto doc = obs::JsonValue::parse(w.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_or("s", ""), "quote \" backslash \\ newline \n tab \t");
}

TEST(TelemetryJson, NonFiniteNumbersSerializeAsNull) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("nan", std::nan(""));
  w.kv("inf", std::numeric_limits<double>::infinity());
  w.end_object();
  const auto doc = obs::JsonValue::parse(w.str());
  ASSERT_TRUE(doc.has_value());  // the document stays valid JSON
  EXPECT_EQ(doc->get("nan")->type(), obs::JsonValue::Type::kNull);
  EXPECT_EQ(doc->get("inf")->type(), obs::JsonValue::Type::kNull);
}

TEST(TelemetryJson, ParserRejectsGarbage) {
  EXPECT_FALSE(obs::JsonValue::parse("{").has_value());
  EXPECT_FALSE(obs::JsonValue::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(obs::JsonValue::parse("{'a':1}").has_value());
  EXPECT_FALSE(obs::JsonValue::parse("").has_value());
  EXPECT_TRUE(obs::JsonValue::parse("  {\"a\": [1, 2.5e3, null]}  ").has_value());
}

// ------------------------------------------------- structured run reports --

sim::StudyConfig telemetry_config() {
  sim::StudyConfig cfg = sim::small_study(/*seed=*/23);
  cfg.num_users = 4;
  cfg.num_days = 15;
  return cfg;
}

/// Required members of the wildenergy.run_stats.v2 schema (DESIGN.md §11).
void expect_schema_v2(const obs::JsonValue& doc) {
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.string_or("schema", ""), "wildenergy.run_stats.v2");
  for (const char* key : {"wall_ms", "num_threads", "users", "packets", "transitions",
                          "bytes", "joules", "packets_per_sec"}) {
    const obs::JsonValue* v = doc.get(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_TRUE(v->is_number()) << key;
  }
  for (const char* key : {"attribution", "radio", "memory", "resilience"}) {
    const obs::JsonValue* v = doc.get(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_TRUE(v->is_object()) << key;
  }
  for (const char* key : {"stages", "shards"}) {
    const obs::JsonValue* v = doc.get(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_TRUE(v->is_array()) << key;
  }
  ASSERT_NE(doc.get("resilience")->get("failed_users"), nullptr);
  EXPECT_TRUE(doc.get("resilience")->get("failed_users")->is_array());
}

TEST(TelemetryStats, RunStatsJsonRoundTripsAgainstTheRun) {
  core::PipelineOptions options;
  options.collect_stage_stats = true;
  sim::StudyGenerator generator{telemetry_config()};
  core::StudyPipeline pipeline{&generator, options};
  const auto run = pipeline.run();
  ASSERT_TRUE(run.ok());

  const auto doc = obs::JsonValue::parse(run->to_json());
  ASSERT_TRUE(doc.has_value());
  expect_schema_v2(*doc);

  // The document carries the run's numbers, not approximations of them.
  EXPECT_EQ(doc->number_or("packets", 0), static_cast<double>(run->packets));
  EXPECT_EQ(doc->number_or("users", 0), static_cast<double>(run->users));
  EXPECT_EQ(doc->number_or("joules", 0), run->joules);
  EXPECT_EQ(doc->get("attribution")->number_or("tail_attributions", 0),
            static_cast<double>(run->tail_attributions));
  EXPECT_EQ(doc->get("radio")->number_or("bursts", 0),
            static_cast<double>(run->radio_bursts));

  // Stage profile made it through, with "generate" first and a batch-latency
  // histogram (count + quantiles) on the batched stages.
  const auto& stages = doc->get("stages")->as_array();
  ASSERT_FALSE(stages.empty());
  EXPECT_EQ(stages.front().string_or("name", ""), "generate");
  bool found_latency = false;
  for (const auto& stage : stages) {
    const obs::JsonValue* latency = stage.get("batch_latency_us");
    if (latency == nullptr) continue;
    found_latency = true;
    EXPECT_GT(latency->number_or("count", 0), 0.0);
    EXPECT_GE(latency->number_or("p99", -1), latency->number_or("p50", 0));
    ASSERT_NE(latency->get("buckets"), nullptr);
    EXPECT_TRUE(latency->get("buckets")->is_array());
  }
  EXPECT_TRUE(found_latency);
}

TEST(TelemetryStats, ShardedRunStatsJsonIncludesShards) {
  core::PipelineOptions options;
  options.collect_stage_stats = true;
  options.num_threads = 4;
  sim::StudyGenerator generator{telemetry_config()};
  core::StudyPipeline pipeline{&generator, options};
  const auto run = pipeline.run();
  ASSERT_TRUE(run.ok());

  const auto doc = obs::JsonValue::parse(run->to_json());
  ASSERT_TRUE(doc.has_value());
  expect_schema_v2(*doc);
  const auto& shards = doc->get("shards")->as_array();
  ASSERT_EQ(shards.size(), 4u);  // one per user, user-id order
  for (std::size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(shards[i].number_or("user", -1), static_cast<double>(i));
    EXPECT_GT(shards[i].number_or("packets", 0), 0.0);
  }
  // And the sharded run still exports a non-empty folded stage profile.
  EXPECT_GT(doc->get("stages")->as_array().size(), 1u);
}

TEST(TelemetryStats, MetricsRegistrySnapshotExportsAsJson) {
  obs::MetricsRegistry registry;
  registry.counter("pkts").inc(7);
  registry.gauge("mem").set(123.5);
  registry.histogram("lat").record(4);
  registry.histogram("lat").record(1000);
  const auto doc = obs::JsonValue::parse(registry.to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get("counters")->number_or("pkts", 0), 7.0);
  EXPECT_EQ(doc->get("gauges")->number_or("mem", 0), 123.5);
  EXPECT_EQ(doc->get("histograms")->get("lat")->number_or("count", 0), 2.0);
}

// --------------------------------------------------------- memory accounting --

TEST(TelemetryMemory, RunStatsCarriesLedgerAnalysesAndPeakRss) {
  sim::StudyGenerator generator{telemetry_config()};
  core::StudyPipeline pipeline{&generator};
  analysis::PersistenceAnalysis persistence;
  pipeline.add_analysis("persistence", &persistence);
  const auto run = pipeline.run();
  ASSERT_TRUE(run.ok());

  EXPECT_GT(run->memory.ledger.resident_bytes, 0u);
  EXPECT_GT(run->memory.analyses.resident_bytes, 0u);
  EXPECT_EQ(run->memory.store.resident_bytes, 0u);  // generator-backed run: no cached trace
  // No account directory: the folded detail images stay in memory.
  EXPECT_GT(run->memory.accounts.resident_bytes, 0u);
  EXPECT_EQ(run->memory.tracked_bytes(), run->memory.ledger.resident_bytes +
                                             run->memory.analyses.resident_bytes +
                                             run->memory.accounts.resident_bytes);
#ifdef __linux__
  EXPECT_GT(run->memory.peak_rss_bytes, 0u);
#endif
  // Every user folded: the ledger estimate at least covers its per-app
  // folded totals.
  EXPECT_GE(run->memory.ledger.resident_bytes,
            pipeline.ledger().apps().size() * sizeof(energy::AppUserAccount));
}

TEST(TelemetryMemory, CapturedTraceStoreReportsAndGrows) {
  sim::StudyConfig small = telemetry_config();
  small.num_days = 5;
  sim::StudyGenerator small_gen{small};
  trace::SpillingTraceStore small_store;
  ASSERT_TRUE(small_store.capture(small_gen).ok());
  ASSERT_GT(small_store.event_count(), 0u);
  EXPECT_GT(small_store.memory_use().resident_bytes, 0u);
  // A whole-stream copy cannot fit in less than a PacketRecord per packet.
  EXPECT_GE(small_store.memory_use().resident_bytes,
            small_store.event_count() * sizeof(std::uint32_t));

  sim::StudyConfig big = telemetry_config();
  big.num_days = 20;
  sim::StudyGenerator big_gen{big};
  trace::SpillingTraceStore big_store;
  ASSERT_TRUE(big_store.capture(big_gen).ok());
  EXPECT_GT(big_store.memory_use().resident_bytes, small_store.memory_use().resident_bytes);
}

TEST(TelemetryMemory, PeakRssIsMonotone) {
  const std::uint64_t first = obs::peak_rss_bytes();
  const std::uint64_t second = obs::peak_rss_bytes();
  EXPECT_GE(second, first);
#ifdef __linux__
  EXPECT_GT(first, 0u);
#endif
}

TEST(TelemetryMemory, ResetPeakRssLowersTheMarkAfterAFreedBlock) {
  constexpr std::size_t kBlock = std::size_t{64} << 20;
  std::uint64_t with_block = 0;
  {
    std::vector<char> block(kBlock);
    char* volatile data = block.data();  // keep the allocation observable
    for (std::size_t i = 0; i < kBlock; i += 4096) data[i] = 1;  // touch every page
    with_block = obs::peak_rss_bytes();
  }
  ASSERT_GE(with_block, kBlock);
  if (!obs::reset_peak_rss()) {
    GTEST_SKIP() << "/proc/self/clear_refs is not writable here; the peak stays process-lifetime";
  }
  const std::uint64_t after_reset = obs::peak_rss_bytes();
  EXPECT_LT(after_reset + kBlock / 2, with_block)
      << "the 64 MB block was freed before the reset, so the new mark must sit well below it";
}

// -------------------------------------------- shard-aware stage profiling --

TEST(TelemetryShardedProfile, StageCountersAndHistogramCountsMatchAcrossThreadCounts) {
  // The acceptance bar: per-stage packet/transition/byte counters and the
  // batch-latency histogram COUNTS are bit-identical across thread counts
  // (batch boundaries are per-user and thread-count-independent). Self times
  // are wall-clock and only decompose each run's own measured time.
  struct StageKey {
    std::uint64_t packets;
    std::uint64_t transitions;
    std::uint64_t bytes;
    std::uint64_t latency_count;
  };
  std::map<std::string, StageKey> reference;
  std::vector<std::string> reference_order;

  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    core::PipelineOptions options;
    options.collect_stage_stats = true;
    options.num_threads = threads;
    sim::StudyGenerator generator{telemetry_config()};
    core::StudyPipeline pipeline{&generator, options};
    const auto run = pipeline.run();
    ASSERT_TRUE(run.ok());
    ASSERT_TRUE(run->timed);
    ASSERT_GE(run->stages.size(), 4u);  // generate, filter, attribute, ledger

    std::vector<std::string> order;
    double self_sum = 0.0;
    for (const auto& stage : run->stages) {
      order.push_back(stage.name);
      EXPECT_GE(stage.self_ms, 0.0);
      self_sum += stage.self_ms;
      const StageKey key{stage.packets, stage.transitions, stage.bytes,
                         stage.batch_latency_us.count()};
      const auto it = reference.find(stage.name);
      if (it == reference.end()) {
        reference.emplace(stage.name, key);
      } else {
        EXPECT_EQ(key.packets, it->second.packets) << stage.name;
        EXPECT_EQ(key.transitions, it->second.transitions) << stage.name;
        EXPECT_EQ(key.bytes, it->second.bytes) << stage.name;
        EXPECT_EQ(key.latency_count, it->second.latency_count) << stage.name;
      }
    }
    if (reference_order.empty()) {
      reference_order = order;
    } else {
      EXPECT_EQ(order, reference_order);  // same stages, same fold order
    }

    // Self times decompose the measured time: serial against the run's wall,
    // sharded against the sum of shard wall times (the "generate" row is
    // each shard's unaccounted remainder by construction).
    if (threads == 1) {
      EXPECT_NEAR(self_sum, run->wall_ms, run->wall_ms * 1e-6 + 1e-6);
    } else {
      double shard_wall = 0.0;
      for (const auto& shard : run->shards) shard_wall += shard.wall_ms;
      EXPECT_NEAR(self_sum, shard_wall, shard_wall * 1e-3 + 1e-3);
    }
  }
}

TEST(TelemetryShardedProfile, SweepScenarioStagesAreProfiledWhenRequested) {
  const sim::StudyConfig config = telemetry_config();
  sim::StudyGenerator generator{config};
  core::SweepOptions options;
  options.num_threads = 2;
  options.collect_stage_stats = true;
  core::SweepEngine sweep{&generator, options};
  sweep.add_scenario({.name = "baseline"});
  sweep.add_scenario({.name = "kill-2d", .policy = [](trace::TraceSink* d) {
                        return std::make_unique<core::KillAfterIdlePolicy>(d, days(2.0));
                      }});
  const auto stats = sweep.run();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->memory.store.resident_bytes, 0u);  // the cached trace is accounted

  for (const auto& result : sweep.results()) {
    SCOPED_TRACE(result.name);
    ASSERT_TRUE(result.status.ok());
    ASSERT_FALSE(result.stats.stages.empty());
    EXPECT_EQ(result.stats.stages.front().name, "replay");
    std::uint64_t stage_packets = 0;
    for (const auto& stage : result.stats.stages) {
      if (stage.name == "ledger") stage_packets = stage.packets;
    }
    EXPECT_EQ(stage_packets, result.stats.packets);
  }
}

// ------------------------------------------------------- sweep progress --

TEST(SweepProgress, CallbackCoversEveryScenarioUserShard) {
  const sim::StudyConfig config = telemetry_config();
  sim::StudyGenerator generator{config};
  core::SweepOptions options;
  options.num_threads = 2;
  std::vector<core::SweepProgress> events;
  options.progress = [&events](const core::SweepProgress& p) { events.push_back(p); };
  core::SweepEngine sweep{&generator, options};
  sweep.add_scenario({.name = "baseline"});
  sweep.add_scenario({.name = "doze", .policy = [](trace::TraceSink* d) {
                        return std::make_unique<core::DozeLikePolicy>(d);
                      }});
  ASSERT_TRUE(sweep.run().ok());

  const std::size_t total = 2u * config.num_users;
  ASSERT_EQ(events.size(), total);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].completed, i + 1);  // serialized, monotonically counted
    EXPECT_EQ(events[i].total, total);
    EXPECT_LT(events[i].scenario_index, 2u);
    EXPECT_LT(events[i].user, config.num_users);
  }
}

// ------------------------------------------------------------ bench_diff --

TEST(BenchDiff, ParseSkipsMalformedLinesAndReadsFields) {
  const std::string jsonl =
      "{\"bench\":\"a\",\"users\":4,\"days\":60,\"seed\":42,\"wall_ms\":10,"
      "\"packets\":100,\"packets_per_sec\":10000,\"threads\":2,\"speedup\":1.8}\n"
      "not json at all\n"
      "{\"no_bench_key\":1}\n"
      "{\"bench\":\"b\",\"users\":4,\"days\":60,\"seed\":42,\"wall_ms\":5,"
      "\"packets_per_sec\":20000,\"batch_size\":64}\n";
  const auto records = obs::parse_bench_log(jsonl);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].bench, "a");
  EXPECT_EQ(records[0].threads, 2);
  EXPECT_EQ(records[0].key(), "a t2");
  EXPECT_EQ(records[1].key(), "b t1 b64");
  EXPECT_EQ(records[1].packets_per_sec, 20000.0);
}

std::string bench_line(const std::string& bench, double pps, int users = 4, int days = 60,
                       int seed = 42, int threads = 1) {
  return "{\"bench\":\"" + bench + "\",\"users\":" + std::to_string(users) +
         ",\"days\":" + std::to_string(days) + ",\"seed\":" + std::to_string(seed) +
         ",\"wall_ms\":10,\"packets_per_sec\":" + std::to_string(pps) +
         ",\"threads\":" + std::to_string(threads) + "}\n";
}

TEST(BenchDiff, FlagsInjectedSlowdownOverThreshold) {
  const std::string baseline = bench_line("pipe", 1000.0);
  const std::string fresh = bench_line("pipe", 700.0);  // -30% vs -25% threshold
  const auto report = obs::diff_bench_logs(baseline, fresh, {});
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].status, obs::BenchDiffStatus::kRegressed);
  EXPECT_NEAR(report.entries[0].delta, -0.3, 1e-9);
  EXPECT_TRUE(report.has_regressions());
}

TEST(BenchDiff, PassesCleanAndFlagsImprovement) {
  const std::string baseline = bench_line("pipe", 1000.0) + bench_line("other", 500.0);
  const std::string fresh = bench_line("pipe", 950.0) + bench_line("other", 900.0);
  const auto report = obs::diff_bench_logs(baseline, fresh, {});
  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_EQ(report.entries[0].status, obs::BenchDiffStatus::kOk);
  EXPECT_EQ(report.entries[1].status, obs::BenchDiffStatus::kImproved);
  EXPECT_FALSE(report.has_regressions());
}

TEST(BenchDiff, ScaleMismatchIsSkippedNotCompared) {
  const std::string baseline = bench_line("pipe", 1000.0, /*users=*/20, /*days=*/200);
  const std::string fresh = bench_line("pipe", 100.0, /*users=*/4, /*days=*/60);
  const auto report = obs::diff_bench_logs(baseline, fresh, {});
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].status, obs::BenchDiffStatus::kScaleMismatch);
  EXPECT_FALSE(report.has_regressions());  // a 10x "slowdown" at 1/10 scale is not one
}

TEST(BenchDiff, HostCpuMismatchSkipsOnlyWhenBothRecordsNameTheirHost) {
  const std::string on4 =
      "{\"bench\":\"pipe\",\"users\":4,\"days\":60,\"seed\":42,\"wall_ms\":10,"
      "\"packets_per_sec\":1000,\"threads\":1,\"host_cpus\":4}\n";
  const std::string slow_on4 =
      "{\"bench\":\"pipe\",\"users\":4,\"days\":60,\"seed\":42,\"wall_ms\":16.7,"
      "\"packets_per_sec\":600,\"threads\":1,\"host_cpus\":4}\n";
  const std::string slow_on8 =
      "{\"bench\":\"pipe\",\"users\":4,\"days\":60,\"seed\":42,\"wall_ms\":16.7,"
      "\"packets_per_sec\":600,\"threads\":1,\"host_cpus\":8}\n";
  const auto parsed = obs::parse_bench_log(on4 + bench_line("pipe", 1000.0));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].host_cpus, 4);
  EXPECT_EQ(parsed[1].host_cpus, 0);  // absent

  // Different hosts: not comparable.
  const auto other_host = obs::diff_bench_logs(on4, slow_on8, {});
  ASSERT_EQ(other_host.entries.size(), 1u);
  EXPECT_EQ(other_host.entries[0].status, obs::BenchDiffStatus::kScaleMismatch);

  // Same host: a 40% slowdown (CI's injected self-test) still fails.
  const auto same_host = obs::diff_bench_logs(on4, slow_on4, {});
  ASSERT_EQ(same_host.entries.size(), 1u);
  EXPECT_EQ(same_host.entries[0].status, obs::BenchDiffStatus::kRegressed);

  // A baseline written before the field existed still pairs either way.
  const auto legacy_baseline = obs::diff_bench_logs(bench_line("pipe", 1000.0), slow_on8, {});
  ASSERT_EQ(legacy_baseline.entries.size(), 1u);
  EXPECT_EQ(legacy_baseline.entries[0].status, obs::BenchDiffStatus::kRegressed);
  const auto legacy_fresh = obs::diff_bench_logs(on4, bench_line("pipe", 600.0), {});
  ASSERT_EQ(legacy_fresh.entries.size(), 1u);
  EXPECT_EQ(legacy_fresh.entries[0].status, obs::BenchDiffStatus::kRegressed);
}

TEST(BenchDiff, MissingBaselineIsReportedNotFailed) {
  const auto report = obs::diff_bench_logs("", bench_line("new_bench", 123.0), {});
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].status, obs::BenchDiffStatus::kMissingBaseline);
  EXPECT_FALSE(report.has_regressions());
}

TEST(BenchDiff, ResumedPartialRunNeverPairsWithAFullRunBaseline) {
  // A resumed run covers only the post-resume remainder — much faster than a
  // full run of the same bench. Its "resumed":true flag keys it separately,
  // so it pairs with resumed baselines only and never reads as a speedup
  // (or, flipped, a regression) against the full-run record.
  const std::string resumed_line =
      "{\"bench\":\"pipe\",\"users\":4,\"days\":60,\"seed\":42,\"wall_ms\":4,"
      "\"packets_per_sec\":2500,\"threads\":1,\"resumed\":true}\n";
  const auto parsed = obs::parse_bench_log(resumed_line);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_TRUE(parsed[0].resumed);
  EXPECT_EQ(parsed[0].key(), "pipe t1 resumed");

  const std::string baseline = bench_line("pipe", 1000.0) + resumed_line;
  const auto report = obs::diff_bench_logs(baseline, resumed_line, {});
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].key, "pipe t1 resumed");
  EXPECT_EQ(report.entries[0].status, obs::BenchDiffStatus::kOk);

  // Without a resumed baseline record it is new, not a 2.5x "improvement".
  const auto no_pair = obs::diff_bench_logs(bench_line("pipe", 1000.0), resumed_line, {});
  ASSERT_EQ(no_pair.entries.size(), 1u);
  EXPECT_EQ(no_pair.entries[0].status, obs::BenchDiffStatus::kMissingBaseline);
}

TEST(BenchDiff, PerBenchThresholdOverridesTheDefault) {
  obs::BenchDiffOptions options;
  options.per_bench["noisy"] = 0.50;
  const std::string baseline = bench_line("noisy", 1000.0) + bench_line("stable", 1000.0);
  const std::string fresh = bench_line("noisy", 700.0) + bench_line("stable", 700.0);
  const auto report = obs::diff_bench_logs(baseline, fresh, options);
  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_EQ(report.entries[0].status, obs::BenchDiffStatus::kOk);  // -30% < 50% gate
  EXPECT_EQ(report.entries[1].status, obs::BenchDiffStatus::kRegressed);
}

TEST(BenchDiff, LastRecordPerKeyWinsOnBothSides) {
  // The committed baseline is a trajectory file: older records of the same
  // (bench, threads, batch_size) key are superseded, never compared.
  const std::string baseline = bench_line("pipe", 10.0) + bench_line("pipe", 1000.0);
  const std::string fresh = bench_line("pipe", 990.0) + bench_line("pipe", 980.0);
  const auto report = obs::diff_bench_logs(baseline, fresh, {});
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_NEAR(report.entries[0].baseline_pps, 1000.0, 1e-9);
  EXPECT_NEAR(report.entries[0].fresh_pps, 980.0, 1e-9);
  EXPECT_EQ(report.entries[0].status, obs::BenchDiffStatus::kOk);
}

std::string rss_line(const std::string& bench, double pps, std::uint64_t peak_rss_bytes) {
  return "{\"bench\":\"" + bench +
         "\",\"users\":4,\"days\":60,\"seed\":42,\"wall_ms\":10,\"packets_per_sec\":" +
         std::to_string(pps) + ",\"threads\":1,\"peak_rss_bytes\":" +
         std::to_string(peak_rss_bytes) + "}\n";
}

TEST(BenchDiff, PeakRssGrowthOverThresholdFailsTheGate) {
  const auto parsed = obs::parse_bench_log(rss_line("pipe", 1000.0, 40'000'000));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].peak_rss_bytes, 40'000'000u);

  // CI's injected self-test: same throughput, 40% more memory.
  const auto grew = obs::diff_bench_logs(rss_line("pipe", 1000.0, 40'000'000),
                                         rss_line("pipe", 1000.0, 56'000'000), {});
  ASSERT_EQ(grew.entries.size(), 1u);
  EXPECT_EQ(grew.entries[0].status, obs::BenchDiffStatus::kMemoryGrew);
  EXPECT_NEAR(grew.entries[0].rss_delta, 0.4, 1e-9);
  EXPECT_TRUE(grew.has_regressions());
  const std::string md = grew.to_markdown();
  EXPECT_NE(md.find("REGRESSED (peak RSS)"), std::string::npos);
  EXPECT_NE(md.find("40.0 -> 56.0 MB (+40.0%)"), std::string::npos);

  // Faster but fatter still fails; growth within the threshold, or a
  // shrink, passes.
  const auto faster_fatter = obs::diff_bench_logs(rss_line("pipe", 1000.0, 40'000'000),
                                                  rss_line("pipe", 2000.0, 56'000'000), {});
  EXPECT_EQ(faster_fatter.entries[0].status, obs::BenchDiffStatus::kMemoryGrew);
  const auto within = obs::diff_bench_logs(rss_line("pipe", 1000.0, 40'000'000),
                                           rss_line("pipe", 1000.0, 48'000'000), {});
  EXPECT_EQ(within.entries[0].status, obs::BenchDiffStatus::kOk);
  EXPECT_NEAR(within.entries[0].rss_delta, 0.2, 1e-9);
  const auto shrank = obs::diff_bench_logs(rss_line("pipe", 1000.0, 40'000'000),
                                           rss_line("pipe", 1000.0, 4'000'000), {});
  EXPECT_EQ(shrank.entries[0].status, obs::BenchDiffStatus::kOk);

  // A throughput regression keeps its own status when memory grew too.
  const auto both = obs::diff_bench_logs(rss_line("pipe", 1000.0, 40'000'000),
                                         rss_line("pipe", 500.0, 80'000'000), {});
  EXPECT_EQ(both.entries[0].status, obs::BenchDiffStatus::kRegressed);

  // The per-bench threshold governs memory too.
  obs::BenchDiffOptions loose;
  loose.per_bench["pipe"] = 0.50;
  const auto overridden = obs::diff_bench_logs(rss_line("pipe", 1000.0, 40'000'000),
                                               rss_line("pipe", 1000.0, 56'000'000), loose);
  EXPECT_EQ(overridden.entries[0].status, obs::BenchDiffStatus::kOk);
}

TEST(BenchDiff, PeakRssIsComparedOnlyWhenBothRecordsCarryIt) {
  const std::string without = bench_line("pipe", 1000.0);
  const std::string huge = rss_line("pipe", 1000.0, 4'000'000'000);
  const std::string unreadable = rss_line("pipe", 1000.0, 0);
  for (const auto& [baseline, fresh] :
       {std::pair{without, huge}, std::pair{huge, without}, std::pair{unreadable, huge},
        std::pair{huge, unreadable}}) {
    const auto report = obs::diff_bench_logs(baseline, fresh, {});
    ASSERT_EQ(report.entries.size(), 1u);
    EXPECT_EQ(report.entries[0].status, obs::BenchDiffStatus::kOk);
    EXPECT_EQ(report.entries[0].rss_delta, 0.0);
    EXPECT_EQ(report.to_markdown().find(" MB ("), std::string::npos);
  }
  // A scale mismatch skips the memory gate with the throughput one.
  const auto other_scale = obs::diff_bench_logs(
      rss_line("pipe", 1000.0, 4'000'000),
      "{\"bench\":\"pipe\",\"users\":20,\"days\":60,\"seed\":42,\"wall_ms\":10,"
      "\"packets_per_sec\":1000,\"threads\":1,\"peak_rss_bytes\":400000000}\n",
      {});
  EXPECT_EQ(other_scale.entries[0].status, obs::BenchDiffStatus::kScaleMismatch);
  EXPECT_FALSE(other_scale.has_regressions());
}

TEST(BenchDiff, MarkdownSummaryNamesTheRegression) {
  const std::string baseline = bench_line("pipe", 1000.0);
  const std::string fresh = bench_line("pipe", 500.0);
  const auto report = obs::diff_bench_logs(baseline, fresh, {});
  const std::string md = report.to_markdown();
  EXPECT_NE(md.find("| bench |"), std::string::npos);
  EXPECT_NE(md.find("pipe t1"), std::string::npos);
  EXPECT_NE(md.find("REGRESSED"), std::string::npos);
  EXPECT_NE(md.find("1 regressed"), std::string::npos);
}

}  // namespace
}  // namespace wildenergy
