// Observability layer tests: metrics registry semantics, self-time scoped
// timers, Chrome-trace JSON well-formedness, per-sink instrumentation, and
// the pipeline-level guarantees — RunStats totals exactly match the ledger
// and instrumentation never perturbs attribution (bit-identical joules with
// stats on vs off).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "deliver.h"
#include "ledger_compare.h"
#include "core/pipeline.h"
#include "core/policy.h"
#include "core/sweep.h"
#include "sim/generator.h"
#include "obs/metrics.h"
#include "obs/run_stats.h"
#include "obs/stopwatch.h"
#include "obs/trace_writer.h"
#include "trace/instrumented_sink.h"
#include "trace/sink.h"

namespace wildenergy {
namespace {

// ---------------------------------------------------------------- metrics --

TEST(Metrics, CounterAndGaugeBasics) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("pkts");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same cell; cells never move.
  EXPECT_EQ(&registry.counter("pkts"), &c);
  EXPECT_EQ(registry.counter_value("pkts"), 42u);
  EXPECT_EQ(registry.counter_value("never-touched"), 0u);

  obs::Gauge& g = registry.gauge("temp");
  g.set(3.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);

  registry.reset();
  EXPECT_EQ(c.value(), 0u);  // cached reference still valid after reset
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, HistogramBucketPlacement) {
  using H = obs::Histogram;
  EXPECT_EQ(H::bucket_index(0), 0u);
  EXPECT_EQ(H::bucket_index(1), 1u);
  EXPECT_EQ(H::bucket_index(2), 2u);
  EXPECT_EQ(H::bucket_index(3), 2u);
  EXPECT_EQ(H::bucket_index(4), 3u);
  EXPECT_EQ(H::bucket_index(1023), 10u);
  EXPECT_EQ(H::bucket_index(1024), 11u);
  // Bucket i covers [bucket_lo(i), bucket_hi(i)).
  for (std::uint64_t v : {0ull, 1ull, 7ull, 4096ull, 123456789ull}) {
    const std::size_t i = H::bucket_index(v);
    EXPECT_GE(v, H::bucket_lo(i));
    EXPECT_LT(v, H::bucket_hi(i));
  }
}

TEST(Metrics, HistogramStatsAndPercentiles) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);  // empty
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.sum(), 500500.0);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1000.0);
  // Log-bucketed quantiles are approximate; require sanity and monotonicity.
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double p = h.percentile(q);
    EXPECT_GE(p, prev);
    EXPECT_GE(p, 1.0);
    EXPECT_LE(p, 1000.0);
    prev = p;
  }
  const double median = h.percentile(0.5);
  EXPECT_GT(median, 250.0);
  EXPECT_LT(median, 1000.0);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

// --------------------------------------------------------------- stopwatch --

std::int64_t g_fake_now_ns = 0;
std::int64_t fake_now() { return g_fake_now_ns; }

TEST(Stopwatch, ScopedPhaseNestingChargesSelfTimeOnly) {
  obs::PhaseStack stack{&fake_now};
  double outer_ns = 0.0;
  double inner_ns = 0.0;

  g_fake_now_ns = 0;
  stack.enter(&outer_ns);
  g_fake_now_ns = 10;
  stack.enter(&inner_ns);  // outer pauses having run 10ns
  g_fake_now_ns = 25;
  stack.exit();  // inner ran 15ns; outer resumes
  g_fake_now_ns = 30;
  stack.exit();  // outer ran 5 more ns
  EXPECT_EQ(stack.depth(), 0u);

  EXPECT_DOUBLE_EQ(inner_ns, 15.0);
  EXPECT_DOUBLE_EQ(outer_ns, 15.0);  // 10 + 5, excluding the child's 15
  // Invariant: self times sum exactly to the root frame's wall time.
  EXPECT_DOUBLE_EQ(outer_ns + inner_ns, 30.0);
}

TEST(Stopwatch, ScopedPhaseDeepNestingAndSiblings) {
  obs::PhaseStack stack{&fake_now};
  double a = 0.0, b = 0.0, c = 0.0;
  g_fake_now_ns = 0;
  stack.enter(&a);
  {
    g_fake_now_ns = 5;
    stack.enter(&b);  // a += 5
    g_fake_now_ns = 7;
    stack.enter(&c);  // b += 2
    g_fake_now_ns = 20;
    stack.exit();  // c += 13
    g_fake_now_ns = 22;
    stack.exit();  // b += 2
    g_fake_now_ns = 23;
    stack.enter(&b);  // a += 1 (sibling re-entry accumulates)
    g_fake_now_ns = 29;
    stack.exit();  // b += 6
  }
  g_fake_now_ns = 30;
  stack.exit();  // a += 1
  EXPECT_DOUBLE_EQ(a, 7.0);
  EXPECT_DOUBLE_EQ(b, 10.0);
  EXPECT_DOUBLE_EQ(c, 13.0);
  EXPECT_DOUBLE_EQ(a + b + c, 30.0);
}

TEST(Stopwatch, NullStackIsANoOp) {
  double acc = 1.25;
  { obs::ScopedPhase phase{nullptr, &acc}; }
  EXPECT_DOUBLE_EQ(acc, 1.25);
}

TEST(Stopwatch, ScopedTimerAccumulates) {
  double ms = 0.0;
  { obs::ScopedTimer t{&ms}; }
  EXPECT_GE(ms, 0.0);
}

// ------------------------------------------------------------ trace writer --

// Minimal JSON validity checker (structure only) so the test does not need
// an external parser. Accepts the RFC 8259 grammar for the subset we emit.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string() {
    if (!expect('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    return expect('"');
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool expect(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

TEST(TraceWriter, EmitsValidTraceEventJson) {
  obs::TraceWriter writer;
  writer.set_track_name(0, "pipeline");
  writer.set_track_name(2, "ledger");
  writer.add_complete("run", "pipeline", 0, 1000, 0);
  writer.add_complete("user 0", "ledger", 10, 250, 2);
  writer.add_complete("weird \"name\"\n\t", "cat\\egory", 300, 1, 2);
  EXPECT_EQ(writer.span_count(), 3u);

  std::ostringstream os;
  writer.write(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker{json}.valid()) << json;
  EXPECT_EQ(json.front(), '[');
  // Trace-event essentials present.
  EXPECT_NE(json.find(R"("ph":"X")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"M")"), std::string::npos);
  EXPECT_NE(json.find(R"("ts":10)"), std::string::npos);
  EXPECT_NE(json.find(R"("dur":250)"), std::string::npos);
}

TEST(TraceWriter, EmptyWriterStillValidJson) {
  obs::TraceWriter writer;
  std::ostringstream os;
  writer.write(os);
  EXPECT_TRUE(JsonChecker{os.str()}.valid()) << os.str();
}

// ------------------------------------------------------- instrumented sink --

TEST(InstrumentedSink, CountsAndForwardsEverything) {
  trace::TraceCollector collector;
  obs::PhaseStack stack;
  trace::InstrumentedSink sink{"collector", &collector, &stack};

  trace::StudyMeta meta;
  meta.num_users = 1;
  meta.study_end = kEpoch + hours(1.0);
  sink.on_study_begin(meta);
  sink.on_user_begin(0);
  trace::PacketRecord p;
  p.time = kEpoch + sec(1.0);
  p.bytes = 500;
  deliver(sink, p);
  p.time = kEpoch + sec(2.0);
  p.bytes = 1500;
  deliver(sink, p);
  trace::StateTransition t;
  t.time = kEpoch + sec(3.0);
  deliver(sink, t);
  sink.on_user_end(0);
  sink.on_study_end();

  const obs::StageStats stats = sink.stats();
  EXPECT_EQ(stats.name, "collector");
  EXPECT_EQ(stats.packets, 2u);
  EXPECT_EQ(stats.transitions, 1u);
  EXPECT_EQ(stats.bytes, 2000u);
  EXPECT_GE(stats.self_ms, 0.0);
  // The inner sink saw the identical stream.
  EXPECT_EQ(collector.packets().size(), 2u);
  EXPECT_EQ(collector.transitions().size(), 1u);
  EXPECT_EQ(collector.meta().num_users, 1u);
}

// ----------------------------------------------------------- pipeline level --

sim::StudyConfig obs_test_config() {
  sim::StudyConfig cfg = sim::small_study(/*seed=*/99);
  cfg.num_users = 3;
  cfg.num_days = 20;
  return cfg;
}

TEST(RunStats, TotalsExactlyMatchLedger) {
  core::PipelineOptions options;
  options.collect_stage_stats = true;
  sim::StudyGenerator generator{obs_test_config()};
  core::StudyPipeline pipeline{&generator, options};
  const auto run = pipeline.run();
  ASSERT_TRUE(run.ok());

  const obs::RunStats& stats = run.value();
  const energy::EnergyLedger& ledger = pipeline.ledger();
  EXPECT_EQ(stats.packets, ledger.total_packets());
  EXPECT_EQ(stats.bytes, ledger.total_bytes());
  EXPECT_EQ(stats.joules, ledger.total_joules());  // same accumulation, bit-identical
  EXPECT_EQ(stats.users, 3u);
  EXPECT_GT(stats.packets, 0u);
  EXPECT_GT(stats.wall_ms, 0.0);

  // Attribution fired: the paper's rule assigns every tail somewhere.
  EXPECT_GT(stats.tail_attributions, 0u);
  EXPECT_GT(stats.tail_segments, 0u);
  EXPECT_GT(stats.drx_segments, 0u);  // LTE tail = Short DRX + Long DRX phases
  EXPECT_GT(stats.radio_bursts, 0u);
  EXPECT_EQ(stats.radio_bursts, stats.packets);  // every kept packet is a burst
  EXPECT_EQ(stats.radio_promotions, stats.promotion_segments);
  EXPECT_EQ(stats.transfer_segments, stats.packets);

  // Per-stage profile collected, covering the whole packet stream.
  ASSERT_TRUE(stats.timed);
  ASSERT_GE(stats.stages.size(), 4u);  // generate, filter, attribute, ledger
  EXPECT_EQ(stats.stages.front().name, "generate");
  double stage_packets_seen = 0.0;
  double self_sum = 0.0;
  bool found_ledger = false;
  for (const auto& stage : stats.stages) {
    self_sum += stage.self_ms;
    if (stage.name == "ledger") {
      found_ledger = true;
      EXPECT_EQ(stage.packets, stats.packets);
      EXPECT_EQ(stage.bytes, stats.bytes);
    }
    stage_packets_seen += static_cast<double>(stage.packets);
  }
  EXPECT_TRUE(found_ledger);
  EXPECT_GT(stage_packets_seen, 0.0);
  // Self times decompose the wall time (floating-point sums, so near not eq).
  EXPECT_NEAR(self_sum, stats.wall_ms, stats.wall_ms * 1e-6 + 1e-6);
}

TEST(RunStats, StageProfilingOffByDefault) {
  sim::StudyGenerator generator{obs_test_config()};
  core::StudyPipeline pipeline{&generator};
  const auto run = pipeline.run();
  ASSERT_TRUE(run.ok());
  const obs::RunStats& stats = run.value();
  EXPECT_FALSE(stats.timed);
  EXPECT_TRUE(stats.stages.empty());
  // Cheap totals are collected regardless.
  EXPECT_EQ(stats.packets, pipeline.ledger().total_packets());
  EXPECT_GT(stats.joules, 0.0);
}

TEST(RunStats, InstrumentationDoesNotPerturbAttribution) {
  // The acceptance bar: joules are bit-identical with instrumentation fully
  // on (stage stats + span export) vs fully off.
  sim::StudyGenerator plain_gen{obs_test_config()};
  core::StudyPipeline plain{&plain_gen};
  plain.run();

  obs::TraceWriter writer;
  core::PipelineOptions options;
  options.collect_stage_stats = true;
  options.trace_writer = &writer;
  sim::StudyGenerator instrumented_gen{obs_test_config()};
  core::StudyPipeline instrumented{&instrumented_gen, options};
  instrumented.run();

  EXPECT_EQ(plain.ledger().total_joules(), instrumented.ledger().total_joules());
  EXPECT_EQ(plain.ledger().total_bytes(), instrumented.ledger().total_bytes());
  EXPECT_EQ(plain.ledger().total_packets(), instrumented.ledger().total_packets());
  EXPECT_EQ(plain.attributor().device_joules(), instrumented.attributor().device_joules());

  // Every (user, app) account identical to the bit.
  expect_identical_ledgers(plain.ledger(), instrumented.ledger());

  // And the span file is valid, Perfetto-loadable JSON with per-user spans.
  EXPECT_GT(writer.span_count(), 0u);
  std::ostringstream os;
  writer.write(os);
  EXPECT_TRUE(JsonChecker{os.str()}.valid());

  // A sweep takes the same writer: 2 scenarios x 3 users is exactly 6
  // `shard` spans plus the `run` span at every thread count, and its
  // ledgers match a sweep without the writer bit for bit.
  const auto sweep_with = [](sim::StudyGenerator& generator, obs::TraceWriter* spans,
                             unsigned threads) {
    core::SweepOptions sweep_options;
    sweep_options.num_threads = threads;
    sweep_options.trace_writer = spans;
    auto sweep = std::make_unique<core::SweepEngine>(&generator, sweep_options);
    sweep->add_scenario({.name = "baseline"});
    sweep->add_scenario({.name = "doze", .policy = [](trace::TraceSink* downstream) {
                           return std::make_unique<core::DozeLikePolicy>(downstream);
                         }});
    EXPECT_TRUE(sweep->run().ok());
    return sweep;
  };
  const auto count = [](const std::string& text, const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  sim::StudyGenerator plain_sweep_gen{obs_test_config()};
  const auto plain_sweep = sweep_with(plain_sweep_gen, nullptr, 1);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::TraceWriter sweep_writer;
    sim::StudyGenerator traced_sweep_gen{obs_test_config()};
    const auto traced_sweep = sweep_with(traced_sweep_gen, &sweep_writer, threads);
    ASSERT_EQ(traced_sweep->results().size(), 2u);
    for (std::size_t si = 0; si < 2; ++si) {
      expect_identical_ledgers(plain_sweep->results()[si].ledger,
                               traced_sweep->results()[si].ledger);
    }
    std::ostringstream sweep_os;
    sweep_writer.write(sweep_os);
    const std::string json = sweep_os.str();
    EXPECT_TRUE(JsonChecker{json}.valid());
    EXPECT_EQ(count(json, R"("cat":"shard")"), 6u);
    EXPECT_EQ(count(json, R"("name":"run")"), 1u);
  }
}

TEST(RunStats, RepeatedRunsResetStats) {
  sim::StudyGenerator generator{obs_test_config()};
  core::StudyPipeline pipeline{&generator};
  const auto first = pipeline.run();
  ASSERT_TRUE(first.ok());
  const auto second = pipeline.run();
  ASSERT_TRUE(second.ok());
  // Same study, same seed: identical per-run numbers (no accumulation across
  // runs even though the radio counters live in the process-wide registry).
  EXPECT_EQ(second->packets, first->packets);
  EXPECT_EQ(second->radio_bursts, first->radio_bursts);
}

TEST(RunStats, PrintMentionsKeyFields) {
  core::PipelineOptions options;
  options.collect_stage_stats = true;
  sim::StudyGenerator generator{obs_test_config()};
  core::StudyPipeline pipeline{&generator, options};
  std::ostringstream os;
  obs::RunStats{}.print(os);  // default-constructed: prints zeros, no crash
  const auto run = pipeline.run();
  ASSERT_TRUE(run.ok());
  os.str("");
  run->print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("wall time"), std::string::npos);
  EXPECT_NE(out.find("per-stage self time"), std::string::npos);
  EXPECT_NE(out.find("tail attributions"), std::string::npos);
  EXPECT_NE(out.find("generate"), std::string::npos);
}

TEST(RunStats, NamedAnalysisAppearsInStages) {
  core::PipelineOptions options;
  options.collect_stage_stats = true;
  sim::StudyGenerator generator{obs_test_config()};
  core::StudyPipeline pipeline{&generator, options};
  trace::TraceCollector collector;
  pipeline.add_analysis("my-analysis", &collector);
  const auto run = pipeline.run();
  ASSERT_TRUE(run.ok());
  bool found = false;
  for (const auto& stage : run->stages) {
    if (stage.name == "my-analysis") {
      found = true;
      EXPECT_EQ(stage.packets, pipeline.ledger().total_packets());
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(collector.packets().size(), pipeline.ledger().total_packets());
}

}  // namespace
}  // namespace wildenergy
