// Tests for deterministic fault injection (fault/injector.h, fault/plan.h)
// and the engine's failure policies (core/pipeline.h): a shard that throws is
// retried and, if it keeps failing, its user is skipped — with the merged
// result bit-identical to a serial run over the surviving users, for any
// thread count.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "deliver.h"
#include "seal.h"
#include "core/pipeline.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "sim/generator.h"
#include "trace/csv_io.h"
#include "trace/sink.h"

namespace wildenergy {
namespace {

sim::StudyConfig fault_config() {
  sim::StudyConfig cfg = sim::small_study(/*seed=*/11);
  cfg.num_users = 3;
  cfg.num_days = 10;
  cfg.total_apps = 40;
  return cfg;
}

std::string csv_buffer() {
  std::ostringstream os;
  trace::CsvTraceWriter writer{os};
  sim::StudyGenerator{fault_config()}.run(writer);
  return os.str();
}

constexpr fault::CorruptionKind kAllKinds[] = {
    fault::CorruptionKind::kBitFlip,       fault::CorruptionKind::kTruncate,
    fault::CorruptionKind::kDuplicateSpan, fault::CorruptionKind::kSwapSpans,
    fault::CorruptionKind::kBadEnum,       fault::CorruptionKind::kBadTimestamp,
};

TEST(Injector, DeterministicAndAlwaysChangesTheBuffer) {
  const std::string clean = csv_buffer();
  for (const auto kind : kAllKinds) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const fault::CorruptionSpec spec{kind, seed};
      const auto once = fault::apply_corruption(clean, spec);
      const auto twice = fault::apply_corruption(clean, spec);
      ASSERT_TRUE(once.ok()) << fault::to_string(kind) << ": " << once.status().message();
      ASSERT_TRUE(twice.ok());
      EXPECT_EQ(once.value(), twice.value()) << fault::to_string(kind) << " seed " << seed;
      EXPECT_NE(once.value(), clean) << fault::to_string(kind) << " seed " << seed;
    }
  }
}

TEST(Injector, ByteLevelKindsWorkOnBinaryBuffers) {
  const std::string clean = seal_study(sim::StudyGenerator{fault_config()});
  for (const auto kind :
       {fault::CorruptionKind::kBitFlip, fault::CorruptionKind::kTruncate,
        fault::CorruptionKind::kDuplicateSpan, fault::CorruptionKind::kSwapSpans}) {
    const auto damaged = fault::apply_corruption(clean, {kind, 1});
    ASSERT_TRUE(damaged.ok()) << fault::to_string(kind);
    EXPECT_NE(damaged.value(), clean);
  }
}

TEST(Injector, CsvKindsRejectNonCsvBuffers) {
  const std::string not_csv = seal_study(sim::StudyGenerator{fault_config()});
  EXPECT_FALSE(fault::apply_corruption(not_csv, {fault::CorruptionKind::kBadEnum, 0}).ok());
  EXPECT_FALSE(
      fault::apply_corruption(not_csv, {fault::CorruptionKind::kBadTimestamp, 0}).ok());
  EXPECT_FALSE(fault::apply_corruption("", {fault::CorruptionKind::kBitFlip, 0}).ok());
}

TEST(Injector, KindNamesRoundTrip) {
  for (const auto kind : kAllKinds) {
    const auto parsed = fault::parse_corruption_kind(fault::to_string(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(fault::parse_corruption_kind("gamma-ray").ok());
}

TEST(FaultPlanSpec, ParsesFullSpecInAnyKeyOrder) {
  const auto spec = fault::parse_shard_fault_spec("nth=9,stall_ms=5,user=2,attempts=3");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  EXPECT_EQ(spec.value().user, 2u);
  EXPECT_EQ(spec.value().nth_callback, 9u);
  EXPECT_EQ(spec.value().fail_attempts, 3u);
  EXPECT_EQ(spec.value().stall_ms, 5u);
}

TEST(FaultPlanSpec, RejectsMalformedSpecs) {
  EXPECT_FALSE(fault::parse_shard_fault_spec("nth=3").ok());           // user missing
  EXPECT_FALSE(fault::parse_shard_fault_spec("user=1,nth=0").ok());    // nth < 1
  EXPECT_FALSE(fault::parse_shard_fault_spec("user=one").ok());        // not a number
  EXPECT_FALSE(fault::parse_shard_fault_spec("user=1,zap=2").ok());    // unknown key
  EXPECT_FALSE(fault::parse_shard_fault_spec("user").ok());            // no '='
}

TEST(FaultPlan, ThrowsAtNthCallbackOnArmedAttemptsOnly) {
  fault::FaultPlan plan;
  plan.add({/*user=*/7, /*nth_callback=*/2, /*fail_attempts=*/1, /*stall_ms=*/0});
  trace::TraceCollector downstream;
  EXPECT_EQ(plan.wrap(3, &downstream), nullptr);  // no fault for user 3

  auto first = plan.wrap(7, &downstream);
  ASSERT_NE(first, nullptr);
  first->on_user_begin(7);                                        // callback 1
  EXPECT_THROW(deliver(*first, trace::PacketRecord{}), fault::ShardFault);  // callback 2

  // Attempt 2 exceeds fail_attempts=1: the wrapper forwards everything.
  auto second = plan.wrap(7, &downstream);
  ASSERT_NE(second, nullptr);
  second->on_user_begin(7);
  deliver(*second, trace::PacketRecord{});
  second->on_user_end(7);
  EXPECT_EQ(plan.attempts(7), 2u);
}

TEST(PipelineFaults, RetryRecoversAndStaysBitIdenticalAcrossThreadCounts) {
  sim::StudyGenerator clean_gen{fault_config()};
  core::StudyPipeline clean{&clean_gen};
  clean.run();

  for (const unsigned threads : {1u, 2u, 8u}) {
    fault::FaultPlan plan;
    plan.add({/*user=*/1, /*nth_callback=*/5, /*fail_attempts=*/1, /*stall_ms=*/0});
    core::PipelineOptions options;
    options.num_threads = threads;
    options.failure_policy = core::FailurePolicy::kRetryThenSkip;
    options.fault_plan = &plan;
    sim::StudyGenerator generator{fault_config()};
    core::StudyPipeline pipeline{&generator, options};
    const auto run = pipeline.run();
    ASSERT_TRUE(run.ok());

    const obs::RunStats& stats = run.value();
    EXPECT_EQ(stats.shard_retries, 1u) << threads << " threads";
    EXPECT_TRUE(stats.failed_users.empty());
    ASSERT_EQ(stats.shards.size(), 3u);
    EXPECT_EQ(stats.shards[1].attempts, 2u);  // failed once, recovered on retry
    EXPECT_FALSE(stats.shards[1].skipped);
    EXPECT_EQ(stats.shards[0].attempts, 1u);

    EXPECT_DOUBLE_EQ(pipeline.ledger().total_joules(), clean.ledger().total_joules())
        << threads << " threads";
    EXPECT_EQ(pipeline.ledger().total_bytes(), clean.ledger().total_bytes());
    EXPECT_EQ(pipeline.ledger().total_packets(), clean.ledger().total_packets());
  }
}

/// Baseline for the skip tests: drops one user's whole bracket, so a serial
/// run produces exactly the surviving-user study the engine merges.
class SkipUserPolicy final : public trace::TraceSink {
 public:
  SkipUserPolicy(trace::TraceSink* downstream, trace::UserId skip)
      : downstream_(downstream), skip_(skip) {}

  void on_study_begin(const trace::StudyMeta& meta) override {
    downstream_->on_study_begin(meta);
  }
  void on_user_begin(trace::UserId user) override {
    if (user != skip_) downstream_->on_user_begin(user);
  }
  void on_batch(const trace::EventBatch& batch) override {
    if (batch.user != skip_) downstream_->on_batch(batch);
  }
  void on_user_end(trace::UserId user) override {
    if (user != skip_) downstream_->on_user_end(user);
  }
  void on_study_end() override { downstream_->on_study_end(); }

 private:
  trace::TraceSink* downstream_;
  trace::UserId skip_;
};

TEST(PipelineFaults, ExhaustedRetriesSkipTheUserBitIdenticallyToSerial) {
  sim::StudyGenerator baseline_gen{fault_config()};
  core::StudyPipeline baseline{&baseline_gen};
  baseline.set_policy([](trace::TraceSink* downstream) {
    return std::make_unique<SkipUserPolicy>(downstream, /*skip=*/1);
  });
  trace::TraceCollector baseline_stream;  // not shardable: exercises the replay path
  baseline.add_analysis(&baseline_stream);
  baseline.run();

  for (const unsigned threads : {1u, 2u, 8u}) {
    fault::FaultPlan plan;
    plan.add({/*user=*/1, /*nth_callback=*/3, /*fail_attempts=*/100, /*stall_ms=*/0});
    core::PipelineOptions options;
    options.num_threads = threads;
    options.failure_policy = core::FailurePolicy::kRetryThenSkip;
    options.max_shard_retries = 2;
    options.fault_plan = &plan;
    sim::StudyGenerator generator{fault_config()};
    core::StudyPipeline pipeline{&generator, options};
    trace::TraceCollector stream;
    pipeline.add_analysis(&stream);
    const auto run = pipeline.run();
    ASSERT_TRUE(run.ok());

    const obs::RunStats& stats = run.value();
    EXPECT_EQ(stats.shard_retries, 2u) << threads << " threads";
    ASSERT_EQ(stats.failed_users.size(), 1u);
    EXPECT_EQ(stats.failed_users[0], 1u);
    ASSERT_EQ(stats.shards.size(), 3u);
    EXPECT_TRUE(stats.shards[1].skipped);
    EXPECT_EQ(stats.shards[1].attempts, 3u);  // initial + 2 retries
    EXPECT_NE(stats.shards[1].status.message().find("injected fault"), std::string::npos)
        << stats.shards[1].status.message();
    EXPECT_EQ(stats.shards[1].packets, 0u);  // nothing of the skipped user survives

    EXPECT_DOUBLE_EQ(pipeline.ledger().total_joules(), baseline.ledger().total_joules())
        << threads << " threads";
    EXPECT_EQ(pipeline.ledger().total_bytes(), baseline.ledger().total_bytes());
    EXPECT_EQ(pipeline.ledger().total_packets(), baseline.ledger().total_packets());

    // The non-shardable sink's replay saw the identical surviving-user stream.
    ASSERT_EQ(stream.packets().size(), baseline_stream.packets().size());
    for (std::size_t i = 0; i < stream.packets().size(); ++i) {
      EXPECT_EQ(stream.packets()[i].time.us, baseline_stream.packets()[i].time.us);
      EXPECT_EQ(stream.packets()[i].user, baseline_stream.packets()[i].user);
      EXPECT_DOUBLE_EQ(stream.packets()[i].joules, baseline_stream.packets()[i].joules);
    }
  }
}

TEST(PipelineFaults, FailFastPropagatesTheShardFault) {
  fault::FaultPlan plan;
  plan.add({/*user=*/0, /*nth_callback=*/1, /*fail_attempts=*/1, /*stall_ms=*/0});
  core::PipelineOptions options;
  options.num_threads = 2;
  options.fault_plan = &plan;  // failure_policy stays kFailFast
  sim::StudyGenerator generator{fault_config()};
  core::StudyPipeline pipeline{&generator, options};
  EXPECT_THROW(pipeline.run(), fault::ShardFault);
}

TEST(PipelineFaults, StallingFaultStillRecoversOnRetry) {
  sim::StudyGenerator clean_gen{fault_config()};
  core::StudyPipeline clean{&clean_gen};
  clean.run();

  fault::FaultPlan plan;
  plan.add({/*user=*/2, /*nth_callback=*/1, /*fail_attempts=*/1, /*stall_ms=*/20});
  core::PipelineOptions options;
  options.num_threads = 2;
  options.failure_policy = core::FailurePolicy::kRetryThenSkip;
  options.fault_plan = &plan;
  sim::StudyGenerator generator{fault_config()};
  core::StudyPipeline pipeline{&generator, options};
  const auto run = pipeline.run();
  ASSERT_TRUE(run.ok());

  const obs::RunStats& stats = run.value();
  EXPECT_EQ(stats.shard_retries, 1u);
  EXPECT_TRUE(stats.failed_users.empty());
  EXPECT_GE(stats.shards[2].wall_ms, 0.0);
  EXPECT_DOUBLE_EQ(pipeline.ledger().total_joules(), clean.ledger().total_joules());
}

}  // namespace
}  // namespace wildenergy
