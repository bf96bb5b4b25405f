// Kill-and-recover harness (DESIGN.md §13): a run killed by an injected
// hard-stop checkpoint fault and then resumed must produce *bit-identical*
// outputs to the same run left uninterrupted — for the sharded pipeline at
// every thread count, for the serial forward-only path, and for a sweep
// killed between user tasks (each snapshot covers every scenario). Recovery is never silent: fallbacks past damaged
// checkpoints, resumed user counts, and write failures all surface through
// obs::RunStats.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ledger_compare.h"
#include "analysis/persistence.h"
#include "analysis/waste.h"
#include "ckpt/checkpoint.h"
#include "core/pipeline.h"
#include "core/policy.h"
#include "core/sweep.h"
#include "energy/ledger.h"
#include "fault/plan.h"
#include "sim/generator.h"
#include "sim/study_config.h"
#include "trace/csv_io.h"
#include "trace/sink.h"
#include "util/status.h"
#include "util/time.h"

namespace wildenergy {
namespace {

namespace fs = std::filesystem;

sim::StudyConfig test_config() {
  sim::StudyConfig cfg = sim::small_study(/*seed=*/23);
  cfg.num_days = 30;
  return cfg;
}

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("wildenergy_kill_recover_" + name);
  fs::remove_all(dir);
  return dir;
}

// FaultPlan owns a mutex, so it cannot be returned by value — arm in place.
void arm_hard_stop(fault::FaultPlan& plan, std::uint64_t nth) {
  plan.add_checkpoint_fault(
      fault::parse_checkpoint_fault_spec("nth=" + std::to_string(nth) + ",kind=hard-stop")
          .value());
}

/// The analysis sinks every kill/recover run carries. All implement
/// ckpt::CheckpointableSink, so the whole set rides each snapshot.
struct Analyses {
  std::vector<trace::AppId> tracked{0, 1, 2, 3, 4};
  analysis::PersistenceAnalysis persistence;
  analysis::WastedUpdateAnalysis waste{tracked};

  void attach(core::StudyPipeline& pipeline) {
    pipeline.add_analysis("persistence", &persistence);
    pipeline.add_analysis("waste", &waste);
  }
  void attach(core::Scenario& scenario) {
    scenario.analyses.emplace_back("persistence", &persistence);
    scenario.analyses.emplace_back("waste", &waste);
  }
};

void expect_identical_analyses(Analyses& a, Analyses& b) {
  for (const trace::AppId app : a.tracked) {
    const auto sa = a.persistence.durations(app).sorted_samples();
    const auto sb = b.persistence.durations(app).sorted_samples();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
    const auto wa = a.waste.result(app);
    const auto wb = b.waste.result(app);
    EXPECT_EQ(wa.updates, wb.updates);
    EXPECT_EQ(wa.wasted_updates, wb.wasted_updates);
    EXPECT_EQ(wa.joules, wb.joules);
    EXPECT_EQ(wa.wasted_joules, wb.wasted_joules);
  }
}

// ------------------------------------------------------- sharded pipeline

TEST(KillRecoverPipeline, ResumedRunIsBitIdenticalAtEveryThreadCount) {
  const sim::StudyConfig cfg = test_config();
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Reference: the same study left uninterrupted, no checkpointing at all.
    sim::StudyGenerator reference_gen{cfg};
    core::StudyPipeline reference{&reference_gen, {{.num_threads = threads}}};
    Analyses reference_set;
    reference_set.attach(reference);
    ASSERT_TRUE(reference.run().ok());

    const fs::path dir = scratch_dir("pipeline_t" + std::to_string(threads));
    // Kill: per-user checkpoints, hard stop right after the third lands.
    fault::FaultPlan plan;
    arm_hard_stop(plan, 3);
    {
      core::PipelineOptions options;
      options.num_threads = threads;
      options.checkpoint_dir = dir.string();
      options.checkpoint_every_users = 1;
      options.fault_plan = &plan;
      sim::StudyGenerator killed_gen{cfg};
      core::StudyPipeline killed{&killed_gen, options};
      Analyses killed_set;
      killed_set.attach(killed);
      EXPECT_THROW((void)killed.run(), fault::ShardFault);
    }

    // Recover: fresh process state, fresh sinks, resume from the directory.
    core::PipelineOptions options;
    options.num_threads = threads;
    options.checkpoint_dir = dir.string();
    options.resume = true;
    sim::StudyGenerator resumed_gen{cfg};
    core::StudyPipeline resumed{&resumed_gen, options};
    Analyses resumed_set;
    resumed_set.attach(resumed);
    const auto stats = resumed.run();
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    EXPECT_EQ(stats->resumed_users, 3u);
    EXPECT_EQ(stats->recovered_from_seq, 0u);  // the newest checkpoint was good

    expect_identical_ledgers(reference.ledger(), resumed.ledger());
    EXPECT_EQ(reference.attributor().attributed_joules(), resumed.attributor().attributed_joules());
    expect_identical_analyses(reference_set, resumed_set);
    fs::remove_all(dir);
  }
}

TEST(KillRecoverPipeline, ResumeFallsBackPastATornCheckpointLoudly) {
  const sim::StudyConfig cfg = test_config();
  sim::StudyGenerator reference_gen{cfg};
  core::StudyPipeline reference{&reference_gen, {{.num_threads = 2}}};
  ASSERT_TRUE(reference.run().ok());

  const fs::path dir = scratch_dir("torn");
  fault::FaultPlan plan;
    arm_hard_stop(plan, 3);
  {
    core::PipelineOptions options;
    options.num_threads = 2;
    options.checkpoint_dir = dir.string();
    options.checkpoint_every_users = 1;
    options.fault_plan = &plan;
    sim::StudyGenerator killed_gen{cfg};
    core::StudyPipeline killed{&killed_gen, options};
    EXPECT_THROW((void)killed.run(), fault::ShardFault);
  }
  // Tear the newest checkpoint after the kill (what a crash mid-rename on a
  // less careful filesystem would leave behind).
  {
    const fs::path newest = dir / "ckpt_00000003";
    ASSERT_TRUE(fs::exists(newest));
    std::ifstream in{newest, std::ios::binary};
    std::string bytes{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
    in.close();
    std::ofstream out{newest, std::ios::binary | std::ios::trunc};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  core::PipelineOptions options;
  options.num_threads = 2;
  options.checkpoint_dir = dir.string();
  options.resume = true;
  sim::StudyGenerator resumed_gen{cfg};
  core::StudyPipeline resumed{&resumed_gen, options};
  const auto stats = resumed.run();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats->recovered_from_seq, 2u);  // fell back, and said so
  EXPECT_EQ(stats->resumed_users, 2u);
  expect_identical_ledgers(reference.ledger(), resumed.ledger());
  fs::remove_all(dir);
}

TEST(KillRecoverPipeline, RefusesANonCheckpointableSinkBeforeAnySnapshot) {
  // A sink without save/restore would be silently absent from every
  // snapshot, so a checkpointed run refuses it up front, by name.
  std::ostringstream csv;
  trace::CsvTraceWriter writer{csv};
  trace::TraceCollector collector;
  for (const auto& [name, sink] : {std::pair<std::string, trace::TraceSink*>{"csv", &writer},
                                   std::pair<std::string, trace::TraceSink*>{"collector",
                                                                             &collector}}) {
    SCOPED_TRACE(name);
    const fs::path dir = scratch_dir("refusal_" + name);
    core::PipelineOptions options;
    options.checkpoint_dir = dir.string();
    options.checkpoint_every_users = 1;
    sim::StudyGenerator gen{test_config()};
    core::StudyPipeline pipeline{&gen, options};
    pipeline.add_analysis(name, sink);
    const auto stats = pipeline.run();
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), util::StatusCode::kFailedPrecondition);
    EXPECT_NE(stats.status().message().find("sink '" + name + "'"), std::string::npos)
        << stats.status().to_string();
    EXPECT_TRUE(csv.str().empty());
    EXPECT_TRUE(collector.packets().empty());
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator{dir, ec};
         !ec && it != fs::recursive_directory_iterator{}; it.increment(ec)) {
      EXPECT_NE(it->path().filename().string().rfind("ckpt_", 0), 0u) << it->path();
    }
    fs::remove_all(dir);
  }
}

TEST(KillRecoverPipeline, IoErrorWriteFailureIsCountedAndTheRunCompletes) {
  const sim::StudyConfig cfg = test_config();
  sim::StudyGenerator reference_gen{cfg};
  core::StudyPipeline reference{&reference_gen, {{.num_threads = 2}}};
  ASSERT_TRUE(reference.run().ok());

  const fs::path dir = scratch_dir("io_error");
  fault::FaultPlan plan;
  plan.add_checkpoint_fault(
      fault::parse_checkpoint_fault_spec("nth=2,kind=io-error").value());
  core::PipelineOptions options;
  options.num_threads = 2;
  options.checkpoint_dir = dir.string();
  options.checkpoint_every_users = 1;
  options.fault_plan = &plan;
  sim::StudyGenerator generator{cfg};
  core::StudyPipeline pipeline{&generator, options};
  const auto stats = pipeline.run();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats->checkpoint_write_failures, 1u);
  EXPECT_EQ(stats->checkpoints_written, static_cast<std::uint64_t>(cfg.num_users) - 1);
  expect_identical_ledgers(reference.ledger(), pipeline.ledger());
  fs::remove_all(dir);
}

TEST(KillRecoverPipeline, ResumeWithoutACheckpointFailsNotRestarts) {
  const fs::path dir = scratch_dir("no_checkpoint");
  fs::create_directories(dir);
  core::PipelineOptions options;
  options.checkpoint_dir = dir.string();
  options.resume = true;
  sim::StudyGenerator generator{test_config()};
  core::StudyPipeline pipeline{&generator, options};
  const auto stats = pipeline.run();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), util::StatusCode::kNotFound);
  fs::remove_all(dir);
}

TEST(KillRecoverPipeline, StaleCheckpointFromAnotherStudyIsRejected) {
  const fs::path dir = scratch_dir("stale");
  fault::FaultPlan plan;
    arm_hard_stop(plan, 2);
  {
    core::PipelineOptions options;
    options.checkpoint_dir = dir.string();
    options.checkpoint_every_users = 1;
    options.fault_plan = &plan;
    sim::StudyGenerator killed_gen{test_config()};
    core::StudyPipeline killed{&killed_gen, options};
    EXPECT_THROW((void)killed.run(), fault::ShardFault);
  }
  sim::StudyConfig other = test_config();
  other.num_users += 1;  // a different study shape
  core::PipelineOptions options;
  options.checkpoint_dir = dir.string();
  options.resume = true;
  sim::StudyGenerator resumed_gen{other};
  core::StudyPipeline resumed{&resumed_gen, options};
  const auto stats = resumed.run();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), util::StatusCode::kFailedPrecondition);
  fs::remove_all(dir);
}

// ------------------------------------------- serial forward-only pipeline

TEST(KillRecoverPipeline, ForwardOnlySourceResumesThroughSerialDecorators) {
  const sim::StudyConfig cfg = test_config();
  sim::StudyGenerator live_gen{cfg};
  core::StudyPipeline live{&live_gen};
  Analyses live_set;
  live_set.attach(live);
  ASSERT_TRUE(live.run().ok());

  std::ostringstream csv_text;
  {
    trace::CsvTraceWriter writer{csv_text};
    sim::StudyGenerator generator{cfg};
    generator.run(writer);
  }

  const fs::path dir = scratch_dir("serial");
  fault::FaultPlan plan;
    arm_hard_stop(plan, 2);
  {
    std::istringstream csv_in{csv_text.str()};
    trace::CsvTraceSource source{csv_in};
    core::PipelineOptions options;
    options.checkpoint_dir = dir.string();
    options.checkpoint_every_users = 1;
    options.fault_plan = &plan;
    core::StudyPipeline killed{&source, options};
    Analyses killed_set;
    killed_set.attach(killed);
    EXPECT_THROW((void)killed.run(), fault::ShardFault);
  }

  std::istringstream csv_in{csv_text.str()};
  trace::CsvTraceSource source{csv_in};
  core::PipelineOptions options;
  options.checkpoint_dir = dir.string();
  options.resume = true;
  core::StudyPipeline resumed{&source, options};
  Analyses resumed_set;
  resumed_set.attach(resumed);
  const auto stats = resumed.run();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats->resumed_users, 2u);
  expect_identical_ledgers(live.ledger(), resumed.ledger());
  expect_identical_analyses(live_set, resumed_set);
  fs::remove_all(dir);
}

TEST(KillRecoverPipeline, UnprefixedCheckpointIsRefusedNotRestarted) {
  // The layout `analyze` wrote before it ran on the engine: progress plus
  // per-sink sections without the engine's "s<scenario>." prefix. Resuming
  // it must fail loudly rather than silently start from user zero.
  const sim::StudyConfig cfg = test_config();
  const fs::path dir = scratch_dir("unprefixed");
  {
    ckpt::Snapshot snap;
    snap.meta = sim::StudyGenerator{cfg}.meta();
    snap.completed_users = {0, 1};
    snap.add_section("attributor", "");
    snap.add_section("ledger", "");
    ckpt::CheckpointWriter writer{dir.string()};
    ASSERT_TRUE(writer.write(snap).ok());
  }
  std::ostringstream csv_text;
  {
    trace::CsvTraceWriter writer{csv_text};
    sim::StudyGenerator{cfg}.run(writer);
  }
  std::istringstream csv_in{csv_text.str()};
  trace::CsvTraceSource source{csv_in};
  core::PipelineOptions options;
  options.checkpoint_dir = dir.string();
  options.resume = true;
  core::StudyPipeline resumed{&source, options};
  const auto stats = resumed.run();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(stats.status().message().find("'s0.scenario'"), std::string::npos)
      << stats.status().to_string();
  fs::remove_all(dir);
}

// ------------------------------------------------------------------ sweep

/// One engine's worth of scenarios + per-scenario sinks, so killed, resumed,
/// and reference sweeps each own an independent set.
struct SweepSetup {
  Analyses baseline_set;
  Analyses killed_policy_set;

  void add_scenarios(core::SweepEngine& sweep) {
    core::Scenario baseline;
    baseline.name = "baseline";
    baseline_set.attach(baseline);
    sweep.add_scenario(std::move(baseline));

    core::Scenario kill3d;
    kill3d.name = "kill-3d";
    kill3d.policy = [](trace::TraceSink* d) {
      return std::make_unique<core::KillAfterIdlePolicy>(d, days(3.0));
    };
    killed_policy_set.attach(kill3d);
    sweep.add_scenario(std::move(kill3d));
  }
};

void expect_identical_sweeps(core::SweepEngine& a, SweepSetup& a_setup, core::SweepEngine& b,
                             SweepSetup& b_setup) {
  ASSERT_EQ(a.results().size(), b.results().size());
  for (std::size_t i = 0; i < a.results().size(); ++i) {
    const core::ScenarioResult& ra = a.results()[i];
    const core::ScenarioResult& rb = b.results()[i];
    SCOPED_TRACE("scenario " + ra.name);
    EXPECT_EQ(ra.name, rb.name);
    EXPECT_TRUE(rb.status.ok()) << rb.status.to_string();
    expect_identical_ledgers(ra.ledger, rb.ledger);
    EXPECT_EQ(ra.stats.packets, rb.stats.packets);
    EXPECT_EQ(ra.stats.bytes, rb.stats.bytes);
    EXPECT_EQ(ra.stats.joules, rb.stats.joules);
    EXPECT_EQ(ra.stats.off_interface_packets, rb.stats.off_interface_packets);
    EXPECT_EQ(ra.stats.off_interface_bytes, rb.stats.off_interface_bytes);
    EXPECT_EQ(ra.stats.radio_bursts, rb.stats.radio_bursts);
    EXPECT_EQ(ra.stats.radio_promotions, rb.stats.radio_promotions);
  }
  expect_identical_analyses(a_setup.baseline_set, b_setup.baseline_set);
  expect_identical_analyses(a_setup.killed_policy_set, b_setup.killed_policy_set);
}

TEST(KillRecoverSweep, MidScenarioKillResumesBitIdenticalAtEveryThreadCount) {
  const sim::StudyConfig cfg = test_config();
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Reference: the classic flat pool, checkpointing off.
    sim::StudyGenerator flat_gen{cfg};
    core::SweepEngine flat{&flat_gen, {{.num_threads = threads}}};
    SweepSetup flat_setup;
    flat_setup.add_scenarios(flat);
    ASSERT_TRUE(flat.run().ok());

    const fs::path dir = scratch_dir("sweep_t" + std::to_string(threads));
    // Kill mid-run: one snapshot per settled user task, each covering both
    // scenarios, so write #3 lands after user 2.
    fault::FaultPlan plan;
    arm_hard_stop(plan, 3);
    {
      sim::StudyGenerator gen{cfg};
      core::SweepOptions options;
      options.num_threads = threads;
      options.checkpoint_dir = dir.string();
      options.checkpoint_every_users = 1;
      options.fault_plan = &plan;
      core::SweepEngine killed{&gen, options};
      SweepSetup killed_setup;
      killed_setup.add_scenarios(killed);
      EXPECT_THROW((void)killed.run(), fault::ShardFault);
    }

    sim::StudyGenerator gen{cfg};
    core::SweepOptions options;
    options.num_threads = threads;
    options.checkpoint_dir = dir.string();
    options.resume = true;
    core::SweepEngine resumed{&gen, options};
    SweepSetup resumed_setup;
    resumed_setup.add_scenarios(resumed);
    const auto stats = resumed.run();
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    // Three users, each in both scenarios, were on disk.
    EXPECT_EQ(stats->resumed_users, 3u);

    expect_identical_sweeps(flat, flat_setup, resumed, resumed_setup);
    fs::remove_all(dir);
  }
}

TEST(KillRecoverSweep, ChangedScenarioListIsRejectedOnResume) {
  const sim::StudyConfig cfg = test_config();
  const fs::path dir = scratch_dir("sweep_stale");
  fault::FaultPlan plan;
  arm_hard_stop(plan, 3);
  {
    sim::StudyGenerator gen{cfg};
    core::SweepOptions options;
    options.checkpoint_dir = dir.string();
    options.checkpoint_every_users = 1;
    options.fault_plan = &plan;
    core::SweepEngine killed{&gen, options};
    SweepSetup killed_setup;
    killed_setup.add_scenarios(killed);
    EXPECT_THROW((void)killed.run(), fault::ShardFault);
  }

  // Resume with a different scenario list: same count, different name.
  sim::StudyGenerator gen{cfg};
  core::SweepOptions options;
  options.checkpoint_dir = dir.string();
  options.resume = true;
  core::SweepEngine resumed{&gen, options};
  SweepSetup resumed_setup;
  core::Scenario renamed;
  renamed.name = "baseline";
  resumed_setup.baseline_set.attach(renamed);
  resumed.add_scenario(std::move(renamed));
  core::Scenario other;
  other.name = "doze";  // was "kill-3d" when the checkpoint was written
  other.policy = [](trace::TraceSink* d) { return std::make_unique<core::DozeLikePolicy>(d); };
  resumed_setup.killed_policy_set.attach(other);
  resumed.add_scenario(std::move(other));

  const auto stats = resumed.run();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), util::StatusCode::kFailedPrecondition);
  fs::remove_all(dir);
}

TEST(KillRecoverSweep, Version2CheckpointIsRefusedOnResume) {
  // Version 2 sweep snapshots were scenario-major: finished scenarios plus
  // one in progress. Version 3 covers every scenario at once, so a v2 file
  // must be refused, never misread as one.
  const sim::StudyConfig cfg = test_config();
  const fs::path dir = scratch_dir("sweep_v2");
  {
    sim::StudyGenerator gen{cfg};
    core::SweepOptions options;
    options.checkpoint_dir = dir.string();
    options.checkpoint_every_users = 2;
    core::SweepEngine sweep{&gen, options};
    SweepSetup setup;
    setup.add_scenarios(sweep);
    ASSERT_TRUE(sweep.run().ok());
  }
  std::size_t rewritten = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::string bytes;
    {
      std::ifstream in{entry.path(), std::ios::binary};
      bytes.assign(std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{});
    }
    ASSERT_EQ(static_cast<std::uint8_t>(bytes[sizeof ckpt::kCheckpointMagic]), 3u);
    bytes[sizeof ckpt::kCheckpointMagic] = 2;
    const std::uint64_t checksum =
        ckpt::fnv1a(std::string_view{bytes}.substr(0, bytes.size() - 8));
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[bytes.size() - 8 + i] = static_cast<char>(checksum >> (8 * i));
    }
    std::ofstream{entry.path(), std::ios::binary | std::ios::trunc} << bytes;
    ++rewritten;
  }
  ASSERT_GT(rewritten, 0u);

  sim::StudyGenerator gen{cfg};
  core::SweepOptions options;
  options.checkpoint_dir = dir.string();
  options.resume = true;
  core::SweepEngine resumed{&gen, options};
  SweepSetup setup;
  setup.add_scenarios(resumed);
  const auto stats = resumed.run();
  ASSERT_FALSE(stats.ok()) << "a version-2 snapshot was resumed";
  EXPECT_NE(stats.status().message().find("unsupported checkpoint version 2"), std::string::npos)
      << stats.status().to_string();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wildenergy
