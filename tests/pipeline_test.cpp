// End-to-end integration tests: generator -> (policy) -> attribution ->
// ledger/analyses, exercising the same path as the figure benches on a
// scaled-down study.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <utility>

#include "analysis/case_studies.h"
#include "analysis/figures.h"
#include "analysis/persistence.h"
#include "analysis/time_since_fg.h"
#include "analysis/whatif.h"
#include "core/pipeline.h"
#include "energy/account_cursor.h"
#include "sim/generator.h"
#include "core/policy.h"
#include "radio/burst_machine.h"
#include "trace/csv_io.h"
#include "trace/flow_assembler.h"

namespace wildenergy {
namespace {

sim::StudyConfig test_config() {
  sim::StudyConfig cfg = sim::small_study(/*seed=*/2024);
  cfg.num_users = 5;
  cfg.num_days = 45;
  cfg.total_apps = 100;
  return cfg;
}

TEST(Pipeline, DeterministicLedger) {
  sim::StudyGenerator a_gen{test_config()};
  core::StudyPipeline a{&a_gen};
  sim::StudyGenerator b_gen{test_config()};
  core::StudyPipeline b{&b_gen};
  a.run();
  b.run();
  EXPECT_DOUBLE_EQ(a.ledger().total_joules(), b.ledger().total_joules());
  EXPECT_EQ(a.ledger().total_bytes(), b.ledger().total_bytes());
}

TEST(Pipeline, BackgroundDominatesEnergy) {
  sim::StudyGenerator generator{test_config()};
  core::StudyPipeline pipeline{&generator};
  pipeline.run();
  const auto overall = analysis::overall_state_breakdown(pipeline.ledger());
  // The paper's headline is 84%; any healthy configuration of this simulator
  // lands well above one half.
  EXPECT_GT(overall.background_fraction(), 0.55);
  EXPECT_LT(overall.background_fraction(), 0.98);
}

TEST(Pipeline, LedgerMatchesAttributorTotals) {
  sim::StudyGenerator generator{test_config()};
  core::StudyPipeline pipeline{&generator};
  pipeline.run();
  EXPECT_NEAR(pipeline.ledger().total_joules(), pipeline.attributor().attributed_joules(),
              pipeline.ledger().total_joules() * 1e-9);
}

/// Routes the annotated stream's packets into a FlowAssembler.
class FlowProbe final : public trace::TraceSink {
 public:
  explicit FlowProbe(trace::FlowSink sink) : assembler_(std::move(sink)) {}

  void on_study_begin(const trace::StudyMeta&) override { assembler_.reset(); }
  void on_user_begin(trace::UserId) override { assembler_.begin_user(); }
  void on_packet(const trace::PacketRecord& packet) override { assembler_.add(packet); }
  void on_user_end(trace::UserId) override { assembler_.end_user(); }

 private:
  trace::FlowAssembler assembler_;
};

TEST(Pipeline, FlowJoulesSumToLedgerTotal) {
  sim::StudyGenerator generator{test_config()};
  core::StudyPipeline pipeline{&generator};
  double flow_joules = 0.0;
  FlowProbe flows{[&](const trace::FlowRecord& f) { flow_joules += f.joules; }};
  pipeline.add_analysis(&flows);
  pipeline.run();
  EXPECT_NEAR(flow_joules, pipeline.ledger().total_joules(),
              pipeline.ledger().total_joules() * 1e-9);
}

TEST(Pipeline, KillPolicyReducesEnergy) {
  sim::StudyGenerator baseline_gen{test_config()};
  core::StudyPipeline baseline{&baseline_gen};
  baseline.run();

  sim::StudyGenerator filtered_gen{test_config()};
  core::StudyPipeline filtered{&filtered_gen};
  filtered.set_policy([](trace::TraceSink* downstream) {
    return std::make_unique<core::KillAfterIdlePolicy>(downstream, days(3.0));
  });
  filtered.run();

  EXPECT_LT(filtered.ledger().total_joules(), baseline.ledger().total_joules());
  // Foreground *bytes* are untouched by the policy (fg *energy* can shift
  // slightly because tail attribution changes once bg packets vanish).
  const auto fg_bytes = [](const energy::EnergyLedger& ledger) {
    std::uint64_t total = 0;
    energy::AccountCursor cursor{ledger};
    while (const energy::AppUserAccount* acc = cursor.next()) {
      for (const auto& cell : acc->days) total += cell.fg_bytes;
    }
    EXPECT_TRUE(cursor.status().ok()) << cursor.status().to_string();
    return total;
  };
  EXPECT_GT(fg_bytes(baseline.ledger()), 0u);
  EXPECT_EQ(fg_bytes(filtered.ledger()), fg_bytes(baseline.ledger()));
}

TEST(Pipeline, LeakTerminationHitsChromeHardest) {
  sim::StudyGenerator baseline_gen{test_config()};
  core::StudyPipeline baseline{&baseline_gen};
  baseline.run();
  sim::StudyGenerator filtered_gen{test_config()};
  core::StudyPipeline filtered{&filtered_gen};
  filtered.set_policy([](trace::TraceSink* downstream) {
    return std::make_unique<core::LeakTerminationPolicy>(downstream);
  });
  filtered.run();

  const trace::AppId chrome = baseline_gen.catalog().find("Chrome");
  ASSERT_NE(chrome, trace::kNoApp);
  const double before = baseline.ledger().app_total(chrome).joules;
  const double after = filtered.ledger().app_total(chrome).joules;
  EXPECT_LT(after, before);
  // Chrome's background share collapses once leaks are terminated.
  const auto bg_frac = [&](const energy::EnergyLedger& ledger) {
    const auto acc = ledger.app_total(chrome);
    return acc.joules > 0 ? acc.background_joules() / acc.joules : 0.0;
  };
  EXPECT_LT(bg_frac(filtered.ledger()), bg_frac(baseline.ledger()));
}

TEST(Pipeline, DozePolicySavesEnergy) {
  sim::StudyGenerator baseline_gen{test_config()};
  core::StudyPipeline baseline{&baseline_gen};
  baseline.run();
  sim::StudyGenerator dozed_gen{test_config()};
  core::StudyPipeline dozed{&dozed_gen};
  dozed.set_policy([](trace::TraceSink* downstream) {
    return std::make_unique<core::DozeLikePolicy>(downstream);
  });
  dozed.run();
  EXPECT_LT(dozed.ledger().total_joules(), baseline.ledger().total_joules() * 0.95);
}

TEST(Pipeline, FastDormancyCutsEnergySubstantially) {
  sim::StudyGenerator lte_gen{test_config()};
  core::StudyPipeline lte{&lte_gen};
  lte.run();
  core::PipelineOptions fd_options;
  fd_options.radio_factory = radio::make_lte_fast_dormancy_model;
  sim::StudyGenerator fd_gen{test_config()};
  core::StudyPipeline fd{&fd_gen, fd_options};
  fd.run();
  // Same traffic, much shorter tails (§6 fast dormancy recommendation).
  EXPECT_EQ(fd.ledger().total_bytes(), lte.ledger().total_bytes());
  EXPECT_LT(fd.ledger().total_joules(), lte.ledger().total_joules() * 0.7);
}

TEST(Pipeline, ProportionalTailPolicyConservesTotals) {
  core::PipelineOptions options;
  options.tail_policy = energy::TailPolicy::kProportional;
  sim::StudyGenerator prop_gen{test_config()};
  core::StudyPipeline prop{&prop_gen, options};
  prop.run();
  sim::StudyGenerator last_gen{test_config()};
  core::StudyPipeline last{&last_gen};
  last.run();
  // Same physical radio activity => same device totals; only the per-app
  // split differs.
  EXPECT_NEAR(prop.ledger().total_joules(), last.ledger().total_joules(),
              last.ledger().total_joules() * 1e-6);
}

TEST(Pipeline, CsvRoundTripThroughAnalysis) {
  // Stream the annotated study to CSV, read it back, and verify the ledger
  // computed from the re-parsed stream matches the original.
  sim::StudyGenerator generator{test_config()};
  core::StudyPipeline pipeline{&generator};
  std::ostringstream os;
  trace::CsvTraceWriter writer{os};
  pipeline.add_analysis(&writer);
  pipeline.run();

  std::istringstream is{os.str()};
  energy::EnergyLedger replayed;
  const auto result = trace::read_csv_trace(is, replayed);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_NEAR(replayed.total_joules(), pipeline.ledger().total_joules(),
              pipeline.ledger().total_joules() * 1e-6);
  EXPECT_EQ(replayed.total_bytes(), pipeline.ledger().total_bytes());
}

TEST(Pipeline, AnalysesRunTogetherWithoutInterference) {
  sim::StudyGenerator generator{test_config()};
  core::StudyPipeline pipeline{&generator};
  analysis::PersistenceAnalysis persistence;
  analysis::TimeSinceForegroundAnalysis tsf;
  std::vector<trace::AppId> ids = {generator.catalog().find("Weibo"), generator.catalog().find("Chrome")};
  analysis::CaseStudyAnalysis cases{ids};
  pipeline.add_analysis(&persistence);
  pipeline.add_analysis(&tsf);
  pipeline.add_analysis(&cases);
  pipeline.run();

  EXPECT_GT(tsf.bytes_histogram().total_mass(), 0.0);
  EXPECT_GT(persistence.durations(generator.catalog().find("Chrome")).count(), 0u);
  const auto chrome_case = cases.result(generator.catalog().find("Chrome"));
  EXPECT_GT(chrome_case.flows, 0u);
}

TEST(Pipeline, PaperShapeHolds_WeiboVsTwitterEfficiency) {
  sim::StudyConfig cfg = test_config();
  cfg.num_users = 8;  // more chances for Weibo installs
  sim::StudyGenerator generator{cfg};
  core::StudyPipeline pipeline{&generator};
  pipeline.run();
  const auto weibo = pipeline.ledger().app_total(generator.catalog().find("Weibo"));
  const auto twitter = pipeline.ledger().app_total(generator.catalog().find("Twitter"));
  if (weibo.bytes == 0 || twitter.bytes == 0) GTEST_SKIP() << "app not installed in sample";
  const double weibo_ujb = weibo.joules / static_cast<double>(weibo.bytes);
  const double twitter_ujb = twitter.joules / static_cast<double>(twitter.bytes);
  EXPECT_GT(weibo_ujb, 10.0 * twitter_ujb);  // paper: order(s) of magnitude
}

TEST(Pipeline, WhatIfRunsOnPipelineLedger) {
  sim::StudyGenerator generator{test_config()};
  core::StudyPipeline pipeline{&generator};
  pipeline.run();
  const auto row =
      analysis::whatif_kill_after(pipeline.ledger(), generator.catalog().find("Weibo"), 3);
  EXPECT_GE(row.pct_energy_saved, 0.0);
  EXPECT_LE(row.pct_energy_saved, 100.0);
  const auto overall = analysis::whatif_overall(pipeline.ledger(), 3);
  EXPECT_GE(overall.pct_saved(), 0.0);
  EXPECT_LE(overall.pct_saved(), 100.0);
}

}  // namespace
}  // namespace wildenergy
