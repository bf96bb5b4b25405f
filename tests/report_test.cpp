// Tests for the report-card generator (core/report.h).
#include <gtest/gtest.h>

#include <sstream>

#include "deliver.h"
#include "appmodel/catalog.h"
#include "core/report.h"

namespace wildenergy::core {
namespace {

using trace::PacketRecord;
using trace::ProcessState;

trace::StudyMeta meta_days(double num_days) {
  trace::StudyMeta meta;
  meta.num_users = 1;
  meta.num_apps = 30;
  meta.study_begin = kEpoch;
  meta.study_end = kEpoch + days(num_days);
  return meta;
}

PacketRecord pkt(double day, trace::AppId app, ProcessState state, double joules,
                 std::uint64_t bytes) {
  PacketRecord p;
  p.time = kEpoch + days(day) + sec(600.0);
  p.app = app;
  p.bytes = bytes;
  p.state = state;
  p.joules = joules;
  return p;
}

TEST(Report, FindsInefficientAndBackgroundDominated) {
  const auto catalog = appmodel::AppCatalog::paper_catalog();
  const trace::AppId weibo = catalog.find("Weibo");
  const trace::AppId media = catalog.find("Media Server");

  energy::EnergyLedger ledger;
  ledger.on_study_begin(meta_days(10.0));
  for (int d = 0; d < 10; ++d) {
    // Weibo-like: tiny payloads, big joules, all background, daily fg use
    // (so it is NOT a kill candidate).
    deliver(ledger, pkt(d, weibo, ProcessState::kService, 200.0, 50'000));
    deliver(ledger, pkt(d, weibo, ProcessState::kForeground, 1.0, 20'000));
    // Media-like: huge payloads, modest joules.
    deliver(ledger, pkt(d, media, ProcessState::kPerceptible, 50.0, 500'000'000));
  }

  ReportOptions options;
  options.min_bytes = 1'000;
  const auto report = Report::build(ledger, catalog, nullptr, options);
  ASSERT_EQ(report.apps.size(), 2u);

  const AppDiagnosis* weibo_diag = nullptr;
  for (const auto& d : report.apps) {
    if (d.app == weibo) weibo_diag = &d;
  }
  ASSERT_NE(weibo_diag, nullptr);
  EXPECT_TRUE(weibo_diag->has(Finding::kInefficientTransfers));
  EXPECT_TRUE(weibo_diag->has(Finding::kBackgroundDominated));
  EXPECT_FALSE(weibo_diag->has(Finding::kKillCandidate));

  for (const auto& d : report.apps) {
    if (d.app == media) {
      EXPECT_FALSE(d.has(Finding::kInefficientTransfers));
      EXPECT_TRUE(d.has(Finding::kBackgroundDominated));  // perceptible = bg
    }
  }
}

TEST(Report, KillCandidateRequiresIdleSavings) {
  const auto catalog = appmodel::AppCatalog::paper_catalog();
  const trace::AppId app = catalog.find("4shared");
  energy::EnergyLedger ledger;
  ledger.on_study_begin(meta_days(30.0));
  // Foreground once on day 0, then 29 days of background drip.
  deliver(ledger, pkt(0, app, ProcessState::kForeground, 5.0, 1'000'000));
  for (int d = 1; d < 30; ++d) {
    deliver(ledger, pkt(d, app, ProcessState::kBackground, 20.0, 200'000));
  }
  const ReportOptions options{.max_apps = 5, .min_bytes = 1'000};
  const auto report = Report::build(ledger, catalog, nullptr, options);
  ASSERT_EQ(report.apps.size(), 1u);
  EXPECT_TRUE(report.apps[0].has(Finding::kKillCandidate));
  EXPECT_GT(report.apps[0].kill_savings_pct, 80.0);
  EXPECT_NE(report.apps[0].recommendation.find("§5"), std::string::npos);
}

TEST(Report, PrintRendersAllApps) {
  const auto catalog = appmodel::AppCatalog::paper_catalog();
  energy::EnergyLedger ledger;
  ledger.on_study_begin(meta_days(5.0));
  deliver(ledger, pkt(0, catalog.find("Twitter"), ProcessState::kService, 10.0, 2'000'000));
  const auto report = Report::build(ledger, catalog, nullptr, {.min_bytes = 1'000});
  std::ostringstream os;
  report.print(os);
  EXPECT_NE(os.str().find("Twitter"), std::string::npos);
  EXPECT_NE(os.str().find("report card"), std::string::npos);
}

TEST(Report, MinBytesFiltersNoise) {
  const auto catalog = appmodel::AppCatalog::paper_catalog();
  energy::EnergyLedger ledger;
  ledger.on_study_begin(meta_days(5.0));
  deliver(ledger, pkt(0, catalog.find("Twitter"), ProcessState::kService, 10.0, 500));
  const auto report = Report::build(ledger, catalog, nullptr, {.min_bytes = 100'000});
  EXPECT_TRUE(report.apps.empty());
}

}  // namespace
}  // namespace wildenergy::core
