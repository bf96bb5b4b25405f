// Tests for the Table 1 case-study analysis (analysis/case_studies.h).
#include <gtest/gtest.h>

#include "deliver.h"
#include "analysis/case_studies.h"

namespace wildenergy::analysis {
namespace {

using trace::PacketRecord;
using trace::ProcessState;

trace::StudyMeta meta_days(double num_days) {
  trace::StudyMeta meta;
  meta.num_users = 2;
  meta.num_apps = 8;
  meta.study_begin = kEpoch;
  meta.study_end = kEpoch + days(num_days);
  return meta;
}

PacketRecord pkt(double t_s, trace::UserId user, trace::AppId app, ProcessState state,
                 double joules = 2.0, std::uint64_t bytes = 1000) {
  PacketRecord p;
  p.time = kEpoch + sec(t_s);
  p.user = user;
  p.app = app;
  p.bytes = bytes;
  p.state = state;
  p.joules = joules;
  return p;
}

TEST(CaseStudies, ComputesPerFlowAveragesForBackgroundOnly) {
  CaseStudyAnalysis cases{{1}};
  cases.on_study_begin(meta_days(3.0));
  cases.on_user_begin(0);
  // Two background updates (flows) of 2 J / 1000 B each + fg traffic that
  // must be excluded from Table 1 statistics.
  deliver(cases, pkt(100.0, 0, 1, ProcessState::kService));
  deliver(cases, pkt(500.0, 0, 1, ProcessState::kService));
  deliver(cases, pkt(800.0, 0, 1, ProcessState::kForeground, 99.0, 99'000));
  cases.on_user_end(0);
  cases.on_study_end();

  auto r = cases.result(1);
  EXPECT_EQ(r.flows, 2u);
  EXPECT_NEAR(r.joules_per_flow(), 2.0, 1e-9);
  EXPECT_NEAR(r.mb_per_flow(), 0.001, 1e-9);
  EXPECT_NEAR(r.micro_joules_per_byte(), 2000.0, 1e-6);
  EXPECT_EQ(r.days_active, 1u);
  EXPECT_NEAR(r.joules_per_day(), 4.0, 1e-9);
}

TEST(CaseStudies, DaysActiveCountsUserDays) {
  CaseStudyAnalysis cases{{1}};
  cases.on_study_begin(meta_days(5.0));
  cases.on_user_begin(0);
  deliver(cases, pkt(100.0, 0, 1, ProcessState::kService));
  deliver(cases, pkt(86400.0 + 100.0, 0, 1, ProcessState::kService));
  cases.on_user_end(0);
  cases.on_user_begin(1);
  deliver(cases, pkt(100.0, 1, 1, ProcessState::kService));  // same day, other user
  cases.on_user_end(1);
  cases.on_study_end();
  EXPECT_EQ(cases.result(1).days_active, 3u);  // (u0,d0), (u0,d1), (u1,d0)
}

TEST(CaseStudies, DetectsEraPeriods) {
  CaseStudyAnalysis cases{{1}};
  cases.on_study_begin(meta_days(90.0));
  cases.on_user_begin(0);
  // Early era (days 0-29): 5-minute updates. Late era (days 60-89): hourly.
  for (double t = 0.0; t < 20.0 * 86400.0; t += 300.0) {
    deliver(cases, pkt(t, 0, 1, ProcessState::kService));
  }
  for (double t = 62.0 * 86400.0; t < 88.0 * 86400.0; t += 3600.0) {
    deliver(cases, pkt(t, 0, 1, ProcessState::kService));
  }
  cases.on_user_end(0);
  cases.on_study_end();

  auto r = cases.result(1);
  EXPECT_NEAR(r.early_period_s, 300.0, 30.0);
  EXPECT_NEAR(r.late_period_s, 3600.0, 360.0);
}

TEST(CaseStudies, BurstTrainWithinUpdateIsOneFlow) {
  CaseStudyAnalysis cases{{1}};
  cases.on_study_begin(meta_days(1.0));
  cases.on_user_begin(0);
  // 3 packets 1.5 s apart: one update, one flow.
  deliver(cases, pkt(100.0, 0, 1, ProcessState::kService));
  deliver(cases, pkt(101.5, 0, 1, ProcessState::kService));
  deliver(cases, pkt(103.0, 0, 1, ProcessState::kService));
  cases.on_user_end(0);
  cases.on_study_end();
  EXPECT_EQ(cases.result(1).flows, 1u);
}

TEST(CaseStudies, UntrackedAppReturnsEmpty) {
  CaseStudyAnalysis cases{{1}};
  cases.on_study_begin(meta_days(1.0));
  cases.on_user_begin(0);
  deliver(cases, pkt(100.0, 0, 2, ProcessState::kService));
  cases.on_user_end(0);
  auto r = cases.result(2);
  EXPECT_EQ(r.flows, 0u);
  EXPECT_EQ(r.joules_per_day(), 0.0);
}

TEST(CaseStudies, DormancyGapsExcludedFromPeriodEstimate) {
  CaseStudyAnalysis cases{{1}};
  cases.on_study_begin(meta_days(30.0));
  cases.on_user_begin(0);
  // 10-minute updates with multi-day dormancy gaps interleaved.
  double t = 0.0;
  for (int i = 0; i < 400; ++i) {
    deliver(cases, pkt(t, 0, 1, ProcessState::kService));
    t += (i % 40 == 39) ? 3.0 * 86400.0 : 600.0;
  }
  cases.on_user_end(0);
  cases.on_study_end();
  EXPECT_NEAR(cases.result(1).early_period_s, 600.0, 60.0);
}

}  // namespace
}  // namespace wildenergy::analysis
