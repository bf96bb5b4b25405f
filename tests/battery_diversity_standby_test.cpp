// Tests for power/battery.h, analysis/diversity.h and the AppStandbyPolicy.
#include <gtest/gtest.h>

#include "deliver.h"
#include "analysis/diversity.h"
#include "core/policy.h"
#include "power/battery.h"

namespace wildenergy {
namespace {

TEST(Battery, CapacityAndPercent) {
  power::BatteryParams s3;  // 2100 mAh @ 3.8 V = 28728 J
  EXPECT_NEAR(s3.capacity_joules(), 28'728.0, 1.0);
  EXPECT_NEAR(power::battery_percent(2'872.8), 10.0, 0.01);
  EXPECT_NEAR(power::battery_percent_per_day(28'728.0, 10.0), 10.0, 0.01);
  EXPECT_EQ(power::battery_percent_per_day(100.0, 0.0), 0.0);
}

TEST(Battery, StandbyHoursLost) {
  // 90 J/day at 25 mW idle = 1 h of standby.
  EXPECT_NEAR(power::standby_hours_lost_per_day(90.0), 1.0, 1e-9);
}

TEST(Diversity, IdenticalListsHaveJaccardOne) {
  energy::EnergyLedger ledger;
  trace::StudyMeta meta;
  meta.num_users = 2;
  meta.study_end = kEpoch + days(1.0);
  ledger.on_study_begin(meta);
  for (trace::UserId u = 0; u < 2; ++u) {
    for (trace::AppId a = 0; a < 3; ++a) {
      trace::PacketRecord p;
      p.time = kEpoch + sec(10.0);
      p.user = u;
      p.app = a;
      p.bytes = 1000 * (a + 1);
      deliver(ledger, p);
    }
  }
  const auto d = analysis::top_n_diversity(ledger, 10);
  EXPECT_EQ(d.users, 2u);
  EXPECT_DOUBLE_EQ(d.mean_pairwise_jaccard, 1.0);
  EXPECT_EQ(d.universal_apps, 3u);
  EXPECT_EQ(d.single_user_apps, 0u);
}

TEST(Diversity, DisjointListsHaveJaccardZero) {
  energy::EnergyLedger ledger;
  trace::StudyMeta meta;
  meta.num_users = 2;
  meta.study_end = kEpoch + days(1.0);
  ledger.on_study_begin(meta);
  for (trace::UserId u = 0; u < 2; ++u) {
    trace::PacketRecord p;
    p.time = kEpoch + sec(10.0);
    p.user = u;
    p.app = u + 10;  // different app per user
    p.bytes = 1000;
    deliver(ledger, p);
  }
  const auto d = analysis::top_n_diversity(ledger, 10);
  EXPECT_DOUBLE_EQ(d.mean_pairwise_jaccard, 0.0);
  EXPECT_EQ(d.single_user_apps, 2u);
  EXPECT_EQ(d.universal_apps, 0u);
}

trace::StudyMeta meta10d() {
  trace::StudyMeta meta;
  meta.num_users = 1;
  meta.num_apps = 4;
  meta.study_begin = kEpoch;
  meta.study_end = kEpoch + days(10.0);
  return meta;
}

trace::PacketRecord bg_pkt(double t_hours, trace::AppId app) {
  trace::PacketRecord p;
  p.time = kEpoch + hours(t_hours);
  p.app = app;
  p.bytes = 1000;
  p.state = trace::ProcessState::kService;
  return p;
}

TEST(AppStandbyPolicy, RateLimitsIdleApps) {
  // idle threshold 1 day; windows of 10 min every 6 h.
  trace::TraceCollector out;
  core::AppStandbyPolicy policy{&out, days(1.0), hours(6.0), minutes(10.0)};
  policy.on_study_begin(meta10d());
  policy.on_user_begin(0);
  // Hourly updates for 3 days from an app never foregrounded.
  for (int h = 0; h < 72; ++h) deliver(policy, bg_pkt(h, 1));
  policy.on_user_end(0);
  // First 24 h (25 packets, h=0..24) pass; beyond that, roughly one packet
  // per 6-hour window.
  EXPECT_GT(policy.packets_dropped(), 30u);
  EXPECT_LT(out.packets().size(), 72u - 30u);
  EXPECT_GT(out.packets().size(), 25u);  // the windows do admit syncs
}

TEST(AppStandbyPolicy, ActiveAppsUnrestricted) {
  trace::TraceCollector out;
  core::AppStandbyPolicy policy{&out, days(1.0), hours(6.0), minutes(10.0)};
  policy.on_study_begin(meta10d());
  policy.on_user_begin(0);
  for (int h = 0; h < 72; ++h) {
    if (h % 12 == 0) {  // user opens the app twice a day
      trace::StateTransition t;
      t.time = kEpoch + hours(static_cast<double>(h));
      t.app = 1;
      t.from = trace::ProcessState::kBackground;
      t.to = trace::ProcessState::kForeground;
      deliver(policy, t);
    }
    deliver(policy, bg_pkt(h + 0.5, 1));
  }
  policy.on_user_end(0);
  EXPECT_EQ(policy.packets_dropped(), 0u);
}

TEST(AppStandbyPolicy, GentlerThanKillPolicy) {
  // Same idle stream through both policies: standby must admit strictly
  // more than kill-after-idle.
  const auto run = [](core::PacketFilterPolicy& policy) {
    policy.on_study_begin(meta10d());
    policy.on_user_begin(0);
    for (int h = 0; h < 200; ++h) deliver(policy, bg_pkt(h, 1));
    policy.on_user_end(0);
  };
  trace::TraceCollector out1;
  core::AppStandbyPolicy standby{&out1, days(1.0), hours(6.0), minutes(10.0)};
  run(standby);
  trace::TraceCollector out2;
  core::KillAfterIdlePolicy kill{&out2, days(1.0)};
  run(kill);
  EXPECT_GT(out1.packets().size(), out2.packets().size());
}

}  // namespace
}  // namespace wildenergy
