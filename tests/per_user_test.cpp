// Tests for the per-user summaries (analysis/per_user.h).
#include <gtest/gtest.h>

#include "deliver.h"
#include "analysis/per_user.h"

namespace wildenergy::analysis {
namespace {

energy::EnergyLedger two_user_ledger() {
  energy::EnergyLedger ledger;
  trace::StudyMeta meta;
  meta.num_users = 2;
  meta.study_begin = kEpoch;
  meta.study_end = kEpoch + days(10.0);
  ledger.on_study_begin(meta);

  const auto add = [&](trace::UserId u, trace::AppId a, double joules, std::uint64_t bytes,
                       trace::ProcessState state) {
    trace::PacketRecord p;
    p.time = kEpoch + sec(100.0);
    p.user = u;
    p.app = a;
    p.bytes = bytes;
    p.state = state;
    p.joules = joules;
    deliver(ledger, p);
  };
  add(0, 1, 30.0, 1000, trace::ProcessState::kForeground);
  add(0, 2, 70.0, 2000, trace::ProcessState::kService);
  add(1, 3, 10.0, 500, trace::ProcessState::kBackground);
  return ledger;
}

TEST(PerUser, SummariesSplitByUser) {
  const auto summaries = per_user_summaries(two_user_ledger());
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].user, 0u);
  EXPECT_NEAR(summaries[0].joules, 100.0, 1e-9);
  EXPECT_EQ(summaries[0].bytes, 3000u);
  EXPECT_NEAR(summaries[0].background_fraction, 0.7, 1e-9);
  EXPECT_EQ(summaries[1].user, 1u);
  EXPECT_NEAR(summaries[1].background_fraction, 1.0, 1e-9);
}

TEST(PerUser, TopAppsOrderedByEnergy) {
  const auto summaries = per_user_summaries(two_user_ledger(), 2);
  ASSERT_GE(summaries[0].top_apps.size(), 2u);
  EXPECT_EQ(summaries[0].top_apps[0], 2u);  // 70 J beats 30 J
  EXPECT_EQ(summaries[0].top_apps[1], 1u);
}

TEST(PerUser, BatteryConversion) {
  const auto summaries = per_user_summaries(two_user_ledger());
  // 100 J over 10 days on a 28.7 kJ battery: ~0.035 %/day.
  EXPECT_NEAR(summaries[0].battery_pct_per_day(10.0), 0.0348, 0.001);
  EXPECT_NEAR(summaries[0].joules_per_day(10.0), 10.0, 1e-9);
}

}  // namespace
}  // namespace wildenergy::analysis
