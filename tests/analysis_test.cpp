// Tests for the analysis modules on hand-built traces with known answers.
#include <gtest/gtest.h>

#include "deliver.h"
#include "analysis/figures.h"
#include "analysis/persistence.h"
#include "analysis/time_since_fg.h"
#include "analysis/whatif.h"
#include "energy/ledger.h"

namespace wildenergy::analysis {
namespace {

using trace::PacketRecord;
using trace::ProcessState;
using trace::StateTransition;

trace::StudyMeta meta_days(std::uint32_t users, double num_days) {
  trace::StudyMeta meta;
  meta.num_users = users;
  meta.num_apps = 16;
  meta.study_begin = kEpoch;
  meta.study_end = kEpoch + days(num_days);
  return meta;
}

PacketRecord pkt(double t_s, trace::UserId user, trace::AppId app, std::uint64_t bytes,
                 ProcessState state, double joules = 1.0) {
  PacketRecord p;
  p.time = kEpoch + sec(t_s);
  p.user = user;
  p.app = app;
  p.bytes = bytes;
  p.state = state;
  p.joules = joules;
  return p;
}

StateTransition trans(double t_s, trace::UserId user, trace::AppId app, bool to_fg) {
  StateTransition t;
  t.time = kEpoch + sec(t_s);
  t.user = user;
  t.app = app;
  t.from = to_fg ? ProcessState::kBackground : ProcessState::kForeground;
  t.to = to_fg ? ProcessState::kForeground : ProcessState::kBackground;
  return t;
}

// ---------------------------------------------------------------------------
// PersistenceAnalysis (Fig. 5)
// ---------------------------------------------------------------------------

TEST(Persistence, MeasuresDurationUntilQuietGap) {
  PersistenceAnalysis pa{minutes(10.0)};
  pa.on_study_begin(meta_days(1, 1));
  pa.on_user_begin(0);
  deliver(pa, trans(0.0, 0, 1, true));
  deliver(pa, trans(100.0, 0, 1, false));  // minimized at t=100
  // Traffic at 110, 150, 400; then silence.
  deliver(pa, pkt(110.0, 0, 1, 100, ProcessState::kBackground));
  deliver(pa, pkt(150.0, 0, 1, 100, ProcessState::kBackground));
  deliver(pa, pkt(400.0, 0, 1, 100, ProcessState::kBackground));
  pa.on_user_end(0);

  auto& d = pa.durations(1);
  ASSERT_EQ(d.count(), 1u);
  EXPECT_NEAR(d.percentile(1.0), 300.0, 1.0);  // 400 - 100
}

TEST(Persistence, QuietGapEndsEpisodeBeforeLaterTraffic) {
  PersistenceAnalysis pa{minutes(10.0)};
  pa.on_study_begin(meta_days(1, 1));
  pa.on_user_begin(0);
  deliver(pa, trans(100.0, 0, 1, false));
  deliver(pa, pkt(130.0, 0, 1, 100, ProcessState::kBackground));
  // 2 hours later: a periodic timer, NOT persisting foreground traffic.
  deliver(pa, pkt(7330.0, 0, 1, 100, ProcessState::kService));
  pa.on_user_end(0);
  auto& d = pa.durations(1);
  ASSERT_EQ(d.count(), 1u);
  EXPECT_NEAR(d.percentile(1.0), 30.0, 1.0);
}

TEST(Persistence, TransitionWithoutTrafficIsZero) {
  PersistenceAnalysis pa;
  pa.on_study_begin(meta_days(1, 1));
  pa.on_user_begin(0);
  deliver(pa, trans(100.0, 0, 1, false));
  deliver(pa, trans(500.0, 0, 1, true));  // re-opened, no bg traffic seen
  pa.on_user_end(0);
  auto& d = pa.durations(1);
  ASSERT_EQ(d.count(), 1u);
  EXPECT_DOUBLE_EQ(d.percentile(1.0), 0.0);
}

TEST(Persistence, ForegroundPacketsIgnored) {
  PersistenceAnalysis pa;
  pa.on_study_begin(meta_days(1, 1));
  pa.on_user_begin(0);
  deliver(pa, trans(100.0, 0, 1, false));
  deliver(pa, pkt(150.0, 0, 1, 100, ProcessState::kForeground));  // other tab? ignored
  pa.on_user_end(0);
  auto& d = pa.durations(1);
  ASSERT_EQ(d.count(), 1u);
  EXPECT_DOUBLE_EQ(d.percentile(1.0), 0.0);
}

TEST(Persistence, PerAppSeparation) {
  PersistenceAnalysis pa;
  pa.on_study_begin(meta_days(1, 1));
  pa.on_user_begin(0);
  deliver(pa, trans(100.0, 0, 1, false));
  deliver(pa, trans(100.0, 0, 2, false));
  deliver(pa, pkt(200.0, 0, 2, 100, ProcessState::kBackground));
  pa.on_user_end(0);
  EXPECT_DOUBLE_EQ(pa.durations(1).percentile(1.0), 0.0);
  EXPECT_NEAR(pa.durations(2).percentile(1.0), 100.0, 1.0);
  EXPECT_NEAR(pa.fraction_persisting_longer_than(2, sec(50.0)), 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// TimeSinceForegroundAnalysis (Fig. 6)
// ---------------------------------------------------------------------------

TEST(TimeSinceFg, BinsBytesByDelay) {
  TimeSinceForegroundAnalysis tsf{hours(1.0), sec(30.0)};
  tsf.on_study_begin(meta_days(1, 1));
  tsf.on_user_begin(0);
  deliver(tsf, trans(1000.0, 0, 1, false));
  deliver(tsf, pkt(1010.0, 0, 1, 500, ProcessState::kBackground));   // bin 0
  deliver(tsf, pkt(1100.0, 0, 1, 700, ProcessState::kBackground));   // bin 3 (90-120 s)
  const auto& h = tsf.bytes_histogram();
  EXPECT_DOUBLE_EQ(h.bin_mass(0), 500.0);
  EXPECT_DOUBLE_EQ(h.bin_mass(3), 700.0);
}

TEST(TimeSinceFg, NeverForegroundedAppsExcluded) {
  TimeSinceForegroundAnalysis tsf;
  tsf.on_study_begin(meta_days(1, 1));
  tsf.on_user_begin(0);
  deliver(tsf, pkt(50.0, 0, 9, 1000, ProcessState::kService));  // widget, never fg
  EXPECT_EQ(tsf.bytes_histogram().total_mass(), 0.0);
  EXPECT_TRUE(tsf.app_tallies().empty());
}

TEST(TimeSinceFg, FrontloadedCriterion) {
  TimeSinceForegroundAnalysis tsf;
  tsf.on_study_begin(meta_days(1, 1));
  tsf.on_user_begin(0);
  // App 1: all bg bytes within 60 s => frontloaded.
  deliver(tsf, trans(0.0, 0, 1, false));
  deliver(tsf, pkt(30.0, 0, 1, 100'000, ProcessState::kBackground));
  // App 2: bytes well past 60 s => not frontloaded.
  deliver(tsf, trans(0.0, 0, 2, false));
  deliver(tsf, pkt(20.0, 0, 2, 10'000, ProcessState::kBackground));
  deliver(tsf, pkt(600.0, 0, 2, 90'000, ProcessState::kBackground));
  EXPECT_NEAR(tsf.fraction_of_apps_frontloaded(0.8, 1'000), 0.5, 1e-9);
}

TEST(TimeSinceFg, SpikeDetection) {
  TimeSinceForegroundAnalysis tsf{hours(1.0), sec(30.0)};
  tsf.on_study_begin(meta_days(1, 1));
  tsf.on_user_begin(0);
  // Many transitions, each followed by a burst exactly 5 min later, over a
  // modest uniform background.
  for (int i = 0; i < 200; ++i) {
    const double t0 = i * 7200.0;
    deliver(tsf, trans(t0, 0, 1, false));
    deliver(tsf, pkt(t0 + 310.0, 0, 1, 50'000, ProcessState::kService));  // 5-min timer
    deliver(tsf, pkt(t0 + 37.0 * (i % 40), 0, 1, 2'000, ProcessState::kBackground));
    deliver(tsf, trans(t0 + 3600.0, 0, 1, true));
    deliver(tsf, trans(t0 + 3610.0, 0, 1, false));
  }
  const auto spikes = tsf.spike_offsets_seconds(2);
  ASSERT_FALSE(spikes.empty());
  EXPECT_NEAR(spikes[0], 310.0, 30.0);
}

TEST(TimeSinceFg, StaleBackgroundPacketWhileForegroundIgnored) {
  TimeSinceForegroundAnalysis tsf;
  tsf.on_study_begin(meta_days(1, 1));
  tsf.on_user_begin(0);
  deliver(tsf, trans(0.0, 0, 1, false));
  deliver(tsf, trans(100.0, 0, 1, true));  // back in foreground
  deliver(tsf, pkt(150.0, 0, 1, 1000, ProcessState::kService));
  EXPECT_EQ(tsf.bytes_histogram().total_mass(), 0.0);
}

// ---------------------------------------------------------------------------
// Figures over a hand-built ledger
// ---------------------------------------------------------------------------

energy::EnergyLedger build_ledger() {
  energy::EnergyLedger ledger;
  ledger.on_study_begin(meta_days(3, 10));
  // User 0: app1 heavy data, app2 heavy energy.
  deliver(ledger, pkt(100.0, 0, 1, 10'000'000, ProcessState::kForeground, 5.0));
  deliver(ledger, pkt(200.0, 0, 2, 1'000, ProcessState::kService, 50.0));
  // User 1: both apps, app1 on top.
  deliver(ledger, pkt(100.0, 1, 1, 5'000'000, ProcessState::kForeground, 3.0));
  deliver(ledger, pkt(200.0, 1, 2, 500, ProcessState::kService, 20.0));
  // User 2: only app3.
  deliver(ledger, pkt(100.0, 2, 3, 2'000, ProcessState::kBackground, 2.0));
  return ledger;
}

TEST(Figures, TopConsumersDivergeByMetric) {
  const auto ledger = build_ledger();
  const auto by_data = top_consumers_by_data(ledger, 3);
  const auto by_energy = top_consumers_by_energy(ledger, 3);
  EXPECT_EQ(by_data[0].app, 1u);    // app1 moves the bytes
  EXPECT_EQ(by_energy[0].app, 2u);  // app2 burns the joules
  EXPECT_GT(by_energy[0].micro_joules_per_byte(), by_data[0].micro_joules_per_byte());
}

TEST(Figures, Top10PopularityCountsUsers) {
  const auto ledger = build_ledger();
  const auto pop = top10_popularity(ledger, /*min_users=*/2);
  ASSERT_FALSE(pop.empty());
  EXPECT_EQ(pop[0].users_with_app_in_top10, 2u);  // apps 1,2 shared by users 0,1
  for (const auto& e : pop) EXPECT_GE(e.users_with_app_in_top10, 2u);
}

TEST(Figures, StateBreakdownSumsToOne) {
  const auto ledger = build_ledger();
  const auto b = state_breakdown(ledger, 2);
  double sum = 0.0;
  for (double f : b.fraction) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_NEAR(b.background_fraction(), 1.0, 1e-9);  // app2 is all service
  const auto overall = overall_state_breakdown(ledger);
  EXPECT_GT(overall.background_fraction(), 0.8);  // 72/80 J are bg
}

// ---------------------------------------------------------------------------
// What-if (Table 2)
// ---------------------------------------------------------------------------

energy::EnergyLedger whatif_ledger() {
  energy::EnergyLedger ledger;
  ledger.on_study_begin(meta_days(1, 10.0));
  // App 7, user 0: fg on days 0 and 9; bg every day (10 J/day).
  for (int day = 0; day < 10; ++day) {
    const double t = day * 86400.0 + 3600.0;
    if (day == 0 || day == 9) {
      deliver(ledger, pkt(t, 0, 7, 1000, ProcessState::kForeground, 5.0));
    }
    deliver(ledger, pkt(t + 600.0, 0, 7, 500, ProcessState::kService, 10.0));
  }
  return ledger;
}

TEST(WhatIf, RowsMatchHandComputation) {
  const auto ledger = whatif_ledger();
  const auto row = whatif_kill_after(ledger, 7, 3);
  // Days 1..8 are bg-only: 8 of 10 days.
  EXPECT_NEAR(row.pct_days_background_only, 80.0, 1e-9);
  EXPECT_EQ(row.max_consecutive_bg_days, 8);
  // days_since_fg: day0 fg, suppressed once idle>3: days 4..8 => 5 days x 10 J
  // out of 110 J total.
  EXPECT_NEAR(row.saved_joules, 50.0, 1e-9);
  EXPECT_NEAR(row.pct_energy_saved, 100.0 * 50.0 / 110.0, 1e-6);
}

TEST(WhatIf, SilentDayBreaksConsecutiveRun) {
  energy::EnergyLedger ledger;
  ledger.on_study_begin(meta_days(1, 7.0));
  deliver(ledger, pkt(3600.0, 0, 7, 100, ProcessState::kForeground, 1.0));
  // bg on days 1,2; silence day 3; bg days 4,5; fg day 6.
  for (int day : {1, 2, 4, 5}) {
    deliver(ledger, pkt(day * 86400.0 + 600.0, 0, 7, 100, ProcessState::kService, 1.0));
  }
  deliver(ledger, pkt(6 * 86400.0 + 600.0, 0, 7, 100, ProcessState::kForeground, 1.0));
  const auto row = whatif_kill_after(ledger, 7, 3);
  EXPECT_EQ(row.max_consecutive_bg_days, 2);
}

TEST(WhatIf, NeverForegroundedAppFullySuppressed) {
  energy::EnergyLedger ledger;
  ledger.on_study_begin(meta_days(1, 10.0));
  for (int day = 0; day < 10; ++day) {
    deliver(ledger, pkt(day * 86400.0 + 60.0, 0, 3, 100, ProcessState::kService, 4.0));
  }
  const auto row = whatif_kill_after(ledger, 3, 3);
  EXPECT_NEAR(row.pct_energy_saved, 100.0, 1e-9);
  EXPECT_NEAR(row.pct_days_background_only, 100.0, 1e-9);
}

TEST(WhatIf, OverallAggregatesAllApps) {
  const auto ledger = whatif_ledger();
  const auto overall = whatif_overall(ledger, 3);
  EXPECT_NEAR(overall.saved_joules, 50.0, 1e-9);
  EXPECT_NEAR(overall.total_joules, 110.0, 1e-9);
  EXPECT_NEAR(overall.pct_saved(), 100.0 * 50.0 / 110.0, 1e-6);
}

TEST(WhatIf, AffectedDaysSavingsRelativeToDeviceTotal) {
  // Two apps: target app 7 (bg-only after day 0) and a busy app 8 that
  // dominates device energy on every day.
  energy::EnergyLedger ledger;
  ledger.on_study_begin(meta_days(1, 6.0));
  deliver(ledger, pkt(3600.0, 0, 7, 100, ProcessState::kForeground, 1.0));
  for (int day = 1; day < 6; ++day) {
    deliver(ledger, pkt(day * 86400.0 + 600.0, 0, 7, 100, ProcessState::kService, 10.0));
    deliver(ledger, pkt(day * 86400.0 + 900.0, 0, 8, 100, ProcessState::kForeground, 90.0));
  }
  const double pct = pct_saved_on_affected_days(ledger, 7, 3);
  // Affected days: 4 and 5 (idle > 3). Device energy those days: 2 x 100 J;
  // suppressed: 2 x 10 J => 10%.
  EXPECT_NEAR(pct, 10.0, 1e-6);
}

TEST(WhatIf, LongerIdleWindowSavesLess) {
  const auto ledger = whatif_ledger();
  const auto aggressive = whatif_kill_after(ledger, 7, 1);
  const auto lenient = whatif_kill_after(ledger, 7, 6);
  EXPECT_GT(aggressive.saved_joules, lenient.saved_joules);
}

}  // namespace
}  // namespace wildenergy::analysis
