// Tests for the wasted-update and longitudinal analyses.
#include <gtest/gtest.h>

#include "deliver.h"
#include "analysis/longitudinal.h"
#include "analysis/waste.h"
#include "trace/interface_filter.h"

namespace wildenergy::analysis {
namespace {

using trace::PacketRecord;
using trace::ProcessState;
using trace::StateTransition;

trace::StudyMeta meta_days(double num_days) {
  trace::StudyMeta meta;
  meta.num_users = 1;
  meta.num_apps = 8;
  meta.study_begin = kEpoch;
  meta.study_end = kEpoch + days(num_days);
  return meta;
}

PacketRecord pkt(double t_s, trace::AppId app, ProcessState state, double joules = 2.0,
                 std::uint64_t bytes = 100) {
  PacketRecord p;
  p.time = kEpoch + sec(t_s);
  p.app = app;
  p.bytes = bytes;
  p.state = state;
  p.joules = joules;
  return p;
}

StateTransition to_fg(double t_s, trace::AppId app) {
  StateTransition t;
  t.time = kEpoch + sec(t_s);
  t.app = app;
  t.from = ProcessState::kBackground;
  t.to = ProcessState::kForeground;
  return t;
}

TEST(WastedUpdates, UpdateFollowedByUseIsUseful) {
  WastedUpdateAnalysis waste{{1}, hours(12.0)};
  waste.on_study_begin(meta_days(2.0));
  waste.on_user_begin(0);
  deliver(waste, pkt(1000.0, 1, ProcessState::kService));  // update
  deliver(waste, to_fg(5000.0, 1));                    // used ~1 h later
  waste.on_user_end(0);
  const auto r = waste.result(1);
  EXPECT_EQ(r.updates, 1u);
  EXPECT_EQ(r.wasted_updates, 0u);
  EXPECT_DOUBLE_EQ(r.wasted_joules, 0.0);
}

TEST(WastedUpdates, StaleUpdateIsWasted) {
  WastedUpdateAnalysis waste{{1}, hours(1.0)};
  waste.on_study_begin(meta_days(3.0));
  waste.on_user_begin(0);
  deliver(waste, pkt(1000.0, 1, ProcessState::kService, 2.0));
  deliver(waste, to_fg(1000.0 + 3.0 * 3600.0, 1));  // 3 h later: too late
  waste.on_user_end(0);
  const auto r = waste.result(1);
  EXPECT_EQ(r.updates, 1u);
  EXPECT_EQ(r.wasted_updates, 1u);
  EXPECT_DOUBLE_EQ(r.wasted_joules, 2.0);
  EXPECT_DOUBLE_EQ(r.wasted_energy_fraction(), 1.0);
}

TEST(WastedUpdates, NeverUsedAllWasted) {
  WastedUpdateAnalysis waste{{1}, hours(12.0)};
  waste.on_study_begin(meta_days(5.0));
  waste.on_user_begin(0);
  for (int i = 0; i < 10; ++i) {
    deliver(waste, pkt(3600.0 * (i + 1) * 4, 1, ProcessState::kService, 1.0));
  }
  waste.on_user_end(0);
  const auto r = waste.result(1);
  EXPECT_EQ(r.updates, 10u);
  EXPECT_EQ(r.wasted_updates, 10u);
  EXPECT_DOUBLE_EQ(r.wasted_update_fraction(), 1.0);
}

TEST(WastedUpdates, BurstsWithinOneFlowAreOneUpdate) {
  WastedUpdateAnalysis waste{{1}, hours(12.0)};
  waste.on_study_begin(meta_days(1.0));
  waste.on_user_begin(0);
  // Three packets 2 s apart: one reconstructed flow, one update.
  deliver(waste, pkt(100.0, 1, ProcessState::kService, 1.0));
  deliver(waste, pkt(102.0, 1, ProcessState::kService, 1.0));
  deliver(waste, pkt(104.0, 1, ProcessState::kService, 1.0));
  waste.on_user_end(0);
  EXPECT_EQ(waste.result(1).updates, 1u);
}

TEST(WastedUpdates, UntrackedAppsIgnored) {
  WastedUpdateAnalysis waste{{1}, hours(12.0)};
  waste.on_study_begin(meta_days(1.0));
  waste.on_user_begin(0);
  deliver(waste, pkt(100.0, 2, ProcessState::kService));
  waste.on_user_end(0);
  EXPECT_EQ(waste.result(2).updates, 0u);
}

TEST(Longitudinal, WeeklySeriesAccumulates) {
  LongitudinalAnalysis lon{{1}};
  lon.on_study_begin(meta_days(28.0));
  deliver(lon, pkt(3600.0, 1, ProcessState::kService, 10.0));             // week 0
  deliver(lon, pkt(8.0 * 86400.0, 1, ProcessState::kService, 20.0));      // week 1
  deliver(lon, pkt(8.5 * 86400.0, 1, ProcessState::kForeground, 7.0));    // week 1 fg
  ASSERT_EQ(lon.overall().weeks(), 4u);
  EXPECT_DOUBLE_EQ(lon.overall().bg_joules[0], 10.0);
  EXPECT_DOUBLE_EQ(lon.overall().bg_joules[1], 20.0);
  EXPECT_DOUBLE_EQ(lon.overall().fg_joules[1], 7.0);
}

TEST(Longitudinal, EraComparisonDetectsEfficiencyGain) {
  LongitudinalAnalysis lon{{1}};
  lon.on_study_begin(meta_days(90.0));
  // Early era: 10 J per 100 B. Late era: 1 J per 100 B (batched updates).
  for (int d = 0; d < 30; ++d) {
    deliver(lon, pkt(d * 86400.0 + 60.0, 1, ProcessState::kService, 10.0, 100));
  }
  for (int d = 60; d < 90; ++d) {
    deliver(lon, pkt(d * 86400.0 + 60.0, 1, ProcessState::kService, 1.0, 100));
  }
  const auto era = lon.era_comparison(1);
  EXPECT_NEAR(era.early_joules_per_day, 10.0, 1e-9);
  EXPECT_NEAR(era.late_joules_per_day, 1.0, 1e-9);
  EXPECT_NEAR(era.efficiency_ratio(), 0.1, 1e-9);
}

TEST(Longitudinal, FluctuationMetric) {
  WeeklySeries s;
  s.bg_joules = {0.0, 100.0, 100.0, 160.0, 100.0, 100.0, 100.0};
  s.fg_joules.assign(s.bg_joules.size(), 0.0);
  EXPECT_NEAR(s.max_weekly_bg_fluctuation(), 0.6, 1e-9);
}

TEST(InterfaceFilter, DropsOtherInterface) {
  trace::TraceCollector out;
  trace::InterfaceFilter filter{&out, trace::Interface::kCellular};
  filter.on_study_begin(meta_days(1.0));
  filter.on_user_begin(0);
  PacketRecord cell = pkt(1.0, 1, ProcessState::kService);
  PacketRecord wifi = pkt(2.0, 1, ProcessState::kService);
  wifi.interface = trace::Interface::kWifi;
  wifi.bytes = 777;
  deliver(filter, cell);
  deliver(filter, wifi);
  deliver(filter, to_fg(3.0, 1));
  filter.on_user_end(0);
  ASSERT_EQ(out.packets().size(), 1u);
  EXPECT_EQ(out.packets()[0].interface, trace::Interface::kCellular);
  EXPECT_EQ(out.transitions().size(), 1u);  // transitions always pass
  EXPECT_EQ(filter.dropped_packets(), 1u);
  EXPECT_EQ(filter.dropped_bytes(), 777u);
}

}  // namespace
}  // namespace wildenergy::analysis
