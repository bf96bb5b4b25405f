// Second-round coverage: behaviours not pinned elsewhere.
#include <gtest/gtest.h>

#include <sstream>

#include "deliver.h"
#include "analysis/figures.h"
#include "analysis/whatif.h"
#include "energy/attributor.h"
#include "radio/burst_machine.h"
#include "radio/timeline.h"
#include "sim/generator.h"
#include "trace/sink.h"

namespace wildenergy {
namespace {

using trace::PacketRecord;
using trace::ProcessState;

trace::StudyMeta meta(double num_days, std::uint32_t users = 1) {
  trace::StudyMeta m;
  m.num_users = users;
  m.num_apps = 8;
  m.study_begin = kEpoch;
  m.study_end = kEpoch + days(num_days);
  return m;
}

PacketRecord pkt(double day, trace::UserId user, trace::AppId app, ProcessState state,
                 double joules = 1.0, std::uint64_t bytes = 100) {
  PacketRecord p;
  p.time = kEpoch + days(day) + sec(60.0);
  p.user = user;
  p.app = app;
  p.bytes = bytes;
  p.state = state;
  p.joules = joules;
  return p;
}

TEST(FiguresGaps, Top10PopularityHandlesFewAppsPerUser) {
  energy::EnergyLedger ledger;
  ledger.on_study_begin(meta(1.0, 3));
  // Users with fewer than 10 apps: every app is "top-10".
  for (trace::UserId u = 0; u < 3; ++u) {
    deliver(ledger, pkt(0, u, 1, ProcessState::kService, 1.0, 100 * (u + 1)));
  }
  const auto pop = analysis::top10_popularity(ledger, 2);
  ASSERT_EQ(pop.size(), 1u);
  EXPECT_EQ(pop[0].users_with_app_in_top10, 3u);
}

TEST(FiguresGaps, BreakdownOfUnknownAppIsZero) {
  energy::EnergyLedger ledger;
  ledger.on_study_begin(meta(1.0));
  const auto b = analysis::state_breakdown(ledger, 42);
  EXPECT_EQ(b.total_joules, 0.0);
  EXPECT_EQ(b.background_fraction(), 0.0);
}

TEST(WhatIfGaps, TrailingBackgroundRunWithoutClosingFgNotCountedInB) {
  // Row B requires fg traffic at both ends of the stretch; a run that ends
  // at study end without further fg use must not set the maximum.
  energy::EnergyLedger ledger;
  ledger.on_study_begin(meta(10.0));
  deliver(ledger, pkt(0, 0, 7, ProcessState::kForeground));
  deliver(ledger, pkt(1, 0, 7, ProcessState::kService));
  deliver(ledger, pkt(2, 0, 7, ProcessState::kForeground));  // closes a 1-day run
  for (int d = 3; d < 10; ++d) deliver(ledger, pkt(d, 0, 7, ProcessState::kService));
  const auto row = analysis::whatif_kill_after(ledger, 7, 3);
  EXPECT_EQ(row.max_consecutive_bg_days, 1);  // not 7
}

TEST(WhatIfGaps, ZeroIdleDaysSuppressesAllNonFgDays) {
  energy::EnergyLedger ledger;
  ledger.on_study_begin(meta(5.0));
  deliver(ledger, pkt(0, 0, 7, ProcessState::kForeground));
  for (int d = 1; d < 5; ++d) deliver(ledger, pkt(d, 0, 7, ProcessState::kService, 2.0));
  const auto row = analysis::whatif_kill_after(ledger, 7, 0);
  EXPECT_NEAR(row.saved_joules, 8.0, 1e-9);  // days 1-4
}

TEST(AttributorGaps, UserWithNoPacketsIsHarmless) {
  trace::TraceCollector out;
  energy::EnergyAttributor attr{radio::make_lte_model, &out};
  attr.on_study_begin(meta(1.0, 2));
  attr.on_user_begin(0);
  attr.on_user_end(0);
  attr.on_user_begin(1);
  deliver(attr, pkt(0, 1, 1, ProcessState::kService));
  attr.on_user_end(1);
  attr.on_study_end();
  EXPECT_EQ(out.packets().size(), 1u);
  EXPECT_GT(attr.attributed_joules(), 0.0);
}

TEST(AttributorGaps, SimultaneousPacketsBothAttributed) {
  trace::TraceCollector out;
  energy::EnergyAttributor attr{radio::make_lte_model, &out};
  attr.on_study_begin(meta(1.0));
  attr.on_user_begin(0);
  PacketRecord a = pkt(0, 0, 1, ProcessState::kService, 0.0, 5000);
  PacketRecord b = pkt(0, 0, 2, ProcessState::kService, 0.0, 5000);
  b.time = a.time;  // identical timestamps: device-level queueing
  deliver(attr, a);
  deliver(attr, b);
  attr.on_user_end(0);
  ASSERT_EQ(out.packets().size(), 2u);
  EXPECT_GT(out.packets()[0].joules, 0.0);
  EXPECT_GT(out.packets()[1].joules, 0.0);
  // The later-fed packet owns the tail (paper rule) => it gets more energy.
  EXPECT_GT(out.packets()[1].joules, out.packets()[0].joules);
}

TEST(GeneratorGaps, WifiAvailabilityTagsPackets) {
  sim::StudyConfig cfg = sim::small_study(5);
  cfg.num_users = 2;
  cfg.num_days = 10;
  cfg.total_apps = 40;
  cfg.wifi_availability = 0.5;
  trace::TraceCollector out;
  sim::StudyGenerator{cfg}.run(out);

  std::uint64_t wifi = 0;
  std::uint64_t cell = 0;
  for (const auto& p : out.packets()) {
    (p.interface == trace::Interface::kWifi ? wifi : cell) += 1;
  }
  EXPECT_GT(wifi, 0u);
  EXPECT_GT(cell, 0u);
  // Roughly half the day is a WiFi window, but usage is diurnal, so accept a
  // broad band.
  const double wifi_frac = static_cast<double>(wifi) / static_cast<double>(wifi + cell);
  EXPECT_GT(wifi_frac, 0.15);
  EXPECT_LT(wifi_frac, 0.85);
}

TEST(GeneratorGaps, WifiDisabledByDefault) {
  sim::StudyConfig cfg = sim::small_study(5);
  cfg.num_users = 1;
  cfg.num_days = 5;
  cfg.total_apps = 30;
  trace::TraceCollector out;
  sim::StudyGenerator{cfg}.run(out);
  for (const auto& p : out.packets()) {
    ASSERT_EQ(p.interface, trace::Interface::kCellular);
  }
}

TEST(RadioGaps, ModelNamesAreStable) {
  EXPECT_EQ(radio::make_lte_model()->name(), "LTE");
  EXPECT_EQ(radio::make_lte_fast_dormancy_model()->name(), "LTE-FD");
  EXPECT_EQ(radio::make_umts_model()->name(), "UMTS");
  EXPECT_EQ(radio::make_wifi_model()->name(), "WiFi");
}

TEST(RadioGaps, FinishIsIdempotentViaReset) {
  radio::BurstMachine lte{radio::lte_params()};
  radio::RadioTimeline tl;
  lte.on_transfer({TimePoint{0}, 100, radio::Direction::kDownlink}, tl.sink());
  lte.finish(TimePoint{0} + minutes(1.0), tl.sink());
  const std::size_t after_first = tl.size();
  lte.finish(TimePoint{0} + minutes(2.0), tl.sink());  // reset machine: no-op
  EXPECT_EQ(tl.size(), after_first);
}

}  // namespace
}  // namespace wildenergy
