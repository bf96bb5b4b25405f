// Unit tests for the radio power models (src/radio/).
#include <gtest/gtest.h>

#include "radio/burst_machine.h"
#include "radio/timeline.h"

namespace wildenergy::radio {
namespace {

TEST(BurstMachine, IsolatedBurstMatchesClosedForm) {
  BurstMachine lte{lte_params()};
  RadioTimeline tl;
  lte.on_transfer({TimePoint{0}, 1000, Direction::kDownlink}, tl.sink());
  lte.finish(TimePoint{0} + hours(1.0), tl.sink());

  const double expected = lte.isolated_burst_energy(1000, Direction::kDownlink);
  // Timeline total additionally includes trailing idle energy.
  const double idle = lte_params().idle_power_w;
  EXPECT_NEAR(tl.total_joules() - tl.joules_of_kind(SegmentKind::kIdle), expected, 1e-9);
  EXPECT_GT(tl.joules_of_kind(SegmentKind::kIdle), 0.0);
  EXPECT_LT(tl.joules_of_kind(SegmentKind::kIdle), idle * 3600.0);
}

TEST(BurstMachine, SegmentsAreContiguous) {
  BurstMachine lte{lte_params()};
  RadioTimeline tl;
  TimePoint t{0};
  for (int i = 0; i < 20; ++i) {
    lte.on_transfer({t, 5000, Direction::kDownlink}, tl.sink());
    t += sec(i % 2 == 0 ? 3.0 : 40.0);  // alternate: within tail / past tail
  }
  lte.finish(t + minutes(5.0), tl.sink());
  EXPECT_TRUE(tl.is_contiguous());
}

TEST(BurstMachine, ArrivalWithinTailSkipsPromotion) {
  BurstMachine lte{lte_params()};
  RadioTimeline tl;
  lte.on_transfer({TimePoint{0}, 100, Direction::kDownlink}, tl.sink());
  // 5 s later: well within the 11.6 s LTE tail.
  lte.on_transfer({TimePoint{0} + sec(5.0), 100, Direction::kDownlink}, tl.sink());
  lte.finish(TimePoint{0} + minutes(2.0), tl.sink());

  int promotions = 0;
  for (const auto& s : tl.segments()) {
    if (s.kind == SegmentKind::kPromotion) ++promotions;
  }
  EXPECT_EQ(promotions, 1);
}

TEST(BurstMachine, ArrivalAfterTailPaysPromotionAgain)
{
  BurstMachine lte{lte_params()};
  RadioTimeline tl;
  lte.on_transfer({TimePoint{0}, 100, Direction::kDownlink}, tl.sink());
  lte.on_transfer({TimePoint{0} + minutes(5.0), 100, Direction::kDownlink}, tl.sink());
  lte.finish(TimePoint{0} + minutes(10.0), tl.sink());

  int promotions = 0;
  for (const auto& s : tl.segments()) {
    if (s.kind == SegmentKind::kPromotion) ++promotions;
  }
  EXPECT_EQ(promotions, 2);
}

TEST(BurstMachine, UmtsMidFachTailRequiresRepromotion) {
  BurstMachine umts{umts_params()};
  RadioTimeline tl;
  umts.on_transfer({TimePoint{0}, 100, Direction::kDownlink}, tl.sink());
  // DCH tail is 5 s; FACH tail runs for the following 12 s. Arrive at +10 s
  // (in FACH) => FACH->DCH repromotion expected.
  umts.on_transfer({TimePoint{0} + sec(10.5), 100, Direction::kDownlink}, tl.sink());
  umts.finish(TimePoint{0} + minutes(2.0), tl.sink());

  int promotions = 0;
  bool saw_fach_to_dch = false;
  for (const auto& s : tl.segments()) {
    if (s.kind == SegmentKind::kPromotion) {
      ++promotions;
      if (std::string_view{s.state_name} == "UMTS_FACH_TO_DCH") saw_fach_to_dch = true;
    }
  }
  EXPECT_EQ(promotions, 2);
  EXPECT_TRUE(saw_fach_to_dch);
}

TEST(BurstMachine, QueuedTransfersSerializeWithoutGap) {
  BurstMachine lte{lte_params()};
  RadioTimeline tl;
  // Three bursts at the same instant: airtime must serialize back-to-back.
  for (int i = 0; i < 3; ++i) {
    lte.on_transfer({TimePoint{0}, 1'000'000, Direction::kDownlink}, tl.sink());
  }
  lte.finish(TimePoint{0} + minutes(2.0), tl.sink());
  EXPECT_TRUE(tl.is_contiguous());

  int transfers = 0;
  for (const auto& s : tl.segments()) {
    if (s.kind == SegmentKind::kTransfer) ++transfers;
  }
  EXPECT_EQ(transfers, 3);
}

TEST(BurstMachine, TailEnergyBoundedByTailParams) {
  const auto params = lte_params();
  BurstMachine lte{params};
  RadioTimeline tl;
  lte.on_transfer({TimePoint{0}, 100, Direction::kUplink}, tl.sink());
  lte.finish(TimePoint{0} + hours(1.0), tl.sink());

  double tail_cap = 0.0;
  for (const auto& phase : params.tail_phases) {
    tail_cap += phase.power_w * phase.duration.seconds();
  }
  EXPECT_LE(tl.joules_of_kind(SegmentKind::kTail), tail_cap + 1e-9);
  EXPECT_NEAR(tl.joules_of_kind(SegmentKind::kTail), tail_cap, 1e-9);
}

TEST(BurstMachine, FastDormancyCutsTailEnergy) {
  BurstMachine lte{lte_params()};
  BurstMachine fd{lte_fast_dormancy_params()};
  const double e_lte = lte.isolated_burst_energy(1000, Direction::kDownlink);
  const double e_fd = fd.isolated_burst_energy(1000, Direction::kDownlink);
  EXPECT_LT(e_fd, e_lte * 0.4);  // FD removes most of the 11.6 s tail
}

TEST(BurstMachine, UplinkCostsMoreThanDownlinkPerByte) {
  BurstMachine lte{lte_params()};
  const std::uint64_t big = 20'000'000;  // rate-limited regime
  EXPECT_GT(lte.isolated_burst_energy(big, Direction::kUplink),
            lte.isolated_burst_energy(big, Direction::kDownlink));
}

TEST(BurstMachine, SmallTransfersDominatedByTail) {
  // The paper's core premise: tiny periodic requests are disproportionately
  // expensive because tail energy is independent of payload size.
  BurstMachine lte{lte_params()};
  const double tiny = lte.isolated_burst_energy(200, Direction::kUplink);
  const double tail_only = lte_params().tail_phases[0].power_w * 1.0 +
                           lte_params().tail_phases[1].power_w * 10.576;
  EXPECT_GT(tail_only / tiny, 0.8);  // >80% of a tiny burst's energy is tail
}

TEST(BurstMachine, IsPoweredAtTracksTail) {
  BurstMachine lte{lte_params()};
  RadioTimeline tl;
  EXPECT_FALSE(lte.is_powered_at(TimePoint{0}));
  lte.on_transfer({TimePoint{0}, 100, Direction::kDownlink}, tl.sink());
  EXPECT_TRUE(lte.is_powered_at(TimePoint{0} + sec(5.0)));
  EXPECT_FALSE(lte.is_powered_at(TimePoint{0} + sec(60.0)));
}

TEST(BurstMachine, ResetForgetsHistory) {
  BurstMachine lte{lte_params()};
  RadioTimeline tl;
  lte.on_transfer({TimePoint{0}, 100, Direction::kDownlink}, tl.sink());
  lte.reset();
  EXPECT_FALSE(lte.is_powered_at(TimePoint{0} + sec(1.0)));

  // After reset the machine accepts a fresh stream starting earlier.
  RadioTimeline tl2;
  lte.on_transfer({TimePoint{0}, 100, Direction::kDownlink}, tl2.sink());
  lte.finish(TimePoint{0} + minutes(1.0), tl2.sink());
  EXPECT_TRUE(tl2.is_contiguous());
}

// Property sweep: energy is monotone in payload bytes for every model.
class ModelEnergyMonotone : public ::testing::TestWithParam<const char*> {};

TEST_P(ModelEnergyMonotone, EnergyMonotoneInBytes) {
  std::unique_ptr<BurstMachine> model;
  const std::string_view which = GetParam();
  if (which == "lte") model = make_lte_model();
  if (which == "lte_fd") model = make_lte_fast_dormancy_model();
  if (which == "umts") model = make_umts_model();
  if (which == "wifi") model = make_wifi_model();
  ASSERT_NE(model, nullptr);

  auto* machine = dynamic_cast<BurstMachine*>(model.get());
  ASSERT_NE(machine, nullptr);
  double prev = 0.0;
  for (std::uint64_t bytes : {0ULL, 100ULL, 10'000ULL, 1'000'000ULL, 100'000'000ULL}) {
    const double e = machine->isolated_burst_energy(bytes, Direction::kDownlink);
    EXPECT_GE(e, prev) << which << " bytes=" << bytes;
    EXPECT_GT(e, 0.0);
    prev = e;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelEnergyMonotone,
                         ::testing::Values("lte", "lte_fd", "umts", "wifi"));

}  // namespace
}  // namespace wildenergy::radio
