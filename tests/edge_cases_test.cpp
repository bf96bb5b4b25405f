// Edge-case and property tests across modules: zero-byte bursts, boundary
// arrivals, timeline windows, cross-seed invariants.
#include <gtest/gtest.h>

#include <sstream>

#include "core/pipeline.h"
#include "sim/generator.h"
#include "trace/csv_io.h"
#include "radio/burst_machine.h"
#include "radio/timeline.h"
#include "trace/flow_assembler.h"

namespace wildenergy {
namespace {

using radio::BurstMachine;
using radio::Direction;
using radio::RadioTimeline;
using radio::SegmentKind;

TEST(BurstMachineEdge, ZeroByteBurstStillCostsAirtimeAndTail) {
  BurstMachine lte{radio::lte_params()};
  const double e = lte.isolated_burst_energy(0, Direction::kDownlink);
  // Promotion + min airtime + full tail: a "nearly empty" request is not free
  // — the core §4.2 finding.
  EXPECT_GT(e, 9.0);
}

TEST(BurstMachineEdge, ArrivalExactlyAtTailEndPaysPromotion) {
  const auto params = radio::lte_params();
  BurstMachine lte{params};
  RadioTimeline tl;
  lte.on_transfer({TimePoint{0}, 100, Direction::kDownlink}, tl.sink());
  // Active period = promotion (260 ms) + min airtime (250 ms); the tail ends
  // exactly total_tail() after that.
  const TimePoint tail_end = TimePoint{0} + params.idle_promotion.duration +
                             params.min_transfer_time + params.total_tail();
  lte.on_transfer({tail_end, 100, Direction::kDownlink}, tl.sink());
  lte.finish(tail_end + minutes(1.0), tl.sink());

  int promotions = 0;
  for (const auto& s : tl.segments()) {
    if (s.kind == SegmentKind::kPromotion) ++promotions;
  }
  EXPECT_EQ(promotions, 2);  // [begin,end) semantics: boundary = idle
  EXPECT_TRUE(tl.is_contiguous());
}

TEST(BurstMachineEdge, ArrivalJustBeforeTailEndSkipsPromotion) {
  const auto params = radio::lte_params();
  BurstMachine lte{params};
  RadioTimeline tl;
  lte.on_transfer({TimePoint{0}, 100, Direction::kDownlink}, tl.sink());
  const TimePoint just_before = TimePoint{0} + params.idle_promotion.duration +
                                params.min_transfer_time + params.total_tail() - usec(1);
  lte.on_transfer({just_before, 100, Direction::kDownlink}, tl.sink());
  lte.finish(just_before + minutes(1.0), tl.sink());

  int promotions = 0;
  for (const auto& s : tl.segments()) {
    if (s.kind == SegmentKind::kPromotion) ++promotions;
  }
  EXPECT_EQ(promotions, 1);
}

TEST(BurstMachineEdge, FinishBeforeTailCompletesClipsEnergy) {
  BurstMachine lte{radio::lte_params()};
  RadioTimeline tl;
  lte.on_transfer({TimePoint{0}, 100, Direction::kDownlink}, tl.sink());
  // Finish 1 s after the burst: only ~0.75 s of tail fits.
  lte.finish(TimePoint{0} + sec(1.0), tl.sink());
  const double full_tail = 1.0 * 1.0604 + 10.576 * 0.80;
  EXPECT_LT(tl.joules_of_kind(SegmentKind::kTail), full_tail * 0.2);
  EXPECT_TRUE(tl.is_contiguous());
}

TEST(RadioTimelineEdge, WindowQueriesProRate) {
  RadioTimeline tl;
  tl.add({TimePoint{0}, TimePoint{0} + sec(10.0), 100.0, SegmentKind::kTransfer, "X"});
  // Half the segment's duration => half its energy.
  EXPECT_NEAR(tl.joules_in_window(TimePoint{0} + sec(2.5), TimePoint{0} + sec(7.5)), 50.0, 1e-9);
  // Disjoint window => zero.
  EXPECT_DOUBLE_EQ(tl.joules_in_window(TimePoint{0} + sec(20.0), TimePoint{0} + sec(30.0)), 0.0);
  // Covering window => all.
  EXPECT_NEAR(tl.joules_in_window(TimePoint{0} - sec(5.0), TimePoint{0} + sec(50.0)), 100.0,
              1e-9);
}

TEST(RadioTimelineEdge, ContiguityDetectsGapsAndOverlaps) {
  RadioTimeline gap;
  gap.add({TimePoint{0}, TimePoint{10}, 1.0, SegmentKind::kIdle, "A"});
  gap.add({TimePoint{20}, TimePoint{30}, 1.0, SegmentKind::kIdle, "B"});
  EXPECT_FALSE(gap.is_contiguous());

  RadioTimeline overlap;
  overlap.add({TimePoint{0}, TimePoint{10}, 1.0, SegmentKind::kIdle, "A"});
  overlap.add({TimePoint{5}, TimePoint{15}, 1.0, SegmentKind::kIdle, "B"});
  EXPECT_FALSE(overlap.is_contiguous());
}

TEST(FlowAssemblerEdge, PacketExactlyAtGapBoundaryStaysInFlow) {
  std::vector<trace::FlowRecord> flows;
  trace::FlowAssembler fa{[&](const trace::FlowRecord& f) { flows.push_back(f); }, sec(15.0)};
  fa.reset();
  fa.begin_user();
  trace::PacketRecord p;
  p.app = 1;
  p.bytes = 10;
  p.time = kEpoch;
  fa.add(p);
  p.time = kEpoch + sec(15.0);  // exactly the gap: not *greater*, same flow
  fa.add(p);
  p.time = kEpoch + sec(15.0) + sec(15.0) + usec(1);  // just over: new flow
  fa.add(p);
  fa.end_user();
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].packets, 2u);
}

// Cross-seed property sweep: the pipeline invariants must hold for any seed.
class PipelineInvariants : public ::testing::TestWithParam<int> {};

TEST_P(PipelineInvariants, ConservationAndBoundsAcrossSeeds) {
  sim::StudyConfig cfg = sim::small_study(static_cast<std::uint64_t>(GetParam()));
  cfg.num_users = 3;
  cfg.num_days = 25;
  cfg.total_apps = 60;
  sim::StudyGenerator generator{cfg};
  core::StudyPipeline pipeline{&generator};
  pipeline.run();

  const auto& ledger = pipeline.ledger();
  const auto& attr = pipeline.attributor();
  // Conservation: ledger total == attributed total; device = attributed+idle.
  EXPECT_NEAR(ledger.total_joules(), attr.attributed_joules(),
              attr.attributed_joules() * 1e-9);
  EXPECT_NEAR(attr.device_joules(), attr.attributed_joules() + attr.baseline_joules(),
              attr.device_joules() * 1e-9);
  // Component split sums.
  EXPECT_NEAR(attr.attributed_joules(),
              attr.tail_joules() + attr.promotion_joules() + attr.transfer_joules(),
              attr.attributed_joules() * 1e-9);
  // Physical bounds: everything positive; tail dominates small-transfer mixes.
  EXPECT_GT(attr.tail_joules(), 0.0);
  EXPECT_GT(attr.promotion_joules(), 0.0);
  EXPECT_GT(attr.transfer_joules(), 0.0);
  // Per-state totals sum to the ledger total.
  double states = 0.0;
  for (double s : ledger.state_totals()) states += s;
  EXPECT_NEAR(states, ledger.total_joules(), ledger.total_joules() * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineInvariants, ::testing::Values(1, 7, 42, 1234, 99999));

// Cross-seed sweep: serialization round-trips for any generated stream.
class RoundTripAcrossSeeds : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripAcrossSeeds, CsvPreservesLedger) {
  sim::StudyConfig cfg = sim::small_study(static_cast<std::uint64_t>(GetParam()));
  cfg.num_users = 2;
  cfg.num_days = 10;
  cfg.total_apps = 40;
  sim::StudyGenerator generator{cfg};
  core::StudyPipeline pipeline{&generator};
  std::stringstream csv;
  trace::CsvTraceWriter writer{csv};
  pipeline.add_analysis(&writer);
  pipeline.run();

  energy::EnergyLedger replayed;
  const auto result = trace::read_csv_trace(csv, replayed);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(replayed.total_bytes(), pipeline.ledger().total_bytes());
  EXPECT_NEAR(replayed.total_joules(), pipeline.ledger().total_joules(),
              pipeline.ledger().total_joules() * 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripAcrossSeeds, ::testing::Values(3, 17, 2718));

}  // namespace
}  // namespace wildenergy
