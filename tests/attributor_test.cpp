// Unit tests for the energy attribution engine (energy/attributor.h) — the
// paper's §3.1 rule: tail energy to the last packet in the tail period;
// per-app sums equal the device total.
#include <gtest/gtest.h>

#include "deliver.h"
#include "stream_recorder.h"
#include "energy/attributor.h"
#include "energy/ledger.h"
#include "radio/burst_machine.h"
#include "trace/sink.h"

namespace wildenergy::energy {
namespace {

using trace::PacketRecord;
using trace::ProcessState;
using trace::StateTransition;

trace::StudyMeta day_meta() {
  trace::StudyMeta meta;
  meta.num_users = 1;
  meta.num_apps = 8;
  meta.study_begin = kEpoch;
  meta.study_end = kEpoch + days(1.0);
  return meta;
}

PacketRecord pkt(double t_s, trace::AppId app, std::uint64_t bytes) {
  PacketRecord p;
  p.time = kEpoch + sec(t_s);
  p.app = app;
  p.bytes = bytes;
  p.state = ProcessState::kService;
  return p;
}

struct Run {
  trace::TraceCollector out;
  double device = 0.0;
  double attributed = 0.0;
  double baseline = 0.0;
  double tail = 0.0;
};

Run run_packets(const std::vector<PacketRecord>& packets,
                TailPolicy policy = TailPolicy::kLastPacket) {
  Run r;
  EnergyAttributor attr{radio::make_lte_model, &r.out, policy};
  attr.on_study_begin(day_meta());
  attr.on_user_begin(0);
  for (const auto& p : packets) deliver(attr, p);
  attr.on_user_end(0);
  attr.on_study_end();
  r.device = attr.device_joules();
  r.attributed = attr.attributed_joules();
  r.baseline = attr.baseline_joules();
  r.tail = attr.tail_joules();
  return r;
}

TEST(EnergyAttributor, SinglePacketGetsFullBurstEnergy) {
  const auto r = run_packets({pkt(10.0, 1, 1000)});
  ASSERT_EQ(r.out.packets().size(), 1u);
  radio::BurstMachine lte{radio::lte_params()};
  EXPECT_NEAR(r.out.packets()[0].joules,
              lte.isolated_burst_energy(1000, radio::Direction::kDownlink), 1e-9);
}

TEST(EnergyAttributor, ConservationLastPacketPolicy) {
  std::vector<PacketRecord> packets;
  for (int i = 0; i < 50; ++i) packets.push_back(pkt(10.0 + i * 7.3, (i % 3) + 1, 500 + i));
  const auto r = run_packets(packets);
  double per_packet = 0.0;
  for (const auto& p : r.out.packets()) per_packet += p.joules;
  EXPECT_NEAR(per_packet, r.attributed, 1e-6);
  EXPECT_NEAR(r.device, r.attributed + r.baseline, 1e-6);
}

TEST(EnergyAttributor, ConservationProportionalPolicy) {
  std::vector<PacketRecord> packets;
  for (int i = 0; i < 50; ++i) packets.push_back(pkt(10.0 + i * 7.3, (i % 3) + 1, 500 + i));
  const auto r = run_packets(packets, TailPolicy::kProportional);
  double per_packet = 0.0;
  for (const auto& p : r.out.packets()) per_packet += p.joules;
  EXPECT_NEAR(per_packet, r.attributed, 1e-6);
  EXPECT_NEAR(r.device, r.attributed + r.baseline, 1e-6);
}

TEST(EnergyAttributor, TailGoesToLastPacketAcrossApps) {
  // App 1 transfers; app 2 sends the last packet while the radio is still in
  // app 1's tail. The subsequent tail must be attributed to app 2 only.
  const auto r = run_packets({pkt(10.0, 1, 1000), pkt(15.0, 2, 1000)});
  ASSERT_EQ(r.out.packets().size(), 2u);
  const auto& p1 = r.out.packets()[0];
  const auto& p2 = r.out.packets()[1];
  // App 1 got: promotion + transfer + partial tail (10->15 s minus airtime).
  // App 2 got: transfer + the full post-transfer tail, no promotion.
  radio::BurstMachine lte{radio::lte_params()};
  const double full = lte.isolated_burst_energy(1000, radio::Direction::kDownlink);
  EXPECT_LT(p1.joules, full);           // tail was cut short
  EXPECT_GT(p2.joules, full * 0.8);     // full tail, but no promotion
  EXPECT_NEAR(p1.joules + p2.joules, r.attributed, 1e-9);
}

TEST(EnergyAttributor, ProportionalSplitsTailByBytes) {
  // Two packets in one radio window, 1:3 byte ratio, shared tail.
  const auto r = run_packets({pkt(10.0, 1, 1000), pkt(12.0, 2, 3000)},
                             TailPolicy::kProportional);
  ASSERT_EQ(r.out.packets().size(), 2u);
  const double tail1 = r.out.packets()[0].joules;
  const double tail2 = r.out.packets()[1].joules;
  // Packet 2 carries 3x the tail share plus its own transfer energy.
  EXPECT_GT(tail2, tail1);
  EXPECT_NEAR(tail1 + tail2, r.attributed, 1e-9);
}

TEST(EnergyAttributor, TransitionsDoNotOvertakePackets) {
  trace::TraceCollector out;
  EnergyAttributor attr{radio::make_lte_model, &out};
  attr.on_study_begin(day_meta());
  attr.on_user_begin(0);
  deliver(attr, pkt(10.0, 1, 1000));
  StateTransition t;
  t.time = kEpoch + sec(11.0);
  t.app = 1;
  t.from = ProcessState::kForeground;
  t.to = ProcessState::kBackground;
  deliver(attr, t);
  deliver(attr, pkt(30.0, 1, 1000));
  attr.on_user_end(0);

  ASSERT_EQ(out.packets().size(), 2u);
  ASSERT_EQ(out.transitions().size(), 1u);
  // Downstream order must be: packet(10), transition(11), packet(30).
  EXPECT_LE(out.packets()[0].time, out.transitions()[0].time);
  EXPECT_LE(out.transitions()[0].time, out.packets()[1].time);
}

// A transition and a packet share a timestamp, the packet inside the
// previous packet's tail: p1@5s, T@7s, p2@7s. The proportional window merges
// its packets and held transitions back by time with packets winning ties,
// so it emits p1, p2, T; the last-packet rule hands the stream on in input
// order.
TEST(EnergyAttributor, TieInsideTheTailOrdersByPolicy) {
  StateTransition t;
  t.time = kEpoch + sec(7.0);
  t.app = 1;
  t.from = ProcessState::kForeground;
  t.to = ProcessState::kBackground;
  using trace::EventKind;
  for (const TailPolicy policy : {TailPolicy::kLastPacket, TailPolicy::kProportional}) {
    SCOPED_TRACE(policy == TailPolicy::kLastPacket ? "last-packet" : "proportional");
    StreamRecorder out;
    EnergyAttributor attr{radio::make_lte_model, &out, policy};
    attr.on_study_begin(day_meta());
    attr.on_user_begin(0);
    deliver(attr, pkt(5.0, 1, 1000));
    deliver(attr, t);
    deliver(attr, pkt(7.0, 2, 1000));
    attr.on_user_end(0);
    attr.on_study_end();

    const std::vector<EventKind> want =
        policy == TailPolicy::kProportional
            ? std::vector<EventKind>{EventKind::kPacket, EventKind::kPacket,
                                     EventKind::kTransition}
            : std::vector<EventKind>{EventKind::kPacket, EventKind::kTransition,
                                     EventKind::kPacket};
    EXPECT_EQ(out.stream().order, want);
    ASSERT_EQ(out.stream().packets.size(), 2u);
    EXPECT_EQ(out.stream().packets[0].app, 1u);
    EXPECT_EQ(out.stream().packets[1].app, 2u);
    ASSERT_EQ(out.stream().transitions.size(), 1u);
    EXPECT_EQ(out.stream().transitions[0].time, t.time);
  }
}

TEST(EnergyAttributor, UserEndFlushesPendingTail) {
  trace::TraceCollector out;
  EnergyAttributor attr{radio::make_lte_model, &out};
  attr.on_study_begin(day_meta());
  attr.on_user_begin(0);
  deliver(attr, pkt(10.0, 1, 1000));
  attr.on_user_end(0);
  ASSERT_EQ(out.packets().size(), 1u);
  EXPECT_GT(out.packets()[0].joules, 9.0);  // includes the ~10 J tail
}

TEST(EnergyAttributor, PerUserModelsAreIndependent) {
  trace::TraceCollector out;
  EnergyAttributor attr{radio::make_lte_model, &out};
  attr.on_study_begin(day_meta());
  attr.on_user_begin(0);
  deliver(attr, pkt(10.0, 1, 1000));
  attr.on_user_end(0);
  attr.on_user_begin(1);
  deliver(attr, pkt(10.0, 1, 1000));  // same time, new user: fresh radio
  attr.on_user_end(1);
  ASSERT_EQ(out.packets().size(), 2u);
  // Both isolated: identical energy despite "overlapping" timestamps.
  EXPECT_NEAR(out.packets()[0].joules, out.packets()[1].joules, 1e-9);
}

TEST(EnergyAttributor, BaselineCountsIdleOnly) {
  const auto r = run_packets({pkt(10.0, 1, 100), pkt(3600.0, 1, 100)});
  // ~1 h idle between bursts at 11.4 mW ~= 40 J of baseline.
  EXPECT_GT(r.baseline, 30.0);
  EXPECT_LT(r.baseline, 1000.0);
}

TEST(EnergyAttributor, TightBurstTrainSharesOneTail) {
  // 6 bursts 1 s apart: radio never leaves the active/tail region, so total
  // energy is far less than 6 isolated bursts.
  std::vector<PacketRecord> train;
  for (int i = 0; i < 6; ++i) train.push_back(pkt(10.0 + i, 1, 1000));
  const auto r = run_packets(train);
  radio::BurstMachine lte{radio::lte_params()};
  const double isolated = lte.isolated_burst_energy(1000, radio::Direction::kDownlink);
  EXPECT_LT(r.attributed, 6 * isolated * 0.5);
  // One full tail at the end plus five short inter-burst DRX slices (the
  // radio never reaches idle between 1 s-spaced bursts).
  const double full_tail = radio::lte_params().tail_phases[0].power_w * 1.0 +
                           radio::lte_params().tail_phases[1].power_w * 10.576;
  EXPECT_GE(r.tail, full_tail - 1e-9);
  EXPECT_LT(r.tail, full_tail + 5 * radio::lte_params().tail_phases[0].power_w * 1.0);
}

// Ledger integration: streaming the attributor output into a ledger must
// reproduce the attributor's totals.
TEST(EnergyLedgerIntegration, LedgerMatchesAttributor) {
  EnergyLedger ledger;
  EnergyAttributor attr{radio::make_lte_model, &ledger};
  attr.on_study_begin(day_meta());
  attr.on_user_begin(0);
  for (int i = 0; i < 40; ++i) deliver(attr, pkt(5.0 + i * 13.0, (i % 4) + 1, 2000));
  attr.on_user_end(0);
  attr.on_study_end();
  EXPECT_NEAR(ledger.total_joules(), attr.attributed_joules(), 1e-6);
  double apps = 0.0;
  for (trace::AppId app : ledger.apps()) apps += ledger.app_total(app).joules;
  EXPECT_NEAR(apps, attr.attributed_joules(), 1e-6);
}

}  // namespace
}  // namespace wildenergy::energy
