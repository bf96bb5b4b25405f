// The event path (trace/batch.h and every sink that consumes it).
//
// The contract under test is absolute: for ANY batch size — the degenerate
// 1, the oversized 4096 and everything between — every output is
// bit-identical, for every sink in the chain, for every thread count, and
// through the fault-tolerant retry path. The golden digests below were
// recorded from the per-record stream before that path was retired; every
// batch size must still reproduce them. EXPECT_EQ on doubles throughout;
// NEAR would hide a real divergence.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "ledger_compare.h"
#include "stream_recorder.h"
#include "analysis/case_studies.h"
#include "analysis/figures.h"
#include "analysis/longitudinal.h"
#include "analysis/persistence.h"
#include "analysis/time_since_fg.h"
#include "analysis/waste.h"
#include "ckpt/codec.h"
#include "core/pipeline.h"
#include "core/policy.h"
#include "core/sweep.h"
#include "energy/attributor.h"
#include "energy/ledger.h"
#include "fault/plan.h"
#include "obs/metrics.h"
#include "radio/burst_machine.h"
#include "sim/generator.h"
#include "sim/study_config.h"
#include "trace/batch.h"
#include "trace/csv_io.h"
#include "trace/interface_filter.h"
#include "trace/sink.h"
#include "trace/spilling_store.h"
#include "trace/validating_sink.h"

namespace wildenergy {
namespace {

using trace::EventBatch;
using trace::EventBatcher;
using trace::EventKind;
using trace::PacketRecord;
using trace::ReadOptions;
using trace::ReadPolicy;
using trace::StateTransition;

PacketRecord packet_at(std::int64_t us, trace::UserId user = 0) {
  PacketRecord p;
  p.time.us = us;
  p.user = user;
  p.app = 1;
  p.bytes = 100;
  return p;
}

StateTransition transition_at(std::int64_t us, trace::UserId user = 0) {
  StateTransition t;
  t.time.us = us;
  t.user = user;
  t.app = 1;
  t.from = trace::ProcessState::kBackground;
  t.to = trace::ProcessState::kForeground;
  return t;
}

trace::StudyMeta two_user_meta() {
  trace::StudyMeta meta;
  meta.num_users = 2;
  meta.num_apps = 4;
  meta.study_begin.us = 0;
  meta.study_end.us = 10'000'000;
  return meta;
}

/// "P<time>" etc. — built char-by-char; the obvious `"P" + to_string(...)`
/// trips a gcc-12 -Wrestrict false positive under -Werror.
std::string tagged(char tag, std::int64_t value) {
  std::string s(1, tag);
  s += std::to_string(value);
  return s;
}

/// Logs the exact callback sequence, per record — never overrides on_batch,
/// so it exercises the default replay path.
class SequenceProbe : public trace::TraceSink {
 public:
  void on_study_begin(const trace::StudyMeta&) override { events.push_back("SB"); }
  void on_user_begin(trace::UserId user) override { events.push_back(tagged('U', user)); }
  void on_packet(const PacketRecord& p) override { events.push_back(tagged('P', p.time.us)); }
  void on_transition(const StateTransition& t) override {
    events.push_back(tagged('T', t.time.us));
  }
  void on_user_end(trace::UserId user) override { events.push_back(tagged('V', user)); }
  void on_study_end() override { events.push_back("SE"); }

  std::vector<std::string> events;
};

/// SequenceProbe that additionally records each batch boundary, to assert
/// how a producer sliced the stream.
class BatchProbe final : public SequenceProbe {
 public:
  void on_batch(const EventBatch& batch) override {
    batch_sizes.push_back(batch.size());
    batch_users.push_back(batch.user);
    replay(batch, *this);
  }

  std::vector<std::size_t> batch_sizes;
  std::vector<trace::UserId> batch_users;
};

// ------------------------------------------------------------- EventBatch

TEST(EventBatch, PreservesInterleavingAndClearKeepsCapacity) {
  EventBatch batch;
  batch.user = 3;
  batch.add(packet_at(10, 3));
  batch.add(transition_at(10, 3));  // same timestamp: order must be kept
  batch.add(packet_at(20, 3));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_FALSE(batch.empty());
  ASSERT_EQ(batch.order.size(), 3u);
  EXPECT_EQ(batch.order[0], EventKind::kPacket);
  EXPECT_EQ(batch.order[1], EventKind::kTransition);
  EXPECT_EQ(batch.order[2], EventKind::kPacket);

  SequenceProbe probe;
  trace::replay(batch, probe);
  const std::vector<std::string> want{"P10", "T10", "P20"};
  EXPECT_EQ(probe.events, want);

  const auto packet_cap = batch.packets.capacity();
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.packets.capacity(), packet_cap);  // reuse-hot contract
}

TEST(EventBatch, AppendKeepsBothInterleavings) {
  EventBatch head;
  head.add(packet_at(1));
  head.add(transition_at(2));
  EventBatch tail;
  tail.add(transition_at(3));
  tail.add(packet_at(4));
  head.append(tail);
  ASSERT_EQ(head.size(), 4u);
  SequenceProbe probe;
  trace::replay(head, probe);
  const std::vector<std::string> want{"P1", "T2", "T3", "P4"};
  EXPECT_EQ(probe.events, want);
}

TEST(EventBatch, ForEachEventWalksTheOrderColumn) {
  EventBatch batch;
  batch.add(transition_at(1));
  batch.add(packet_at(2));
  batch.add(packet_at(3));
  batch.add(transition_at(4));
  std::vector<std::string> seen;
  trace::for_each_event(
      batch, [&](const PacketRecord& p) { seen.push_back(tagged('P', p.time.us)); },
      [&](const StateTransition& t) { seen.push_back(tagged('T', t.time.us)); });
  const std::vector<std::string> want{"T1", "P2", "P3", "T4"};
  EXPECT_EQ(seen, want);
}

TEST(DefaultOnBatch, ReplaysThePerRecordCallbacks) {
  EventBatch batch;
  batch.add(packet_at(5));
  batch.add(transition_at(7));
  batch.add(packet_at(9));
  SequenceProbe probe;
  static_cast<trace::TraceSink&>(probe).on_batch(batch);  // base implementation
  const std::vector<std::string> want{"P5", "T7", "P9"};
  EXPECT_EQ(probe.events, want);
}

// ----------------------------------------------------------- EventBatcher

TEST(EventBatcher, SlicesIntoFullBatchesAndFlushesBeforeEveryBracket) {
  BatchProbe probe;
  EventBatcher batcher{&probe, /*batch_size=*/4};
  batcher.on_study_begin(two_user_meta());
  batcher.on_user_begin(0);
  for (int i = 0; i < 9; ++i) batcher.add(packet_at(10 * i, 0));
  batcher.on_user_end(0);  // flushes the short tail batch of 1
  batcher.on_user_begin(1);
  batcher.add(packet_at(5, 1));
  batcher.add(transition_at(6, 1));
  batcher.on_user_end(1);
  batcher.on_study_end();

  const std::vector<std::size_t> want_sizes{4, 4, 1, 2};
  EXPECT_EQ(probe.batch_sizes, want_sizes);
  const std::vector<trace::UserId> want_users{0, 0, 0, 1};
  EXPECT_EQ(probe.batch_users, want_users);

  // The replayed stream is the exact per-record stream, brackets in place.
  const std::vector<std::string> want_events{"SB", "U0",  "P0",  "P10", "P20", "P30",
                                             "P40", "P50", "P60", "P70", "P80", "V0",
                                             "U1",  "P5",  "T6",  "V1",  "SE"};
  EXPECT_EQ(probe.events, want_events);
}

TEST(EventBatcher, PassesAlreadyBatchedInputThroughUnsliced) {
  BatchProbe probe;
  EventBatcher batcher{&probe, /*batch_size=*/2};
  EventBatch big;
  big.user = 0;
  for (int i = 0; i < 7; ++i) big.add(packet_at(i, 0));
  batcher.add(packet_at(100, 0));  // buffered
  batcher.on_batch(big);                 // flushes the buffer, then passes through
  const std::vector<std::size_t> want_sizes{1, 7};
  EXPECT_EQ(probe.batch_sizes, want_sizes);
}

TEST(EventBatcher, ZeroBatchSizeIsClampedToOne) {
  BatchProbe probe;
  EventBatcher batcher{&probe, /*batch_size=*/0};
  batcher.on_user_begin(0);
  batcher.add(packet_at(1, 0));
  batcher.add(packet_at(2, 0));
  batcher.on_user_end(0);
  const std::vector<std::size_t> want_sizes{1, 1};
  EXPECT_EQ(probe.batch_sizes, want_sizes);
}

// --------------------------------------------- multicast + collector sinks

TEST(TraceMulticast, ForwardsBatchesToEveryChildInOrder) {
  BatchProbe a;
  SequenceProbe b;  // per-record-only child: default replay inside multicast
  trace::TraceMulticast fan;
  fan.add(&a);
  fan.add(&b);
  EventBatch batch;
  batch.add(packet_at(1));
  batch.add(transition_at(2));
  fan.on_batch(batch);
  const std::vector<std::size_t> want_sizes{2};
  EXPECT_EQ(a.batch_sizes, want_sizes);
  const std::vector<std::string> want_events{"P1", "T2"};
  EXPECT_EQ(a.events, want_events);
  EXPECT_EQ(b.events, want_events);
}

/// The batch sizes every pairwise check compares against batch size 1.
constexpr std::size_t kLargerBatches[] = {7, 64, 4096};

TEST(TraceCollector, BatchedAndPerRecordIngestCollectTheSameStream) {
  const sim::StudyGenerator generator{sim::small_study(/*seed=*/9)};
  trace::TraceCollector one_by_one;
  generator.run(one_by_one, /*batch_size=*/1);

  for (const std::size_t batch_size : kLargerBatches) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    trace::TraceCollector batched;
    generator.run(batched, batch_size);
    ASSERT_EQ(one_by_one.packets().size(), batched.packets().size());
    ASSERT_EQ(one_by_one.transitions().size(), batched.transitions().size());
    for (std::size_t i = 0; i < one_by_one.packets().size(); ++i) {
      EXPECT_EQ(one_by_one.packets()[i].time.us, batched.packets()[i].time.us);
      EXPECT_EQ(one_by_one.packets()[i].user, batched.packets()[i].user);
      EXPECT_EQ(one_by_one.packets()[i].app, batched.packets()[i].app);
      EXPECT_EQ(one_by_one.packets()[i].bytes, batched.packets()[i].bytes);
    }
    for (std::size_t i = 0; i < one_by_one.transitions().size(); ++i) {
      EXPECT_EQ(one_by_one.transitions()[i].time.us, batched.transitions()[i].time.us);
      EXPECT_EQ(one_by_one.transitions()[i].app, batched.transitions()[i].app);
    }
  }
}

// --------------------------------------------------------- interface filter

TEST(InterfaceFilter, BatchPathMatchesPerRecordIncludingDropCounters) {
  // A stream with both interfaces so the filter's rebuild path runs.
  std::vector<PacketRecord> packets;
  for (int i = 0; i < 20; ++i) {
    PacketRecord p = packet_at(100 * i, 0);
    p.bytes = 50 + i;
    p.interface = (i % 3 == 0) ? trace::Interface::kWifi : trace::Interface::kCellular;
    packets.push_back(p);
  }

  struct Filtered {
    trace::TraceCollector out;
    trace::InterfaceFilter filter{&out, trace::Interface::kCellular};
  };
  const auto run = [&](std::size_t batch_size, Filtered& f) {
    EventBatcher batcher{&f.filter, batch_size};
    batcher.on_study_begin(two_user_meta());
    batcher.on_user_begin(0);
    for (const auto& p : packets) batcher.add(p);
    batcher.add(transition_at(1'999, 0));
    batcher.on_user_end(0);
    batcher.on_study_end();
  };
  Filtered one_by_one;
  run(1, one_by_one);
  EXPECT_GT(one_by_one.filter.dropped_packets(), 0u);

  for (const std::size_t batch_size : kLargerBatches) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    Filtered batched;
    run(batch_size, batched);
    EXPECT_EQ(one_by_one.filter.dropped_packets(), batched.filter.dropped_packets());
    EXPECT_EQ(one_by_one.filter.dropped_bytes(), batched.filter.dropped_bytes());
    ASSERT_EQ(one_by_one.out.packets().size(), batched.out.packets().size());
    for (std::size_t i = 0; i < one_by_one.out.packets().size(); ++i) {
      EXPECT_EQ(one_by_one.out.packets()[i].time.us, batched.out.packets()[i].time.us);
      EXPECT_EQ(one_by_one.out.packets()[i].bytes, batched.out.packets()[i].bytes);
    }
    ASSERT_EQ(one_by_one.out.transitions().size(), batched.out.transitions().size());
  }
}

TEST(InterfaceFilter, AllKeptBatchIsForwardedWithoutRebuilding) {
  BatchProbe probe;
  trace::InterfaceFilter filter{&probe, trace::Interface::kCellular};
  EventBatch batch;
  for (int i = 0; i < 5; ++i) batch.add(packet_at(i, 0));
  filter.on_batch(batch);
  const std::vector<std::size_t> want_sizes{5};
  EXPECT_EQ(probe.batch_sizes, want_sizes);
  EXPECT_EQ(filter.dropped_packets(), 0u);
}

// --------------------------------------------------------- validating sink

/// Drives the same corrupted (but bracket-respecting) stream through a
/// ValidatingSink via an EventBatcher, and summarizes what came out the
/// other side.
struct ValidationOutcome {
  bool ok = false;
  std::uint64_t dropped = 0;
  std::uint64_t repaired = 0;
  std::size_t quarantined = 0;
  std::vector<std::int64_t> forwarded_times;
};

ValidationOutcome validate_corrupted(ReadPolicy policy, std::size_t batch_size) {
  obs::MetricsRegistry registry;  // keep test metrics off the global registry
  const obs::ScopedMetricsRegistry scoped{&registry};
  ReadOptions options;
  options.policy = policy;
  trace::TraceCollector collector;
  trace::ValidatingSink validator{&collector, options};
  EventBatcher in{&validator, batch_size};

  in.on_study_begin(two_user_meta());
  in.on_user_begin(0);
  in.add(packet_at(500, 0));
  in.add(packet_at(100, 0));  // backwards timestamp
  in.add(packet_at(600, 1));  // wrong user inside user 0's bracket
  PacketRecord bad_enum = packet_at(700, 0);
  bad_enum.state = static_cast<trace::ProcessState>(97);
  in.add(bad_enum);
  in.add(transition_at(800, 0));
  in.add(packet_at(20'000'000, 0));  // outside the declared study window
  in.add(packet_at(900, 0));
  in.on_user_end(0);
  in.on_user_begin(1);
  in.add(packet_at(50, 1));
  in.on_user_end(1);
  in.on_study_end();

  ValidationOutcome out;
  out.ok = validator.status().ok();
  out.dropped = validator.records_dropped();
  out.repaired = validator.records_repaired();
  out.quarantined = validator.quarantine().size();
  for (const auto& p : collector.packets()) out.forwarded_times.push_back(p.time.us);
  for (const auto& t : collector.transitions()) out.forwarded_times.push_back(-t.time.us);
  return out;
}

TEST(ValidatingSink, BatchedValidationMatchesPerRecordUnderEveryPolicy) {
  for (const ReadPolicy policy :
       {ReadPolicy::kStrict, ReadPolicy::kSkipAndCount, ReadPolicy::kBestEffort}) {
    const ValidationOutcome one_by_one = validate_corrupted(policy, 1);
    EXPECT_GT(one_by_one.dropped + one_by_one.repaired, 0u);
    for (const std::size_t batch_size : {std::size_t{3}, std::size_t{7}, std::size_t{64},
                                         std::size_t{4096}}) {
      SCOPED_TRACE(std::string("policy=") + trace::to_string(policy) +
                   " batch_size=" + std::to_string(batch_size));
      const ValidationOutcome batched = validate_corrupted(policy, batch_size);
      EXPECT_EQ(one_by_one.ok, batched.ok);
      EXPECT_EQ(one_by_one.dropped, batched.dropped);
      EXPECT_EQ(one_by_one.repaired, batched.repaired);
      EXPECT_EQ(one_by_one.quarantined, batched.quarantined);
      EXPECT_EQ(one_by_one.forwarded_times, batched.forwarded_times);
    }
  }
}

TEST(ValidatingSink, ForwardsSurvivorsOfABatchAsOneBatch) {
  ReadOptions options;
  options.policy = ReadPolicy::kSkipAndCount;
  BatchProbe probe;
  trace::ValidatingSink validator{&probe, options};
  validator.on_study_begin(two_user_meta());
  validator.on_user_begin(0);
  EventBatch batch;
  batch.user = 0;
  batch.add(packet_at(100, 0));
  batch.add(packet_at(50, 0));   // backwards: dropped
  batch.add(packet_at(200, 0));
  validator.on_batch(batch);
  validator.on_user_end(0);
  validator.on_study_end();
  const std::vector<std::size_t> want_sizes{2};  // survivors travel as a batch
  EXPECT_EQ(probe.batch_sizes, want_sizes);
  EXPECT_EQ(validator.records_dropped(), 1u);
}

// ------------------------------------------------------- energy attribution

TEST(EnergyAttributor, BatchPathIsBitIdenticalForBothTailPolicies) {
  sim::StudyConfig config = sim::small_study(/*seed=*/13);
  config.num_users = 2;
  config.num_days = 5;
  const sim::StudyGenerator generator{config};

  for (const energy::TailPolicy policy :
       {energy::TailPolicy::kLastPacket, energy::TailPolicy::kProportional}) {
    StreamRecorder one_by_one_out;
    energy::EnergyAttributor one_by_one{radio::make_lte_model, &one_by_one_out, policy};
    generator.run(one_by_one, /*batch_size=*/1);

    for (const std::size_t batch_size : {std::size_t{7}, std::size_t{64}, std::size_t{256},
                                         std::size_t{4096}}) {
      SCOPED_TRACE(std::string("policy=") +
                   (policy == energy::TailPolicy::kLastPacket ? "last-packet" : "proportional") +
                   " batch_size=" + std::to_string(batch_size));
      StreamRecorder batched_out;
      energy::EnergyAttributor batched{radio::make_lte_model, &batched_out, policy};
      generator.run(batched, batch_size);

      EXPECT_EQ(one_by_one.device_joules(), batched.device_joules());
      EXPECT_EQ(one_by_one.attributed_joules(), batched.attributed_joules());
      EXPECT_EQ(one_by_one.baseline_joules(), batched.baseline_joules());
      EXPECT_EQ(one_by_one.tail_joules(), batched.tail_joules());
      EXPECT_EQ(one_by_one.promotion_joules(), batched.promotion_joules());
      EXPECT_EQ(one_by_one.transfer_joules(), batched.transfer_joules());
      EXPECT_EQ(one_by_one.counters().packets, batched.counters().packets);
      EXPECT_EQ(one_by_one.counters().transitions, batched.counters().transitions);
      EXPECT_EQ(one_by_one.counters().tail_attributions, batched.counters().tail_attributions);
      EXPECT_EQ(one_by_one.counters().proportional_splits,
                batched.counters().proportional_splits);
      EXPECT_EQ(one_by_one.counters().tail_segments, batched.counters().tail_segments);
      EXPECT_EQ(one_by_one.counters().idle_segments, batched.counters().idle_segments);

      // The annotated stream downstream is identical event for event: the
      // interleave, every packet field and every transition field.
      expect_same_stream(one_by_one_out.stream(), batched_out.stream());
    }
  }
}

// -------------------------------------------------- full-pipeline property

/// All paper analyses attached at once, so the batch-size property covers
/// every sink kind including the serial-fallback path (longitudinal).
struct AnalysisSet {
  std::vector<trace::AppId> tracked{0, 1, 2, 3, 4};
  analysis::PersistenceAnalysis persistence;
  analysis::TimeSinceForegroundAnalysis time_since_fg;
  analysis::WastedUpdateAnalysis waste{tracked};
  analysis::CaseStudyAnalysis cases{tracked};
  analysis::LongitudinalAnalysis longitudinal{tracked};

  void attach(core::StudyPipeline& pipeline) {
    pipeline.add_analysis("persistence", &persistence);
    pipeline.add_analysis("time_since_fg", &time_since_fg);
    pipeline.add_analysis("waste", &waste);
    pipeline.add_analysis("cases", &cases);
    pipeline.add_analysis("longitudinal", &longitudinal);
  }
};

void expect_identical_figures(const energy::EnergyLedger& a, const energy::EnergyLedger& b) {
  const auto pop_a = analysis::top10_popularity(a);
  const auto pop_b = analysis::top10_popularity(b);
  ASSERT_EQ(pop_a.size(), pop_b.size());
  for (std::size_t i = 0; i < pop_a.size(); ++i) {
    EXPECT_EQ(pop_a[i].app, pop_b[i].app);
    EXPECT_EQ(pop_a[i].users_with_app_in_top10, pop_b[i].users_with_app_in_top10);
  }
  for (const bool by_energy : {false, true}) {
    const auto cons_a =
        by_energy ? analysis::top_consumers_by_energy(a) : analysis::top_consumers_by_data(a);
    const auto cons_b =
        by_energy ? analysis::top_consumers_by_energy(b) : analysis::top_consumers_by_data(b);
    ASSERT_EQ(cons_a.size(), cons_b.size());
    for (std::size_t i = 0; i < cons_a.size(); ++i) {
      EXPECT_EQ(cons_a[i].app, cons_b[i].app);
      EXPECT_EQ(cons_a[i].bytes, cons_b[i].bytes);
      EXPECT_EQ(cons_a[i].joules, cons_b[i].joules);
    }
  }
  const auto brk_a = analysis::overall_state_breakdown(a);
  const auto brk_b = analysis::overall_state_breakdown(b);
  EXPECT_EQ(brk_a.total_joules, brk_b.total_joules);
  for (std::size_t s = 0; s < brk_a.fraction.size(); ++s) {
    EXPECT_EQ(brk_a.fraction[s], brk_b.fraction[s]);
  }
}

void expect_identical_analyses(AnalysisSet& a, AnalysisSet& b) {
  for (const trace::AppId app : a.tracked) {
    auto sa = a.persistence.durations(app).sorted_samples();
    auto sb = b.persistence.durations(app).sorted_samples();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
    const auto wa = a.waste.result(app);
    const auto wb = b.waste.result(app);
    EXPECT_EQ(wa.updates, wb.updates);
    EXPECT_EQ(wa.wasted_updates, wb.wasted_updates);
    EXPECT_EQ(wa.joules, wb.joules);
    EXPECT_EQ(wa.wasted_joules, wb.wasted_joules);
    const auto ca = a.cases.result(app);
    const auto cb = b.cases.result(app);
    EXPECT_EQ(ca.joules_total, cb.joules_total);
    EXPECT_EQ(ca.bytes_total, cb.bytes_total);
    EXPECT_EQ(ca.flows, cb.flows);
    EXPECT_EQ(ca.days_active, cb.days_active);
    const auto ea = a.longitudinal.era_comparison(app);
    const auto eb = b.longitudinal.era_comparison(app);
    EXPECT_EQ(ea.early_uj_per_byte, eb.early_uj_per_byte);
    EXPECT_EQ(ea.late_uj_per_byte, eb.late_uj_per_byte);
  }
  const auto ha = a.time_since_fg.bytes_histogram().masses();
  const auto hb = b.time_since_fg.bytes_histogram().masses();
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i) EXPECT_EQ(ha[i], hb[i]);
  EXPECT_EQ(a.time_since_fg.fraction_of_apps_frontloaded(),
            b.time_since_fg.fraction_of_apps_frontloaded());
  ASSERT_EQ(a.longitudinal.overall().weeks(), b.longitudinal.overall().weeks());
  for (std::size_t w = 0; w < a.longitudinal.overall().weeks(); ++w) {
    EXPECT_EQ(a.longitudinal.overall().fg_joules[w], b.longitudinal.overall().fg_joules[w]);
    EXPECT_EQ(a.longitudinal.overall().bg_joules[w], b.longitudinal.overall().bg_joules[w]);
  }
}

sim::StudyConfig property_config() {
  sim::StudyConfig config = sim::small_study(/*seed=*/21);
  config.num_users = 4;
  config.num_days = 15;
  return config;
}

// ------------------------------------------------------- golden fixture

/// Every value the bit-identity checks above compare, folded into one
/// string: integers in decimal, doubles as hexfloat (exact), ';'-separated.
class GoldenString {
 public:
  void put(double value) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a;", value);
    text_ += buf;
  }
  template <typename T>
    requires std::is_integral_v<T>
  void put(T value) {
    text_ += std::to_string(value);
    text_ += ';';
  }
  [[nodiscard]] std::uint64_t digest() const { return ckpt::fnv1a(text_); }

 private:
  std::string text_;
};

GoldenString golden_outputs(const core::StudyPipeline& pipeline, AnalysisSet& set) {
  GoldenString g;
  const energy::EnergyLedger& ledger = pipeline.ledger();
  // expect_identical_ledgers
  g.put(ledger.total_joules());
  g.put(ledger.total_bytes());
  g.put(ledger.total_packets());
  for (const double joules : ledger.state_totals()) g.put(joules);
  g.put(ledger.total_accounts());
  for (const auto& acc : cursor_accounts(ledger)) {
    g.put(acc.user);
    g.put(acc.app);
    g.put(acc.joules);
    g.put(acc.bytes);
    g.put(acc.packets);
    for (const double joules : acc.state_joules) g.put(joules);
    g.put(acc.days.size());
    for (const auto& day : acc.days) {
      g.put(day.fg_joules);
      g.put(day.bg_joules);
      g.put(day.fg_bytes);
      g.put(day.bg_bytes);
    }
  }
  // expect_identical_figures
  for (const auto& entry : analysis::top10_popularity(ledger)) {
    g.put(entry.app);
    g.put(entry.users_with_app_in_top10);
  }
  for (const bool by_energy : {false, true}) {
    const auto consumers = by_energy ? analysis::top_consumers_by_energy(ledger)
                                     : analysis::top_consumers_by_data(ledger);
    for (const auto& entry : consumers) {
      g.put(entry.app);
      g.put(entry.bytes);
      g.put(entry.joules);
    }
  }
  const auto breakdown = analysis::overall_state_breakdown(ledger);
  g.put(breakdown.total_joules);
  for (const double fraction : breakdown.fraction) g.put(fraction);
  // expect_identical_analyses
  for (const trace::AppId app : set.tracked) {
    for (const double sample : set.persistence.durations(app).sorted_samples()) g.put(sample);
    const auto waste = set.waste.result(app);
    g.put(waste.updates);
    g.put(waste.wasted_updates);
    g.put(waste.joules);
    g.put(waste.wasted_joules);
    const auto cases = set.cases.result(app);
    g.put(cases.joules_total);
    g.put(cases.bytes_total);
    g.put(cases.flows);
    g.put(cases.days_active);
    const auto era = set.longitudinal.era_comparison(app);
    g.put(era.early_uj_per_byte);
    g.put(era.late_uj_per_byte);
  }
  for (const double mass : set.time_since_fg.bytes_histogram().masses()) g.put(mass);
  g.put(set.time_since_fg.fraction_of_apps_frontloaded());
  g.put(set.longitudinal.overall().weeks());
  for (std::size_t w = 0; w < set.longitudinal.overall().weeks(); ++w) {
    g.put(set.longitudinal.overall().fg_joules[w]);
    g.put(set.longitudinal.overall().bg_joules[w]);
  }
  // the attributor checks
  const energy::EnergyAttributor& attributor = pipeline.attributor();
  g.put(attributor.device_joules());
  g.put(attributor.attributed_joules());
  g.put(attributor.tail_joules());
  g.put(attributor.counters().packets);
  g.put(attributor.counters().tail_attributions);
  g.put(pipeline.off_interface_bytes());
  return g;
}

enum class GoldenCase { kPlain, kKillAfterIdle, kRetriedFault };

/// Digests of the three cases, recorded from the per-record stream
/// (batch_size = 0, one thread) before that path was retired.
constexpr std::uint64_t kGoldenDigest[] = {
    0x75ee76617448257full,  // kPlain
    0x7aa96ff4f3ae9a1cull,  // kKillAfterIdle: KillAfterIdlePolicy(days(1))
    0x878b139a7f3976d0ull,  // kRetriedFault: user 1 fails at callback 5, then retries
};

/// Where a golden run's pipeline reads the study from: the generator itself,
/// or a store that captured it — all resident, or sealed into WESG segments
/// as each user closes (budget 0).
enum class GoldenSource { kGenerator, kResidentStore, kSealedStore };

/// One full property_config() run of `which` over `source` with every
/// analysis attached; `inspect` (if set) sees the finished pipeline before it
/// is digested.
std::uint64_t golden_run(
    GoldenCase which, GoldenSource source, std::size_t batch_size, unsigned threads,
    const std::function<void(const core::StudyPipeline&, AnalysisSet&)>& inspect = {}) {
  sim::StudyGenerator generator{property_config()};
  std::optional<trace::SpillingTraceStore> store;
  trace::TraceSource* input = &generator;
  if (source == GoldenSource::kResidentStore) {
    store.emplace();
    EXPECT_TRUE(store->capture(generator, batch_size).ok());
    EXPECT_EQ(store->num_segments(), 0u);
    input = &*store;
  } else if (source == GoldenSource::kSealedStore) {
    const auto dir = std::filesystem::temp_directory_path() / "wildenergy_batch_golden_sealed";
    std::filesystem::remove_all(dir);
    store.emplace(trace::SpillOptions{.dir = dir.string(), .budget_bytes = 0});
    EXPECT_TRUE(store->capture(generator, batch_size).ok());
    EXPECT_GT(store->num_segments(), 0u);
    input = &*store;
  }
  fault::FaultPlan plan;
  core::PipelineOptions options;
  options.batch_size = batch_size;
  options.num_threads = threads;
  if (which == GoldenCase::kRetriedFault) {
    plan.add({/*user=*/1, /*nth_callback=*/5, /*fail_attempts=*/1, /*stall_ms=*/0});
    options.failure_policy = core::FailurePolicy::kRetryThenSkip;
    options.fault_plan = &plan;
  }
  core::StudyPipeline pipeline{input, options};
  if (which == GoldenCase::kKillAfterIdle) {
    pipeline.set_policy([](trace::TraceSink* downstream) {
      return std::make_unique<core::KillAfterIdlePolicy>(downstream, days(1.0));
    });
  }
  AnalysisSet set;
  set.attach(pipeline);
  const auto run = pipeline.run();
  EXPECT_TRUE(run.ok());
  if (!run.ok()) return 0;
  EXPECT_GT(pipeline.ledger().total_joules(), 0.0);
  if (inspect) inspect(pipeline, set);
  GoldenString g = golden_outputs(pipeline, set);
  if (which == GoldenCase::kRetriedFault) {
    // The fault-tolerance counters (per-shard rows exist under retry).
    const obs::RunStats& stats = run.value();
    g.put(stats.shard_retries);
    g.put(stats.failed_users.size());
    g.put(stats.shards.size());
    for (const auto& shard : stats.shards) g.put(shard.attempts);
  }
  return g.digest();
}

TEST(BatchProperty, EveryBatchSizeAndThreadCountIsBitIdenticalToPerRecord) {
  // Pairwise diagnostics against batch size 1 on one thread localize a
  // divergence; the golden digests pin every value to the per-record record,
  // whether the pipeline reads the generator or a store that captured it.
  sim::StudyGenerator baseline_gen{property_config()};
  core::PipelineOptions baseline_options;
  baseline_options.batch_size = 1;
  core::StudyPipeline baseline{&baseline_gen, baseline_options};
  AnalysisSet baseline_set;
  baseline_set.attach(baseline);
  ASSERT_TRUE(baseline.run().ok());

  for (const GoldenSource source :
       {GoldenSource::kGenerator, GoldenSource::kResidentStore, GoldenSource::kSealedStore}) {
    for (const GoldenCase which :
         {GoldenCase::kPlain, GoldenCase::kKillAfterIdle, GoldenCase::kRetriedFault}) {
      for (const std::size_t batch_size : {1u, 7u, 64u, 4096u}) {
        for (const unsigned threads : {1u, 2u, 8u}) {
          SCOPED_TRACE("source=" + std::to_string(static_cast<int>(source)) +
                       " case=" + std::to_string(static_cast<int>(which)) +
                       " batch_size=" + std::to_string(batch_size) +
                       " threads=" + std::to_string(threads));
          const auto inspect = [&](const core::StudyPipeline& pipeline, AnalysisSet& set) {
            if (which == GoldenCase::kKillAfterIdle) return;  // policy changes the outputs
            expect_identical_ledgers(baseline.ledger(), pipeline.ledger());
            expect_identical_figures(baseline.ledger(), pipeline.ledger());
            expect_identical_analyses(baseline_set, set);
            EXPECT_EQ(baseline.attributor().device_joules(),
                      pipeline.attributor().device_joules());
            EXPECT_EQ(baseline.attributor().counters().packets,
                      pipeline.attributor().counters().packets);
            EXPECT_EQ(baseline.off_interface_bytes(), pipeline.off_interface_bytes());
          };
          EXPECT_EQ(golden_run(which, source, batch_size, threads, inspect),
                    kGoldenDigest[static_cast<int>(which)]);
        }
      }
    }
  }
}

TEST(BatchProperty, MidBatchShardFaultRetryStaysBitIdentical) {
  core::PipelineOptions clean_options;
  clean_options.batch_size = 64;
  sim::StudyGenerator clean_gen{property_config()};
  core::StudyPipeline clean{&clean_gen, clean_options};
  clean.run();

  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // nth_callback = 5 with batch_size = 64 falls inside the first batch:
    // the FaultySink counts the events of each batch, so fault positions
    // keep their per-event meaning at every batch size.
    fault::FaultPlan plan;
    plan.add({/*user=*/1, /*nth_callback=*/5, /*fail_attempts=*/1, /*stall_ms=*/0});
    core::PipelineOptions options;
    options.batch_size = 64;
    options.num_threads = threads;
    options.failure_policy = core::FailurePolicy::kRetryThenSkip;
    options.fault_plan = &plan;
    sim::StudyGenerator generator{property_config()};
    core::StudyPipeline pipeline{&generator, options};
    const auto run = pipeline.run();
    ASSERT_TRUE(run.ok());

    const obs::RunStats& stats = run.value();
    EXPECT_EQ(stats.shard_retries, 1u);
    EXPECT_TRUE(stats.failed_users.empty());
    ASSERT_EQ(stats.shards.size(), 4u);
    EXPECT_EQ(stats.shards[1].attempts, 2u);  // failed mid-batch, recovered

    expect_identical_ledgers(clean.ledger(), pipeline.ledger());
    EXPECT_EQ(clean.attributor().device_joules(), pipeline.attributor().device_joules());
  }
}

TEST(FaultySink, NthCallbackCountsEventsInsideBatches) {
  {
    // A bracket is one callback and each event of a batch one more: after
    // on_user_begin (1), a 3-event batch spans callbacks 2..4.
    fault::FaultPlan plan;
    plan.add({/*user=*/0, /*nth_callback=*/4, /*fail_attempts=*/2, /*stall_ms=*/0});
    trace::TraceCollector downstream;
    EventBatch batch;
    for (int i = 0; i < 3; ++i) batch.add(packet_at(i, 0));
    const auto inside = plan.wrap(0, &downstream);
    inside->on_user_begin(0);
    EXPECT_THROW(inside->on_batch(batch), fault::ShardFault);
    const auto after = plan.wrap(0, &downstream);  // nth = 4 is past a 2-event batch
    after->on_user_begin(0);
    batch.packets.pop_back();
    batch.order.pop_back();
    after->on_batch(batch);                                  // callbacks 2..3
    EXPECT_THROW(after->on_user_end(0), fault::ShardFault);  // callback 4
  }
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{64}}) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    {
      // Fail-fast: the fault escapes run() naming the per-event position.
      fault::FaultPlan plan;
      plan.add({/*user=*/1, /*nth_callback=*/5, /*fail_attempts=*/1, /*stall_ms=*/0});
      core::PipelineOptions options;
      options.batch_size = batch_size;
      options.fault_plan = &plan;
      sim::StudyGenerator generator{property_config()};
      core::StudyPipeline pipeline{&generator, options};
      try {
        (void)pipeline.run();
        ADD_FAILURE() << "expected fault::ShardFault";
      } catch (const fault::ShardFault& fault) {
        EXPECT_NE(std::string(fault.what()).find("user 1 at callback 5"), std::string::npos)
            << fault.what();
      }
    }
    // Retry: one retry of user 1's shard, every other shard on its first try.
    fault::FaultPlan plan;
    plan.add({/*user=*/1, /*nth_callback=*/5, /*fail_attempts=*/1, /*stall_ms=*/0});
    core::PipelineOptions options;
    options.batch_size = batch_size;
    options.failure_policy = core::FailurePolicy::kRetryThenSkip;
    options.fault_plan = &plan;
    sim::StudyGenerator generator{property_config()};
    core::StudyPipeline pipeline{&generator, options};
    const auto run = pipeline.run();
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->shard_retries, 1u);
    ASSERT_EQ(run->shards.size(), 4u);
    for (std::size_t user = 0; user < run->shards.size(); ++user) {
      EXPECT_EQ(run->shards[user].attempts, user == 1 ? 2u : 1u) << "user " << user;
    }
  }
}

// Every rejected option combination, through both façades: the exact status
// each returns, before any event is generated or captured.
TEST(BatchSize, ZeroIsRejectedByPipelineAndSweep) {
  struct Case {
    const char* label;
    std::function<void(core::PipelineOptions&)> pipeline;
    std::function<void(core::SweepOptions&)> sweep;
    std::string pipeline_message;
    std::string sweep_message;
  };
  const std::string zero_batch = "batch_size must be at least 1";
  const std::string lone_budget = "account budget requires an account directory (set account_dir)";
  const std::vector<Case> cases = {
      {"batch_size 0", [](core::PipelineOptions& o) { o.batch_size = 0; },
       [](core::SweepOptions& o) { o.batch_size = 0; }, zero_batch, zero_batch},
      {"account budget without account_dir",
       [](core::PipelineOptions& o) { o.account_budget_bytes = 1 << 20; },
       [](core::SweepOptions& o) { o.account_budget_bytes = 1 << 20; }, lone_budget, lone_budget},
      {"resume without a directory", [](core::PipelineOptions& o) { o.resume = true; },
       [](core::SweepOptions& o) { o.resume = true; },
       "resume requested without a checkpoint directory (set checkpoint_dir)",
       "resume requested without a checkpoint or store directory (set checkpoint_dir or "
       "store_dir)"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    sim::StudyGenerator generator{property_config()};
    core::PipelineOptions options;
    c.pipeline(options);
    core::StudyPipeline pipeline{&generator, options};
    const auto run = pipeline.run();
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_EQ(run.status().message(), c.pipeline_message);

    core::SweepOptions sweep_options;
    c.sweep(sweep_options);
    core::SweepEngine sweep{&generator, sweep_options};
    sweep.add_scenario({.name = "baseline"});
    const auto swept = sweep.run();
    ASSERT_FALSE(swept.ok());
    EXPECT_EQ(swept.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_EQ(swept.status().message(), c.sweep_message);
    EXPECT_TRUE(sweep.store().empty());  // rejected before capture
  }

  // A sealing sweep rejects the options before capture: no segment lands.
  const auto dir = std::filesystem::temp_directory_path() / "wildenergy_batch_zero_sealed";
  std::filesystem::remove_all(dir);
  sim::StudyGenerator generator{property_config()};
  core::SweepOptions sealed;
  sealed.batch_size = 0;
  sealed.store_dir = dir.string();
  core::SweepEngine sweep{&generator, sealed};
  sweep.add_scenario({.name = "baseline"});
  const auto swept = sweep.run();
  ASSERT_FALSE(swept.ok());
  EXPECT_EQ(swept.status().message(), zero_batch);
  EXPECT_EQ(sweep.store().num_segments(), 0u);
  EXPECT_TRUE(!std::filesystem::exists(dir) || std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------- readers

TEST(Readers, BatchedIngestIsBitIdenticalToPerRecord) {
  sim::StudyConfig config = sim::small_study(/*seed=*/7);
  config.num_users = 2;
  config.num_days = 2;
  config.total_apps = 30;
  const sim::StudyGenerator generator{config};

  // The trace clean, and cut halfway into its last user's bracket. A cut
  // stream is read best-effort: the reader flushes what it decoded and
  // closes the open user, so nothing depends on how many events were still
  // waiting in a batch when the input stopped.
  for (const bool cut : {false, true}) {
    std::ostringstream os;
    trace::CsvTraceWriter writer{os};
    generator.run(writer);
    std::string data = os.str();
    if (cut) {
      const std::size_t last_user = data.rfind("\nU,");
      ASSERT_NE(last_user, std::string::npos);
      data.resize(last_user + (data.size() - last_user) / 2);
    }

    const auto ingest = [&](std::size_t batch_size, trace::TraceCollector& out,
                            energy::EnergyLedger& ledger) {
      ReadOptions options;
      options.batch_size = batch_size;
      if (cut) options.policy = ReadPolicy::kBestEffort;
      energy::EnergyAttributor attributor{radio::make_lte_model, &ledger};
      trace::TraceMulticast sinks;
      sinks.add(&out);
      sinks.add(&attributor);
      std::istringstream is{data};
      const trace::ReadSummary result = trace::read_csv_trace(is, sinks, options);
      ASSERT_TRUE(result.ok()) << result.error();
      EXPECT_EQ(result.truncated, cut);
      EXPECT_EQ(result.records_repaired, cut ? 1u : 0u);  // the closed last user
    };

    SCOPED_TRACE(cut ? "cut" : "clean");
    trace::TraceCollector one_by_one;
    energy::EnergyLedger one_by_one_ledger;
    ingest(1, one_by_one, one_by_one_ledger);
    ASSERT_GT(one_by_one.packets().size(), 0u);
    EXPECT_EQ(one_by_one.packets().back().user, config.num_users - 1);
    for (const std::size_t batch_size : kLargerBatches) {
      SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
      trace::TraceCollector batched;
      energy::EnergyLedger batched_ledger;
      ingest(batch_size, batched, batched_ledger);
      ASSERT_EQ(one_by_one.packets().size(), batched.packets().size());
      for (std::size_t i = 0; i < one_by_one.packets().size(); ++i) {
        EXPECT_EQ(one_by_one.packets()[i].time.us, batched.packets()[i].time.us);
        EXPECT_EQ(one_by_one.packets()[i].user, batched.packets()[i].user);
        EXPECT_EQ(one_by_one.packets()[i].bytes, batched.packets()[i].bytes);
        EXPECT_EQ(one_by_one.packets()[i].joules, batched.packets()[i].joules);
      }
      ASSERT_EQ(one_by_one.transitions().size(), batched.transitions().size());
      expect_identical_ledgers(one_by_one_ledger, batched_ledger);
    }
  }
}

TEST(Readers, BatchedIngestCountsMalformedRecordsIdentically) {
  // Corrupt one CSV line; every batch size must agree on what was dropped
  // and what survived.
  sim::StudyConfig config = sim::small_study(/*seed=*/7);
  config.num_users = 1;
  config.num_days = 1;
  config.total_apps = 30;
  std::ostringstream os;
  trace::CsvTraceWriter writer{os};
  sim::StudyGenerator{config}.run(writer);
  std::string data = os.str();
  const auto first_packet = data.find("\nP,");
  ASSERT_NE(first_packet, std::string::npos);
  data[first_packet + 1] = 'X';  // unknown record tag

  const auto ingest = [&](std::size_t batch_size) {
    ReadOptions options;
    options.policy = ReadPolicy::kSkipAndCount;
    options.batch_size = batch_size;
    std::istringstream is{data};
    energy::EnergyLedger ledger;
    const auto result = trace::read_csv_trace(is, ledger, options);
    EXPECT_TRUE(result.ok());
    return std::make_pair(result.records_dropped, ledger.total_bytes());
  };
  const auto one_by_one = ingest(1);
  EXPECT_EQ(one_by_one.first, 1u);
  for (const std::size_t batch_size : kLargerBatches) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    const auto batched = ingest(batch_size);
    EXPECT_EQ(one_by_one.first, batched.first);
    EXPECT_EQ(one_by_one.second, batched.second);
  }
}

}  // namespace
}  // namespace wildenergy
