// Differential energy oracle for the attributor (energy/attributor.h).
//
// A naive reference feeds a trace's packets to a fresh radio model one at a
// time, records every segment (tagged with the packet whose transfer emitted
// it) through a std::function sink, and only afterwards applies the paper's
// §3.1 rule: promotion and transfer joules to the packet that caused them,
// tail joules to the packet before the tail (or, under kProportional, split
// by bytes over the packets since the radio last went idle), idle joules to
// the device baseline. The attributor must agree with it exactly — per
// packet and per energy total — for every radio model, tail policy and batch
// size, over seeded random traces built to hit the awkward cases: bursts
// queued behind airtime, gaps ending mid-tail, gaps reaching idle, and
// packet/transition timestamp ties.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "energy/attributor.h"
#include "radio/burst_machine.h"
#include "stream_recorder.h"
#include "trace/batch.h"
#include "util/rng.h"

namespace wildenergy {
namespace {

using energy::EnergyAttributor;
using energy::TailPolicy;

struct Model {
  const char* name;
  energy::RadioModelFactory factory;
};

const std::vector<Model>& models() {
  static const std::vector<Model> kModels = {
      {"LTE", radio::make_lte_model},
      {"LTE-FD", radio::make_lte_fast_dormancy_model},
      {"UMTS", radio::make_umts_model},
      {"WiFi", radio::make_wifi_model},
  };
  return kModels;
}

struct Trace {
  trace::EventBatch events;  ///< one user's stream, time-ordered
  TimePoint end;             ///< study end: where the radio is finished
};

/// A random single-user trace whose gaps are sized against `params`: zero
/// (ties), shorter than the minimum airtime (queued bursts), inside the tail,
/// and past the tail (idle). Some packets carry no bytes, so a proportional
/// window can have zero total bytes.
Trace random_trace(std::uint64_t seed, const radio::BurstMachineParams& params) {
  Rng rng{seed};
  const double tail_s = params.total_tail().seconds();
  const double min_airtime_s = params.min_transfer_time.seconds();
  Trace trace;
  TimePoint t = kEpoch + sec(1.0);
  const int events = 200 + static_cast<int>(rng.uniform_int(200));
  for (int i = 0; i < events; ++i) {
    const double pick = rng.uniform();
    if (pick < 0.15) {
      // tie with the previous event
    } else if (pick < 0.35) {
      t += sec(rng.uniform(0.0, 0.9) * min_airtime_s);  // queues behind airtime
    } else if (pick < 0.75) {
      t += sec(rng.uniform(0.0, 1.0) * tail_s);  // ends mid-tail
    } else {
      t += sec(tail_s + rng.exponential(60.0));  // reaches idle
    }
    if (rng.chance(0.25)) {
      trace::StateTransition tr;
      tr.time = t;
      tr.app = static_cast<trace::AppId>(rng.uniform_int(4));
      tr.from = trace::ProcessState::kForeground;
      tr.to = trace::ProcessState::kBackground;
      trace.events.add(tr);
      // A packet at the transition's own timestamp: the upstream tie order.
      if (rng.chance(0.5)) continue;
    }
    trace::PacketRecord p;
    p.time = t;
    p.app = static_cast<trace::AppId>(rng.uniform_int(4));
    p.flow = static_cast<trace::FlowId>(i);
    p.bytes = rng.chance(0.1) ? 0 : 1 + rng.uniform_int(rng.chance(0.2) ? 2'000'000 : 20'000);
    p.direction = rng.chance(0.3) ? radio::Direction::kUplink : radio::Direction::kDownlink;
    p.state = trace::ProcessState::kService;
    p.joules = 123.0;  // stale input energy: the attributor must overwrite it
    trace.events.add(p);
  }
  const double tail_pick = rng.uniform();
  trace.end = tail_pick < 0.2   ? t                                    // no closing segment
              : tail_pick < 0.6 ? t + sec(rng.uniform(0.0, 1.0) * tail_s)  // mid-tail
                                : t + sec(tail_s + rng.exponential(600.0));
  return trace;
}

struct Segment {
  std::size_t packet;  ///< the packet whose feed emitted it (n for finish)
  radio::EnergySegment segment;
};

struct Reference {
  std::vector<Segment> segments;
  std::vector<double> joules;  ///< per packet, in stream order
  EnergyAttributor::UserEnergy energy;
};

/// Record every segment first, attribute afterwards.
Reference reference(const Trace& trace, const energy::RadioModelFactory& factory,
                    TailPolicy policy) {
  Reference ref;
  const std::vector<trace::PacketRecord>& packets = trace.events.packets;
  const std::size_t n = packets.size();
  std::unique_ptr<radio::BurstMachine> model = factory();
  for (std::size_t k = 0; k < n; ++k) {
    const radio::SegmentSink record = [&](const radio::EnergySegment& s) {
      ref.segments.push_back({k, s});
    };
    model->on_transfer({packets[k].time, packets[k].bytes, packets[k].direction}, record);
  }
  const radio::SegmentSink record = [&](const radio::EnergySegment& s) {
    ref.segments.push_back({n, s});
  };
  model->finish(trace.end, record);

  ref.joules.assign(n, 0.0);
  double pending_tail = 0.0;
  std::size_t window_begin = 0;  // first packet since the radio last went idle
  const auto split = [&](std::size_t window_end) {
    if (pending_tail > 0.0 && window_end > window_begin) {
      double total_bytes = 0.0;
      for (std::size_t i = window_begin; i < window_end; ++i) {
        total_bytes += static_cast<double>(packets[i].bytes);
      }
      for (std::size_t i = window_begin; i < window_end; ++i) {
        const double share = total_bytes > 0.0
                                 ? static_cast<double>(packets[i].bytes) / total_bytes
                                 : 1.0 / static_cast<double>(window_end - window_begin);
        ref.joules[i] += pending_tail * share;
      }
    }
    pending_tail = 0.0;
    window_begin = window_end;
  };
  EnergyAttributor::UserEnergy& e = ref.energy;
  for (const auto& [k, s] : ref.segments) {
    e.device += s.joules;
    switch (s.kind) {
      case radio::SegmentKind::kIdle:
        e.baseline += s.joules;
        if (policy == TailPolicy::kProportional) split(k);
        break;
      case radio::SegmentKind::kTail:
        e.tail += s.joules;
        e.attributed += s.joules;
        if (policy == TailPolicy::kLastPacket) {
          ref.joules.at(k - 1) += s.joules;
        } else {
          pending_tail += s.joules;
        }
        break;
      case radio::SegmentKind::kPromotion:
        e.promotion += s.joules;
        e.attributed += s.joules;
        ref.joules.at(k) += s.joules;
        break;
      case radio::SegmentKind::kTransfer:
        e.transfer += s.joules;
        e.attributed += s.joules;
        ref.joules.at(k) += s.joules;
        break;
    }
  }
  if (policy == TailPolicy::kProportional) split(n);
  return ref;
}

struct Attributed {
  trace::EventBatch out;
  EnergyAttributor::UserEnergy energy;
};

/// The attributor over `trace`, delivered in batches of `batch_size` events.
Attributed attribute(const Trace& trace, const energy::RadioModelFactory& factory,
                     TailPolicy policy, std::size_t batch_size) {
  StreamRecorder recorder;
  EnergyAttributor attr{factory, &recorder, policy};
  trace::StudyMeta meta;
  meta.num_users = 1;
  meta.num_apps = 4;
  meta.study_begin = kEpoch;
  meta.study_end = trace.end;
  attr.on_study_begin(meta);
  attr.on_user_begin(0);
  trace::EventBatch batch;
  const auto take = [&](const auto& event) {
    batch.add(event);
    if (batch.size() == batch_size) {
      attr.on_batch(batch);
      batch.clear();
    }
  };
  trace::for_each_event(trace.events, take, take);
  if (!batch.empty()) attr.on_batch(batch);
  attr.on_user_end(0);
  attr.on_study_end();
  return {recorder.stream(),
          {attr.device_joules(), attr.attributed_joules(), attr.baseline_joules(),
           attr.tail_joules(), attr.promotion_joules(), attr.transfer_joules()}};
}

void expect_within(double expected, double actual, const char* what) {
  EXPECT_LE(std::abs(expected - actual), 1e-12 * std::abs(expected)) << what;
}

constexpr std::uint64_t kSeeds = 12;

TEST(AttributionOracle, MatchesTheNaiveReferenceExactly) {
  for (const Model& model : models()) {
    for (const TailPolicy policy : {TailPolicy::kLastPacket, TailPolicy::kProportional}) {
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const Trace trace = random_trace(seed, model.factory()->params());
        const Reference ref = reference(trace, model.factory, policy);
        for (const std::size_t batch_size : {std::size_t{1}, std::size_t{3}, std::size_t{256}}) {
          SCOPED_TRACE(std::string(model.name) +
                       (policy == TailPolicy::kLastPacket ? " last-packet" : " proportional") +
                       " seed=" + std::to_string(seed) + " batch=" + std::to_string(batch_size));
          const Attributed run = attribute(trace, model.factory, policy, batch_size);
          const std::vector<trace::PacketRecord>& out = run.out.packets;
          ASSERT_EQ(out.size(), ref.joules.size());
          ASSERT_EQ(run.out.transitions.size(), trace.events.transitions.size());
          for (std::size_t i = 0; i < out.size(); ++i) {
            ASSERT_EQ(out[i].time.us, trace.events.packets[i].time.us) << "packet " << i;
            ASSERT_EQ(out[i].flow, trace.events.packets[i].flow) << "packet " << i;
            EXPECT_EQ(out[i].joules, ref.joules[i]) << "packet " << i;
          }
          EXPECT_EQ(run.energy.device, ref.energy.device);
          EXPECT_EQ(run.energy.attributed, ref.energy.attributed);
          EXPECT_EQ(run.energy.baseline, ref.energy.baseline);
          EXPECT_EQ(run.energy.tail, ref.energy.tail);
          EXPECT_EQ(run.energy.promotion, ref.energy.promotion);
          EXPECT_EQ(run.energy.transfer, ref.energy.transfer);
        }
      }
    }
  }
}

TEST(AttributionOracle, PacketJoulesSumToTheDeviceTotal) {
  for (const Model& model : models()) {
    for (const TailPolicy policy : {TailPolicy::kLastPacket, TailPolicy::kProportional}) {
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE(std::string(model.name) +
                     (policy == TailPolicy::kLastPacket ? " last-packet" : " proportional") +
                     " seed=" + std::to_string(seed));
        const Trace trace = random_trace(seed, model.factory()->params());
        const Attributed run = attribute(trace, model.factory, policy, trace::kDefaultBatchSize);
        double packets = 0.0;
        for (const trace::PacketRecord& p : run.out.packets) packets += p.joules;
        expect_within(run.energy.attributed, packets, "sum of packet joules vs attributed");
        expect_within(run.energy.device, run.energy.attributed + run.energy.baseline,
                      "attributed + baseline vs device");
      }
    }
  }
}

// The traces must really reach the cases the oracle is meant to cover, for
// every model: otherwise a match proves less than it claims.
TEST(AttributionOracle, TracesReachEveryCase) {
  for (const Model& model : models()) {
    SCOPED_TRACE(model.name);
    std::size_t queued = 0;
    std::size_t mid_tail = 0;
    std::size_t idle = 0;
    std::size_t ties = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const Trace trace = random_trace(seed, model.factory()->params());
      const Reference ref = reference(trace, model.factory, TailPolicy::kLastPacket);
      const std::size_t n = trace.events.packets.size();
      std::vector<std::size_t> segments(n + 1, 0);
      std::vector<bool> has_tail(n + 1, false);
      std::vector<bool> has_idle(n + 1, false);
      for (const auto& [k, s] : ref.segments) {
        ++segments[k];
        has_tail[k] = has_tail[k] || s.kind == radio::SegmentKind::kTail;
        has_idle[k] = has_idle[k] || s.kind == radio::SegmentKind::kIdle;
      }
      for (std::size_t k = 1; k < n; ++k) {
        queued += segments[k] == 1 ? 1 : 0;  // the transfer alone: no gap, no promotion
        mid_tail += has_tail[k] && !has_idle[k] ? 1 : 0;
        idle += has_idle[k] ? 1 : 0;
      }
      std::size_t pi = 0;
      std::size_t ti = 0;
      for (std::size_t o = 0; o + 1 < trace.events.order.size(); ++o) {
        const bool transition_first = trace.events.order[o] == trace::EventKind::kTransition;
        if (transition_first) ++ti; else ++pi;
        if (transition_first && trace.events.order[o + 1] == trace::EventKind::kPacket &&
            trace.events.transitions[ti - 1].time == trace.events.packets[pi].time) {
          ++ties;
        }
      }
    }
    EXPECT_GT(queued, 0u);
    EXPECT_GT(mid_tail, 0u);
    EXPECT_GT(idle, 0u);
    EXPECT_GT(ties, 0u);
  }
}

}  // namespace
}  // namespace wildenergy
