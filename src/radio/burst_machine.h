// The radio interface power/state model: one burst-driven state machine.
//
// LTE (primary, §3.1 of the paper), UMTS and WiFi all share the same
// skeleton — promote, transfer, multi-phase tail, idle — and differ only in
// parameters (power levels, durations, whether a mid-tail arrival needs a
// repromotion). This class implements the skeleton once; the make_*_model
// helpers below are thin parameterizations (see DESIGN.md §2).
//
// The feed API is templated on the sink, so the attributor's segment sink
// inlines into the gap/tail-phase loop with no std::function layer per
// segment; callers that pass a SegmentSink compile unchanged.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "radio/power_params.h"
#include "radio/segment.h"

namespace wildenergy::radio {

class BurstMachine {
 public:
  explicit BurstMachine(BurstMachineParams params);

  /// Feed the next transfer. Events must arrive in non-decreasing time order;
  /// the machine calls sink(segment) for every energy segment that is fully
  /// determined up to (and including) this transfer's active period: the gap
  /// since the last one (tail phases, then idle), any promotion, and the
  /// transfer itself, in time order.
  template <class Sink>
  void on_transfer(const TransferEvent& event, Sink&& sink);

  /// Close out the machine at `end`: emits any remaining tail and trailing
  /// idle segments. The machine returns to its initial (idle) state.
  template <class Sink>
  void finish(TimePoint end, Sink&& sink) {
    if (started_ && end > cursor_) {
      std::size_t phase = kIdlePhase;
      gap_impl(end, sink, phase);
    }
    reset();
  }

  /// True if the radio would still be in a powered (non-idle) state at `t`,
  /// assuming no transfers after the last one fed in.
  [[nodiscard]] bool is_powered_at(TimePoint t) const;
  /// Model name for reports ("LTE", "UMTS", "WiFi").
  [[nodiscard]] std::string name() const { return params_.model_name; }
  /// Reset to the initial idle state, forgetting all history.
  void reset();

  [[nodiscard]] const BurstMachineParams& params() const { return params_; }

  /// Airtime a burst of `bytes` occupies (rate-limited, floored at
  /// min_transfer_time). Exposed for tests and workload sizing.
  [[nodiscard]] Duration transfer_duration(std::uint64_t bytes, Direction dir) const {
    const double rate = dir == Direction::kUplink ? params_.uplink_bps : params_.downlink_bps;
    const auto airtime = sec(static_cast<double>(bytes) * 8.0 / rate);
    return std::max(airtime, params_.min_transfer_time);
  }

  /// Closed-form energy of one isolated burst starting from idle, including
  /// promotion and the full tail. Used by tests as an oracle and by app
  /// designers as a "cost of one update" query.
  [[nodiscard]] double isolated_burst_energy(std::uint64_t bytes, Direction dir) const;

 private:
  static constexpr std::size_t kIdlePhase = static_cast<std::size_t>(-1) - 1;
  static constexpr std::size_t kNoPhase = static_cast<std::size_t>(-1);

  /// Emit tail/idle segments covering [cursor_, until); updates cursor_.
  /// `phase_at_until` receives the index of the tail phase active at `until`
  /// (or kIdlePhase if the machine reached idle).
  template <class Sink>
  void gap_impl(TimePoint until, Sink&& sink, std::size_t& phase_at_until) {
    assert(cursor_ >= active_until_);
    phase_at_until = kIdlePhase;
    TimePoint phase_start = active_until_;
    for (std::size_t i = 0; i < params_.tail_phases.size(); ++i) {
      const auto& phase = params_.tail_phases[i];
      const TimePoint phase_end = phase_start + phase.duration;
      const TimePoint lo = std::max(cursor_, phase_start);
      const TimePoint hi = std::min(until, phase_end);
      if (hi > lo) {
        sink({lo, hi, phase.power_w * (hi - lo).seconds(), SegmentKind::kTail,
              phase.state_name, phase_drx_[i]});
      }
      if (until < phase_end) {
        phase_at_until = i;
        cursor_ = until;
        return;
      }
      phase_start = phase_end;
    }
    // Reached idle: phase_start is now the tail end.
    const TimePoint lo = std::max(cursor_, phase_start);
    if (until > lo) {
      sink({lo, until, params_.idle_power_w * (until - lo).seconds(), SegmentKind::kIdle,
            "IDLE", false});
    }
    cursor_ = std::max(cursor_, until);
  }

  BurstMachineParams params_;
  /// Per-tail-phase DRX flag (state_name contains "DRX"), resolved once at
  /// construction so segments carry it without a per-segment string scan.
  std::vector<bool> phase_drx_;
  bool started_ = false;
  TimePoint cursor_{};        ///< segments emitted up to here
  TimePoint active_until_{};  ///< end of the last transfer's airtime

  // Instrumentation: "radio.*" counters resolved once at construction from
  // obs::MetricsRegistry::current() — the shard-local registry when built on
  // a pipeline worker, global() otherwise — so the hot path pays a single
  // pointer increment. Counting never feeds back into the energy math.
  obs::Counter* ctr_bursts_;
  obs::Counter* ctr_bursts_queued_;
  obs::Counter* ctr_promotions_;
  obs::Counter* ctr_repromotions_;
};

template <class Sink>
void BurstMachine::on_transfer(const TransferEvent& event, Sink&& sink) {
  ctr_bursts_->inc();
  TimePoint start;
  std::size_t phase = kIdlePhase;
  if (!started_) {
    started_ = true;
    cursor_ = event.time;
    active_until_ = event.time;
    start = event.time;
  } else if (event.time >= active_until_) {
    gap_impl(event.time, sink, phase);
    start = event.time;
  } else {
    // The radio is still busy with the previous burst's airtime: this burst
    // queues behind it. No gap, no promotion.
    start = active_until_;
    phase = kNoPhase;
    ctr_bursts_queued_->inc();
  }

  if (phase != kNoPhase) {
    const PromotionParams& promo = phase == kIdlePhase
                                       ? params_.idle_promotion
                                       : params_.tail_phases[phase].repromotion;
    if (promo.enabled()) {
      (phase == kIdlePhase ? ctr_promotions_ : ctr_repromotions_)->inc();
      const TimePoint promo_end = start + promo.duration;
      sink({start, promo_end, promo.power_w * promo.duration.seconds(),
            SegmentKind::kPromotion, promo.state_name, false});
      start = promo_end;
    }
  }

  const Duration dur = transfer_duration(event.bytes, event.direction);
  const double per_byte = event.direction == Direction::kUplink ? params_.joules_per_byte_up
                                                                : params_.joules_per_byte_down;
  const TimePoint end = start + dur;
  sink({start, end,
        params_.active_power_w * dur.seconds() + per_byte * static_cast<double>(event.bytes),
        SegmentKind::kTransfer, params_.active_state_name, false});
  active_until_ = end;
  cursor_ = end;
}

/// Factory helpers matching the parameter sets in power_params.h.
[[nodiscard]] std::unique_ptr<BurstMachine> make_lte_model();
[[nodiscard]] std::unique_ptr<BurstMachine> make_lte_fast_dormancy_model();
[[nodiscard]] std::unique_ptr<BurstMachine> make_umts_model();
[[nodiscard]] std::unique_ptr<BurstMachine> make_wifi_model();

}  // namespace wildenergy::radio
