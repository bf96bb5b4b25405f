// Energy segments: the common currency between radio models, the energy
// attribution engine, and the Monsoon-style power sampler.
//
// A radio model consumes a time-ordered stream of transfer events (packets or
// bursts, device-wide) and emits contiguous EnergySegments describing what the
// radio hardware was doing and how much energy each interval consumed. The
// attribution engine then maps segments to apps using the paper's rule
// (tail -> last packet in the tail period, §3.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

#include "util/time.h"

namespace wildenergy::radio {

/// Direction of a transfer, device-centric.
enum class Direction : std::uint8_t { kDownlink, kUplink };

/// One network transfer burst presented to a radio model. `bytes` is the
/// payload size of the burst; models convert it to airtime via their rate
/// parameters.
struct TransferEvent {
  TimePoint time;
  std::uint64_t bytes = 0;
  Direction direction = Direction::kDownlink;
};

/// Attribution category of an energy segment (see DESIGN.md §4.1).
enum class SegmentKind : std::uint8_t {
  kIdle,       ///< baseline (paging) power; not attributed to any app
  kPromotion,  ///< state-promotion ramp; attributed to the triggering packet
  kTransfer,   ///< active transfer airtime; attributed to the transferring packet
  kTail,       ///< post-transfer high-power tail; attributed to the last packet
};

[[nodiscard]] constexpr const char* to_string(SegmentKind k) {
  switch (k) {
    case SegmentKind::kIdle: return "idle";
    case SegmentKind::kPromotion: return "promotion";
    case SegmentKind::kTransfer: return "transfer";
    case SegmentKind::kTail: return "tail";
  }
  return "?";
}

/// A contiguous interval of radio activity at (approximately) constant power.
struct EnergySegment {
  TimePoint begin;
  TimePoint end;
  double joules = 0.0;
  SegmentKind kind = SegmentKind::kIdle;
  /// Human-readable hardware state, e.g. "LTE_CRX", "UMTS_FACH_TAIL". A
  /// view into the model's parameter set; valid while the model is alive.
  std::string_view state_name = "idle";
  /// True for tail segments spent in a DRX phase. Precomputed per tail phase
  /// by the model so attribution counters never scan state_name per segment.
  bool drx = false;

  [[nodiscard]] Duration duration() const { return end - begin; }
  [[nodiscard]] double avg_power_w() const {
    const double s = duration().seconds();
    return s > 0 ? joules / s : 0.0;
  }
};

/// Receives segments in non-decreasing time order with no gaps or overlaps
/// between consecutive segments from one model instance.
using SegmentSink = std::function<void(const EnergySegment&)>;

}  // namespace wildenergy::radio
