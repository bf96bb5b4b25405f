// Groups packet bursts into flows by idle gap.
//
// The paper reports per-flow averages in Table 1 ("one flow may not
// correspond to one periodic update"). We reconstruct flows the same way a
// trace analyzer must: consecutive traffic of one (user, app) with no idle
// gap exceeding a threshold belongs to one flow. The default threshold of
// 15 s is just beyond the LTE tail, so bursts that share a radio wakeup
// share a flow.
//
// Not a TraceSink: the analyses that need flows (waste, case studies) own an
// assembler and hand it the packets they select, one at a time.
#pragma once

#include <functional>
#include <unordered_map>

#include "trace/record.h"

namespace wildenergy::trace {

using FlowSink = std::function<void(const FlowRecord&)>;

class FlowAssembler final {
 public:
  explicit FlowAssembler(FlowSink sink, Duration idle_gap = sec(15.0));

  /// Forget every open flow and restart flow ids and counts (study begin).
  void reset();
  /// Drop the previous user's open flows (user begin).
  void begin_user();
  /// Extend the packet's (user, app) flow, or close it and open a new one
  /// when the idle gap since its last packet is exceeded.
  void add(const PacketRecord& packet);
  /// Close every open flow (user end).
  void end_user();

  /// Close every open flow whose last packet is more than the idle gap
  /// before `now`. Lets callers that interleave flow consumption with other
  /// events (e.g. the wasted-update analysis) observe flows as soon as they
  /// are logically complete, rather than at the next packet or user end.
  void flush_idle(TimePoint now);

  [[nodiscard]] std::uint64_t flows_emitted() const { return flows_emitted_; }

 private:
  void flush(FlowRecord& open);

  FlowSink sink_;
  Duration idle_gap_;
  FlowId next_flow_id_ = 0;
  std::uint64_t flows_emitted_ = 0;
  // One open flow per app for the current user.
  std::unordered_map<AppId, FlowRecord> open_;
};

}  // namespace wildenergy::trace
