#include "trace/flow_assembler.h"

#include <cassert>
#include <utility>

namespace wildenergy::trace {

FlowAssembler::FlowAssembler(FlowSink sink, Duration idle_gap)
    : sink_(std::move(sink)), idle_gap_(idle_gap) {
  assert(sink_);
  assert(idle_gap_.us > 0);
}

void FlowAssembler::reset() {
  open_.clear();
  next_flow_id_ = 0;
  flows_emitted_ = 0;
}

void FlowAssembler::begin_user() { open_.clear(); }

void FlowAssembler::flush(FlowRecord& open) {
  sink_(open);
  ++flows_emitted_;
}

void FlowAssembler::add(const PacketRecord& packet) {
  auto [it, inserted] = open_.try_emplace(packet.app);
  FlowRecord& flow = it->second;
  if (!inserted && packet.time - flow.last_packet > idle_gap_) {
    flush(flow);
    flow = FlowRecord{};
    inserted = true;
  }
  if (inserted || flow.packets == 0) {
    flow.user = packet.user;
    flow.app = packet.app;
    flow.flow = next_flow_id_++;
    flow.first_packet = packet.time;
    flow.first_state = packet.state;
  }
  flow.last_packet = packet.time;
  if (packet.direction == radio::Direction::kUplink) {
    flow.bytes_up += packet.bytes;
  } else {
    flow.bytes_down += packet.bytes;
  }
  ++flow.packets;
  flow.joules += packet.joules;
  flow.any_foreground = flow.any_foreground || is_foreground(packet.state);
}

void FlowAssembler::flush_idle(TimePoint now) {
  for (auto it = open_.begin(); it != open_.end();) {
    FlowRecord& flow = it->second;
    if (flow.packets > 0 && now - flow.last_packet > idle_gap_) {
      flush(flow);
      it = open_.erase(it);
    } else {
      ++it;
    }
  }
}

void FlowAssembler::end_user() {
  for (auto& [app, flow] : open_) {
    if (flow.packets > 0) flush(flow);
  }
  open_.clear();
}

}  // namespace wildenergy::trace
