#include "trace/sink.h"

#include "trace/batch.h"

namespace wildenergy::trace {

// Leaf sinks that take the interleave one record at a time implement
// on_packet / on_transition and inherit this replay.
void TraceSink::on_batch(const EventBatch& batch) { replay(batch, *this); }

void TraceMulticast::on_batch(const EventBatch& batch) {
  for (auto* s : sinks_) s->on_batch(batch);
}

void TraceCollector::on_batch(const EventBatch& batch) {
  // Events of each kind are in array order, so bulk appends collect exactly
  // the interleaved stream's packets and transitions.
  packets_.insert(packets_.end(), batch.packets.begin(), batch.packets.end());
  transitions_.insert(transitions_.end(), batch.transitions.begin(), batch.transitions.end());
}

std::unique_ptr<TraceSink> TraceCollector::clone_shard() const {
  return std::make_unique<TraceCollector>();
}

void TraceCollector::merge_from(TraceSink& shard) {
  auto& other = dynamic_cast<TraceCollector&>(shard);
  packets_.insert(packets_.end(), other.packets_.begin(), other.packets_.end());
  transitions_.insert(transitions_.end(), other.transitions_.begin(),
                      other.transitions_.end());
  other.packets_.clear();
  other.transitions_.clear();
}

void TraceCollector::save_state(ckpt::ByteWriter& out) const {
  out.put_varint(packets_.size());
  for (const PacketRecord& p : packets_) {
    out.put_varint(static_cast<std::uint64_t>(p.time.us));
    out.put_varint(p.user);
    out.put_varint(p.app);
    out.put_varint(p.flow);
    out.put_varint(p.bytes);
    out.put_u8(static_cast<std::uint8_t>(p.direction));
    out.put_u8(static_cast<std::uint8_t>(p.interface));
    out.put_u8(static_cast<std::uint8_t>(p.state));
    out.put_f64(p.joules);
  }
  out.put_varint(transitions_.size());
  for (const StateTransition& t : transitions_) {
    out.put_varint(static_cast<std::uint64_t>(t.time.us));
    out.put_varint(t.user);
    out.put_varint(t.app);
    out.put_u8(static_cast<std::uint8_t>(t.from));
    out.put_u8(static_cast<std::uint8_t>(t.to));
  }
}

util::Status TraceCollector::restore_state(ckpt::ByteReader& in) {
  auto num_packets = in.get_varint("collector.packets");
  if (!num_packets.ok()) return num_packets.status();
  packets_.clear();
  packets_.reserve(*num_packets);
  for (std::uint64_t i = 0; i < *num_packets; ++i) {
    PacketRecord p;
    auto time = in.get_varint("collector.packet.time");
    if (!time.ok()) return time.status();
    p.time.us = static_cast<std::int64_t>(*time);
    auto user = in.get_varint("collector.packet.user");
    if (!user.ok()) return user.status();
    p.user = static_cast<UserId>(*user);
    auto app = in.get_varint("collector.packet.app");
    if (!app.ok()) return app.status();
    p.app = static_cast<AppId>(*app);
    auto flow = in.get_varint("collector.packet.flow");
    if (!flow.ok()) return flow.status();
    p.flow = *flow;
    auto bytes = in.get_varint("collector.packet.bytes");
    if (!bytes.ok()) return bytes.status();
    p.bytes = *bytes;
    auto direction = in.get_u8("collector.packet.direction");
    if (!direction.ok()) return direction.status();
    p.direction = static_cast<radio::Direction>(*direction);
    auto iface = in.get_u8("collector.packet.interface");
    if (!iface.ok()) return iface.status();
    p.interface = static_cast<Interface>(*iface);
    auto state = in.get_u8("collector.packet.state");
    if (!state.ok()) return state.status();
    p.state = static_cast<ProcessState>(*state);
    auto joules = in.get_f64("collector.packet.joules");
    if (!joules.ok()) return joules.status();
    p.joules = *joules;
    packets_.push_back(p);
  }
  auto num_transitions = in.get_varint("collector.transitions");
  if (!num_transitions.ok()) return num_transitions.status();
  transitions_.clear();
  transitions_.reserve(*num_transitions);
  for (std::uint64_t i = 0; i < *num_transitions; ++i) {
    StateTransition t;
    auto time = in.get_varint("collector.transition.time");
    if (!time.ok()) return time.status();
    t.time.us = static_cast<std::int64_t>(*time);
    auto user = in.get_varint("collector.transition.user");
    if (!user.ok()) return user.status();
    t.user = static_cast<UserId>(*user);
    auto app = in.get_varint("collector.transition.app");
    if (!app.ok()) return app.status();
    t.app = static_cast<AppId>(*app);
    auto from = in.get_u8("collector.transition.from");
    if (!from.ok()) return from.status();
    t.from = static_cast<ProcessState>(*from);
    auto to = in.get_u8("collector.transition.to");
    if (!to.ok()) return to.status();
    t.to = static_cast<ProcessState>(*to);
    transitions_.push_back(t);
  }
  return util::Status::ok_status();
}

}  // namespace wildenergy::trace
