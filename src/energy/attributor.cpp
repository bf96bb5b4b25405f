#include "energy/attributor.h"

#include <cassert>
#include <cstddef>
#include <limits>
#include <utility>

#include "energy/account_file.h"
#include "radio/burst_machine.h"

namespace wildenergy::energy {

namespace {

/// Every UserEnergy field, in the order rows and snapshots encode them.
constexpr double EnergyAttributor::UserEnergy::*kEnergyFields[] = {
    &EnergyAttributor::UserEnergy::device,    &EnergyAttributor::UserEnergy::attributed,
    &EnergyAttributor::UserEnergy::baseline,  &EnergyAttributor::UserEnergy::tail,
    &EnergyAttributor::UserEnergy::promotion, &EnergyAttributor::UserEnergy::transfer,
};

}  // namespace

void AttributionCounters::merge_from(const AttributionCounters& other) {
  packets += other.packets;
  transitions += other.transitions;
  users += other.users;
  tail_attributions += other.tail_attributions;
  proportional_splits += other.proportional_splits;
  promotion_segments += other.promotion_segments;
  transfer_segments += other.transfer_segments;
  tail_segments += other.tail_segments;
  drx_segments += other.drx_segments;
  idle_segments += other.idle_segments;
}

EnergyAttributor::EnergyAttributor(RadioModelFactory factory, trace::TraceSink* downstream,
                                   TailPolicy policy)
    : factory_(std::move(factory)), downstream_(downstream), policy_(policy) {
  if (!factory_) factory_ = radio::make_lte_model;
  assert(downstream_ != nullptr);
}

void EnergyAttributor::on_study_begin(const trace::StudyMeta& meta) {
  meta_ = meta;
  pending_.clear();
  folded_ = UserEnergy{};
  spilled_self_ = 0;
  current_ = nullptr;
  counters_ = {};
  downstream_->on_study_begin(meta);
}

void EnergyAttributor::on_user_begin(trace::UserId user) {
  ++counters_.users;
  model_ = factory_();
  current_ = &pending_[user];
  out_.clear();
  win_pkt_ = 0;
  win_ord_ = 0;
  pending_tail_ = 0.0;
  downstream_->on_user_begin(user);
}

/// The radio's segment sink for one pass over out_: promotion and transfer
/// joules go to packet `k`, the one being fed; tail joules to packet k - 1
/// (kLastPacket) or to pending_tail_ (kProportional); an idle segment settles
/// the window. The energy partials and counters are local copies, stored
/// back once per pass; every field still adds its segments in stream order.
struct EnergyAttributor::Pass {
  EnergyAttributor& self;
  trace::PacketRecord* pk;  ///< out_.packets
  UserEnergy energy;
  AttributionCounters counters;
  std::size_t k = 0;    ///< the packet being fed (the count, when finishing)
  std::size_t ord = 0;  ///< its order position (the event count, when finishing)

  void operator()(const radio::EnergySegment& s) {
    energy.device += s.joules;
    switch (s.kind) {
      case radio::SegmentKind::kIdle:
        ++counters.idle_segments;
        energy.baseline += s.joules;
        self.settle(k, ord, counters);  // the radio went idle: the window is over
        break;
      case radio::SegmentKind::kTail:
        ++counters.tail_segments;
        counters.drx_segments += s.drx ? 1 : 0;
        energy.tail += s.joules;
        energy.attributed += s.joules;
        if (self.policy_ == TailPolicy::kLastPacket) {
          assert(k > 0);  // a tail follows a transfer
          ++counters.tail_attributions;
          pk[k - 1].joules += s.joules;
        } else {
          self.pending_tail_ += s.joules;
        }
        break;
      case radio::SegmentKind::kPromotion:
        ++counters.promotion_segments;
        energy.promotion += s.joules;
        energy.attributed += s.joules;
        pk[k].joules += s.joules;
        break;
      case radio::SegmentKind::kTransfer:
        ++counters.transfer_segments;
        energy.transfer += s.joules;
        energy.attributed += s.joules;
        pk[k].joules += s.joules;
        break;
    }
  }

  /// Store the partials and counters back into the attributor.
  void commit() {
    *self.current_ = energy;
    self.counters_ = counters;
  }
};

void EnergyAttributor::settle(std::size_t end_pkt, std::size_t end_ord,
                              AttributionCounters& counters) {
  // Only a window with a tail to split or transitions to reorder has work.
  if (end_pkt > win_pkt_ && (pending_tail_ > 0.0 || end_ord - win_ord_ > end_pkt - win_pkt_)) {
    close_window(end_pkt, end_ord, counters);
  }
  pending_tail_ = 0.0;
  win_pkt_ = end_pkt;
  win_ord_ = end_ord;
}

void EnergyAttributor::close_window(std::size_t end_pkt, std::size_t end_ord,
                                    AttributionCounters& counters) {
  trace::PacketRecord* pk = out_.packets.data();
  const std::size_t window = end_pkt - win_pkt_;
  if (pending_tail_ > 0.0) {
    ++counters.proportional_splits;
    counters.tail_attributions += window;  // each packet gets a tail share
    double total_bytes = 0.0;
    for (std::size_t i = win_pkt_; i < end_pkt; ++i) {
      total_bytes += static_cast<double>(pk[i].bytes);
    }
    for (std::size_t i = win_pkt_; i < end_pkt; ++i) {
      const double share = total_bytes > 0.0
                               ? static_cast<double>(pk[i].bytes) / total_bytes
                               : 1.0 / static_cast<double>(window);
      pk[i].joules += pending_tail_ * share;
    }
  }

  // Merge the window's packets and transitions back into time order. An
  // order prefix holding p packets holds (its length - p) transitions.
  const trace::StateTransition* tr = out_.transitions.data();
  std::size_t pi = win_pkt_;
  std::size_t ti = win_ord_ - win_pkt_;
  const std::size_t end_ti = end_ord - end_pkt;
  for (std::size_t o = win_ord_; o < end_ord; ++o) {
    if (pi < end_pkt && (ti == end_ti || pk[pi].time <= tr[ti].time)) {
      out_.order[o] = trace::EventKind::kPacket;
      ++pi;
    } else {
      out_.order[o] = trace::EventKind::kTransition;
      ++ti;
    }
  }
}

void EnergyAttributor::flush_out() {
  if (win_pkt_ == out_.packets.size()) win_ord_ = out_.order.size();  // no open window
  if (win_ord_ == 0) return;
  const std::size_t win_tr = win_ord_ - win_pkt_;
  carry_.packets.assign(out_.packets.begin() + static_cast<std::ptrdiff_t>(win_pkt_),
                        out_.packets.end());
  carry_.transitions.assign(out_.transitions.begin() + static_cast<std::ptrdiff_t>(win_tr),
                            out_.transitions.end());
  carry_.order.assign(out_.order.begin() + static_cast<std::ptrdiff_t>(win_ord_),
                      out_.order.end());
  out_.packets.resize(win_pkt_);
  out_.transitions.resize(win_tr);
  out_.order.resize(win_ord_);
  downstream_->on_batch(out_);
  out_.clear();
  out_.append(carry_);
  win_pkt_ = 0;
  win_ord_ = 0;
}

void EnergyAttributor::on_batch(const trace::EventBatch& batch) {
  assert(model_ != nullptr && current_ != nullptr);
  std::size_t k = out_.packets.size();
  const std::size_t first = out_.order.size();
  out_.append(batch);
  out_.user = batch.user;

  Pass pass{*this, out_.packets.data(), *current_, counters_};
  for (std::size_t o = first; o < out_.order.size(); ++o) {
    if (out_.order[o] != trace::EventKind::kPacket) continue;
    trace::PacketRecord& p = pass.pk[k];
    p.joules = 0.0;
    pass.k = k;
    pass.ord = o;
    model_->on_transfer({p.time, p.bytes, p.direction}, pass);
    // The feed settled packet k - 1's tail; a packet with no window opens one.
    if (policy_ == TailPolicy::kLastPacket || win_pkt_ == k) settle(k, o, pass.counters);
    ++k;
  }
  pass.counters.packets += batch.packets.size();
  pass.counters.transitions += batch.transitions.size();
  pass.commit();
  flush_out();
}

void EnergyAttributor::on_user_end(trace::UserId user) {
  // The radio's closing segments settle the last window: it leaves as the
  // user's final batch, before the bracket closes.
  out_.user = user;
  if (model_) {
    Pass pass{*this, out_.packets.data(), *current_, counters_};
    pass.k = out_.packets.size();
    pass.ord = out_.order.size();
    model_->finish(meta_.study_end, pass);
    pass.commit();
  }
  settle(out_.packets.size(), out_.order.size(), counters_);
  flush_out();
  downstream_->on_user_end(user);
}

void EnergyAttributor::on_study_end() { downstream_->on_study_end(); }

// The fold visits pending users in ascending id after the folded prefix,
// matching the user-bracket order of a serial pass and the merge order of a
// sharded one.
double EnergyAttributor::total(double UserEnergy::*field) const {
  double sum = folded_.*field;
  for (const auto& [user, e] : pending_) sum += e.*field;
  return sum;
}

// --- account plane ---------------------------------------------------------

void EnergyAttributor::fold_user(trace::UserId user) {
  if (spill_ == nullptr) return;  // unarmed: the row stays pending
  const auto it = pending_.find(user);
  if (it == pending_.end()) return;  // user never began a bracket here
  const UserEnergy& row = it->second;
  ckpt::ByteWriter out;
  for (double UserEnergy::*field : kEnergyFields) {
    folded_.*field += row.*field;
    out.put_f64(row.*field);
  }
  spilled_self_ += spill_->add_section("attrib", out.bytes());
  if (current_ == &it->second) current_ = nullptr;
  pending_.erase(it);
}

util::Status EnergyAttributor::decode_user_energy(std::string_view payload, UserEnergy& out) {
  ckpt::ByteReader in{payload};
  for (double UserEnergy::*field : kEnergyFields) {
    const auto v = in.get_f64("attrib row energy");
    if (!v.ok()) return v.status();
    out.*field = *v;
  }
  if (!in.at_end()) {
    return util::Status::data_loss("attrib row: trailing bytes at offset " +
                                   std::to_string(in.offset()));
  }
  return util::Status::ok_status();
}

obs::MemoryUse EnergyAttributor::memory_use() const {
  return {.resident_bytes = pending_.size() * sizeof(decltype(pending_)::value_type),
          .spilled_bytes = spilled_self_};
}

void EnergyAttributor::save_state(ckpt::ByteWriter& out) const {
  for (double UserEnergy::*field : kEnergyFields) out.put_f64(folded_.*field);
  out.put_varint(spilled_self_);
  out.put_varint(pending_.size());
  trace::UserId prev = 0;
  for (const auto& [user, e] : pending_) {
    out.put_varint(user - prev);
    prev = user;
    for (double UserEnergy::*field : kEnergyFields) out.put_f64(e.*field);
  }
  const std::uint64_t counters[] = {
      counters_.packets,         counters_.transitions,        counters_.users,
      counters_.tail_attributions, counters_.proportional_splits, counters_.promotion_segments,
      counters_.transfer_segments, counters_.tail_segments,      counters_.drx_segments,
      counters_.idle_segments,
  };
  out.put_u64_span(counters);
}

util::Status EnergyAttributor::restore_state(ckpt::ByteReader& in) {
  pending_.clear();
  current_ = nullptr;
  for (double UserEnergy::*field : kEnergyFields) {
    auto v = in.get_f64("attributor.folded");
    if (!v.ok()) return v.status();
    folded_.*field = *v;
  }
  auto spilled = in.get_varint("attributor.folded.spilled_bytes");
  if (!spilled.ok()) return spilled.status();
  spilled_self_ = *spilled;
  auto num_pending = in.get_varint("attributor.pending");
  if (!num_pending.ok()) return num_pending.status();
  std::uint64_t user = 0;
  for (std::uint64_t i = 0; i < *num_pending; ++i) {
    auto delta = in.get_varint("attributor.pending.user");
    if (!delta.ok()) return delta.status();
    user += *delta;
    if (user > std::numeric_limits<trace::UserId>::max()) {
      return util::Status::data_loss("corrupt checkpoint: attributor user id out of range");
    }
    UserEnergy& e = pending_[static_cast<trace::UserId>(user)];
    for (double UserEnergy::*field : kEnergyFields) {
      auto v = in.get_f64("attributor.energy");
      if (!v.ok()) return v.status();
      e.*field = *v;
    }
  }
  std::uint64_t counters[10] = {};
  if (util::Status st = in.get_u64_span(counters, "attributor.counters"); !st.ok()) return st;
  counters_.packets = counters[0];
  counters_.transitions = counters[1];
  counters_.users = counters[2];
  counters_.tail_attributions = counters[3];
  counters_.proportional_splits = counters[4];
  counters_.promotion_segments = counters[5];
  counters_.transfer_segments = counters[6];
  counters_.tail_segments = counters[7];
  counters_.drx_segments = counters[8];
  counters_.idle_segments = counters[9];
  return util::Status::ok_status();
}

std::unique_ptr<EnergyAttributor> EnergyAttributor::clone_shard(
    trace::TraceSink* downstream) const {
  return std::make_unique<EnergyAttributor>(factory_, downstream, policy_);
}

void EnergyAttributor::merge_from(EnergyAttributor& shard) {
  counters_.merge_from(shard.counters_);
  pending_.merge(shard.pending_);
  assert(shard.pending_.empty());  // users are disjoint
  shard.current_ = nullptr;
}

}  // namespace wildenergy::energy
