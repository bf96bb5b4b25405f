#include "energy/attributor.h"

#include <cassert>
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
    : factory_(std::move(factory)),
      downstream_(downstream),
      policy_(policy),
      segment_sink_([this](const radio::EnergySegment& s) { handle_segment(s); }) {
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
  window_.clear();
  held_transitions_.clear();
  out_.clear();
  pending_tail_ = 0.0;
  current_joules_ = 0.0;
  downstream_->on_user_begin(user);
}

void EnergyAttributor::handle_segment(const radio::EnergySegment& segment) {
  assert(current_ != nullptr);
  current_->device += segment.joules;
  switch (segment.kind) {
    case radio::SegmentKind::kIdle:
      ++counters_.idle_segments;
      current_->baseline += segment.joules;
      flush_pending();  // the radio went idle: the active window is over
      break;
    case radio::SegmentKind::kTail:
      ++counters_.tail_segments;
      counters_.drx_segments += segment.drx ? 1 : 0;
      current_->tail += segment.joules;
      current_->attributed += segment.joules;
      assert(!window_.empty());
      if (policy_ == TailPolicy::kLastPacket) {
        ++counters_.tail_attributions;
        window_.back().joules += segment.joules;
      } else {
        pending_tail_ += segment.joules;
      }
      break;
    case radio::SegmentKind::kPromotion:
      ++counters_.promotion_segments;
      current_->promotion += segment.joules;
      current_->attributed += segment.joules;
      current_joules_ += segment.joules;
      break;
    case radio::SegmentKind::kTransfer:
      ++counters_.transfer_segments;
      current_->transfer += segment.joules;
      current_->attributed += segment.joules;
      current_joules_ += segment.joules;
      break;
  }
}

void EnergyAttributor::flush_pending() {
  if (window_.empty() && held_transitions_.empty()) return;

  if (policy_ == TailPolicy::kProportional && pending_tail_ > 0.0 && !window_.empty()) {
    ++counters_.proportional_splits;
    counters_.tail_attributions += window_.size();  // each packet gets a tail share
    double total_bytes = 0.0;
    for (const auto& p : window_) total_bytes += static_cast<double>(p.bytes);
    for (auto& p : window_) {
      const double share = total_bytes > 0.0
                               ? static_cast<double>(p.bytes) / total_bytes
                               : 1.0 / static_cast<double>(window_.size());
      p.joules += pending_tail_ * share;
    }
  }
  pending_tail_ = 0.0;

  // Merge packets and held transitions back into time order.
  while (!window_.empty() || !held_transitions_.empty()) {
    const bool take_packet =
        !window_.empty() &&
        (held_transitions_.empty() || window_.front().time <= held_transitions_.front().time);
    if (take_packet) {
      out_.add(window_.front());
      window_.pop_front();
    } else {
      out_.add(held_transitions_.front());
      held_transitions_.pop_front();
    }
  }
}

void EnergyAttributor::flush_out() {
  if (out_.empty()) return;
  downstream_->on_batch(out_);
  out_.clear();
}

void EnergyAttributor::finalize_packet(const trace::PacketRecord& packet) {
  // Under the paper's rule a packet's tail attribution is settled as soon as
  // the next packet arrives, so the previous window can drain now. Under the
  // proportional rule the window stays open until the radio reaches idle.
  if (policy_ == TailPolicy::kLastPacket) flush_pending();

  trace::PacketRecord annotated = packet;
  annotated.joules = current_joules_;
  window_.push_back(annotated);
  current_joules_ = 0.0;
}

void EnergyAttributor::on_run_segment(std::size_t index, const radio::EnergySegment& segment) {
  // Segments of run event `index` must see exactly the state a one-packet
  // run would have: every earlier packet of the run already finalized (its
  // gap segments all carry indices < `index`, so they have been handled).
  while (run_finalized_ < index) finalize_packet(run_packets_[run_finalized_++]);
  handle_segment(segment);
}

void EnergyAttributor::on_batch(const trace::EventBatch& batch) {
  out_.reserve(batch.order.size());
  out_.user = batch.user;

  std::size_t run_begin = 0;  // index into batch.packets of the current run
  run_events_.clear();
  const auto flush_run = [&] {
    if (run_events_.empty()) return;
    counters_.packets += run_events_.size();
    run_packets_ = batch.packets.data() + run_begin;
    run_finalized_ = 0;
    // Statically-dispatched run: the segment chain inlines end to end.
    model_->transfers(run_events_.data(), run_events_.size(),
                      [this](std::size_t i, const radio::EnergySegment& s) {
                        on_run_segment(i, s);
                      });
    while (run_finalized_ < run_events_.size()) {
      finalize_packet(run_packets_[run_finalized_++]);
    }
    run_packets_ = nullptr;
    run_events_.clear();
  };

  trace::for_each_event(
      batch,
      [&](const trace::PacketRecord& p) {
        if (run_events_.empty()) run_begin = static_cast<std::size_t>(&p - batch.packets.data());
        run_events_.push_back({p.time, p.bytes, p.direction});
      },
      [&](const trace::StateTransition& t) {
        flush_run();
        ++counters_.transitions;
        if (window_.empty()) {
          out_.add(t);
        } else {
          held_transitions_.push_back(t);
        }
      });
  flush_run();
  flush_out();
}

void EnergyAttributor::on_user_end(trace::UserId user) {
  // The radio's closing segments settle the last window: it leaves as the
  // user's final batch, before the bracket closes.
  out_.user = user;
  if (model_) {
    model_->finish(meta_.study_end, segment_sink_);
  }
  flush_pending();
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
