#include "energy/attributor.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "energy/account_file.h"
#include "radio/burst_machine.h"

namespace wildenergy::energy {

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
      segment_sink_([this](const radio::EnergySegment& s) { handle_segment(s); }),
      run_sink_([this](std::size_t i, const radio::EnergySegment& s) { on_run_segment(i, s); }) {
  assert(factory_);
  assert(downstream_ != nullptr);
}

void EnergyAttributor::on_study_begin(const trace::StudyMeta& meta) {
  meta_ = meta;
  if (!single_user()) {
    per_user_.assign(meta.num_users, UserEnergy{});
    user_touched_.assign(meta.num_users, false);
  } else {
    // Fold mode and shard clones never allocate the dense per-user array:
    // one live slot (a stream or a clone) or a small staging buffer (merges)
    // is the whole per-user footprint.
    per_user_.clear();
    user_touched_.clear();
  }
  folded_ = UserEnergy{};
  live_valid_ = false;
  staged_.clear();
  spilled_self_ = 0;
  current_ = nullptr;
  counters_ = {};
  downstream_->on_study_begin(meta);
}

void EnergyAttributor::on_user_begin(trace::UserId user) {
  ++counters_.users;
  model_ = factory_();
  burst_ = dynamic_cast<radio::BurstMachine*>(model_.get());
  if (single_user()) {
    live_ = UserEnergy{};
    live_user_ = user;
    live_valid_ = true;
    current_ = &live_;
  } else {
    if (user >= per_user_.size()) {
      // Out-of-hint ids (hand-built streams with a zero StudyMeta) grow the
      // array geometrically — the old exact resize(user + 1) re-touched
      // every slot once per new user, quadratic over a cold stream.
      const std::size_t grown =
          std::max<std::size_t>(user + 1, per_user_.size() + per_user_.size() / 2);
      per_user_.resize(grown);
      user_touched_.resize(grown, false);
    }
    current_ = &per_user_[user];
    user_touched_[user] = true;
  }
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
    if (burst_ != nullptr) {
      // Statically-dispatched run: the segment chain inlines end to end.
      burst_->transfers(run_events_.data(), run_events_.size(),
                        [this](std::size_t i, const radio::EnergySegment& s) {
                          on_run_segment(i, s);
                        });
    } else {
      model_->on_transfers(run_events_.data(), run_events_.size(), run_sink_);
    }
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

// The fold visits touched users in ascending id, matching the user-bracket
// order of a serial pass and the merge order of a sharded one.
double EnergyAttributor::device_joules() const {
  double total = folded_.device;
  for (std::size_t user = 0; user < per_user_.size(); ++user) {
    if (user_touched_[user]) total += per_user_[user].device;
  }
  for (const auto& [user, e] : staged_) total += e.device;
  if (live_valid_) total += live_.device;
  return total;
}

double EnergyAttributor::attributed_joules() const {
  double total = folded_.attributed;
  for (std::size_t user = 0; user < per_user_.size(); ++user) {
    if (user_touched_[user]) total += per_user_[user].attributed;
  }
  for (const auto& [user, e] : staged_) total += e.attributed;
  if (live_valid_) total += live_.attributed;
  return total;
}

double EnergyAttributor::baseline_joules() const {
  double total = folded_.baseline;
  for (std::size_t user = 0; user < per_user_.size(); ++user) {
    if (user_touched_[user]) total += per_user_[user].baseline;
  }
  for (const auto& [user, e] : staged_) total += e.baseline;
  if (live_valid_) total += live_.baseline;
  return total;
}

double EnergyAttributor::tail_joules() const {
  double total = folded_.tail;
  for (std::size_t user = 0; user < per_user_.size(); ++user) {
    if (user_touched_[user]) total += per_user_[user].tail;
  }
  for (const auto& [user, e] : staged_) total += e.tail;
  if (live_valid_) total += live_.tail;
  return total;
}

double EnergyAttributor::promotion_joules() const {
  double total = folded_.promotion;
  for (std::size_t user = 0; user < per_user_.size(); ++user) {
    if (user_touched_[user]) total += per_user_[user].promotion;
  }
  for (const auto& [user, e] : staged_) total += e.promotion;
  if (live_valid_) total += live_.promotion;
  return total;
}

double EnergyAttributor::transfer_joules() const {
  double total = folded_.transfer;
  for (std::size_t user = 0; user < per_user_.size(); ++user) {
    if (user_touched_[user]) total += per_user_[user].transfer;
  }
  for (const auto& [user, e] : staged_) total += e.transfer;
  if (live_valid_) total += live_.transfer;
  return total;
}

// --- fold-and-release ------------------------------------------------------

void EnergyAttributor::fold_user(trace::UserId user) {
  if (spill_ == nullptr) return;
  const UserEnergy* row = nullptr;
  auto staged_it = staged_.end();
  if (live_valid_ && live_user_ == user) {
    row = &live_;
  } else {
    staged_it = std::find_if(staged_.begin(), staged_.end(),
                             [user](const auto& entry) { return entry.first == user; });
    if (staged_it != staged_.end()) row = &staged_it->second;
  }
  if (row == nullptr) return;  // user never began a bracket here
  // Folds arrive in stream order (ascending user id): the same addition
  // sequence the query-time loops perform over a dense resident array.
  folded_.device += row->device;
  folded_.attributed += row->attributed;
  folded_.baseline += row->baseline;
  folded_.tail += row->tail;
  folded_.promotion += row->promotion;
  folded_.transfer += row->transfer;
  ckpt::ByteWriter out;
  out.put_f64(row->device);
  out.put_f64(row->attributed);
  out.put_f64(row->baseline);
  out.put_f64(row->tail);
  out.put_f64(row->promotion);
  out.put_f64(row->transfer);
  spilled_self_ += spill_->add_section("attrib", out.bytes());
  if (staged_it != staged_.end()) {
    staged_.erase(staged_it);
  } else {
    live_valid_ = false;
    current_ = nullptr;
  }
}

util::Status EnergyAttributor::decode_user_energy(std::string_view payload, UserEnergy& out) {
  ckpt::ByteReader in{payload};
  for (double* field : {&out.device, &out.attributed, &out.baseline, &out.tail, &out.promotion,
                        &out.transfer}) {
    const auto v = in.get_f64("attrib row energy");
    if (!v.ok()) return v.status();
    *field = *v;
  }
  if (!in.at_end()) {
    return util::Status::data_loss("attrib row: trailing bytes at offset " +
                                   std::to_string(in.offset()));
  }
  return util::Status::ok_status();
}

obs::MemoryUse EnergyAttributor::memory_use() const {
  return {.resident_bytes = per_user_.capacity() * sizeof(UserEnergy) +
                            user_touched_.capacity() / 8 +
                            staged_.capacity() * sizeof(staged_[0]),
          .spilled_bytes = spilled_self_};
}

void EnergyAttributor::save_state(ckpt::ByteWriter& out) const {
  // Leading mode byte: 0 = dense resident partials (historical body
  // follows); 1 = fold mode, folded aggregates first.
  out.put_u8(spill_ != nullptr ? 1 : 0);
  if (spill_ != nullptr) {
    out.put_f64(folded_.device);
    out.put_f64(folded_.attributed);
    out.put_f64(folded_.baseline);
    out.put_f64(folded_.tail);
    out.put_f64(folded_.promotion);
    out.put_f64(folded_.transfer);
    out.put_varint(spilled_self_);
  }
  out.put_varint(per_user_.size());
  out.put_bool_vec(user_touched_);
  for (std::size_t user = 0; user < per_user_.size(); ++user) {
    if (!user_touched_[user]) continue;
    const UserEnergy& e = per_user_[user];
    out.put_f64(e.device);
    out.put_f64(e.attributed);
    out.put_f64(e.baseline);
    out.put_f64(e.tail);
    out.put_f64(e.promotion);
    out.put_f64(e.transfer);
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
  auto mode = in.get_u8("attributor.mode");
  if (!mode.ok()) return mode.status();
  if (*mode > 1) {
    return util::Status::data_loss("corrupt checkpoint: unknown attributor mode " +
                                   std::to_string(*mode));
  }
  folded_ = UserEnergy{};
  spilled_self_ = 0;
  live_valid_ = false;
  staged_.clear();
  if (*mode == 1) {
    for (double* field : {&folded_.device, &folded_.attributed, &folded_.baseline, &folded_.tail,
                          &folded_.promotion, &folded_.transfer}) {
      auto v = in.get_f64("attributor.folded");
      if (!v.ok()) return v.status();
      *field = *v;
    }
    auto spilled = in.get_varint("attributor.folded.spilled_bytes");
    if (!spilled.ok()) return spilled.status();
    spilled_self_ = *spilled;
  }
  auto num_users = in.get_varint("attributor.users");
  if (!num_users.ok()) return num_users.status();
  auto status = in.get_bool_vec(user_touched_, "attributor.touched");
  if (!status.ok()) return status;
  if (user_touched_.size() != *num_users) {
    return util::Status::data_loss("corrupt checkpoint: attributor touched flags mismatch");
  }
  per_user_.assign(*num_users, UserEnergy{});
  current_ = nullptr;
  for (std::size_t user = 0; user < per_user_.size(); ++user) {
    if (!user_touched_[user]) continue;
    UserEnergy& e = per_user_[user];
    for (double* field : {&e.device, &e.attributed, &e.baseline, &e.tail, &e.promotion,
                          &e.transfer}) {
      auto v = in.get_f64("attributor.energy");
      if (!v.ok()) return v.status();
      *field = *v;
    }
  }
  std::uint64_t counters[10] = {};
  status = in.get_u64_span(counters, "attributor.counters");
  if (!status.ok()) return status;
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
  auto clone = std::make_unique<EnergyAttributor>(factory_, downstream, policy_);
  clone->shard_ = true;
  return clone;
}

void EnergyAttributor::merge_from(const EnergyAttributor& shard) {
  counters_.merge_from(shard.counters_);
  if (!shard.live_valid_) return;  // the clone's user never began a bracket
  if (spill_ != nullptr) {
    // Fold mode: stage the row until the engine's fold_user call collapses
    // and spills it — the parent never grows a dense per-user array.
    staged_.emplace_back(shard.live_user_, shard.live_);
    return;
  }
  const trace::UserId user = shard.live_user_;
  if (user >= per_user_.size()) {
    per_user_.resize(user + 1);
    user_touched_.resize(user + 1, false);
  }
  assert(!user_touched_[user]);
  per_user_[user] = shard.live_;
  user_touched_[user] = true;
}

}  // namespace wildenergy::energy
