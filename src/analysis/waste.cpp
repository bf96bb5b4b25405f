#include "analysis/waste.h"

#include <algorithm>
#include <string>

#include "energy/account_file.h"

namespace wildenergy::analysis {

WastedUpdateAnalysis::WastedUpdateAnalysis(std::vector<trace::AppId> apps, Duration useful_window)
    : apps_(std::move(apps)),
      useful_window_(useful_window),
      assembler_([this](const trace::FlowRecord& flow) { on_flow(flow); }) {
  trace::AppId max_app = 0;
  for (trace::AppId app : apps_) max_app = std::max(max_app, app);
  tracked_index_.assign(apps_.empty() ? 0 : max_app + 1, kUntracked);
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    tracked_index_[apps_[i]] = static_cast<std::uint32_t>(i);
  }
}

void WastedUpdateAnalysis::on_study_begin(const trace::StudyMeta& /*meta*/) {
  cur_user_ = kNoUser;
  per_app_.assign(apps_.size(), PerApp{});
  pending_.clear();
  spilled_self_ = 0;
  assembler_.reset();
}

WastedUpdateAnalysis::PerApp* WastedUpdateAnalysis::slot(trace::AppId app) {
  if (app >= tracked_index_.size()) return nullptr;
  const std::uint32_t index = tracked_index_[app];
  if (index == kUntracked || index >= per_app_.size()) return nullptr;
  return &per_app_[index];
}

WastedUpdateAnalysis::UserPart& WastedUpdateAnalysis::part(const PerApp& pa,
                                                            trace::UserId user) {
  std::vector<UserPart>& row = pending_[user];
  if (row.empty()) row.resize(per_app_.size());
  UserPart& out = row[static_cast<std::size_t>(&pa - per_app_.data())];
  out.touched = true;
  return out;
}

void WastedUpdateAnalysis::waste_unsettled(trace::UserId user) {
  for (PerApp& pa : per_app_) {
    for (const PendingUpdate& update : pa.unsettled) {
      ++pa.wasted_updates;
      part(pa, user).wasted_joules += update.joules;
    }
    pa.unsettled.clear();
  }
}

void WastedUpdateAnalysis::switch_user(trace::UserId user) {
  // Updates left unsettled at a user switch were never followed by use.
  if (cur_user_ != kNoUser) waste_unsettled(cur_user_);
  cur_user_ = user;
}

void WastedUpdateAnalysis::on_user_begin(trace::UserId user) {
  switch_user(user);
  assembler_.begin_user();
}

void WastedUpdateAnalysis::on_packet(const trace::PacketRecord& packet) {
  PerApp* pa = slot(packet.app);
  if (pa == nullptr) return;
  if (packet.user != cur_user_) switch_user(packet.user);
  if (trace::is_foreground(packet.state)) {
    // Foreground traffic itself proves the user is looking: settle pending.
    settle_on_foreground(packet.app, packet.user, packet.time);
    return;
  }
  expire(*pa, packet.user, packet.time);
  assembler_.add(packet);
}

void WastedUpdateAnalysis::on_transition(const trace::StateTransition& transition) {
  if (slot(transition.app) == nullptr) return;
  if (transition.user != cur_user_) switch_user(transition.user);
  if (transition.is_bg_to_fg()) {
    settle_on_foreground(transition.app, transition.user, transition.time);
  }
}

void WastedUpdateAnalysis::on_user_end(trace::UserId user) {
  assembler_.end_user();
  waste_unsettled(user);  // remaining updates were never followed by use
  cur_user_ = kNoUser;
}

void WastedUpdateAnalysis::on_flow(const trace::FlowRecord& flow) {
  PerApp* pa = slot(flow.app);
  if (pa == nullptr) return;
  pa->updates += 1;
  part(*pa, flow.user).joules += flow.joules;
  pa->unsettled.push_back({flow.last_packet, flow.joules});
}

void WastedUpdateAnalysis::expire(PerApp& pa, trace::UserId user, TimePoint now) {
  while (!pa.unsettled.empty() && now - pa.unsettled.front().completed > useful_window_) {
    ++pa.wasted_updates;
    part(pa, user).wasted_joules += pa.unsettled.front().joules;
    pa.unsettled.pop_front();
  }
}

void WastedUpdateAnalysis::settle_on_foreground(trace::AppId app, trace::UserId user,
                                                TimePoint now) {
  assembler_.flush_idle(now);  // surface logically-complete updates first
  PerApp& pa = *slot(app);
  expire(pa, user, now);  // anything older than the window is still wasted
  pa.unsettled.clear();   // remaining updates were fresh when the user looked
}

std::unique_ptr<trace::TraceSink> WastedUpdateAnalysis::clone_shard() const {
  return std::make_unique<WastedUpdateAnalysis>(apps_, useful_window_);
}

void WastedUpdateAnalysis::merge_from(trace::TraceSink& shard) {
  auto& other = dynamic_cast<WastedUpdateAnalysis&>(shard);
  for (std::size_t i = 0; i < per_app_.size(); ++i) {
    per_app_[i].updates += other.per_app_[i].updates;
    per_app_[i].wasted_updates += other.per_app_[i].wasted_updates;
  }
  pending_.merge(other.pending_);  // steals the shard's one row
}

void WastedUpdateAnalysis::fold_user(trace::UserId user) {
  if (spill_ == nullptr) return;  // unarmed: the row stays pending
  const auto it = pending_.find(user);
  if (it == pending_.end()) return;
  const std::vector<UserPart>& row = it->second;
  const auto with_parts = static_cast<std::size_t>(
      std::count_if(row.begin(), row.end(), [](const UserPart& up) { return up.touched; }));
  ckpt::ByteWriter out;
  out.put_varint(with_parts);
  std::size_t prev_slot = 0;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const UserPart& up = row[i];
    if (!up.touched) continue;
    out.put_varint(i - prev_slot);  // slot-ascending delta; the first is absolute
    prev_slot = i;
    out.put_f64(up.joules);
    out.put_f64(up.wasted_joules);
    // Folds run in ascending user order, so these running sums reproduce
    // every query-time fold bit for bit.
    per_app_[i].folded_joules += up.joules;
    per_app_[i].folded_wasted_joules += up.wasted_joules;
  }
  if (with_parts > 0) spilled_self_ += spill_->add_section(kWasteSection, out.bytes());
  pending_.erase(it);
}

void WastedUpdateAnalysis::save_state(ckpt::ByteWriter& out) const {
  out.put_varint(per_app_.size());
  for (const PerApp& pa : per_app_) {
    out.put_varint(pa.updates);
    out.put_varint(pa.wasted_updates);
    out.put_f64(pa.folded_joules);
    out.put_f64(pa.folded_wasted_joules);
  }
  out.put_varint(spilled_self_);
  out.put_varint(pending_.size());
  trace::UserId prev = 0;
  for (const auto& [user, row] : pending_) {
    out.put_varint(user - prev);
    prev = user;
    for (const UserPart& up : row) {
      out.put_u8(up.touched ? 1 : 0);
      if (!up.touched) continue;
      out.put_f64(up.joules);
      out.put_f64(up.wasted_joules);
    }
  }
}

util::Status WastedUpdateAnalysis::restore_state(ckpt::ByteReader& in) {
  auto num_apps = in.get_varint("waste.apps");
  if (!num_apps.ok()) return num_apps.status();
  if (*num_apps != per_app_.size()) {
    return util::Status::data_loss("corrupt checkpoint: waste tracks " +
                                   std::to_string(per_app_.size()) + " apps, snapshot holds " +
                                   std::to_string(*num_apps));
  }
  for (PerApp& pa : per_app_) {
    pa.unsettled.clear();
    auto updates = in.get_varint("waste.updates");
    if (!updates.ok()) return updates.status();
    pa.updates = *updates;
    auto wasted = in.get_varint("waste.wasted_updates");
    if (!wasted.ok()) return wasted.status();
    pa.wasted_updates = *wasted;
    auto joules = in.get_f64("waste.folded_joules");
    if (!joules.ok()) return joules.status();
    pa.folded_joules = *joules;
    auto wasted_joules = in.get_f64("waste.folded_wasted_joules");
    if (!wasted_joules.ok()) return wasted_joules.status();
    pa.folded_wasted_joules = *wasted_joules;
  }
  auto spilled = in.get_varint("waste.spilled_bytes");
  if (!spilled.ok()) return spilled.status();
  spilled_self_ = *spilled;
  auto num_pending = in.get_varint("waste.pending");
  if (!num_pending.ok()) return num_pending.status();
  pending_.clear();
  std::uint64_t user = 0;
  for (std::uint64_t i = 0; i < *num_pending; ++i) {
    auto delta = in.get_varint("waste.pending.user");
    if (!delta.ok()) return delta.status();
    user += *delta;
    if (user >= kNoUser) {
      return util::Status::data_loss("corrupt checkpoint: waste user id out of range");
    }
    std::vector<UserPart>& row = pending_[static_cast<trace::UserId>(user)];
    row.resize(per_app_.size());
    for (UserPart& up : row) {
      auto touched = in.get_u8("waste.part_touched");
      if (!touched.ok()) return touched.status();
      if (*touched == 0) continue;
      up.touched = true;
      auto joules = in.get_f64("waste.part_joules");
      if (!joules.ok()) return joules.status();
      up.joules = *joules;
      auto wasted_joules = in.get_f64("waste.part_wasted_joules");
      if (!wasted_joules.ok()) return wasted_joules.status();
      up.wasted_joules = *wasted_joules;
    }
  }
  return util::Status::ok_status();
}

WasteResult WastedUpdateAnalysis::result(trace::AppId app) const {
  WasteResult out;
  out.app = app;
  if (app >= tracked_index_.size() || tracked_index_[app] == kUntracked ||
      tracked_index_[app] >= per_app_.size()) {
    return out;
  }
  const std::size_t index = tracked_index_[app];
  const PerApp& pa = per_app_[index];
  out.updates = pa.updates;
  out.wasted_updates = pa.wasted_updates;
  // Folded prefix first, then the pending rows in the same ascending user
  // order — the identical floating-point fold however far folds got.
  out.joules = pa.folded_joules;
  out.wasted_joules = pa.folded_wasted_joules;
  for (const auto& [user, row] : pending_) {
    const UserPart& up = row[index];
    if (!up.touched) continue;
    out.joules += up.joules;
    out.wasted_joules += up.wasted_joules;
  }
  return out;
}

obs::MemoryUse WastedUpdateAnalysis::memory_use() const {
  std::uint64_t total = tracked_index_.capacity() * sizeof(std::uint32_t) +
                        per_app_.capacity() * sizeof(PerApp);
  for (const PerApp& pa : per_app_) total += pa.unsettled.size() * sizeof(PendingUpdate);
  for (const auto& [user, row] : pending_) {
    total += sizeof(user) + sizeof(row) + row.capacity() * sizeof(UserPart);
  }
  return {.resident_bytes = total, .spilled_bytes = spilled_self_};
}

}  // namespace wildenergy::analysis
