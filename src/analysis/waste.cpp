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

void WastedUpdateAnalysis::on_study_begin(const trace::StudyMeta& meta) {
  cur_user_ = kNoUser;
  per_app_.assign(apps_.size(), PerApp{});
  if (!single_user()) {
    // Fold mode and shard clones never allocate the dense O(apps x users)
    // partial arrays — that is the entire point of the lifecycle
    // (DESIGN.md §15).
    for (PerApp& pa : per_app_) pa.user_parts.resize(meta.num_users);
  }
  spilled_self_ = 0;
  assembler_.reset();
}

WastedUpdateAnalysis::PerApp* WastedUpdateAnalysis::slot(trace::AppId app) {
  if (app >= tracked_index_.size()) return nullptr;
  const std::uint32_t index = tracked_index_[app];
  if (index == kUntracked || index >= per_app_.size()) return nullptr;
  return &per_app_[index];
}

WastedUpdateAnalysis::UserPart& WastedUpdateAnalysis::part(PerApp& pa, trace::UserId user) {
  if (single_user()) {
    // Stream callbacks only ever touch the live user (the stream is
    // user-bracketed, and fold_user cleared the previous one).
    pa.live.touched = true;
    return pa.live;
  }
  if (user >= pa.user_parts.size()) pa.user_parts.resize(user + 1);
  UserPart& out = pa.user_parts[user];
  out.touched = true;
  return out;
}

void WastedUpdateAnalysis::switch_user(trace::UserId user) {
  if (cur_user_ != kNoUser) {
    // Updates left pending at a user switch were never followed by use.
    for (PerApp& pa : per_app_) {
      for (const PendingUpdate& update : pa.pending) {
        ++pa.wasted_updates;
        part(pa, cur_user_).wasted_joules += update.joules;
      }
      pa.pending.clear();
    }
  }
  cur_user_ = user;
}

void WastedUpdateAnalysis::on_user_begin(trace::UserId user) {
  live_user_ = user;
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
  // Remaining pending updates were never followed by use: wasted.
  for (PerApp& pa : per_app_) {
    for (const PendingUpdate& update : pa.pending) {
      ++pa.wasted_updates;
      part(pa, user).wasted_joules += update.joules;
    }
    pa.pending.clear();
  }
  cur_user_ = kNoUser;
}

void WastedUpdateAnalysis::on_flow(const trace::FlowRecord& flow) {
  PerApp* pa = slot(flow.app);
  if (pa == nullptr) return;
  pa->updates += 1;
  part(*pa, flow.user).joules += flow.joules;
  pa->pending.push_back({flow.last_packet, flow.joules});
}

void WastedUpdateAnalysis::expire(PerApp& pa, trace::UserId user, TimePoint now) {
  while (!pa.pending.empty() && now - pa.pending.front().completed > useful_window_) {
    ++pa.wasted_updates;
    part(pa, user).wasted_joules += pa.pending.front().joules;
    pa.pending.pop_front();
  }
}

void WastedUpdateAnalysis::settle_on_foreground(trace::AppId app, trace::UserId user,
                                                TimePoint now) {
  assembler_.flush_idle(now);  // surface logically-complete updates first
  PerApp& pa = *slot(app);
  expire(pa, user, now);  // anything older than the window is still wasted
  pa.pending.clear();     // remaining updates were fresh when the user looked
}

std::unique_ptr<trace::TraceSink> WastedUpdateAnalysis::clone_shard() const {
  auto clone = std::make_unique<WastedUpdateAnalysis>(apps_, useful_window_);
  clone->shard_ = true;
  return clone;
}

void WastedUpdateAnalysis::merge_from(trace::TraceSink& shard) {
  auto& other = dynamic_cast<WastedUpdateAnalysis&>(shard);
  for (std::size_t i = 0; i < per_app_.size(); ++i) {
    PerApp& mine = per_app_[i];
    const PerApp& theirs = other.per_app_[i];
    mine.updates += theirs.updates;
    mine.wasted_updates += theirs.wasted_updates;
    if (!theirs.live.touched) continue;
    if (spill_ != nullptr) {
      // Fold mode: keep the clone's row staged until the engine's fold_user
      // call collapses and spills it.
      mine.staged.emplace_back(other.live_user_, theirs.live);
      continue;
    }
    UserPart& target = part(mine, other.live_user_);
    target.joules += theirs.live.joules;
    target.wasted_joules += theirs.live.wasted_joules;
  }
}

void WastedUpdateAnalysis::fold_user(trace::UserId user) {
  if (spill_ == nullptr) return;
  const auto find_staged = [user](PerApp& pa) {
    return std::find_if(pa.staged.begin(), pa.staged.end(),
                        [user](const auto& entry) { return entry.first == user; });
  };
  std::size_t with_parts = 0;
  for (PerApp& pa : per_app_) {
    if (find_staged(pa) != pa.staged.end() || pa.live.touched) ++with_parts;
  }
  if (with_parts == 0) return;
  ckpt::ByteWriter row;
  row.put_varint(with_parts);
  std::size_t prev_slot = 0;
  for (std::size_t i = 0; i < per_app_.size(); ++i) {
    PerApp& pa = per_app_[i];
    auto it = find_staged(pa);
    UserPart* up = nullptr;
    if (it != pa.staged.end()) {
      up = &it->second;
    } else if (pa.live.touched) {
      up = &pa.live;
    }
    if (up == nullptr) continue;
    row.put_varint(i - prev_slot);  // slot-ascending delta; the first is absolute
    prev_slot = i;
    row.put_f64(up->joules);
    row.put_f64(up->wasted_joules);
    // Stream order is ascending user id, so these running sums reproduce the
    // ascending query-time fold bit for bit.
    pa.folded_joules += up->joules;
    pa.folded_wasted_joules += up->wasted_joules;
    if (it != pa.staged.end()) {
      pa.staged.erase(it);
    } else {
      pa.live = UserPart{};
    }
  }
  spilled_self_ += spill_->add_section(kWasteSection, row.bytes());
}

void WastedUpdateAnalysis::save_state(ckpt::ByteWriter& out) const {
  // Leading mode byte: 0 = dense resident partials (historical body
  // follows); 1 = fold mode, folded per-app sums first.
  out.put_u8(spill_ != nullptr ? 1 : 0);
  if (spill_ != nullptr) {
    for (const PerApp& pa : per_app_) {
      out.put_f64(pa.folded_joules);
      out.put_f64(pa.folded_wasted_joules);
    }
    out.put_varint(spilled_self_);
  }
  out.put_varint(per_app_.size());
  for (const PerApp& pa : per_app_) {
    out.put_varint(pa.updates);
    out.put_varint(pa.wasted_updates);
    out.put_varint(pa.user_parts.size());
    for (const UserPart& up : pa.user_parts) {
      out.put_u8(up.touched ? 1 : 0);
      if (!up.touched) continue;
      out.put_f64(up.joules);
      out.put_f64(up.wasted_joules);
    }
  }
}

util::Status WastedUpdateAnalysis::restore_state(ckpt::ByteReader& in) {
  auto mode = in.get_u8("waste.mode");
  if (!mode.ok()) return mode.status();
  if (*mode > 1) {
    return util::Status::data_loss("corrupt checkpoint: unknown waste mode " +
                                   std::to_string(*mode));
  }
  spilled_self_ = 0;
  for (PerApp& pa : per_app_) {
    pa.folded_joules = 0.0;
    pa.folded_wasted_joules = 0.0;
    pa.live = UserPart{};
    pa.staged.clear();
  }
  if (*mode == 1) {
    for (PerApp& pa : per_app_) {
      auto joules = in.get_f64("waste.folded_joules");
      if (!joules.ok()) return joules.status();
      pa.folded_joules = *joules;
      auto wasted = in.get_f64("waste.folded_wasted_joules");
      if (!wasted.ok()) return wasted.status();
      pa.folded_wasted_joules = *wasted;
    }
    auto spilled = in.get_varint("waste.spilled_bytes");
    if (!spilled.ok()) return spilled.status();
    spilled_self_ = *spilled;
  }
  auto num_apps = in.get_varint("waste.apps");
  if (!num_apps.ok()) return num_apps.status();
  if (*num_apps != per_app_.size()) {
    return util::Status::data_loss("corrupt checkpoint: waste tracks " +
                                   std::to_string(per_app_.size()) + " apps, snapshot holds " +
                                   std::to_string(*num_apps));
  }
  for (PerApp& pa : per_app_) {
    auto updates = in.get_varint("waste.updates");
    if (!updates.ok()) return updates.status();
    pa.updates = *updates;
    auto wasted = in.get_varint("waste.wasted_updates");
    if (!wasted.ok()) return wasted.status();
    pa.wasted_updates = *wasted;
    auto num_users = in.get_varint("waste.user_parts");
    if (!num_users.ok()) return num_users.status();
    pa.user_parts.assign(*num_users, UserPart{});
    pa.pending.clear();
    for (UserPart& up : pa.user_parts) {
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
  const PerApp& pa = per_app_[tracked_index_[app]];
  out.updates = pa.updates;
  out.wasted_updates = pa.wasted_updates;
  // Folded prefix first, then the resident remainder in the same ascending
  // user order — the identical floating-point fold either way.
  out.joules = pa.folded_joules;
  out.wasted_joules = pa.folded_wasted_joules;
  for (const UserPart& up : pa.user_parts) {
    if (!up.touched) continue;
    out.joules += up.joules;
    out.wasted_joules += up.wasted_joules;
  }
  for (const auto& [user, up] : pa.staged) {
    out.joules += up.joules;
    out.wasted_joules += up.wasted_joules;
  }
  if (pa.live.touched) {
    out.joules += pa.live.joules;
    out.wasted_joules += pa.live.wasted_joules;
  }
  return out;
}

obs::MemoryUse WastedUpdateAnalysis::memory_use() const {
  std::uint64_t total = tracked_index_.capacity() * sizeof(std::uint32_t);
  for (const PerApp& pa : per_app_) {
    total += pa.user_parts.capacity() * sizeof(UserPart) +
             pa.pending.size() * sizeof(PendingUpdate) +
             pa.staged.capacity() * sizeof(pa.staged[0]);
  }
  return {.resident_bytes = total, .spilled_bytes = spilled_self_};
}

}  // namespace wildenergy::analysis
