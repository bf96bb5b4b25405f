#include "core/policy.h"

#include <utility>

namespace wildenergy::core {

void PacketFilterPolicy::on_study_begin(const trace::StudyMeta& meta) {
  dropped_ = 0;
  bytes_dropped_ = 0;
  downstream_->on_study_begin(meta);
}
void PacketFilterPolicy::on_user_begin(trace::UserId user) { downstream_->on_user_begin(user); }
void PacketFilterPolicy::on_batch(const trace::EventBatch& batch) {
  out_.clear();
  out_.user = batch.user;
  trace::for_each_event(
      batch,
      [&](const trace::PacketRecord& packet) {
        if (admit(packet)) {
          out_.add(packet);
        } else {
          ++dropped_;
          bytes_dropped_ += packet.bytes;
        }
      },
      [&](const trace::StateTransition& transition) {
        observe(transition);
        out_.add(transition);
      });
  if (!out_.empty()) downstream_->on_batch(out_);
}
void PacketFilterPolicy::on_user_end(trace::UserId user) { downstream_->on_user_end(user); }
void PacketFilterPolicy::on_study_end() { downstream_->on_study_end(); }

KillAfterIdlePolicy::KillAfterIdlePolicy(trace::TraceSink* downstream, Duration idle,
                                         std::unordered_set<trace::AppId> whitelist)
    : PacketFilterPolicy(downstream), idle_(idle), whitelist_(std::move(whitelist)) {}

void KillAfterIdlePolicy::on_study_begin(const trace::StudyMeta& meta) {
  study_begin_ = meta.study_begin;
  PacketFilterPolicy::on_study_begin(meta);
}

void KillAfterIdlePolicy::on_user_begin(trace::UserId user) {
  last_fg_.clear();
  PacketFilterPolicy::on_user_begin(user);
}

void KillAfterIdlePolicy::observe(const trace::StateTransition& transition) {
  if (trace::is_foreground(transition.to)) last_fg_[transition.app] = transition.time;
}

bool KillAfterIdlePolicy::admit(const trace::PacketRecord& packet) {
  if (trace::is_foreground(packet.state)) {
    last_fg_[packet.app] = packet.time;
    return true;
  }
  if (whitelist_.contains(packet.app)) return true;
  const auto it = last_fg_.find(packet.app);
  const TimePoint reference = it == last_fg_.end() ? study_begin_ : it->second;
  return packet.time - reference <= idle_;
}

DozeLikePolicy::DozeLikePolicy(trace::TraceSink* downstream, Duration idle_threshold,
                               Duration maintenance_interval, Duration maintenance_window)
    : PacketFilterPolicy(downstream),
      idle_threshold_(idle_threshold),
      maintenance_interval_(maintenance_interval),
      maintenance_window_(maintenance_window) {}

void DozeLikePolicy::on_user_begin(trace::UserId user) {
  last_device_activity_ = {};
  PacketFilterPolicy::on_user_begin(user);
}

void DozeLikePolicy::observe(const trace::StateTransition& transition) {
  // Any foregrounding counts as device activity (screen on).
  if (trace::is_foreground(transition.to)) last_device_activity_ = transition.time;
}

bool DozeLikePolicy::admit(const trace::PacketRecord& packet) {
  if (trace::is_foreground(packet.state)) {
    last_device_activity_ = packet.time;
    return true;
  }
  const Duration since_activity = packet.time - last_device_activity_;
  if (since_activity <= idle_threshold_) return true;  // device not dozing
  // Dozing: admit only inside a maintenance window. Windows open every
  // maintenance_interval_ after the doze began.
  const std::int64_t into_doze = (since_activity - idle_threshold_).us;
  const std::int64_t phase = into_doze % maintenance_interval_.us;
  return phase < maintenance_window_.us;
}

AppStandbyPolicy::AppStandbyPolicy(trace::TraceSink* downstream, Duration idle_threshold,
                                   Duration window, Duration window_length)
    : PacketFilterPolicy(downstream),
      idle_threshold_(idle_threshold),
      window_(window),
      window_length_(window_length) {}

void AppStandbyPolicy::on_study_begin(const trace::StudyMeta& meta) {
  study_begin_ = meta.study_begin;
  PacketFilterPolicy::on_study_begin(meta);
}

void AppStandbyPolicy::on_user_begin(trace::UserId user) {
  last_fg_.clear();
  window_start_.clear();
  PacketFilterPolicy::on_user_begin(user);
}

void AppStandbyPolicy::observe(const trace::StateTransition& transition) {
  if (trace::is_foreground(transition.to)) {
    last_fg_[transition.app] = transition.time;
    window_start_.erase(transition.app);  // leaves standby
  }
}

bool AppStandbyPolicy::admit(const trace::PacketRecord& packet) {
  if (trace::is_foreground(packet.state)) {
    last_fg_[packet.app] = packet.time;
    window_start_.erase(packet.app);
    return true;
  }
  const auto it = last_fg_.find(packet.app);
  const TimePoint reference = it == last_fg_.end() ? study_begin_ : it->second;
  if (packet.time - reference <= idle_threshold_) return true;  // not in standby

  // Standby: admit inside the app's current sync window, opening a new one
  // when the previous window is at least `window_` in the past.
  auto [ws, inserted] = window_start_.try_emplace(packet.app, packet.time);
  if (!inserted && packet.time - ws->second > window_) {
    ws->second = packet.time;  // open a fresh window
  }
  return packet.time - ws->second <= window_length_;
}

LeakTerminationPolicy::LeakTerminationPolicy(trace::TraceSink* downstream)
    : PacketFilterPolicy(downstream) {}

void LeakTerminationPolicy::on_user_begin(trace::UserId user) {
  foreground_flows_.clear();
  PacketFilterPolicy::on_user_begin(user);
}

bool LeakTerminationPolicy::admit(const trace::PacketRecord& packet) {
  if (trace::is_foreground(packet.state)) {
    foreground_flows_.insert(packet.flow);
    return true;
  }
  return !foreground_flows_.contains(packet.flow);
}

}  // namespace wildenergy::core
