// Background-traffic management policies (§5, §6 recommendations).
//
// Policies are stream filters placed *before* energy attribution: they drop
// or pass raw packets, and the radio model then recomputes energy over the
// filtered stream. This captures the real effect of killing an app — fewer
// radio wakeups, fewer tails — which the day-granularity arithmetic of
// analysis/whatif.h only approximates (bench/table2_whatif compares both).
//
//   KillAfterIdlePolicy     the paper's §5 proposal: suppress an app's
//                           background traffic once the app has not been
//                           foregrounded for N days (with a whitelist)
//   DozeLikePolicy          Android M Doze (paper §2/§6): when the device is
//                           idle, background traffic only passes during
//                           periodic maintenance windows
//   LeakTerminationPolicy   §6 "ensure network transfers are terminated when
//                           the app is minimized": drops background packets
//                           of flows that began in the foreground
#pragma once

#include <unordered_map>
#include <unordered_set>

#include "trace/batch.h"
#include "trace/sink.h"

namespace wildenergy::core {

/// Base for pass-through filters: forwards everything; subclasses veto
/// packets by overriding `admit` and watch transitions through `observe`.
class PacketFilterPolicy : public trace::TraceSink {
 public:
  explicit PacketFilterPolicy(trace::TraceSink* downstream) : downstream_(downstream) {}

  void on_study_begin(const trace::StudyMeta& meta) override;
  void on_user_begin(trace::UserId user) override;
  void on_user_end(trace::UserId user) override;
  void on_study_end() override;
  /// Walks the batch in stream order — admit() per packet, observe() per
  /// transition — and forwards the survivors as one batch.
  void on_batch(const trace::EventBatch& batch) final;

  [[nodiscard]] std::uint64_t packets_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t bytes_dropped() const { return bytes_dropped_; }

 private:
  /// Return false to drop the packet. Called in stream order.
  [[nodiscard]] virtual bool admit(const trace::PacketRecord& packet) = 0;
  /// Called in stream order for every transition, before it is forwarded.
  virtual void observe(const trace::StateTransition& /*transition*/) {}

  trace::TraceSink* downstream_;
  trace::EventBatch out_;  ///< reused output batch
  std::uint64_t dropped_ = 0;
  std::uint64_t bytes_dropped_ = 0;
};

/// §5: kill apps that stay in the background for more than `idle` time.
/// Foreground use re-arms the app. Whitelisted apps are exempt (the paper's
/// suggested escape hatch for widgets).
class KillAfterIdlePolicy final : public PacketFilterPolicy {
 public:
  KillAfterIdlePolicy(trace::TraceSink* downstream, Duration idle,
                      std::unordered_set<trace::AppId> whitelist = {});

  void on_study_begin(const trace::StudyMeta& meta) override;
  void on_user_begin(trace::UserId user) override;

 private:
  bool admit(const trace::PacketRecord& packet) override;
  void observe(const trace::StateTransition& transition) override;

  Duration idle_;
  std::unordered_set<trace::AppId> whitelist_;
  /// Last time the app was foregrounded (packet in fg state or transition to
  /// fg). Missing entry = never foregrounded; idle clock starts at study
  /// begin.
  std::unordered_map<trace::AppId, TimePoint> last_fg_;
  TimePoint study_begin_{};
};

/// Android-M-style Doze: outside maintenance windows, while the device is
/// idle (no foreground activity for `idle_threshold`), background packets
/// are dropped. Every `maintenance_interval` a window of
/// `maintenance_window` opens and lets sync traffic through.
class DozeLikePolicy final : public PacketFilterPolicy {
 public:
  DozeLikePolicy(trace::TraceSink* downstream, Duration idle_threshold = hours(1.0),
                 Duration maintenance_interval = hours(4.0),
                 Duration maintenance_window = minutes(5.0));

  void on_user_begin(trace::UserId user) override;

 private:
  bool admit(const trace::PacketRecord& packet) override;
  void observe(const trace::StateTransition& transition) override;

  Duration idle_threshold_;
  Duration maintenance_interval_;
  Duration maintenance_window_;
  TimePoint last_device_activity_{};
};

/// Android M "App Standby" (paper §2/§6): apps the user has not touched
/// recently get their background network access rate-limited to one sync
/// window per `window` (rather than cut off entirely as KillAfterIdlePolicy
/// does). Recently-used apps are unrestricted.
class AppStandbyPolicy final : public PacketFilterPolicy {
 public:
  AppStandbyPolicy(trace::TraceSink* downstream, Duration idle_threshold = days(1.0),
                   Duration window = hours(6.0), Duration window_length = minutes(10.0));

  void on_study_begin(const trace::StudyMeta& meta) override;
  void on_user_begin(trace::UserId user) override;

 private:
  bool admit(const trace::PacketRecord& packet) override;
  void observe(const trace::StateTransition& transition) override;

  Duration idle_threshold_;
  Duration window_;
  Duration window_length_;
  TimePoint study_begin_{};
  std::unordered_map<trace::AppId, TimePoint> last_fg_;
  /// Start of the currently open standby window per app (if any).
  std::unordered_map<trace::AppId, TimePoint> window_start_;
};

/// §6: terminate foreground-initiated transfers on minimize. Drops
/// background-state packets whose flow id was first seen in the foreground.
class LeakTerminationPolicy final : public PacketFilterPolicy {
 public:
  explicit LeakTerminationPolicy(trace::TraceSink* downstream);

  void on_user_begin(trace::UserId user) override;

 private:
  bool admit(const trace::PacketRecord& packet) override;

  std::unordered_set<trace::FlowId> foreground_flows_;
};

}  // namespace wildenergy::core
