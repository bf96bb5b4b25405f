// Wasted background updates (§4.2 / §6).
//
// "There is often a tradeoff between ensuring updates are timely and
//  avoiding wasted background updates the user never looks at." ... "app
//  developers should ... tailor updates to reflect the frequency with which
//  useful, new data is provided."
//
// An update is counted as *useful* when the user foregrounds the app within
// `useful_window` after it (the freshly synced content had a chance to be
// seen), and *wasted* otherwise. Updates are background flows reconstructed
// with the same idle-gap assembler as Table 1.
//
// Data-plane layout (DESIGN.md §12, §15): tracked apps resolve through a
// dense AppId->slot index, the unsettled-update queue is per app for the
// single live user (the stream is user-bracketed), and energy partials live
// in one row per pending user — folded into per-app sums by fold_user — so
// the packet path never hashes.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "ckpt/checkpointable.h"
#include "trace/flow_assembler.h"
#include "trace/shardable.h"
#include "trace/sink.h"

namespace wildenergy::energy {
class AccountSpill;  // energy/account_file.h
}

namespace wildenergy::analysis {

/// Section name this sink spills per-user energy splits under.
inline constexpr const char* kWasteSection = "waste";

struct WasteResult {
  trace::AppId app = 0;
  std::uint64_t updates = 0;
  std::uint64_t wasted_updates = 0;
  double joules = 0.0;
  double wasted_joules = 0.0;

  [[nodiscard]] double wasted_update_fraction() const {
    return updates ? static_cast<double>(wasted_updates) / static_cast<double>(updates) : 0.0;
  }
  [[nodiscard]] double wasted_energy_fraction() const {
    return joules > 0 ? wasted_joules / joules : 0.0;
  }
};

class WastedUpdateAnalysis final : public trace::TraceSink,
                                   public trace::ShardableSink,
                                   public ckpt::CheckpointableSink {
 public:
  /// Track background updates of `apps`; an update is useful if the app is
  /// foregrounded within `useful_window` after the update completes.
  WastedUpdateAnalysis(std::vector<trace::AppId> apps, Duration useful_window = hours(12.0));

  void on_study_begin(const trace::StudyMeta& meta) override;
  void on_user_begin(trace::UserId user) override;
  void on_packet(const trace::PacketRecord& packet) override;
  void on_transition(const trace::StateTransition& transition) override;
  void on_user_end(trace::UserId user) override;

  // ShardableSink: update counts add; joules are kept as per-user partials
  // and folded in user-id order (trace/shardable.h).
  [[nodiscard]] std::unique_ptr<trace::TraceSink> clone_shard() const override;
  void merge_from(trace::TraceSink& shard) override;

  // CheckpointableSink: update counts, folded per-app sums and pending
  // per-user partials (unsettled queues drain at every user end, so none
  // exist at a checkpoint).
  void save_state(ckpt::ByteWriter& out) const override;
  [[nodiscard]] util::Status restore_state(ckpt::ByteReader& in) override;

  // -- account plane (DESIGN.md §15) -----------------------------------------
  /// The spill fold_user() writes through; unarmed, every row stays pending.
  void set_account_spill(energy::AccountSpill* spill) override { spill_ = spill; }
  /// Fold `user`'s pending row into the per-app running sums (ascending user
  /// order, the additions every query performs), spill it as a "waste"
  /// section, and drop it.
  void fold_user(trace::UserId user) override;

  [[nodiscard]] WasteResult result(trace::AppId app) const;
  [[nodiscard]] const std::vector<trace::AppId>& tracked() const { return apps_; }

  /// Approximate resident footprint: per-user energy partials plus the
  /// pending-update queues.
  [[nodiscard]] obs::MemoryUse memory_use() const override;

 private:
  struct PendingUpdate {
    TimePoint completed;
    double joules = 0.0;
  };
  /// Energy partials for one user; all of a user's updates settle within
  /// that user's stream, so the split is exact.
  struct UserPart {
    double joules = 0.0;
    double wasted_joules = 0.0;
    bool touched = false;
  };
  struct PerApp {
    std::uint64_t updates = 0;
    std::uint64_t wasted_updates = 0;
    /// Current user's not-yet-settled updates (one user is live at a time).
    std::deque<PendingUpdate> unsettled;
    double folded_joules = 0.0;
    double folded_wasted_joules = 0.0;
  };
  static constexpr std::uint32_t kUntracked = UINT32_MAX;
  static constexpr trace::UserId kNoUser = UINT32_MAX;

  /// Tracked slot for `app`, or nullptr when the app is not a study subject.
  PerApp* slot(trace::AppId app);
  /// `user`'s partial for `pa`, in the user's pending row.
  UserPart& part(const PerApp& pa, trace::UserId user);
  /// Flush the previous user's unsettled updates (never looked at: wasted)
  /// and make `user` current.
  void switch_user(trace::UserId user);
  /// Every unsettled update of `user` was never followed by use: wasted.
  void waste_unsettled(trace::UserId user);
  void on_flow(const trace::FlowRecord& flow);
  void expire(PerApp& pa, trace::UserId user, TimePoint now);
  void settle_on_foreground(trace::AppId app, trace::UserId user, TimePoint now);

  std::vector<trace::AppId> apps_;
  std::vector<std::uint32_t> tracked_index_;  ///< AppId -> per_app_ slot
  Duration useful_window_;
  trace::UserId cur_user_ = kNoUser;
  std::vector<PerApp> per_app_;  ///< one slot per tracked app, in apps_ order
  /// Per-user partials not yet folded, one UserPart per tracked slot: the
  /// live user of a stream or clone, and merged users awaiting fold_user.
  std::map<trace::UserId, std::vector<UserPart>> pending_;
  trace::FlowAssembler assembler_;

  energy::AccountSpill* spill_ = nullptr;  ///< non-owning; armed by the engine
  std::uint64_t spilled_self_ = 0;
};

}  // namespace wildenergy::analysis
