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
// Data-plane layout (DESIGN.md §12): tracked apps resolve through a dense
// AppId->slot index, energy partials live in dense per-user arrays, and the
// pending-update queue is per app for the single live user (the stream is
// user-bracketed), so the packet path never hashes.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
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
  // and folded in user-id order by result() (trace/shardable.h).
  [[nodiscard]] std::unique_ptr<trace::TraceSink> clone_shard() const override;
  void merge_from(trace::TraceSink& shard) override;

  // CheckpointableSink: update counts plus per-user energy partials (pending
  // queues drain at every user end, so none exist at a checkpoint).
  void save_state(ckpt::ByteWriter& out) const override;
  [[nodiscard]] util::Status restore_state(ckpt::ByteReader& in) override;

  // -- fold-and-release (DESIGN.md §15) --------------------------------------
  /// Arm fold mode: the dense per-app user_parts arrays are not allocated
  /// (they are O(apps x users), the sink's entire footprint). The live user
  /// accumulates in one part per app; merged shard rows stage in a small
  /// buffer; fold_user() folds the completed user's parts into per-app
  /// running sums (stream order = ascending user id, bit-identical to the
  /// ascending query-time folds), spills them as a "waste" section, and
  /// clears them.
  void set_account_spill(energy::AccountSpill* spill) { spill_ = spill; }
  [[nodiscard]] bool fold_mode() const { return spill_ != nullptr; }
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
    std::vector<UserPart> user_parts;  ///< dense by UserId (resident mode only)
    /// Current user's not-yet-settled updates (one user is live at a time).
    std::deque<PendingUpdate> pending;
    // Fold-and-release state (unused outside fold mode).
    UserPart live;  ///< the live user's partial (fold mode, shard clones)
    /// Merged shard rows awaiting their fold_user call (sharded fold mode).
    std::vector<std::pair<trace::UserId, UserPart>> staged;
    double folded_joules = 0.0;
    double folded_wasted_joules = 0.0;
  };
  static constexpr std::uint32_t kUntracked = UINT32_MAX;
  static constexpr trace::UserId kNoUser = UINT32_MAX;

  /// Tracked slot for `app`, or nullptr when the app is not a study subject.
  PerApp* slot(trace::AppId app);
  UserPart& part(PerApp& pa, trace::UserId user);
  /// Flush the previous user's pending updates (never looked at: wasted)
  /// and make `user` current.
  void switch_user(trace::UserId user);
  void on_flow(const trace::FlowRecord& flow);
  void expire(PerApp& pa, trace::UserId user, TimePoint now);
  void settle_on_foreground(trace::AppId app, trace::UserId user, TimePoint now);
  /// Fold mode and shard clones keep the live user's parts in PerApp::live.
  [[nodiscard]] bool single_user() const { return spill_ != nullptr || shard_; }

  std::vector<trace::AppId> apps_;
  std::vector<std::uint32_t> tracked_index_;  ///< AppId -> per_app_ slot
  Duration useful_window_;
  trace::UserId cur_user_ = kNoUser;
  std::vector<PerApp> per_app_;  ///< one slot per tracked app, in apps_ order
  trace::FlowAssembler assembler_;
  bool shard_ = false;              ///< made by clone_shard(): one user
  trace::UserId live_user_ = 0;     ///< the user PerApp::live belongs to

  // Fold-and-release state (zero outside fold mode).
  energy::AccountSpill* spill_ = nullptr;  ///< non-owning; armed by the engine
  std::uint64_t spilled_self_ = 0;
};

}  // namespace wildenergy::analysis
