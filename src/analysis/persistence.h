// §4.1 / Fig. 5: how long does traffic persist after an app is sent to the
// background?
//
// For every foreground->background transition, we measure the duration for
// which the app keeps transferring: from the transition until the last
// packet preceding a quiet gap longer than `quiet_gap`. Each transition is
// one data point (0 when nothing followed); the paper plots the
// distribution for Chrome, where flows "persist for more than a day".
//
// Data-plane layout (DESIGN.md §12): app ids are dense, and the stream holds
// one live user at a time, so open episodes live in a flat per-app array for
// the current user (reset at every user bracket) and duration samples in a
// dense per-app Distribution array — no hashing on the packet path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ckpt/checkpointable.h"
#include "trace/shardable.h"
#include "trace/sink.h"
#include "util/stats.h"

namespace wildenergy::energy {
class AccountSpill;  // energy/account_file.h
}

namespace wildenergy::analysis {

/// Section name this sink spills its per-user duration samples under.
inline constexpr const char* kPersistSection = "persist";

class PersistenceAnalysis final : public trace::TraceSink,
                                  public trace::ShardableSink,
                                  public ckpt::CheckpointableSink {
 public:
  /// Track all apps; durations are recorded per app.
  explicit PersistenceAnalysis(Duration quiet_gap = minutes(10.0));

  void on_study_begin(const trace::StudyMeta& meta) override;
  void on_user_begin(trace::UserId user) override;
  void on_packet(const trace::PacketRecord& packet) override;
  void on_transition(const trace::StateTransition& transition) override;
  void on_user_end(trace::UserId user) override;

  // ShardableSink: per-app duration samples append in shard (user-id) order,
  // reproducing the serial user-major sample sequence.
  [[nodiscard]] std::unique_ptr<trace::TraceSink> clone_shard() const override;
  void merge_from(trace::TraceSink& shard) override;

  // CheckpointableSink: the spill accounting plus the not-yet-folded
  // per-app duration samples in insertion order (open episodes are flushed
  // at every user end, so none exist at a checkpoint).
  void save_state(ckpt::ByteWriter& out) const override;
  [[nodiscard]] util::Status restore_state(ckpt::ByteReader& in) override;

  // -- account plane (DESIGN.md §15) -----------------------------------------
  /// The spill fold_user() writes through; unarmed, every sample stays in
  /// memory.
  void set_account_spill(energy::AccountSpill* spill) override;
  /// Spill every sample recorded since the previous fold as a "persist"
  /// row-group section and clear the sample arrays (known_ flags survive, so
  /// tracked_apps() stays exact). Under the engine's per-merge folds that is
  /// exactly `user`'s samples; when folds are deferred to the end of a
  /// stream whose users arrived out of id order, the first fold carries
  /// every deferred user's samples in arrival order. Queries hydrate the
  /// spilled samples back lazily, rebuilding the stored sample order.
  void fold_user(trace::UserId user) override;
  /// OK unless query-time hydration of spilled samples failed.
  [[nodiscard]] const util::Status& hydrate_status() const { return hydrate_status_; }

  /// Persistence durations (seconds) for one app, one per fg->bg transition.
  /// Empty if the app was never foregrounded.
  [[nodiscard]] Distribution& durations(trace::AppId app);
  /// Apps with at least one recorded transition.
  [[nodiscard]] std::vector<trace::AppId> tracked_apps() const;

  /// Fraction of `app` transitions whose traffic persisted longer than `d`.
  [[nodiscard]] double fraction_persisting_longer_than(trace::AppId app, Duration d);

  /// Approximate resident footprint: the per-app episode array plus the
  /// retained per-app duration samples.
  [[nodiscard]] obs::MemoryUse memory_use() const override;

 private:
  struct Episode {
    TimePoint transition;
    TimePoint last_packet;
    bool open = false;
    bool saw_traffic = false;
  };
  static constexpr trace::UserId kNoUser = UINT32_MAX;

  Episode& episode(trace::UserId user, trace::AppId app);
  void close(Episode& episode, trace::AppId app);
  /// Close every open episode in app-ascending order, then reset the array.
  void flush_user();
  /// The app's sample slot, growing the arrays — the stream-path accessor
  /// (durations() additionally hydrates spilled samples, which must never
  /// happen mid-run: unsealed rows would be unreadable and their cleared
  /// samples lost).
  Distribution& dist_slot(trace::AppId app);
  /// Stream spilled "persist" sections back into the sample arrays (spilled
  /// prefix first, unfolded tail after — the merge order of the stream).
  /// Idempotent; errors latch in hydrate_status_.
  void hydrate();

  Duration quiet_gap_;
  /// Open episodes of the current user, indexed by AppId (one user is live
  /// at a time — the stream is user-bracketed).
  trace::UserId cur_user_ = kNoUser;
  std::vector<Episode> episodes_;
  /// Duration samples per app (dense by AppId) not yet folded — every
  /// sample once hydrated; known_ mirrors which apps have an entry at all
  /// (recorded or created via durations()).
  std::vector<Distribution> durations_;
  std::vector<bool> known_;

  std::shared_ptr<energy::AccountSpill> spill_;  ///< armed by the engine (share_spill)
  std::uint64_t spilled_self_ = 0;
  bool hydrated_ = false;
  util::Status hydrate_status_;
};

}  // namespace wildenergy::analysis
