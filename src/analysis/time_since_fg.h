// §4.1 / Fig. 6: background data volume as a function of time since the app
// left the foreground.
//
// Reproduces the three features the paper calls out:
//   1. a steep falloff — most background bytes land in the first minute,
//   2. periodic spikes at 5- and 10-minute offsets (timers re-armed on the
//      background transition),
//   3. a long tail of persisting flows,
// plus the headline criterion: the fraction of apps that send >=80% of their
// background bytes within 60 s of going background ("84% of apps").
//
// Data-plane layout (DESIGN.md §12): app ids are dense and one user is live
// at a time, so the per-(user, app) tracking state is a flat per-app array
// for the current user (reset at each user bracket) and the tallies a dense
// per-app array — no hashing on the packet path.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ckpt/checkpointable.h"
#include "trace/shardable.h"
#include "trace/sink.h"
#include "util/stats.h"

namespace wildenergy::analysis {

class TimeSinceForegroundAnalysis final : public trace::TraceSink,
                                          public trace::ShardableSink,
                                          public ckpt::CheckpointableSink {
 public:
  /// `horizon`: how far past the transition the histogram extends.
  /// `bin`: histogram resolution (must divide the 5-min spike cleanly to
  /// keep the spikes visible; default 30 s).
  explicit TimeSinceForegroundAnalysis(Duration horizon = hours(2.0), Duration bin = sec(30.0));

  void on_study_begin(const trace::StudyMeta& meta) override;
  void on_user_begin(trace::UserId user) override;
  void on_batch(const trace::EventBatch& batch) override;

  // ShardableSink: byte tallies add; the histogram merges binwise, which is
  // exact (order-free) because its masses are integer byte counts.
  [[nodiscard]] std::unique_ptr<trace::TraceSink> clone_shard() const override;
  void merge_from(trace::TraceSink& shard) override;

  // CheckpointableSink: histogram masses (raw bits, incl. the running total —
  // on_study_begin does NOT reset the ctor-shaped histogram, so restore
  // overwrites it wholesale) plus the per-app tallies. Per-user tracking
  // arrays reset at every user switch and are not serialized.
  void save_state(ckpt::ByteWriter& out) const override;
  [[nodiscard]] util::Status restore_state(ckpt::ByteReader& in) override;

  /// Histogram of background bytes vs seconds-since-foreground (all apps).
  [[nodiscard]] const Histogram& bytes_histogram() const { return histogram_; }

  struct AppTally {
    std::uint64_t bg_bytes = 0;
    std::uint64_t bg_bytes_first_minute = 0;
  };
  /// Per-app tallies (only packets after the app's first foreground use),
  /// app-ascending. Only apps with recorded traffic appear.
  [[nodiscard]] std::vector<std::pair<trace::AppId, AppTally>> app_tallies() const;

  /// The paper's criterion: fraction of apps (with >= min_bytes of tracked
  /// background traffic) sending >= `share` of it within the first 60 s.
  [[nodiscard]] double fraction_of_apps_frontloaded(double share = 0.8,
                                                    std::uint64_t min_bytes = 10'000) const;

  /// Spike detection: offsets (in seconds) of local maxima of the histogram
  /// beyond the first 2 minutes — the 5/10-minute timers of Fig. 6.
  [[nodiscard]] std::vector<double> spike_offsets_seconds(std::size_t max_spikes = 4) const;

  /// Approximate resident footprint: histogram bins plus the per-app
  /// tracking arrays and tallies.
  [[nodiscard]] obs::MemoryUse memory_use() const override;

 private:
  static constexpr trace::UserId kNoUser = UINT32_MAX;
  // Per-app tracking flags for the current user.
  static constexpr std::uint8_t kHasExit = 1;       ///< saw a fg->bg transition
  static constexpr std::uint8_t kInForeground = 2;  ///< currently foreground

  /// Reset the per-app tracking state when the stream moves to a new user.
  void switch_user(trace::UserId user);
  void handle_packet(const trace::PacketRecord& p);
  void handle_transition(const trace::StateTransition& t);
  void grow_tracking(trace::AppId app);

  Duration horizon_;
  Duration bin_;  ///< retained so clone_shard() rebuilds an identical histogram
  Histogram histogram_;
  /// Current user's tracking state, indexed by AppId.
  trace::UserId cur_user_ = kNoUser;
  std::vector<std::uint8_t> track_;
  std::vector<TimePoint> last_exit_;  ///< valid when track_[app] & kHasExit
  /// Study-wide per-app tallies (dense by AppId; touched_ = has an entry).
  std::vector<AppTally> tallies_;
  std::vector<bool> touched_;
};

}  // namespace wildenergy::analysis
