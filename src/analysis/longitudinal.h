// Longitudinal trends (§3.1).
//
// "Background energy fluctuated by up to 60% from week to week throughout
//  the study. Examining specific apps, we did determine that some apps have
//  become more energy-efficient due to adjusting the inter-packet intervals
//  of background traffic."
//
// This sink accumulates weekly energy series (overall and per tracked app)
// and compares early-era vs late-era per-app efficiency, surfacing the
// behaviour evolutions Table 1 reports (Facebook 5 min -> 1 h, ...).
//
// Shardable (trace/shardable.h): the weekly series and era accumulators are
// cross-user double sums, so they are kept as per-user partials — one dense
// week vector and era array per pending user — and folded in user-id order,
// by fold_user into running sums and by queries over the pending rest. The
// serial pass and the sharded merge therefore perform the exact same
// floating-point fold, and outputs are bit-identical at any thread count
// (DESIGN.md §12, §15).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "ckpt/checkpointable.h"
#include "trace/shardable.h"
#include "trace/sink.h"

namespace wildenergy::energy {
class AccountSpill;  // energy/account_file.h
}

namespace wildenergy::analysis {

/// Section name this sink spills per-user week/era partials under.
inline constexpr const char* kLongitSection = "longit";

struct WeeklySeries {
  std::vector<double> fg_joules;
  std::vector<double> bg_joules;

  [[nodiscard]] std::size_t weeks() const { return bg_joules.size(); }
  /// Largest relative week-over-week change of background energy, ignoring
  /// ramp-in/out weeks with negligible traffic.
  [[nodiscard]] double max_weekly_bg_fluctuation() const;
};

struct EraComparison {
  trace::AppId app = 0;
  double early_joules_per_day = 0.0;  ///< first third of the study
  double late_joules_per_day = 0.0;   ///< last third
  double early_uj_per_byte = 0.0;
  double late_uj_per_byte = 0.0;

  /// < 1 means the app became more energy-efficient per byte over the study.
  [[nodiscard]] double efficiency_ratio() const {
    return early_uj_per_byte > 0 ? late_uj_per_byte / early_uj_per_byte : 0.0;
  }
};

class LongitudinalAnalysis final : public trace::TraceSink,
                                   public trace::ShardableSink,
                                   public ckpt::CheckpointableSink {
 public:
  explicit LongitudinalAnalysis(std::vector<trace::AppId> tracked_apps = {});

  void on_study_begin(const trace::StudyMeta& meta) override;
  void on_batch(const trace::EventBatch& batch) override;

  // ShardableSink: the clone's one week/era partial is stolen and folded in
  // user-id order.
  [[nodiscard]] std::unique_ptr<trace::TraceSink> clone_shard() const override;
  void merge_from(trace::TraceSink& shard) override;

  // CheckpointableSink: folded week/era sums and pending per-user partials
  // (raw double bits); the query-time fold cache is rebuilt lazily after
  // restore.
  void save_state(ckpt::ByteWriter& out) const override;
  [[nodiscard]] util::Status restore_state(ckpt::ByteReader& in) override;

  // -- account plane (DESIGN.md §15) -----------------------------------------
  /// The spill fold_user() writes through; unarmed, every row stays pending.
  void set_account_spill(energy::AccountSpill* spill) override { spill_ = spill; }
  /// Fold `user`'s pending partial into the running week/era sums
  /// (ascending user order, bit-identical to every query-time fold), spill
  /// it as a "longit" section, and release it.
  void fold_user(trace::UserId user) override;

  [[nodiscard]] const WeeklySeries& overall() const;
  [[nodiscard]] EraComparison era_comparison(trace::AppId app) const;

  [[nodiscard]] obs::MemoryUse memory_use() const override;

 private:
  struct EraAccum {
    double early_joules = 0.0;
    double late_joules = 0.0;
    std::uint64_t early_bytes = 0;
    std::uint64_t late_bytes = 0;
  };

  /// One user's partial sums: dense weekly fg/bg joules plus one era
  /// accumulator per tracked app (indexed by tracked_index_).
  struct UserPart {
    std::vector<double> fg_weeks;
    std::vector<double> bg_weeks;
    std::vector<EraAccum> eras;
  };

  static constexpr std::uint32_t kUntracked = UINT32_MAX;

  /// `user`'s pending partial, created zeroed on first touch.
  UserPart& user_part(trace::UserId user);
  /// Fold the running sums, then the pending partials (user-id order), into
  /// overall_/eras_.
  void fold() const;

  trace::StudyMeta meta_;
  std::int64_t num_days_ = 0;
  std::size_t num_weeks_ = 1;
  std::vector<trace::AppId> tracked_;
  /// Dense app-id -> tracked slot map (kUntracked when not tracked).
  std::vector<std::uint32_t> tracked_index_;
  /// Per-user partials not yet folded: the live user of a stream or clone,
  /// and merged users awaiting fold_user.
  std::map<trace::UserId, UserPart> pending_;

  energy::AccountSpill* spill_ = nullptr;  ///< non-owning; armed by the engine
  std::uint64_t spilled_self_ = 0;
  /// Running week/era sums over folded users (ascending user order).
  std::vector<double> folded_fg_weeks_;
  std::vector<double> folded_bg_weeks_;
  std::vector<EraAccum> folded_eras_;

  // Query-time fold cache, invalidated by any mutation.
  mutable bool dirty_ = true;
  mutable WeeklySeries overall_;
  mutable std::vector<EraAccum> eras_;
};

}  // namespace wildenergy::analysis
