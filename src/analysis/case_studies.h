// §4.2 / Table 1: per-app case studies of background-initiated transfers.
//
// For each app of interest we compute the paper's columns — energy/day,
// energy/flow, MB/flow, average energy-per-byte — plus a detected background
// update period for the early and late thirds of the study (catching the
// behaviour evolutions: Facebook 5 min -> 1 h, Pandora 1 min -> 2 h, ...).
//
// Flow definition: idle-gap flow assembly (trace/flow_assembler.h); the
// update period is estimated from the gaps between background flow starts.
//
// Data-plane layout (DESIGN.md §12, §15): tracked apps resolve through a
// dense AppId->slot index, the last-flow-start anchor is a per-app scalar
// for the single live user (the stream is user-bracketed), and energy
// partials and day bitmaps live in one row per pending user — folded into
// per-app sums by fold_user. The live user's row is looked up once per user,
// so the packet path never hashes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "ckpt/checkpointable.h"
#include "trace/flow_assembler.h"
#include "trace/shardable.h"
#include "trace/sink.h"
#include "util/stats.h"

namespace wildenergy::energy {
class AccountSpill;  // energy/account_file.h
}

namespace wildenergy::analysis {

/// Section name this sink spills per-user energy, day bitmaps, and flow-gap
/// samples under.
inline constexpr const char* kCaseSection = "case";

struct CaseStudyResult {
  trace::AppId app = 0;
  double joules_total = 0.0;
  std::uint64_t bytes_total = 0;
  std::uint64_t flows = 0;
  std::uint64_t days_active = 0;  ///< days with any traffic, summed over users

  // Paper columns (per *background* flows; units per DESIGN.md note).
  [[nodiscard]] double joules_per_day() const {
    return days_active ? joules_total / static_cast<double>(days_active) : 0.0;
  }
  [[nodiscard]] double joules_per_flow() const {
    return flows ? joules_total / static_cast<double>(flows) : 0.0;
  }
  [[nodiscard]] double mb_per_flow() const {
    return flows ? static_cast<double>(bytes_total) / static_cast<double>(flows) / 1e6 : 0.0;
  }
  [[nodiscard]] double micro_joules_per_byte() const {
    return bytes_total ? joules_total / static_cast<double>(bytes_total) * 1e6 : 0.0;
  }

  /// Dominant background update period (seconds) in the first and last third
  /// of the study; 0 when aperiodic or not enough data.
  double early_period_s = 0.0;
  double late_period_s = 0.0;
};

class CaseStudyAnalysis final : public trace::TraceSink,
                                public trace::ShardableSink,
                                public ckpt::CheckpointableSink {
 public:
  /// Track the given apps; statistics cover *background* traffic only
  /// (the subject of Table 1). Pass the full study stream.
  explicit CaseStudyAnalysis(std::vector<trace::AppId> apps);

  void on_study_begin(const trace::StudyMeta& meta) override;
  void on_user_begin(trace::UserId user) override;
  void on_packet(const trace::PacketRecord& packet) override;
  void on_user_end(trace::UserId user) override;
  void on_study_end() override;

  // ShardableSink: counters add, gap samples append in user-id order, and
  // the clone's per-user row moves over, to be folded in user-id order
  // (trace/shardable.h).
  [[nodiscard]] std::unique_ptr<trace::TraceSink> clone_shard() const override;
  void merge_from(trace::TraceSink& shard) override;

  // CheckpointableSink: counters, folded sums, not-yet-folded gap samples in
  // their stored order, and the pending per-user rows (flow anchors reset
  // at every user end).
  void save_state(ckpt::ByteWriter& out) const override;
  [[nodiscard]] util::Status restore_state(ckpt::ByteReader& in) override;

  [[nodiscard]] CaseStudyResult result(trace::AppId app);
  [[nodiscard]] const std::vector<trace::AppId>& tracked() const { return apps_; }

  // -- account plane (DESIGN.md §15) -----------------------------------------
  /// The spill fold_user() writes through; unarmed, every row stays pending.
  void set_account_spill(energy::AccountSpill* spill) override;
  /// Fold `user`'s pending row into the per-app running sums (ascending user
  /// order, bit-identical to every query-time fold), spill the detail —
  /// energy, day bits, and the gap samples recorded since the previous
  /// fold — as a "case" section, and clear it. result() hydrates the
  /// spilled gap samples lazily (period estimation needs the full sample
  /// set; it sorts, so replay order cannot matter).
  void fold_user(trace::UserId user) override;
  /// OK unless query-time hydration of spilled gap samples failed.
  [[nodiscard]] const util::Status& hydrate_status() const { return hydrate_status_; }

  /// Approximate resident footprint: per-user energy partials, day bitmaps,
  /// and retained gap samples.
  [[nodiscard]] obs::MemoryUse memory_use() const override;

 private:
  /// One user's partial for one tracked app.
  struct UserPart {
    double joules = 0.0;
    bool touched = false;
    std::vector<bool> days;  ///< the user's day-activity bitmap
  };
  using Row = std::vector<UserPart>;  ///< one UserPart per tracked slot
  struct PerApp {
    std::uint64_t bytes = 0;
    std::uint64_t flows = 0;
    /// Gaps between consecutive background flow starts, split into eras,
    /// recorded since the previous fold.
    Distribution early_gaps;
    Distribution late_gaps;
    /// Start of the current user's previous background flow (the stream is
    /// user-bracketed, so one anchor per app suffices).
    TimePoint last_flow_start;
    bool has_last_flow = false;
    double folded_joules = 0.0;
    std::uint64_t folded_days_active = 0;
    /// Spilled gap samples, rehydrated at query time (spilled prefix; the
    /// unfolded early_gaps/late_gaps tail merges after).
    Distribution spill_early;
    Distribution spill_late;
  };
  static constexpr std::uint32_t kUntracked = UINT32_MAX;
  static constexpr trace::UserId kNoUser = UINT32_MAX;

  /// Tracked slot for `app`, or nullptr when the app is not a study subject.
  PerApp* slot(trace::AppId app);
  /// Reset per-app flow anchors when the stream moves to a new user.
  void switch_user(trace::UserId user);
  void on_flow(const trace::FlowRecord& flow);
  /// Stream spilled "case" sections' gap samples back into spill_early /
  /// spill_late (query-time only). Idempotent; errors latch hydrate_status_.
  void hydrate();

  std::vector<trace::AppId> apps_;
  std::vector<std::uint32_t> tracked_index_;  ///< AppId -> per_app_ slot
  trace::StudyMeta meta_;
  std::int64_t era_split_lo_ = 0;  ///< first day of the middle era
  std::int64_t era_split_hi_ = 0;  ///< first day of the late era
  std::size_t num_days_ = 1;       ///< study days (>= 1), the day-bitmap width
  trace::UserId cur_user_ = kNoUser;
  std::vector<PerApp> per_app_;  ///< one slot per tracked app, in apps_ order
  /// Per-user rows not yet folded: the live user of a stream or clone, and
  /// merged users awaiting fold_user.
  std::map<trace::UserId, Row> pending_;
  Row* cur_row_ = nullptr;  ///< cur_user_'s row, looked up on its first packet
  trace::FlowAssembler assembler_;

  std::shared_ptr<energy::AccountSpill> spill_;  ///< armed by the engine (share_spill)
  std::uint64_t spilled_self_ = 0;
  bool hydrated_ = false;
  util::Status hydrate_status_;
};

}  // namespace wildenergy::analysis
