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
// Data-plane layout (DESIGN.md §12): tracked apps resolve through a dense
// AppId->slot index, energy partials live in dense per-user arrays, and the
// last-flow-start anchor is a per-app scalar for the single live user (the
// stream is user-bracketed) — no hashing on the packet path.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
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

  // ShardableSink: counters add, day bitmaps OR (users touch disjoint
  // ranges), gap samples append in user-id order, and per-app joules are
  // kept as per-user partials folded by result() (trace/shardable.h).
  [[nodiscard]] std::unique_ptr<trace::TraceSink> clone_shard() const override;
  void merge_from(trace::TraceSink& shard) override;

  // CheckpointableSink: per-user joules, day bitmaps, and gap samples in
  // their stored order (flow anchors reset at every user end).
  void save_state(ckpt::ByteWriter& out) const override;
  [[nodiscard]] util::Status restore_state(ckpt::ByteReader& in) override;

  [[nodiscard]] CaseStudyResult result(trace::AppId app);
  [[nodiscard]] const std::vector<trace::AppId>& tracked() const { return apps_; }

  // -- fold-and-release (DESIGN.md §15) --------------------------------------
  /// Arm fold mode: the dense per-app O(users) energy arrays and
  /// O(users x days) day bitmaps are not allocated. The live user accumulates
  /// in per-app scalars and one day bitmap; fold_user() folds them into
  /// per-app running sums (stream order = ascending user id, bit-identical
  /// to the ascending query-time folds), spills the user's detail — energy,
  /// day bits, and flow-gap samples — as a "case" section, and clears it.
  /// result() hydrates the spilled gap samples lazily (period estimation
  /// needs the full sample set; it sorts, so replay order cannot matter).
  void set_account_spill(energy::AccountSpill* spill) { spill_ = spill; }
  [[nodiscard]] bool fold_mode() const { return spill_ != nullptr; }
  void fold_user(trace::UserId user) override;
  /// OK unless query-time hydration of spilled gap samples failed.
  [[nodiscard]] const util::Status& hydrate_status() const { return hydrate_status_; }

  /// Approximate resident footprint: per-user energy partials, day bitmaps,
  /// and retained gap samples.
  [[nodiscard]] obs::MemoryUse memory_use() const override;

 private:
  /// One merged shard row awaiting its fold_user call (sharded fold mode).
  struct StagedPart {
    double joules = 0.0;
    std::vector<bool> days;
  };
  struct PerApp {
    std::vector<double> joules_by_user;  ///< dense by UserId
    std::vector<bool> joules_touched;    ///< user has an energy partial
    std::uint64_t bytes = 0;
    std::uint64_t flows = 0;
    std::vector<bool> active_day;  ///< (user-major) day activity bitmaps, merged
    /// Gaps between consecutive background flow starts, split into eras.
    Distribution early_gaps;
    Distribution late_gaps;
    /// Start of the current user's previous background flow (the stream is
    /// user-bracketed, so one anchor per app suffices).
    TimePoint last_flow_start;
    bool has_last_flow = false;
    // Single-user state (fold mode and shard clones). In fold mode
    // early_gaps/late_gaps hold only the not-yet-folded samples.
    double live_joules = 0.0;
    bool live_touched = false;
    std::vector<bool> live_days;  ///< the live user's day-activity bitmap
    double folded_joules = 0.0;
    std::uint64_t folded_days_active = 0;
    /// Spilled gap samples, rehydrated at query time (spilled prefix; the
    /// resident early_gaps/late_gaps tail merges after).
    Distribution spill_early;
    Distribution spill_late;
    /// Merged shard rows awaiting their fold_user call (sharded fold mode).
    std::vector<std::pair<trace::UserId, StagedPart>> staged;
  };
  static constexpr std::uint32_t kUntracked = UINT32_MAX;
  static constexpr trace::UserId kNoUser = UINT32_MAX;

  /// Tracked slot for `app`, or nullptr when the app is not a study subject.
  PerApp* slot(trace::AppId app);
  /// Reset per-app flow anchors when the stream moves to a new user.
  void switch_user(trace::UserId user);
  void on_flow(const trace::FlowRecord& flow);
  /// Fold mode and shard clones keep the live user in PerApp::live_*.
  [[nodiscard]] bool single_user() const { return spill_ != nullptr || shard_; }
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
  trace::FlowAssembler assembler_;
  bool shard_ = false;           ///< made by clone_shard(): one user
  trace::UserId live_user_ = 0;  ///< the user PerApp::live_* belongs to

  // Fold-and-release state (zero outside fold mode).
  energy::AccountSpill* spill_ = nullptr;  ///< non-owning; armed by the engine
  std::uint64_t spilled_self_ = 0;
  bool hydrated_ = false;
  util::Status hydrate_status_;
};

}  // namespace wildenergy::analysis
