// EnergyLedger: per-(user, app) accounting over the annotated trace stream.
//
// One streaming pass populates everything Figures 1-3 and Tables 1-2 need:
//   - total bytes and joules per (user, app),
//   - joules per Android process state (Fig. 3),
//   - per-day foreground/background joules and bytes plus a "had foreground
//     traffic" flag (the §5 what-if analysis),
// while keeping memory at O(apps x days) counters per pending user plus
// O(apps) folded aggregates, independent of packet count.
//
// Data-plane layout (DESIGN.md §12, §15): app ids are dense and known up
// front from StudyMeta, so a user's accounts live in one flat slab — a
// UserState holding a dense std::vector<AppUserAccount> indexed by AppId —
// and the hot path is one lookup per batch plus indexed loads. Ids beyond
// the StudyMeta hint (hand built streams) grow the slab on demand.
//
// One account plane: the ledger holds folded aggregates plus *pending* user
// slabs, keyed by user id. A pending slab is the user a direct feed or a
// shard clone is accumulating, or a user merged from a clone but not yet
// folded. fold_user() moves a slab into the aggregates and its detail rows
// into the AccountSpill, then frees it; the engine folds every user, so a
// pipeline's ledger ends with no pending slabs. Determinism is by
// construction: folds run in ascending user order, and every query folds
// the aggregates and then the pending slabs in ascending user order — the
// same floating-point sequence however far the folds got, at any thread
// count. accounts() iterates the pending slabs user-major, app-ascending;
// AccountCursor (energy/account_cursor.h) replays the folded rows first and
// then that view.
//
// Shardable (trace/shardable.h): one clone per user, folded back with
// merge_from(), which steals the shard's one slab (the shard is left empty).
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <vector>

#include "ckpt/checkpointable.h"
#include "trace/shardable.h"
#include "trace/sink.h"

namespace wildenergy::energy {

class AccountSpill;  // energy/account_file.h

struct DayCell {
  double fg_joules = 0.0;
  double bg_joules = 0.0;
  std::uint64_t fg_bytes = 0;
  std::uint64_t bg_bytes = 0;

  [[nodiscard]] bool any_traffic() const { return fg_bytes + bg_bytes > 0; }
  [[nodiscard]] bool background_only() const { return bg_bytes > 0 && fg_bytes == 0; }
};

struct AppUserAccount {
  trace::UserId user = 0;
  trace::AppId app = 0;
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
  double joules = 0.0;
  /// Joules per Android process state, indexed by ProcessState.
  std::array<double, trace::kNumProcessStates> state_joules{};
  /// One cell per study day. Empty only while the account has no traffic
  /// (dense slabs hold a slot for every (user, app) pair).
  std::vector<DayCell> days;

  [[nodiscard]] double foreground_joules() const {
    return state_joules[0] + state_joules[1];
  }
  [[nodiscard]] double background_joules() const {
    return state_joules[2] + state_joules[3] + state_joules[4];
  }
};

class EnergyLedger final : public trace::TraceSink,
                           public trace::ShardableSink,
                           public ckpt::CheckpointableSink {
 public:
  void on_study_begin(const trace::StudyMeta& meta) override;
  void on_batch(const trace::EventBatch& batch) override;

  // ShardableSink: one ledger clone per user shard, merged in user-id order.
  [[nodiscard]] std::unique_ptr<trace::TraceSink> clone_shard() const override;
  void merge_from(trace::TraceSink& shard) override;

  // -- account plane (DESIGN.md §15) ----------------------------------------
  /// The spill fold_user() writes detail rows through, and AccountCursor
  /// reads them back from. Unarmed, the ledger never folds.
  void set_account_spill(AccountSpill* spill) override;
  [[nodiscard]] AccountSpill* account_spill() const { return spill_.get(); }
  /// Collapse `user`'s pending slab into the folded aggregates (in ascending
  /// user order, so the folds are the exact additions every query performs),
  /// spill its detail accounts as a "ledger" row-group section, and free the
  /// slab.
  void fold_user(trace::UserId user) override;

  // CheckpointableSink: the folded aggregates plus every pending slab (only
  // accounts with traffic) with doubles as raw bits; restore after
  // on_study_begin rebuilds a bit-identical ledger.
  void save_state(ckpt::ByteWriter& out) const override;
  [[nodiscard]] util::Status restore_state(ckpt::ByteReader& in) override;

  [[nodiscard]] const trace::StudyMeta& meta() const { return meta_; }

  /// Typed iteration over every PENDING (user, app) account with traffic,
  /// user-major and app-ascending. Folded users' slabs are gone; detail
  /// consumers use AccountCursor (energy/account_cursor.h), which replays
  /// the folded rows first and then this view.
  class AccountView;
  [[nodiscard]] AccountView accounts() const;
  /// Number of pending (user, app) accounts with traffic — accounts().size().
  [[nodiscard]] std::size_t num_accounts() const { return num_accounts_; }
  /// Accounts with traffic, folded and pending — the length of the
  /// AccountCursor sequence.
  [[nodiscard]] std::size_t total_accounts() const { return num_accounts_ + folded_accounts_; }

  /// User ids with any traffic (folded users included), ascending.
  [[nodiscard]] std::vector<trace::UserId> users() const;

  /// Sum of accounts for `app` across all users.
  [[nodiscard]] AppUserAccount app_total(trace::AppId app) const;
  /// All app ids with any traffic, ascending.
  [[nodiscard]] std::vector<trace::AppId> apps() const;

  /// Approximate resident footprint: pending slabs (including each
  /// account's per-day cell vector) plus the folded aggregates.
  [[nodiscard]] obs::MemoryUse memory_use() const override;

  // Study-wide totals: the folded aggregates, then pending users ascending.
  [[nodiscard]] double total_joules() const;
  [[nodiscard]] std::uint64_t total_bytes() const;
  [[nodiscard]] std::uint64_t total_packets() const;
  /// Total joules across apps per process state (Fig. 3 "all apps" row).
  [[nodiscard]] std::array<double, trace::kNumProcessStates> state_totals() const;

 private:
  /// Running sums for one user — the unit that makes cross-user double
  /// totals mergeable without changing their value (see header comment).
  struct UserTotals {
    double joules = 0.0;
    std::uint64_t bytes = 0;
    std::uint64_t packets = 0;
    std::array<double, trace::kNumProcessStates> state_joules{};
  };

  /// One user's slab: running totals plus a dense per-app account array.
  struct UserState {
    UserTotals totals;
    std::vector<AppUserAccount> apps;  ///< indexed by AppId; days empty = no traffic
  };
  using PendingMap = std::map<trace::UserId, UserState>;

  /// The user's pending slab, created on first touch (apps pre-sized to the
  /// StudyMeta hint; grown on demand for out-of-hint ids).
  UserState& user_state(trace::UserId user);
  /// The (user, app) account inside `state`, initialized on first touch.
  AppUserAccount& account(UserState& state, trace::UserId user, trace::AppId app);

  /// Collapse one user's slab into the folded aggregates.
  void fold_slab_totals(const UserState& state);
  /// Encode the slab's live accounts as the "ledger" section payload — the
  /// decode mirror is decode_ledger_section (energy/account_cursor.h).
  static void encode_slab(const UserState& state, ckpt::ByteWriter& out);

  trace::StudyMeta meta_;
  std::size_t num_days_ = 0;
  std::uint32_t num_apps_hint_ = 0;
  std::size_t num_accounts_ = 0;  ///< live accounts in pending_
  PendingMap pending_;

  std::shared_ptr<AccountSpill> spill_;   ///< armed by the engine (share_spill)
  std::uint64_t spilled_self_ = 0;        ///< bytes this ledger spilled
  std::size_t folded_accounts_ = 0;       ///< live accounts released by folds
  UserTotals folded_totals_;              ///< grand totals over folded users
  std::vector<AppUserAccount> folded_apps_;  ///< per-app totals, days empty
  std::vector<trace::UserId> folded_users_;  ///< folded users with traffic

 public:
  /// Forward iterator over pending accounts: user-major, app-ascending.
  class AccountIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = AppUserAccount;
    using difference_type = std::ptrdiff_t;
    using pointer = const AppUserAccount*;
    using reference = const AppUserAccount&;

    AccountIterator() = default;
    AccountIterator(PendingMap::const_iterator user, PendingMap::const_iterator end)
        : user_(user), end_(end) {
      advance_to_live();
    }

    reference operator*() const { return user_->second.apps[app_]; }
    pointer operator->() const { return &**this; }
    AccountIterator& operator++() {
      ++app_;
      advance_to_live();
      return *this;
    }
    AccountIterator operator++(int) {
      AccountIterator copy = *this;
      ++*this;
      return copy;
    }
    friend bool operator==(const AccountIterator& a, const AccountIterator& b) {
      return a.user_ == b.user_ && a.app_ == b.app_;
    }
    friend bool operator!=(const AccountIterator& a, const AccountIterator& b) {
      return !(a == b);
    }

   private:
    void advance_to_live() {
      for (; user_ != end_; ++user_, app_ = 0) {
        const std::vector<AppUserAccount>& apps = user_->second.apps;
        for (; app_ < apps.size(); ++app_) {
          if (apps[app_].packets != 0) return;
        }
      }
      app_ = 0;  // one canonical end(): (end, 0)
    }

    PendingMap::const_iterator user_;
    PendingMap::const_iterator end_;
    std::size_t app_ = 0;
  };

  class AccountView {
   public:
    AccountView(const PendingMap* pending, std::size_t count)
        : pending_(pending), count_(count) {}
    [[nodiscard]] AccountIterator begin() const { return {pending_->begin(), pending_->end()}; }
    [[nodiscard]] AccountIterator end() const { return {pending_->end(), pending_->end()}; }
    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] bool empty() const { return count_ == 0; }

   private:
    const PendingMap* pending_;
    std::size_t count_;
  };
};

inline EnergyLedger::AccountView EnergyLedger::accounts() const {
  return AccountView{&pending_, num_accounts_};
}

}  // namespace wildenergy::energy
