// EnergyLedger: per-(user, app) accounting over the annotated trace stream.
//
// One streaming pass populates everything Figures 1-3 and Tables 1-2 need:
//   - total bytes and joules per (user, app),
//   - joules per Android process state (Fig. 3),
//   - per-day foreground/background joules and bytes plus a "had foreground
//     traffic" flag (the §5 what-if analysis),
// while keeping memory at O(users x apps x days) counters, independent of
// packet count.
//
// Data-plane layout (DESIGN.md §12): user and app populations are dense ids
// known up front from StudyMeta, so accounts live in flat per-user slabs —
// one lazily allocated UserState per user holding a dense
// std::vector<AppUserAccount> indexed by AppId — and the hot path is two
// indexed loads instead of a map walk. Ids beyond the StudyMeta hint (hand
// built streams) grow the arrays on demand.
//
// Shardable (trace/shardable.h): one clone per user, folded back with
// merge_from(), which steals the shard's one slab (the shard is left empty).
// A clone holds only its own user's slot, never a study-sized array.
// Determinism is by construction: study-wide double totals are stored as
// per-user partial sums and folded in user-id order at query time, so every
// thread count produces the exact same floating-point fold. accounts()
// iterates user-major, app-ascending — the same deterministic order the old
// (user << 32 | app) ordered map produced — regardless of how the ledger was
// built.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
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
  EnergyLedger() = default;
  // Copies deep-copy the per-user slabs (sweep results snapshot ledgers);
  // moves steal them.
  EnergyLedger(const EnergyLedger& other);
  EnergyLedger& operator=(const EnergyLedger& other);
  EnergyLedger(EnergyLedger&&) noexcept = default;
  EnergyLedger& operator=(EnergyLedger&&) noexcept = default;

  void on_study_begin(const trace::StudyMeta& meta) override;
  void on_batch(const trace::EventBatch& batch) override;

  // ShardableSink: one ledger clone per user shard, merged in user-id order.
  [[nodiscard]] std::unique_ptr<trace::TraceSink> clone_shard() const override;
  void merge_from(trace::TraceSink& shard) override;

  // -- fold-and-release (DESIGN.md §15) -------------------------------------
  /// Arm fold mode: fold_user() collapses each completed user's slab into
  /// running grand totals (in stream order, so the folds are bit-identical
  /// to the ascending query-time folds of an all-resident run), spills the
  /// detail accounts as a "ledger" row-group section into `spill`, and frees
  /// the slab. Detail consumers then read through an AccountCursor
  /// (energy/account_cursor.h) instead of accounts().
  void set_account_spill(AccountSpill* spill) { spill_ = spill; }
  [[nodiscard]] AccountSpill* account_spill() const { return spill_; }
  [[nodiscard]] bool fold_mode() const { return spill_ != nullptr; }
  void fold_user(trace::UserId user) override;

  /// Fold a shard ledger's accounts and per-user totals into this one. The
  /// shard's users must be disjoint from this ledger's.
  void merge(const EnergyLedger& shard);

  // CheckpointableSink: serializes the live per-user slabs (only accounts
  // with traffic) with doubles as raw bits; restore after on_study_begin
  // rebuilds a bit-identical ledger.
  void save_state(ckpt::ByteWriter& out) const override;
  [[nodiscard]] util::Status restore_state(ckpt::ByteReader& in) override;

  [[nodiscard]] const trace::StudyMeta& meta() const { return meta_; }

  /// Typed iteration over every RESIDENT (user, app) account with traffic,
  /// user-major and app-ascending. Yields const AppUserAccount& — the
  /// user/app pair is on the account itself, no packed-key unpacking
  /// anywhere. Under fold mode the folded users' slabs are gone; detail
  /// consumers use AccountCursor (energy/account_cursor.h), which replays
  /// spilled rows first and then this view — the same sequence either way.
  class AccountView;
  [[nodiscard]] AccountView accounts() const;
  /// Number of resident (user, app) accounts with traffic — accounts().size().
  [[nodiscard]] std::size_t num_accounts() const { return num_accounts_; }
  /// Accounts with traffic including folded-and-spilled ones — the length of
  /// the AccountCursor sequence.
  [[nodiscard]] std::size_t total_accounts() const { return num_accounts_ + folded_accounts_; }

  /// RESIDENT account for one (user, app); nullptr when the pair has no
  /// traffic or its user was folded.
  [[nodiscard]] const AppUserAccount* find(trace::UserId user, trace::AppId app) const;

  /// User ids with any traffic (folded users included), ascending.
  [[nodiscard]] std::vector<trace::UserId> users() const;
  /// One user's accounts with traffic, app-ascending (empty when unknown).
  [[nodiscard]] std::vector<const AppUserAccount*> user_accounts(trace::UserId user) const;

  /// Sum of accounts for `app` across all users.
  [[nodiscard]] AppUserAccount app_total(trace::AppId app) const;
  /// All app ids with any traffic, ascending.
  [[nodiscard]] std::vector<trace::AppId> apps() const;

  /// Approximate resident footprint: per-user slabs (including each
  /// account's per-day cell vector).
  [[nodiscard]] obs::MemoryUse memory_use() const override;

  // Study-wide totals, folded from per-user partials in user-id order.
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

  /// The user's slab, allocated on first touch (apps pre-sized to the
  /// StudyMeta hint; grown on demand for out-of-hint ids).
  UserState& user_state(trace::UserId user);
  /// The (user, app) account inside `state`, initialized on first touch.
  AppUserAccount& account(UserState& state, trace::UserId user, trace::AppId app);

  /// Collapse one user's slab into the folded aggregates (no spill, no
  /// release bookkeeping beyond the counters).
  void fold_slab_totals(const UserState& state);
  /// Encode the slab's live accounts as the "ledger" section payload — the
  /// decode mirror is decode_ledger_section (energy/account_cursor.h).
  void encode_slab(const UserState& state, ckpt::ByteWriter& out) const;

  trace::StudyMeta meta_;
  std::size_t num_days_ = 0;
  std::uint32_t num_apps_hint_ = 0;
  std::size_t num_accounts_ = 0;
  /// Dense per-user slabs, indexed by UserId - base_; null until the user has
  /// traffic. base_ is 0 except in a shard clone, whose single slot is its
  /// user's.
  std::vector<std::unique_ptr<UserState>> users_;
  bool shard_ = false;  ///< made by clone_shard(): one user, one slot
  trace::UserId base_ = 0;

  // -- fold-and-release state (all zero/empty outside fold mode) ------------
  AccountSpill* spill_ = nullptr;       ///< non-owning; armed by the engine
  std::uint64_t spilled_self_ = 0;      ///< bytes this ledger spilled
  std::size_t folded_accounts_ = 0;     ///< live accounts released by folds
  UserTotals folded_totals_;            ///< grand totals over folded users
  std::vector<AppUserAccount> folded_apps_;   ///< per-app totals, days empty
  std::vector<trace::UserId> folded_users_;   ///< folded users with traffic

 public:
  /// Forward iterator over live accounts: user-major, app-ascending.
  class AccountIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = AppUserAccount;
    using difference_type = std::ptrdiff_t;
    using pointer = const AppUserAccount*;
    using reference = const AppUserAccount&;

    AccountIterator() = default;
    AccountIterator(const std::vector<std::unique_ptr<UserState>>* users, std::size_t user,
                    std::size_t app)
        : users_(users), user_(user), app_(app) {
      advance_to_live();
    }

    reference operator*() const { return (*users_)[user_]->apps[app_]; }
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
      if (users_ == nullptr) return;
      for (; user_ < users_->size(); ++user_, app_ = 0) {
        const UserState* state = (*users_)[user_].get();
        if (state == nullptr) continue;
        for (; app_ < state->apps.size(); ++app_) {
          if (state->apps[app_].packets != 0) return;
        }
      }
      app_ = 0;  // one canonical end(): (users_.size(), 0)
    }

    const std::vector<std::unique_ptr<UserState>>* users_ = nullptr;
    std::size_t user_ = 0;
    std::size_t app_ = 0;
  };

  class AccountView {
   public:
    AccountView(const std::vector<std::unique_ptr<UserState>>* users, std::size_t count)
        : users_(users), count_(count) {}
    [[nodiscard]] AccountIterator begin() const { return {users_, 0, 0}; }
    [[nodiscard]] AccountIterator end() const { return {users_, users_->size(), 0}; }
    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] bool empty() const { return count_ == 0; }

   private:
    const std::vector<std::unique_ptr<UserState>>* users_;
    std::size_t count_;
  };
};

inline EnergyLedger::AccountView EnergyLedger::accounts() const {
  return AccountView{&users_, num_accounts_};
}

}  // namespace wildenergy::energy
