// AccountCursor: the one detail-row read path over the account plane
// (DESIGN.md §15).
//
// Every run folds each completed user: the ledger collapses the user's
// (user, app) slabs into running aggregates and spills the detail rows
// through its AccountSpill (files, or in-memory images without a
// directory). Consumers (what-if replays, per-user figures, diversity
// counts) iterate an AccountCursor: it yields every account with traffic,
// user-major and app-ascending, replaying the folded row groups first (they
// are the ascending prefix) and the ledger's pending rows after — the users
// fed or merged but not yet folded. The sequence is the same however far
// the folds got, which is what keeps figures and reports bit-identical
// across account directories, checkpoints and thread counts.
//
// Usage:
//   AccountCursor cursor{ledger};
//   while (const AppUserAccount* acc = cursor.next()) { ... }
//   if (!cursor.status().ok()) { /* missing or corrupt account image */ }
//
// next() returns nullptr at end OR on a decode error — always check
// status() after the loop. Folded rows decode into cursor-owned scratch,
// invalidated by the following next() call.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "energy/account_file.h"
#include "energy/ledger.h"
#include "util/status.h"

namespace wildenergy::energy {

/// Section name the ledger spills its per-user detail accounts under.
inline constexpr const char* kLedgerSection = "ledger";

/// Decode one "ledger" row-group section back into accounts (the exact
/// mirror of EnergyLedger's fold-time encoding). Appends to `out`.
[[nodiscard]] util::Status decode_ledger_section(trace::UserId user, std::string_view payload,
                                                 std::vector<AppUserAccount>& out);

class AccountCursor {
 public:
  /// Binds to `ledger`: the sealed images of its AccountSpill are opened up
  /// front (open errors surface through status() and the cursor yields
  /// nothing).
  explicit AccountCursor(const EnergyLedger& ledger);

  /// The next account with traffic, or nullptr when exhausted (or when a
  /// folded row failed to decode — check status()). Folded returns point
  /// into cursor scratch and are invalidated by the next call.
  [[nodiscard]] const AppUserAccount* next();

  /// OK unless an account image was missing or failed to open or decode.
  [[nodiscard]] const util::Status& status() const { return status_; }

 private:
  /// Refill decoded_ with the next folded row group; false when folded
  /// rows are exhausted (or an error latched).
  [[nodiscard]] bool refill_from_spill();

  const EnergyLedger& ledger_;
  util::Status status_;

  AccountReader reader_;
  bool spill_done_ = false;
  std::size_t file_idx_ = 0;
  std::size_t row_idx_ = 0;
  std::vector<AppUserAccount> decoded_;  ///< decoded current row group
  std::size_t decoded_pos_ = 0;

  bool pending_started_ = false;
  EnergyLedger::AccountIterator pending_it_;
  EnergyLedger::AccountIterator pending_end_;
};

/// User-grouped iteration for consumers that need one user's accounts
/// together (per-user energy figures, app-diversity counts, what-if
/// percentiles): cb(user, accounts) fires once per user with traffic, in
/// the cursor order (folded prefix, then pending), with that user's
/// accounts app-ascending. The span is only valid inside the callback.
[[nodiscard]] util::Status for_each_user_accounts(
    const EnergyLedger& ledger,
    const std::function<void(trace::UserId, std::span<const AppUserAccount>)>& cb);

}  // namespace wildenergy::energy
