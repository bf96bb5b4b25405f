// §5 / Table 2: what-if analysis — preemptively killing idle background apps.
//
// Row A: fraction of (traffic) days where an app produced only background
//        traffic. Row B: longest run of consecutive such days bounded by
//        foreground-traffic days. Row C: average per-user % of the app's
//        network energy that disappears if the OS suppresses its background
//        traffic once the app has been idle for `idle_days` consecutive days.
//
// These are day-granularity computations over the ledger's detail rows,
// read through an AccountCursor (energy/account_cursor.h) so they work
// unchanged — and bit-identically — whether the accounts are folded into
// account images or still pending (DESIGN.md §15). The exact packet-level
// counterpart (re-running attribution with a policy filter in the stream)
// lives in core/policy.h, and bench/table2_whatif compares both.
//
// All entry points take an optional Status out-param: a corrupt account
// file latches the first decode error there (the returned figures then
// cover only the rows decoded before the error).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "energy/ledger.h"
#include "util/status.h"

namespace wildenergy::analysis {

struct WhatIfRow {
  trace::AppId app = 0;
  std::uint32_t users_with_app = 0;
  double pct_days_background_only = 0.0;  ///< row A
  std::int64_t max_consecutive_bg_days = 0;  ///< row B
  double pct_energy_saved = 0.0;          ///< row C (avg across users)
  double saved_joules = 0.0;
  double total_joules = 0.0;
};

/// Compute the Table 2 row for one app.
[[nodiscard]] WhatIfRow whatif_kill_after(const energy::EnergyLedger& ledger, trace::AppId app,
                                          std::int64_t idle_days = 3,
                                          util::Status* status = nullptr);

/// Table 2 rows for several apps in ONE pass over the account rows (each
/// pass replays the folded account images, so per-app calls in a loop
/// would re-read them once per app). Rows come back in `apps` order.
[[nodiscard]] std::vector<WhatIfRow> whatif_kill_after_all(const energy::EnergyLedger& ledger,
                                                           std::span<const trace::AppId> apps,
                                                           std::int64_t idle_days = 3,
                                                           util::Status* status = nullptr);

struct OverallWhatIf {
  double saved_joules = 0.0;
  double total_joules = 0.0;
  /// Paper: "total network energy savings of less than 1% on average".
  [[nodiscard]] double pct_saved() const {
    return total_joules > 0 ? 100.0 * saved_joules / total_joules : 0.0;
  }
};
/// Apply the kill-after policy to every app and sum the savings.
[[nodiscard]] OverallWhatIf whatif_overall(const energy::EnergyLedger& ledger,
                                           std::int64_t idle_days = 3,
                                           util::Status* status = nullptr);

/// Paper: "for the users running Weibo, disabling Weibo alone after just
/// three days of inactivity could have reduced their total network energy
/// consumption by 16% on those days". Savings from suppressing `app`,
/// relative to the affected users' *whole-device* energy on the affected
/// days.
[[nodiscard]] double pct_saved_on_affected_days(const energy::EnergyLedger& ledger,
                                                trace::AppId app, std::int64_t idle_days = 3,
                                                util::Status* status = nullptr);

}  // namespace wildenergy::analysis
