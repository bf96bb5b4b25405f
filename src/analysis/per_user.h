// Per-user energy summaries: the view a device battery screen (or the §6
// "OS feedback on background energy consumption" proposal) would present.
#pragma once

#include <vector>

#include "energy/ledger.h"
#include "power/battery.h"
#include "util/status.h"

namespace wildenergy::analysis {

struct UserSummary {
  trace::UserId user = 0;
  double joules = 0.0;
  std::uint64_t bytes = 0;
  double background_fraction = 0.0;
  /// Top apps by energy for this user, descending.
  std::vector<trace::AppId> top_apps;

  [[nodiscard]] double joules_per_day(double study_days) const {
    return study_days > 0 ? joules / study_days : 0.0;
  }
  /// Battery %/day this user's network traffic costs (study device).
  [[nodiscard]] double battery_pct_per_day(double study_days,
                                           power::BatteryParams battery = {}) const {
    return power::battery_percent_per_day(joules, study_days, battery);
  }
};

/// One summary per user with any traffic, ordered by user id. Reads the
/// detail rows through an AccountCursor, so it works identically however
/// far the ledger folded; a missing or corrupt account image latches the
/// first error in `status`.
[[nodiscard]] std::vector<UserSummary> per_user_summaries(const energy::EnergyLedger& ledger,
                                                          std::size_t top_apps = 5,
                                                          util::Status* status = nullptr);

}  // namespace wildenergy::analysis
