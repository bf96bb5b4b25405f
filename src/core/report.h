// Energy report card: the "new app management tools" the paper calls for.
//
// "We propose that these persistent, widespread and varied sources of
//  excessive energy consumption in popular apps should be addressed through
//  new app management tools that tailor network activity to user
//  interaction patterns." (abstract)
//
// Report::build turns a completed study (ledger + optional per-app
// analyses) into a per-app diagnosis with actionable findings:
//   kEnergyHog            top-decile total network energy
//   kInefficientTransfers high energy per byte (small periodic transfers)
//   kBackgroundDominated  most energy in background states
//   kLeakSuspect          traffic persists after minimize (needs persistence)
//   kKillCandidate        §5: idle-kill would recover a large share
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "analysis/persistence.h"
#include "appmodel/catalog.h"
#include "energy/ledger.h"
#include "util/status.h"

namespace wildenergy::core {

enum class Finding : std::uint8_t {
  kEnergyHog,
  kInefficientTransfers,
  kBackgroundDominated,
  kLeakSuspect,
  kKillCandidate,
};

[[nodiscard]] constexpr const char* to_string(Finding f) {
  switch (f) {
    case Finding::kEnergyHog: return "energy-hog";
    case Finding::kInefficientTransfers: return "inefficient-transfers";
    case Finding::kBackgroundDominated: return "background-dominated";
    case Finding::kLeakSuspect: return "leak-suspect";
    case Finding::kKillCandidate: return "kill-candidate";
  }
  return "?";
}

struct AppDiagnosis {
  trace::AppId app = 0;
  std::string name;
  double joules = 0.0;
  std::uint64_t bytes = 0;
  double micro_joules_per_byte = 0.0;
  double background_fraction = 0.0;
  double kill_savings_pct = 0.0;  ///< §5 estimate at the configured idle days
  std::vector<Finding> findings;
  std::string recommendation;  ///< paper-§6-style advice

  [[nodiscard]] bool has(Finding f) const {
    for (Finding g : findings) {
      if (g == f) return true;
    }
    return false;
  }
};

struct ReportOptions {
  std::size_t max_apps = 20;          ///< report the top-N apps by energy
  double inefficiency_uj_per_byte = 50.0;
  double background_threshold = 0.5;
  double kill_savings_threshold_pct = 25.0;
  std::int64_t idle_days = 3;
  double leak_persist_fraction = 0.05;  ///< >=5% of transitions persist >10 min
  std::uint64_t min_bytes = 100'000;    ///< ignore apps below this traffic
};

struct Report {
  std::vector<AppDiagnosis> apps;  ///< ordered by energy, descending
  double total_joules = 0.0;
  double background_fraction = 0.0;
  /// First error reading the folded account detail rows; the report still
  /// covers whatever decoded cleanly.
  util::Status account_status;

  /// Build from a completed study. `persistence` (if provided) enables the
  /// leak-suspect finding; pass the same instance that consumed the stream.
  [[nodiscard]] static Report build(const energy::EnergyLedger& ledger,
                                    const appmodel::AppCatalog& catalog,
                                    analysis::PersistenceAnalysis* persistence = nullptr,
                                    const ReportOptions& options = {});

  /// Human-readable rendering (tables + per-app recommendations).
  void print(std::ostream& os) const;
};

}  // namespace wildenergy::core
