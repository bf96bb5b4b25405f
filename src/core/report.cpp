#include "core/report.h"

#include <algorithm>
#include <ostream>

#include "analysis/figures.h"
#include "analysis/whatif.h"
#include "util/table.h"

namespace wildenergy::core {

namespace {

std::string make_recommendation(const AppDiagnosis& d) {
  // Ordered by severity; mirrors the paper's §6 recommendations.
  if (d.has(Finding::kLeakSuspect)) {
    return "terminate network transfers when the app is minimized (§4.1/§6)";
  }
  if (d.has(Finding::kKillCandidate)) {
    return "rarely used: OS should suppress background traffic after idle days (§5)";
  }
  if (d.has(Finding::kInefficientTransfers)) {
    return "batch background updates; lengthen the update period (§4.2/§6)";
  }
  if (d.has(Finding::kBackgroundDominated)) {
    return "audit background schedule against actual user interaction (§6)";
  }
  if (d.has(Finding::kEnergyHog)) {
    return "heavy but proportionate; consider WiFi offload or fast dormancy (§6)";
  }
  return "no action needed";
}

}  // namespace

Report Report::build(const energy::EnergyLedger& ledger, const appmodel::AppCatalog& catalog,
                     analysis::PersistenceAnalysis* persistence, const ReportOptions& options) {
  Report report;
  report.total_joules = ledger.total_joules();
  report.background_fraction =
      analysis::overall_state_breakdown(ledger).background_fraction();

  // Rank apps by energy; the hog threshold is the top decile's floor.
  std::vector<energy::AppUserAccount> totals;
  for (trace::AppId app : ledger.apps()) {
    auto total = ledger.app_total(app);
    if (total.bytes >= options.min_bytes) totals.push_back(std::move(total));
  }
  std::sort(totals.begin(), totals.end(),
            [](const auto& a, const auto& b) { return a.joules > b.joules; });
  const double hog_floor =
      totals.empty() ? 0.0 : totals[std::min(totals.size() - 1, totals.size() / 10)].joules;

  const std::size_t n = std::min(options.max_apps, totals.size());

  // One account-cursor pass for every reported app's §5 kill estimate: each
  // pass replays the folded account images, so the per-app convenience call
  // would re-read them max_apps times.
  std::vector<trace::AppId> report_apps;
  report_apps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) report_apps.push_back(totals[i].app);
  const std::vector<analysis::WhatIfRow> whatif_rows = analysis::whatif_kill_after_all(
      ledger, report_apps, options.idle_days, &report.account_status);

  report.apps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& acc = totals[i];
    AppDiagnosis d;
    d.app = acc.app;
    d.name = catalog.name(acc.app);
    d.joules = acc.joules;
    d.bytes = acc.bytes;
    d.micro_joules_per_byte =
        acc.bytes > 0 ? acc.joules / static_cast<double>(acc.bytes) * 1e6 : 0.0;
    d.background_fraction = acc.joules > 0 ? acc.background_joules() / acc.joules : 0.0;
    d.kill_savings_pct = whatif_rows[i].pct_energy_saved;

    if (acc.joules >= hog_floor && hog_floor > 0) d.findings.push_back(Finding::kEnergyHog);
    if (d.micro_joules_per_byte >= options.inefficiency_uj_per_byte) {
      d.findings.push_back(Finding::kInefficientTransfers);
    }
    if (d.background_fraction >= options.background_threshold) {
      d.findings.push_back(Finding::kBackgroundDominated);
    }
    if (persistence != nullptr && d.background_fraction < options.background_threshold + 0.1) {
      // Leaks are surprising only for apps expected to be foreground-driven
      // (§4.1 "apps such as browsers are expected to mainly transmit data
      // when the app is in the foreground"); periodic-heavy apps trip the
      // background-dominated finding instead.
      const double persisting =
          persistence->fraction_persisting_longer_than(acc.app, minutes(10.0));
      if (persisting >= options.leak_persist_fraction) {
        d.findings.push_back(Finding::kLeakSuspect);
      }
    }
    if (d.kill_savings_pct >= options.kill_savings_threshold_pct) {
      d.findings.push_back(Finding::kKillCandidate);
    }
    d.recommendation = make_recommendation(d);
    report.apps.push_back(std::move(d));
  }
  if (persistence != nullptr) report.account_status.update(persistence->hydrate_status());
  return report;
}

void Report::print(std::ostream& os) const {
  os << "=== Network energy report card ===\n"
     << "total network energy: " << fmt(total_joules / 1e3, 1) << " kJ, background share "
     << fmt(100.0 * background_fraction, 1) << "%\n\n";

  TextTable table({"app", "energy kJ", "data", "uJ/B", "bg %", "kill-3d saves %", "findings"});
  for (const auto& d : apps) {
    std::string findings;
    for (Finding f : d.findings) {
      if (!findings.empty()) findings += ", ";
      findings += to_string(f);
    }
    table.add_row({d.name, fmt(d.joules / 1e3, 2), fmt_bytes(static_cast<double>(d.bytes)),
                   fmt(d.micro_joules_per_byte, 1), fmt(100.0 * d.background_fraction, 0),
                   fmt(d.kill_savings_pct, 0), findings.empty() ? "-" : findings});
  }
  table.print(os);

  os << "\nrecommendations:\n";
  for (const auto& d : apps) {
    if (d.findings.empty()) continue;
    os << "  " << d.name << ": " << d.recommendation << "\n";
  }
}

}  // namespace wildenergy::core
