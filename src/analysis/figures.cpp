#include "analysis/figures.h"

#include <algorithm>
#include <map>

#include "energy/account_cursor.h"

namespace wildenergy::analysis {

std::vector<PopularityEntry> top10_popularity(const energy::EnergyLedger& ledger,
                                              std::uint32_t min_users, std::size_t top_n,
                                              util::Status* status) {
  // Per user: rank apps by bytes, take the top N. The cursor hands each
  // user's accounts together whether they are folded or pending.
  std::map<trace::AppId, std::uint32_t> counts;
  util::Status st = energy::for_each_user_accounts(
      ledger, [&](trace::UserId, std::span<const energy::AppUserAccount> accounts) {
        std::vector<const energy::AppUserAccount*> ranked;
        ranked.reserve(accounts.size());
        for (const auto& acc : accounts) ranked.push_back(&acc);
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto* a, const auto* b) { return a->bytes > b->bytes; });
        const std::size_t n = std::min(top_n, ranked.size());
        for (std::size_t i = 0; i < n; ++i) counts[ranked[i]->app]++;
      });
  if (status != nullptr) status->update(st);

  std::vector<PopularityEntry> out;
  for (const auto& [app, count] : counts) {
    if (count >= min_users) out.push_back({app, count});
  }
  std::sort(out.begin(), out.end(), [](const PopularityEntry& a, const PopularityEntry& b) {
    return a.users_with_app_in_top10 != b.users_with_app_in_top10
               ? a.users_with_app_in_top10 > b.users_with_app_in_top10
               : a.app < b.app;
  });
  return out;
}

namespace {
std::vector<ConsumerEntry> all_consumers(const energy::EnergyLedger& ledger) {
  std::vector<ConsumerEntry> out;
  for (trace::AppId app : ledger.apps()) {
    const auto total = ledger.app_total(app);
    out.push_back({app, total.bytes, total.joules});
  }
  return out;
}
}  // namespace

std::vector<ConsumerEntry> top_consumers_by_data(const energy::EnergyLedger& ledger,
                                                 std::size_t top_n) {
  auto out = all_consumers(ledger);
  std::sort(out.begin(), out.end(),
            [](const ConsumerEntry& a, const ConsumerEntry& b) { return a.bytes > b.bytes; });
  if (out.size() > top_n) out.resize(top_n);
  return out;
}

std::vector<ConsumerEntry> top_consumers_by_energy(const energy::EnergyLedger& ledger,
                                                   std::size_t top_n) {
  auto out = all_consumers(ledger);
  std::sort(out.begin(), out.end(),
            [](const ConsumerEntry& a, const ConsumerEntry& b) { return a.joules > b.joules; });
  if (out.size() > top_n) out.resize(top_n);
  return out;
}

namespace {
StateBreakdown breakdown_from(const energy::AppUserAccount& acc) {
  StateBreakdown out;
  out.app = acc.app;
  out.total_joules = acc.joules;
  if (acc.joules > 0.0) {
    for (std::size_t s = 0; s < trace::kNumProcessStates; ++s) {
      out.fraction[s] = acc.state_joules[s] / acc.joules;
    }
  }
  return out;
}
}  // namespace

StateBreakdown state_breakdown(const energy::EnergyLedger& ledger, trace::AppId app) {
  return breakdown_from(ledger.app_total(app));
}

StateBreakdown overall_state_breakdown(const energy::EnergyLedger& ledger) {
  energy::AppUserAccount total;
  total.app = trace::kNoApp;
  total.joules = ledger.total_joules();
  total.state_joules = ledger.state_totals();
  return breakdown_from(total);
}

}  // namespace wildenergy::analysis
