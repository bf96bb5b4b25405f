// User diversity metrics (Fig. 1 discussion).
//
// "While a handful of apps are popular among all users (e.g., the built-in
//  media player, Facebook, and Google Play), users' top-ten lists otherwise
//  exhibit significant diversity."
//
// Quantifies that: pairwise Jaccard similarity of users' top-N app sets and
// the count of apps unique to a single user's list.
#pragma once

#include <cstddef>
#include <vector>

#include "energy/ledger.h"
#include "util/status.h"

namespace wildenergy::analysis {

struct DiversityResult {
  std::size_t users = 0;
  double mean_pairwise_jaccard = 0.0;  ///< 1.0 = identical top-N lists
  double min_pairwise_jaccard = 1.0;
  double max_pairwise_jaccard = 0.0;
  /// Apps appearing in exactly one user's top-N (the long tail of Fig. 1).
  std::size_t single_user_apps = 0;
  /// Apps appearing in every user's top-N (the universal handful).
  std::size_t universal_apps = 0;
};

/// Top-N per user is ranked by total data consumption, as in Fig. 1. Reads
/// detail rows through an AccountCursor (folded or pending, identical
/// results); a missing or corrupt account image latches the first error in
/// `status`.
[[nodiscard]] DiversityResult top_n_diversity(const energy::EnergyLedger& ledger,
                                              std::size_t top_n = 10,
                                              util::Status* status = nullptr);

}  // namespace wildenergy::analysis
