// Test helper: the one ledger equality check.
//
// Every run folds its users, so a pipeline's ledger ends with no pending
// accounts and accounts() is empty. Both ledgers are therefore read through
// AccountCursor — folded rows first, then pending ones — which sees every
// account however far the folds got. The check also refuses to pass on two
// empty sequences.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "energy/account_cursor.h"
#include "energy/ledger.h"

namespace wildenergy {

/// Every account of `ledger` in cursor order (user-major, app-ascending);
/// the cursor must finish with an OK status.
inline std::vector<energy::AppUserAccount> cursor_accounts(const energy::EnergyLedger& ledger) {
  std::vector<energy::AppUserAccount> out;
  energy::AccountCursor cursor{ledger};
  while (const energy::AppUserAccount* acc = cursor.next()) out.push_back(*acc);
  EXPECT_TRUE(cursor.status().ok()) << cursor.status().to_string();
  return out;
}

/// Two account sequences equal row by row, every field exact (never NEAR).
inline void expect_identical_rows(const std::vector<energy::AppUserAccount>& a,
                                  const std::vector<energy::AppUserAccount>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    ASSERT_EQ(a[i].user, b[i].user);  // same deterministic user-major order
    ASSERT_EQ(a[i].app, b[i].app);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].packets, b[i].packets);
    EXPECT_EQ(a[i].joules, b[i].joules);
    for (std::size_t s = 0; s < a[i].state_joules.size(); ++s) {
      EXPECT_EQ(a[i].state_joules[s], b[i].state_joules[s]);
    }
    ASSERT_EQ(a[i].days.size(), b[i].days.size());
    for (std::size_t d = 0; d < a[i].days.size(); ++d) {
      EXPECT_EQ(a[i].days[d].fg_joules, b[i].days[d].fg_joules);
      EXPECT_EQ(a[i].days[d].bg_joules, b[i].days[d].bg_joules);
      EXPECT_EQ(a[i].days[d].fg_bytes, b[i].days[d].fg_bytes);
      EXPECT_EQ(a[i].days[d].bg_bytes, b[i].days[d].bg_bytes);
    }
  }
}

/// Exact equality of two ledgers: totals, per-state totals, and every
/// account row. Fails when the ledgers hold no accounts at all.
inline void expect_identical_ledgers(const energy::EnergyLedger& a,
                                     const energy::EnergyLedger& b) {
  EXPECT_EQ(a.total_joules(), b.total_joules());
  EXPECT_EQ(a.total_bytes(), b.total_bytes());
  EXPECT_EQ(a.total_packets(), b.total_packets());
  const auto a_states = a.state_totals();
  const auto b_states = b.state_totals();
  for (std::size_t s = 0; s < a_states.size(); ++s) EXPECT_EQ(a_states[s], b_states[s]);
  ASSERT_EQ(a.total_accounts(), b.total_accounts());
  const auto a_rows = cursor_accounts(a);
  ASSERT_FALSE(a_rows.empty()) << "vacuous comparison: the ledgers hold no accounts";
  ASSERT_EQ(a_rows.size(), a.total_accounts());
  expect_identical_rows(a_rows, cursor_accounts(b));
}

}  // namespace wildenergy
