#include "energy/ledger.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "energy/account_file.h"
#include "trace/batch.h"

namespace wildenergy::energy {

EnergyLedger::EnergyLedger(const EnergyLedger& other) { *this = other; }

EnergyLedger& EnergyLedger::operator=(const EnergyLedger& other) {
  if (this == &other) return *this;
  meta_ = other.meta_;
  num_days_ = other.num_days_;
  num_apps_hint_ = other.num_apps_hint_;
  num_accounts_ = other.num_accounts_;
  shard_ = other.shard_;
  base_ = other.base_;
  users_.clear();
  users_.resize(other.users_.size());
  for (std::size_t user = 0; user < other.users_.size(); ++user) {
    if (other.users_[user]) users_[user] = std::make_unique<UserState>(*other.users_[user]);
  }
  spill_ = other.spill_;
  spilled_self_ = other.spilled_self_;
  folded_accounts_ = other.folded_accounts_;
  folded_totals_ = other.folded_totals_;
  folded_apps_ = other.folded_apps_;
  folded_users_ = other.folded_users_;
  return *this;
}

void EnergyLedger::on_study_begin(const trace::StudyMeta& meta) {
  meta_ = meta;
  num_days_ = static_cast<std::size_t>(std::ceil(meta.span().days()));
  num_apps_hint_ = meta.num_apps;
  num_accounts_ = 0;
  users_.clear();
  // A shard clone holds one slot — its own user's — whatever the study size.
  if (!shard_) users_.resize(meta.num_users);
  base_ = 0;
  spilled_self_ = 0;
  folded_accounts_ = 0;
  folded_totals_ = UserTotals{};
  folded_apps_.clear();
  folded_users_.clear();
}

EnergyLedger::UserState& EnergyLedger::user_state(trace::UserId user) {
  if (shard_ && users_.empty()) base_ = user;
  assert(user >= base_);  // a shard clone sees exactly one user
  const std::size_t index = user - base_;
  if (index >= users_.size()) users_.resize(index + 1);
  auto& slot = users_[index];
  if (!slot) {
    slot = std::make_unique<UserState>();
    slot->apps.resize(num_apps_hint_);
  }
  return *slot;
}

AppUserAccount& EnergyLedger::account(UserState& state, trace::UserId user,
                                      trace::AppId app) {
  if (app >= state.apps.size()) state.apps.resize(app + 1);
  AppUserAccount& acc = state.apps[app];
  if (acc.days.empty()) {
    acc.user = user;
    acc.app = app;
    acc.days.resize(std::max<std::size_t>(num_days_, 1));
    ++num_accounts_;
  }
  return acc;
}

void EnergyLedger::on_batch(const trace::EventBatch& batch) {
  if (batch.packets.empty()) return;
  // Batches lie inside one user bracket, so the user slab lookup hoists out
  // of the packet loop; the rest is indexed loads on the dense per-app
  // array. Transitions are ignored by the ledger.
  UserState& u = user_state(batch.user);
  UserTotals& totals = u.totals;
  const std::int64_t begin_us = meta_.study_begin.us;
  for (const auto& p : batch.packets) {
    AppUserAccount& acc = account(u, p.user, p.app);
    acc.bytes += p.bytes;
    acc.packets += 1;
    acc.joules += p.joules;
    acc.state_joules[static_cast<std::size_t>(p.state)] += p.joules;

    const auto day = static_cast<std::size_t>(std::clamp<std::int64_t>(
        (p.time.us - begin_us) / 86'400'000'000LL, 0,
        static_cast<std::int64_t>(acc.days.size()) - 1));
    DayCell& cell = acc.days[day];
    const bool fg = trace::is_foreground(p.state);
    (fg ? cell.fg_joules : cell.bg_joules) += p.joules;
    (fg ? cell.fg_bytes : cell.bg_bytes) += p.bytes;

    totals.joules += p.joules;
    totals.bytes += p.bytes;
    totals.packets += 1;
    totals.state_joules[static_cast<std::size_t>(p.state)] += p.joules;
  }
}

std::unique_ptr<trace::TraceSink> EnergyLedger::clone_shard() const {
  auto clone = std::make_unique<EnergyLedger>();
  clone->shard_ = true;
  return clone;
}

void EnergyLedger::merge_from(trace::TraceSink& shard) {
  auto& other = dynamic_cast<EnergyLedger&>(shard);
  for (std::size_t index = 0; index < other.users_.size(); ++index) {  // one slot
    if (!other.users_[index]) continue;
    const std::size_t user = other.base_ + index;
    if (user >= users_.size()) users_.resize(user + 1);
    assert(!users_[user]);
    users_[user] = std::move(other.users_[index]);
  }
  num_accounts_ += other.num_accounts_;
  other.num_accounts_ = 0;
}

void EnergyLedger::merge(const EnergyLedger& shard) {
  if (shard.users_.size() > users_.size()) users_.resize(shard.users_.size());
  for (std::size_t user = 0; user < shard.users_.size(); ++user) {
    if (!shard.users_[user]) continue;
    assert(!users_[user]);
    users_[user] = std::make_unique<UserState>(*shard.users_[user]);
  }
  num_accounts_ += shard.num_accounts_;
}

// --- fold-and-release ------------------------------------------------------

void EnergyLedger::fold_slab_totals(const UserState& state) {
  folded_totals_.joules += state.totals.joules;
  folded_totals_.bytes += state.totals.bytes;
  folded_totals_.packets += state.totals.packets;
  for (std::size_t s = 0; s < trace::kNumProcessStates; ++s) {
    folded_totals_.state_joules[s] += state.totals.state_joules[s];
  }
  if (state.apps.size() > folded_apps_.size()) folded_apps_.resize(state.apps.size());
  for (std::size_t app = 0; app < state.apps.size(); ++app) {
    const AppUserAccount& acc = state.apps[app];
    if (acc.packets == 0) continue;
    AppUserAccount& total = folded_apps_[app];
    total.app = static_cast<trace::AppId>(app);
    total.bytes += acc.bytes;
    total.packets += acc.packets;
    total.joules += acc.joules;
    for (std::size_t s = 0; s < trace::kNumProcessStates; ++s) {
      total.state_joules[s] += acc.state_joules[s];
    }
    ++folded_accounts_;
    --num_accounts_;
  }
}

void EnergyLedger::encode_slab(const UserState& state, ckpt::ByteWriter& out) const {
  std::uint64_t live = 0;
  for (const AppUserAccount& acc : state.apps) {
    if (acc.packets != 0) ++live;
  }
  out.put_varint(live);
  std::uint64_t prev_app = 0;
  for (const AppUserAccount& acc : state.apps) {
    if (acc.packets == 0) continue;
    out.put_varint(acc.app - prev_app);
    prev_app = acc.app;
    out.put_varint(acc.bytes);
    out.put_varint(acc.packets);
    out.put_f64(acc.joules);
    for (const double j : acc.state_joules) out.put_f64(j);
    out.put_varint(acc.days.size());
    for (const DayCell& cell : acc.days) {
      out.put_f64(cell.fg_joules);
      out.put_f64(cell.bg_joules);
      out.put_varint(cell.fg_bytes);
      out.put_varint(cell.bg_bytes);
    }
  }
}

void EnergyLedger::fold_user(trace::UserId user) {
  if (spill_ == nullptr) return;
  if (user >= users_.size() || !users_[user]) return;  // no traffic: nothing held
  const UserState& state = *users_[user];
  // Folds run in stream order (ascending user id), so these additions are
  // the exact sequence an all-resident query-time fold performs.
  fold_slab_totals(state);
  if (state.totals.packets != 0) folded_users_.push_back(user);
  ckpt::ByteWriter row;
  encode_slab(state, row);
  spilled_self_ += spill_->add_section("ledger", row.bytes());
  users_[user].reset();
}

void EnergyLedger::save_state(ckpt::ByteWriter& out) const {
  // Leading mode byte: 0 = every account resident (the historical body
  // follows unchanged); 1 = fold mode, with the folded aggregates up front
  // and the resident remainder after.
  out.put_u8(spill_ != nullptr ? 1 : 0);
  if (spill_ != nullptr) {
    out.put_f64(folded_totals_.joules);
    out.put_varint(folded_totals_.bytes);
    out.put_varint(folded_totals_.packets);
    for (const double j : folded_totals_.state_joules) out.put_f64(j);
    out.put_varint(folded_accounts_);
    out.put_varint(spilled_self_);
    out.put_varint(folded_apps_.size());
    for (const AppUserAccount& total : folded_apps_) {
      out.put_varint(total.bytes);
      out.put_varint(total.packets);
      out.put_f64(total.joules);
      for (const double j : total.state_joules) out.put_f64(j);
    }
    out.put_varint(folded_users_.size());
    std::uint64_t prev = 0;
    for (const trace::UserId user : folded_users_) {
      out.put_varint(user - prev);
      prev = user;
    }
  }
  out.put_varint(users_.size());
  for (const auto& state : users_) {
    out.put_u8(state ? 1 : 0);
    if (!state) continue;
    out.put_f64(state->totals.joules);
    out.put_varint(state->totals.bytes);
    out.put_varint(state->totals.packets);
    for (const double j : state->totals.state_joules) out.put_f64(j);
    out.put_varint(state->apps.size());
    std::uint64_t live = 0;
    for (const AppUserAccount& acc : state->apps) {
      if (!acc.days.empty()) ++live;
    }
    out.put_varint(live);
    for (std::size_t app = 0; app < state->apps.size(); ++app) {
      const AppUserAccount& acc = state->apps[app];
      if (acc.days.empty()) continue;
      out.put_varint(app);
      out.put_varint(acc.bytes);
      out.put_varint(acc.packets);
      out.put_f64(acc.joules);
      for (const double j : acc.state_joules) out.put_f64(j);
      out.put_varint(acc.days.size());
      for (const DayCell& cell : acc.days) {
        out.put_f64(cell.fg_joules);
        out.put_f64(cell.bg_joules);
        out.put_varint(cell.fg_bytes);
        out.put_varint(cell.bg_bytes);
      }
    }
  }
  out.put_varint(num_accounts_);
}

util::Status EnergyLedger::restore_state(ckpt::ByteReader& in) {
  auto mode = in.get_u8("ledger.mode");
  if (!mode.ok()) return mode.status();
  if (*mode > 1) {
    return util::Status::data_loss("corrupt checkpoint: unknown ledger mode " +
                                   std::to_string(*mode));
  }
  folded_accounts_ = 0;
  spilled_self_ = 0;
  folded_totals_ = UserTotals{};
  folded_apps_.clear();
  folded_users_.clear();
  if (*mode == 1) {
    auto joules = in.get_f64("ledger.folded.joules");
    if (!joules.ok()) return joules.status();
    folded_totals_.joules = *joules;
    auto bytes = in.get_varint("ledger.folded.bytes");
    if (!bytes.ok()) return bytes.status();
    folded_totals_.bytes = *bytes;
    auto packets = in.get_varint("ledger.folded.packets");
    if (!packets.ok()) return packets.status();
    folded_totals_.packets = *packets;
    for (double& j : folded_totals_.state_joules) {
      auto v = in.get_f64("ledger.folded.state_joules");
      if (!v.ok()) return v.status();
      j = *v;
    }
    auto accounts = in.get_varint("ledger.folded.accounts");
    if (!accounts.ok()) return accounts.status();
    folded_accounts_ = *accounts;
    auto spilled = in.get_varint("ledger.folded.spilled_bytes");
    if (!spilled.ok()) return spilled.status();
    spilled_self_ = *spilled;
    auto num_apps = in.get_varint("ledger.folded.apps");
    if (!num_apps.ok()) return num_apps.status();
    folded_apps_.resize(*num_apps);
    for (std::size_t app = 0; app < *num_apps; ++app) {
      AppUserAccount& total = folded_apps_[app];
      total.app = static_cast<trace::AppId>(app);
      auto t_bytes = in.get_varint("ledger.folded.app.bytes");
      if (!t_bytes.ok()) return t_bytes.status();
      total.bytes = *t_bytes;
      auto t_packets = in.get_varint("ledger.folded.app.packets");
      if (!t_packets.ok()) return t_packets.status();
      total.packets = *t_packets;
      auto t_joules = in.get_f64("ledger.folded.app.joules");
      if (!t_joules.ok()) return t_joules.status();
      total.joules = *t_joules;
      for (double& j : total.state_joules) {
        auto v = in.get_f64("ledger.folded.app.state_joules");
        if (!v.ok()) return v.status();
        j = *v;
      }
    }
    auto num_folded = in.get_varint("ledger.folded.users");
    if (!num_folded.ok()) return num_folded.status();
    folded_users_.reserve(*num_folded);
    std::uint64_t acc_user = 0;
    for (std::uint64_t i = 0; i < *num_folded; ++i) {
      auto delta = in.get_varint("ledger.folded.user");
      if (!delta.ok()) return delta.status();
      acc_user += *delta;
      folded_users_.push_back(static_cast<trace::UserId>(acc_user));
    }
  }
  auto num_users = in.get_varint("ledger.users");
  if (!num_users.ok()) return num_users.status();
  users_.clear();
  users_.resize(*num_users);
  for (std::size_t user = 0; user < *num_users; ++user) {
    auto present = in.get_u8("ledger.user_present");
    if (!present.ok()) return present.status();
    if (*present == 0) continue;
    auto state = std::make_unique<UserState>();
    auto joules = in.get_f64("ledger.totals.joules");
    if (!joules.ok()) return joules.status();
    state->totals.joules = *joules;
    auto bytes = in.get_varint("ledger.totals.bytes");
    if (!bytes.ok()) return bytes.status();
    state->totals.bytes = *bytes;
    auto packets = in.get_varint("ledger.totals.packets");
    if (!packets.ok()) return packets.status();
    state->totals.packets = *packets;
    for (double& j : state->totals.state_joules) {
      auto v = in.get_f64("ledger.totals.state_joules");
      if (!v.ok()) return v.status();
      j = *v;
    }
    auto slab = in.get_varint("ledger.slab_width");
    if (!slab.ok()) return slab.status();
    state->apps.resize(*slab);
    auto live = in.get_varint("ledger.live_accounts");
    if (!live.ok()) return live.status();
    for (std::uint64_t i = 0; i < *live; ++i) {
      auto app = in.get_varint("ledger.account.app");
      if (!app.ok()) return app.status();
      if (*app >= state->apps.size()) {
        return util::Status::data_loss("corrupt checkpoint: ledger account app id " +
                                       std::to_string(*app) + " outside slab of " +
                                       std::to_string(state->apps.size()));
      }
      AppUserAccount& acc = state->apps[*app];
      acc.user = static_cast<trace::UserId>(user);
      acc.app = static_cast<trace::AppId>(*app);
      auto acc_bytes = in.get_varint("ledger.account.bytes");
      if (!acc_bytes.ok()) return acc_bytes.status();
      acc.bytes = *acc_bytes;
      auto acc_packets = in.get_varint("ledger.account.packets");
      if (!acc_packets.ok()) return acc_packets.status();
      acc.packets = *acc_packets;
      auto acc_joules = in.get_f64("ledger.account.joules");
      if (!acc_joules.ok()) return acc_joules.status();
      acc.joules = *acc_joules;
      for (double& j : acc.state_joules) {
        auto v = in.get_f64("ledger.account.state_joules");
        if (!v.ok()) return v.status();
        j = *v;
      }
      auto num_days = in.get_varint("ledger.account.days");
      if (!num_days.ok()) return num_days.status();
      acc.days.resize(*num_days);
      for (DayCell& cell : acc.days) {
        auto fg_j = in.get_f64("ledger.day.fg_joules");
        if (!fg_j.ok()) return fg_j.status();
        cell.fg_joules = *fg_j;
        auto bg_j = in.get_f64("ledger.day.bg_joules");
        if (!bg_j.ok()) return bg_j.status();
        cell.bg_joules = *bg_j;
        auto fg_b = in.get_varint("ledger.day.fg_bytes");
        if (!fg_b.ok()) return fg_b.status();
        cell.fg_bytes = *fg_b;
        auto bg_b = in.get_varint("ledger.day.bg_bytes");
        if (!bg_b.ok()) return bg_b.status();
        cell.bg_bytes = *bg_b;
      }
    }
    users_[user] = std::move(state);
  }
  auto accounts = in.get_varint("ledger.num_accounts");
  if (!accounts.ok()) return accounts.status();
  num_accounts_ = *accounts;
  return util::Status::ok_status();
}

const AppUserAccount* EnergyLedger::find(trace::UserId user, trace::AppId app) const {
  if (user >= users_.size() || !users_[user]) return nullptr;
  const UserState& state = *users_[user];
  if (app >= state.apps.size() || state.apps[app].packets == 0) return nullptr;
  return &state.apps[app];
}

std::vector<trace::UserId> EnergyLedger::users() const {
  std::vector<trace::UserId> out(folded_users_.begin(), folded_users_.end());
  for (std::size_t user = 0; user < users_.size(); ++user) {
    if (users_[user] && users_[user]->totals.packets != 0) {
      out.push_back(static_cast<trace::UserId>(user));
    }
  }
  return out;
}

std::vector<const AppUserAccount*> EnergyLedger::user_accounts(trace::UserId user) const {
  std::vector<const AppUserAccount*> out;
  if (user >= users_.size() || !users_[user]) return out;
  for (const AppUserAccount& acc : users_[user]->apps) {
    if (acc.packets != 0) out.push_back(&acc);
  }
  return out;
}

AppUserAccount EnergyLedger::app_total(trace::AppId app) const {
  AppUserAccount total;
  total.app = app;
  if (app < folded_apps_.size() && folded_apps_[app].packets != 0) {
    // Folded users contributed in ascending order; the resident loop below
    // continues that same sequence, so the double sums stay bit-identical
    // to an all-resident fold.
    const AppUserAccount& folded = folded_apps_[app];
    total.bytes = folded.bytes;
    total.packets = folded.packets;
    total.joules = folded.joules;
    total.state_joules = folded.state_joules;
  }
  for (const auto& state : users_) {
    if (!state || app >= state->apps.size()) continue;
    const AppUserAccount& acc = state->apps[app];
    if (acc.packets == 0) continue;
    total.bytes += acc.bytes;
    total.packets += acc.packets;
    total.joules += acc.joules;
    for (std::size_t s = 0; s < trace::kNumProcessStates; ++s) {
      total.state_joules[s] += acc.state_joules[s];
    }
  }
  return total;
}

std::vector<trace::AppId> EnergyLedger::apps() const {
  std::vector<bool> seen(folded_apps_.size());
  for (std::size_t app = 0; app < folded_apps_.size(); ++app) {
    if (folded_apps_[app].packets != 0) seen[app] = true;
  }
  for (const auto& state : users_) {
    if (!state) continue;
    if (state->apps.size() > seen.size()) seen.resize(state->apps.size());
    for (const AppUserAccount& acc : state->apps) {
      if (acc.packets != 0) seen[acc.app] = true;
    }
  }
  std::vector<trace::AppId> out;
  for (std::size_t app = 0; app < seen.size(); ++app) {
    if (seen[app]) out.push_back(static_cast<trace::AppId>(app));
  }
  return out;
}

obs::MemoryUse EnergyLedger::memory_use() const {
  std::uint64_t total = users_.capacity() * sizeof(users_[0]);
  for (const auto& state : users_) {
    if (!state) continue;
    total += sizeof(UserState) + state->apps.capacity() * sizeof(AppUserAccount);
    for (const AppUserAccount& acc : state->apps) {
      total += acc.days.capacity() * sizeof(DayCell);
    }
  }
  total += folded_apps_.capacity() * sizeof(AppUserAccount) +
           folded_users_.capacity() * sizeof(trace::UserId);
  return {.resident_bytes = total, .spilled_bytes = spilled_self_};
}

double EnergyLedger::total_joules() const {
  double total = folded_totals_.joules;
  for (const auto& state : users_) {
    if (state) total += state->totals.joules;
  }
  return total;
}

std::uint64_t EnergyLedger::total_bytes() const {
  std::uint64_t total = folded_totals_.bytes;
  for (const auto& state : users_) {
    if (state) total += state->totals.bytes;
  }
  return total;
}

std::uint64_t EnergyLedger::total_packets() const {
  std::uint64_t total = folded_totals_.packets;
  for (const auto& state : users_) {
    if (state) total += state->totals.packets;
  }
  return total;
}

std::array<double, trace::kNumProcessStates> EnergyLedger::state_totals() const {
  std::array<double, trace::kNumProcessStates> totals = folded_totals_.state_joules;
  for (const auto& state : users_) {
    if (!state) continue;
    for (std::size_t s = 0; s < trace::kNumProcessStates; ++s) {
      totals[s] += state->totals.state_joules[s];
    }
  }
  return totals;
}

}  // namespace wildenergy::energy
