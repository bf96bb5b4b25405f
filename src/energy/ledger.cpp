#include "energy/ledger.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

#include "energy/account_cursor.h"
#include "energy/account_file.h"
#include "trace/batch.h"

namespace wildenergy::energy {

void EnergyLedger::on_study_begin(const trace::StudyMeta& meta) {
  meta_ = meta;
  num_days_ = static_cast<std::size_t>(std::ceil(meta.span().days()));
  num_apps_hint_ = meta.num_apps;
  num_accounts_ = 0;
  pending_.clear();
  spilled_self_ = 0;
  folded_accounts_ = 0;
  folded_totals_ = UserTotals{};
  folded_apps_.clear();
  folded_users_.clear();
}

EnergyLedger::UserState& EnergyLedger::user_state(trace::UserId user) {
  auto [it, inserted] = pending_.try_emplace(user);
  if (inserted) it->second.apps.resize(num_apps_hint_);
  return it->second;
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
  return std::make_unique<EnergyLedger>();
}

void EnergyLedger::merge_from(trace::TraceSink& shard) {
  auto& other = dynamic_cast<EnergyLedger&>(shard);
  pending_.merge(other.pending_);  // steals the shard's one slab
  assert(other.pending_.empty());  // users are disjoint
  num_accounts_ += other.num_accounts_;
  other.num_accounts_ = 0;
}

// --- account plane ---------------------------------------------------------

void EnergyLedger::set_account_spill(AccountSpill* spill) { spill_ = share_spill(spill); }

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

void EnergyLedger::encode_slab(const UserState& state, ckpt::ByteWriter& out) {
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
  if (spill_ == nullptr) return;  // unarmed: the slab stays pending
  const auto it = pending_.find(user);
  if (it == pending_.end()) return;  // no traffic: nothing held
  const UserState& state = it->second;
  // Folds run in ascending user order, so these additions are the exact
  // sequence every query-time fold over pending slabs performs.
  fold_slab_totals(state);
  if (state.totals.packets != 0) folded_users_.push_back(user);
  ckpt::ByteWriter row;
  encode_slab(state, row);
  spilled_self_ += spill_->add_section(kLedgerSection, row.bytes());
  pending_.erase(it);
}

namespace {

void put_totals(ckpt::ByteWriter& out, double joules, std::uint64_t bytes, std::uint64_t packets,
                const std::array<double, trace::kNumProcessStates>& state_joules) {
  out.put_f64(joules);
  out.put_varint(bytes);
  out.put_varint(packets);
  for (const double j : state_joules) out.put_f64(j);
}

util::Status get_totals(ckpt::ByteReader& in, double& joules, std::uint64_t& bytes,
                        std::uint64_t& packets,
                        std::array<double, trace::kNumProcessStates>& state_joules) {
  auto j = in.get_f64("ledger.totals.joules");
  if (!j.ok()) return j.status();
  joules = *j;
  auto b = in.get_varint("ledger.totals.bytes");
  if (!b.ok()) return b.status();
  bytes = *b;
  auto p = in.get_varint("ledger.totals.packets");
  if (!p.ok()) return p.status();
  packets = *p;
  for (double& s : state_joules) {
    auto v = in.get_f64("ledger.totals.state_joules");
    if (!v.ok()) return v.status();
    s = *v;
  }
  return util::Status::ok_status();
}

}  // namespace

void EnergyLedger::save_state(ckpt::ByteWriter& out) const {
  put_totals(out, folded_totals_.joules, folded_totals_.bytes, folded_totals_.packets,
             folded_totals_.state_joules);
  out.put_varint(folded_accounts_);
  out.put_varint(spilled_self_);
  out.put_varint(folded_apps_.size());
  for (const AppUserAccount& total : folded_apps_) {
    put_totals(out, total.joules, total.bytes, total.packets, total.state_joules);
  }
  out.put_varint(folded_users_.size());
  std::uint64_t prev = 0;
  for (const trace::UserId user : folded_users_) {
    out.put_varint(user - prev);
    prev = user;
  }
  // Pending slabs: ascending users, each its totals and the same encoding
  // fold_user spills.
  out.put_varint(pending_.size());
  prev = 0;
  for (const auto& [user, state] : pending_) {
    out.put_varint(user - prev);
    prev = user;
    put_totals(out, state.totals.joules, state.totals.bytes, state.totals.packets,
               state.totals.state_joules);
    ckpt::ByteWriter row;
    encode_slab(state, row);
    out.put_string(row.bytes());
  }
}

util::Status EnergyLedger::restore_state(ckpt::ByteReader& in) {
  folded_apps_.clear();
  folded_users_.clear();
  pending_.clear();
  num_accounts_ = 0;
  util::Status st = get_totals(in, folded_totals_.joules, folded_totals_.bytes,
                               folded_totals_.packets, folded_totals_.state_joules);
  if (!st.ok()) return st;
  auto accounts = in.get_varint("ledger.folded.accounts");
  if (!accounts.ok()) return accounts.status();
  folded_accounts_ = *accounts;
  auto spilled = in.get_varint("ledger.folded.spilled_bytes");
  if (!spilled.ok()) return spilled.status();
  spilled_self_ = *spilled;
  auto num_apps = in.get_varint("ledger.folded.apps");
  if (!num_apps.ok()) return num_apps.status();
  if (*num_apps > in.remaining()) {
    return util::Status::data_loss("corrupt checkpoint: implausible ledger app count " +
                                   std::to_string(*num_apps));
  }
  folded_apps_.resize(*num_apps);
  for (std::size_t app = 0; app < folded_apps_.size(); ++app) {
    AppUserAccount& total = folded_apps_[app];
    total.app = static_cast<trace::AppId>(app);
    st = get_totals(in, total.joules, total.bytes, total.packets, total.state_joules);
    if (!st.ok()) return st;
  }
  auto num_folded = in.get_varint("ledger.folded.users");
  if (!num_folded.ok()) return num_folded.status();
  if (*num_folded > in.remaining()) {
    return util::Status::data_loss("corrupt checkpoint: implausible folded user count " +
                                   std::to_string(*num_folded));
  }
  std::uint64_t user = 0;
  for (std::uint64_t i = 0; i < *num_folded; ++i) {
    auto delta = in.get_varint("ledger.folded.user");
    if (!delta.ok()) return delta.status();
    user += *delta;
    folded_users_.push_back(static_cast<trace::UserId>(user));
  }
  auto num_pending = in.get_varint("ledger.pending");
  if (!num_pending.ok()) return num_pending.status();
  user = 0;
  std::vector<AppUserAccount> accs;
  for (std::uint64_t i = 0; i < *num_pending; ++i) {
    auto delta = in.get_varint("ledger.pending.user");
    if (!delta.ok()) return delta.status();
    user += *delta;
    if (user > std::numeric_limits<trace::UserId>::max()) {
      return util::Status::data_loss("corrupt checkpoint: ledger user id out of range");
    }
    UserState& state = user_state(static_cast<trace::UserId>(user));
    st = get_totals(in, state.totals.joules, state.totals.bytes, state.totals.packets,
                    state.totals.state_joules);
    if (!st.ok()) return st;
    auto len = in.get_varint("ledger.pending.slab_bytes");
    if (!len.ok()) return len.status();
    auto payload = in.get_bytes(*len, "ledger.pending.slab");
    if (!payload.ok()) return payload.status();
    accs.clear();
    st = decode_ledger_section(static_cast<trace::UserId>(user), *payload, accs);
    if (!st.ok()) return st;
    for (AppUserAccount& acc : accs) {
      if (acc.app >= state.apps.size()) state.apps.resize(acc.app + 1);
      state.apps[acc.app] = std::move(acc);
      ++num_accounts_;
    }
  }
  return util::Status::ok_status();
}

std::vector<trace::UserId> EnergyLedger::users() const {
  std::vector<trace::UserId> out(folded_users_.begin(), folded_users_.end());
  for (const auto& [user, state] : pending_) {
    if (state.totals.packets != 0) out.push_back(user);
  }
  return out;
}

AppUserAccount EnergyLedger::app_total(trace::AppId app) const {
  AppUserAccount total;
  total.app = app;
  if (app < folded_apps_.size() && folded_apps_[app].packets != 0) {
    // Folded users contributed in ascending order; the pending loop below
    // continues that same sequence.
    const AppUserAccount& folded = folded_apps_[app];
    total.bytes = folded.bytes;
    total.packets = folded.packets;
    total.joules = folded.joules;
    total.state_joules = folded.state_joules;
  }
  for (const auto& [user, state] : pending_) {
    if (app >= state.apps.size()) continue;
    const AppUserAccount& acc = state.apps[app];
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
  for (const auto& [user, state] : pending_) {
    if (state.apps.size() > seen.size()) seen.resize(state.apps.size());
    for (const AppUserAccount& acc : state.apps) {
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
  std::uint64_t total = 0;
  for (const auto& [user, state] : pending_) {
    total += sizeof(PendingMap::value_type) + state.apps.capacity() * sizeof(AppUserAccount);
    for (const AppUserAccount& acc : state.apps) {
      total += acc.days.capacity() * sizeof(DayCell);
    }
  }
  total += folded_apps_.capacity() * sizeof(AppUserAccount) +
           folded_users_.capacity() * sizeof(trace::UserId);
  return {.resident_bytes = total, .spilled_bytes = spilled_self_};
}

double EnergyLedger::total_joules() const {
  double total = folded_totals_.joules;
  for (const auto& [user, state] : pending_) total += state.totals.joules;
  return total;
}

std::uint64_t EnergyLedger::total_bytes() const {
  std::uint64_t total = folded_totals_.bytes;
  for (const auto& [user, state] : pending_) total += state.totals.bytes;
  return total;
}

std::uint64_t EnergyLedger::total_packets() const {
  std::uint64_t total = folded_totals_.packets;
  for (const auto& [user, state] : pending_) total += state.totals.packets;
  return total;
}

std::array<double, trace::kNumProcessStates> EnergyLedger::state_totals() const {
  std::array<double, trace::kNumProcessStates> totals = folded_totals_.state_joules;
  for (const auto& [user, state] : pending_) {
    for (std::size_t s = 0; s < trace::kNumProcessStates; ++s) {
      totals[s] += state.totals.state_joules[s];
    }
  }
  return totals;
}

}  // namespace wildenergy::energy
