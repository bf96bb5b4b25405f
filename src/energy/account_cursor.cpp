#include "energy/account_cursor.h"

namespace wildenergy::energy {

util::Status decode_ledger_section(trace::UserId user, std::string_view payload,
                                   std::vector<AppUserAccount>& out) {
  ckpt::ByteReader in{payload};
  const auto live = in.get_varint("account ledger live count");
  if (!live.ok()) return live.status();
  if (*live > payload.size()) {
    return util::Status::data_loss("account ledger row for user " + std::to_string(user) +
                                   ": implausible account count " + std::to_string(*live));
  }
  out.reserve(out.size() + static_cast<std::size_t>(*live));
  std::uint64_t prev_app = 0;
  for (std::uint64_t i = 0; i < *live; ++i) {
    AppUserAccount acc;
    acc.user = user;
    const auto app_delta = in.get_varint("account ledger app");
    if (!app_delta.ok()) return app_delta.status();
    prev_app += *app_delta;
    if (prev_app > trace::kNoApp) {
      return util::Status::data_loss("account ledger row for user " + std::to_string(user) +
                                     ": app id " + std::to_string(prev_app) + " out of range");
    }
    acc.app = static_cast<trace::AppId>(prev_app);
    const auto bytes = in.get_varint("account ledger bytes");
    if (!bytes.ok()) return bytes.status();
    acc.bytes = *bytes;
    const auto packets = in.get_varint("account ledger packets");
    if (!packets.ok()) return packets.status();
    acc.packets = *packets;
    const auto joules = in.get_f64("account ledger joules");
    if (!joules.ok()) return joules.status();
    acc.joules = *joules;
    for (double& j : acc.state_joules) {
      const auto v = in.get_f64("account ledger state joules");
      if (!v.ok()) return v.status();
      j = *v;
    }
    const auto num_days = in.get_varint("account ledger days");
    if (!num_days.ok()) return num_days.status();
    if (*num_days > in.remaining()) {
      return util::Status::data_loss("account ledger row for user " + std::to_string(user) +
                                     ": implausible day count " + std::to_string(*num_days));
    }
    acc.days.resize(static_cast<std::size_t>(*num_days));
    for (DayCell& cell : acc.days) {
      const auto fg_j = in.get_f64("account ledger day fg joules");
      if (!fg_j.ok()) return fg_j.status();
      cell.fg_joules = *fg_j;
      const auto bg_j = in.get_f64("account ledger day bg joules");
      if (!bg_j.ok()) return bg_j.status();
      cell.bg_joules = *bg_j;
      const auto fg_b = in.get_varint("account ledger day fg bytes");
      if (!fg_b.ok()) return fg_b.status();
      cell.fg_bytes = *fg_b;
      const auto bg_b = in.get_varint("account ledger day bg bytes");
      if (!bg_b.ok()) return bg_b.status();
      cell.bg_bytes = *bg_b;
    }
    out.push_back(std::move(acc));
  }
  if (!in.at_end()) {
    return util::Status::data_loss("account ledger row for user " + std::to_string(user) +
                                   ": trailing bytes at offset " + std::to_string(in.offset()));
  }
  return util::Status::ok_status();
}

AccountCursor::AccountCursor(const EnergyLedger& ledger) : ledger_(ledger) {
  status_ = reader_.open(ledger.account_spill());
  if (!status_.ok()) spill_done_ = true;
}

bool AccountCursor::refill_from_spill() {
  decoded_.clear();
  decoded_pos_ = 0;
  const auto& files = reader_.files();
  while (file_idx_ < files.size()) {
    const MappedAccountFile& file = *files[file_idx_];
    const int name_id = file.find_name(kLedgerSection);
    while (row_idx_ < file.rows().size()) {
      const AccountUserRow& row = file.rows()[row_idx_];
      ++row_idx_;
      const AccountSectionRef* section = file.find_section(row, name_id);
      if (section == nullptr) continue;  // user folded with no ledger detail
      util::Status st = decode_ledger_section(row.user, file.payload(*section), decoded_);
      if (!st.ok()) {
        status_ = std::move(st);
        spill_done_ = true;
        return false;
      }
      if (!decoded_.empty()) return true;
    }
    ++file_idx_;
    row_idx_ = 0;
  }
  spill_done_ = true;
  return false;
}

const AppUserAccount* AccountCursor::next() {
  while (!spill_done_) {
    if (decoded_pos_ < decoded_.size()) return &decoded_[decoded_pos_++];
    if (!refill_from_spill()) break;
  }
  if (!status_.ok()) return nullptr;
  if (!pending_started_) {
    pending_started_ = true;
    const auto view = ledger_.accounts();
    pending_it_ = view.begin();
    pending_end_ = view.end();
  }
  if (pending_it_ == pending_end_) return nullptr;
  const AppUserAccount* acc = &*pending_it_;
  ++pending_it_;
  return acc;
}

util::Status for_each_user_accounts(
    const EnergyLedger& ledger,
    const std::function<void(trace::UserId, std::span<const AppUserAccount>)>& cb) {
  // Folded prefix: one row group per folded user, already app-ascending.
  AccountReader reader;
  util::Status st = reader.open(ledger.account_spill());
  if (!st.ok()) return st;
  std::vector<AppUserAccount> group;
  for (const auto& file : reader.files()) {
    const int name_id = file->find_name(kLedgerSection);
    for (const AccountUserRow& row : file->rows()) {
      const AccountSectionRef* section = file->find_section(row, name_id);
      if (section == nullptr) continue;
      group.clear();
      st = decode_ledger_section(row.user, file->payload(*section), group);
      if (!st.ok()) return st;
      if (!group.empty()) cb(row.user, group);
    }
  }
  // Pending remainder, user-major app-ascending.
  group.clear();
  trace::UserId current = 0;
  for (const AppUserAccount& acc : ledger.accounts()) {
    if (!group.empty() && acc.user != current) {
      cb(current, group);
      group.clear();
    }
    current = acc.user;
    group.push_back(acc);
  }
  if (!group.empty()) cb(current, group);
  return util::Status::ok_status();
}

}  // namespace wildenergy::energy
