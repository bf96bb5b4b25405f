#include "energy/account_file.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

namespace wildenergy::energy {

namespace fs = std::filesystem;

namespace {

/// Pending-writer size that triggers a seal when no budget is configured.
constexpr std::uint64_t kDefaultFlushBytes = 64ull << 20;

/// accounts_00000042.weac -> 42; 0 when the name doesn't follow the pattern.
std::uint64_t parse_account_seq(const std::string& name) {
  const std::size_t under = name.find('_');
  const std::size_t dot = name.rfind('.');
  if (under == std::string::npos || dot == std::string::npos || dot <= under + 1) return 0;
  if (name.substr(dot) != ".weac") return 0;
  std::uint64_t seq = 0;
  for (std::size_t i = under + 1; i < dot; ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    seq = seq * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return seq;
}

util::Status write_file_atomic(const std::string& dir, const std::string& name,
                               std::string_view bytes) {
  std::error_code ec;
  fs::create_directories(dir, ec);  // best effort; the open below diagnoses
  const fs::path tmp = fs::path(dir) / (name + ".tmp");
  const fs::path final_path = fs::path(dir) / name;
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) return util::Status::internal("cannot open '" + tmp.string() + "' for writing");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) return util::Status::internal("cannot write '" + tmp.string() + "'");
  }
  fs::rename(tmp, final_path, ec);
  if (ec) {
    return util::Status::internal("cannot rename '" + tmp.string() + "' into place: " +
                                  ec.message());
  }
  return util::Status::ok_status();
}

/// (seq, name) of every account file under `dir`, ascending by seq.
std::vector<std::pair<std::uint64_t, std::string>> list_account_files(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const std::uint64_t seq = parse_account_seq(name);
    if (seq != 0) found.emplace_back(seq, name);
  }
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

std::string account_file_name(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "accounts_%08llu.weac", static_cast<unsigned long long>(seq));
  return buf;
}

// --- AccountFileWriter -----------------------------------------------------

AccountFileWriter::AccountFileWriter() {
  body_.put_bytes({kAccountMagic, sizeof kAccountMagic});
  body_.put_u8(kAccountVersion);
}

std::uint32_t AccountFileWriter::name_id(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void AccountFileWriter::begin_user(trace::UserId user) {
  groups_.push_back({user, {}});
  in_user_ = true;
}

std::size_t AccountFileWriter::add_section(std::string_view name, std::string_view payload) {
  if (!in_user_) return 0;
  groups_.back().sections.push_back({name_id(name), payload.size()});
  body_.put_bytes(payload);
  return payload.size();
}

void AccountFileWriter::end_user() {
  // Empty groups still index: "this user folded with nothing to spill" is a
  // fact consumers (and the conformance tests) can see.
  in_user_ = false;
}

std::string AccountFileWriter::finish() {
  const std::uint64_t index_offset = body_.size();
  body_.put_varint(names_.size());
  for (const std::string& name : names_) body_.put_string(name);
  body_.put_varint(groups_.size());
  std::uint64_t prev_user = 0;
  for (const PendingGroup& g : groups_) {
    body_.put_varint(g.user - prev_user);
    prev_user = g.user;
    body_.put_varint(g.sections.size());
    for (const PendingSection& s : g.sections) {
      body_.put_varint(s.name_id);
      body_.put_varint(s.len);
    }
  }
  ckpt::finish_indexed(body_, index_offset);
  names_.clear();
  groups_.clear();
  return body_.take();
}

// --- MappedAccountFile -----------------------------------------------------

util::Status MappedAccountFile::corrupt(const std::string& why) const {
  return util::Status::data_loss("account file " + path_ + ": " + why);
}

util::Status MappedAccountFile::open(const std::string& path) {
  path_ = path;
  if (!file_.open(path)) return corrupt("cannot open file");
  util::Status parsed = parse();
  // The checksum pass released each window as it went; drop what the index
  // parse read, so payload reads refault only what they need.
  file_.release();
  return parsed;
}

util::Status MappedAccountFile::open_image(const std::string& label, std::string_view bytes) {
  path_ = label;
  file_.view(bytes);
  return parse();
}

util::Status MappedAccountFile::parse() {
  constexpr std::size_t kHeader = ckpt::kIndexedHeaderBytes;
  constexpr std::size_t kFooter = ckpt::kIndexedFooterBytes;
  const std::string_view all = file_.bytes();
  const std::size_t size = all.size();
  const auto framed =
      ckpt::check_indexed(file_, {kAccountMagic, sizeof kAccountMagic}, kAccountVersion);
  if (!framed.ok()) return corrupt(framed.status().message());
  const std::size_t index_offset = *framed;

  ckpt::ByteReader index{all.substr(index_offset, size - kFooter - index_offset)};
  const auto name_count = index.get_varint("account name count");
  if (!name_count.ok()) return corrupt(name_count.status().message());
  if (*name_count > index.remaining()) {
    return corrupt("implausible name count " + std::to_string(*name_count));
  }
  names_.clear();
  names_.reserve(static_cast<std::size_t>(*name_count));
  for (std::uint64_t i = 0; i < *name_count; ++i) {
    auto name = index.get_string("account section name");
    if (!name.ok()) return corrupt(name.status().message());
    names_.push_back(std::move(*name));
  }

  const auto group_count = index.get_varint("account group count");
  if (!group_count.ok()) return corrupt(group_count.status().message());
  if (*group_count > index.remaining() + 1) {
    // Each group indexes at least 2 bytes; a count beyond the remaining
    // index bytes is corrupt and must not drive a giant allocation. (+1:
    // a single trailing empty group legitimately encodes in 2 bytes.)
    return corrupt("implausible group count " + std::to_string(*group_count));
  }
  rows_.clear();
  rows_.reserve(static_cast<std::size_t>(*group_count));
  std::size_t cursor = kHeader;
  std::uint64_t user_acc = 0;
  for (std::uint64_t i = 0; i < *group_count; ++i) {
    const auto user_delta = index.get_varint("account group user");
    const auto section_count = index.get_varint("account group sections");
    if (!user_delta.ok()) return corrupt(user_delta.status().message());
    if (!section_count.ok()) return corrupt(section_count.status().message());
    user_acc += *user_delta;
    if (i > 0 && *user_delta == 0) {
      return corrupt("group " + std::to_string(i) + " repeats user " +
                     std::to_string(user_acc));
    }
    if (user_acc > std::numeric_limits<trace::UserId>::max()) {
      return corrupt("group " + std::to_string(i) + " user out of range");
    }
    AccountUserRow row;
    row.user = static_cast<trace::UserId>(user_acc);
    if (*section_count > index.remaining() + 1) {
      return corrupt("group " + std::to_string(i) + " implausible section count");
    }
    row.sections.reserve(static_cast<std::size_t>(*section_count));
    for (std::uint64_t s = 0; s < *section_count; ++s) {
      const auto name_id = index.get_varint("account section name id");
      const auto len = index.get_varint("account section length");
      if (!name_id.ok()) return corrupt(name_id.status().message());
      if (!len.ok()) return corrupt(len.status().message());
      if (*name_id >= names_.size()) {
        return corrupt("group " + std::to_string(i) + " references unknown section name " +
                       std::to_string(*name_id));
      }
      if (*len > index_offset - cursor) {
        return corrupt("group " + std::to_string(i) + " section overruns the payload");
      }
      row.sections.push_back({static_cast<std::uint32_t>(*name_id), cursor,
                              static_cast<std::size_t>(*len)});
      cursor += static_cast<std::size_t>(*len);
    }
    rows_.push_back(std::move(row));
  }
  if (cursor != index_offset) {
    return corrupt("payload length disagrees with index (ends at " + std::to_string(cursor) +
                   ", index at " + std::to_string(index_offset) + ")");
  }
  if (!index.at_end()) {
    return corrupt("trailing bytes in index at offset " + std::to_string(index.offset()));
  }
  return util::Status::ok_status();
}

int MappedAccountFile::find_name(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

const AccountSectionRef* MappedAccountFile::find_section(const AccountUserRow& row,
                                                         int name_id) const {
  if (name_id < 0) return nullptr;
  for (const AccountSectionRef& s : row.sections) {
    if (s.name_id == static_cast<std::uint32_t>(name_id)) return &s;
  }
  return nullptr;
}

// --- AccountSpill ----------------------------------------------------------

AccountSpill::AccountSpill(Options options)
    : options_(std::move(options)),
      flush_threshold_(options_.budget_bytes > 0 ? std::max<std::uint64_t>(
                                                       options_.budget_bytes / 2, 1 << 16)
                                                 : kDefaultFlushBytes) {}

util::Status AccountSpill::open_fresh() {
  writer_.reset();
  images_.clear();
  spilled_bytes_ = 0;
  sealed_files_ = 0;
  health_ = util::Status::ok_status();
  if (options_.dir.empty()) return util::Status::ok_status();
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return util::Status::internal("cannot create account dir '" + options_.dir +
                                  "': " + ec.message());
  }
  for (const auto& [seq, name] : list_account_files(options_.dir)) {
    fs::remove(fs::path(options_.dir) / name, ec);
    if (ec) {
      return util::Status::internal("cannot remove stale account file '" + name +
                                    "': " + ec.message());
    }
  }
  return util::Status::ok_status();
}

util::Status AccountSpill::resume(std::uint64_t sealed_files) {
  if (options_.dir.empty()) {
    if (sealed_files == 0) return open_fresh();
    return util::Status::failed_precondition(
        "checkpoint recorded " + std::to_string(sealed_files) +
        " sealed account files, but this account spill keeps no directory");
  }
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return util::Status::internal("cannot create account dir '" + options_.dir +
                                  "': " + ec.message());
  }
  std::uint64_t kept = 0;
  std::uint64_t kept_bytes = 0;
  for (const auto& [seq, name] : list_account_files(options_.dir)) {
    const fs::path path = fs::path(options_.dir) / name;
    if (seq > sealed_files) {
      // Sealed after the checkpoint being resumed: its users re-run and
      // respill into new files. Keeping it would duplicate their rows.
      fs::remove(path, ec);
      if (ec) {
        return util::Status::internal("cannot remove post-checkpoint account file '" + name +
                                      "': " + ec.message());
      }
      continue;
    }
    ++kept;
    kept_bytes += static_cast<std::uint64_t>(fs::file_size(path, ec));
  }
  if (kept != sealed_files) {
    return util::Status::data_loss("account dir '" + options_.dir + "' holds " +
                                   std::to_string(kept) + " sealed files, checkpoint recorded " +
                                   std::to_string(sealed_files));
  }
  sealed_files_ = sealed_files;
  spilled_bytes_ = kept_bytes;
  return util::Status::ok_status();
}

void AccountSpill::begin_user(trace::UserId user) {
  if (writer_ == nullptr) writer_ = std::make_unique<AccountFileWriter>();
  writer_->begin_user(user);
}

std::size_t AccountSpill::add_section(std::string_view name, std::string_view payload) {
  if (writer_ == nullptr) return 0;
  return writer_->add_section(name, payload);
}

void AccountSpill::end_user() {
  if (writer_ == nullptr) return;
  writer_->end_user();
  if (writer_->size() >= flush_threshold_) {
    const util::Status st = flush_writer();
    if (!st.ok() && health_.ok()) health_ = st;
  }
}

util::Status AccountSpill::seal() {
  if (writer_ != nullptr && writer_->group_count() > 0) {
    const util::Status st = flush_writer();
    if (!st.ok() && health_.ok()) health_ = st;
  }
  return health_;
}

util::Status AccountSpill::flush_writer() {
  std::string bytes = writer_->finish();
  writer_.reset();
  const std::uint64_t size = bytes.size();
  if (options_.dir.empty()) {
    images_.push_back(std::move(bytes));
  } else {
    util::Status st = write_file_atomic(options_.dir, account_file_name(sealed_files_ + 1), bytes);
    if (!st.ok()) return st;
  }
  ++sealed_files_;
  spilled_bytes_ += size;
  return util::Status::ok_status();
}

std::uint64_t AccountSpill::resident_bytes() const {
  const std::uint64_t pending = writer_ != nullptr ? writer_->size() : 0;
  return options_.dir.empty() ? pending + spilled_bytes_ : pending;
}

std::size_t AccountSpill::unsealed_groups() const {
  return writer_ != nullptr ? writer_->group_count() : 0;
}

std::shared_ptr<AccountSpill> share_spill(AccountSpill* spill) {
  if (spill == nullptr) return nullptr;
  if (std::shared_ptr<AccountSpill> owned = spill->weak_from_this().lock()) return owned;
  return {std::shared_ptr<AccountSpill>{}, spill};  // borrowed: no ownership
}

// --- AccountReader ---------------------------------------------------------

util::Status AccountReader::open(const AccountSpill* spill) {
  files_.clear();
  if (spill == nullptr) return util::Status::ok_status();
  if (util::Status st = spill->health(); !st.ok()) return st;
  if (spill->unsealed_groups() > 0) {
    return util::Status::failed_precondition(
        "account spill holds " + std::to_string(spill->unsealed_groups()) +
        " unsealed row groups; seal() it before reading");
  }
  const std::uint64_t sealed = spill->sealed_files();
  if (spill->dir().empty()) {
    for (std::uint64_t seq = 1; seq <= sealed; ++seq) {
      auto file = std::make_unique<MappedAccountFile>();
      util::Status st = file->open_image(account_file_name(seq) + " (in memory)",
                                         spill->images()[seq - 1]);
      if (!st.ok()) return st;
      files_.push_back(std::move(file));
    }
    return util::Status::ok_status();
  }
  // Exactly the sequence 1..sealed: a gap means the directory lost a file,
  // and a file past the count was not sealed by this spill — neither may
  // pass for fewer or duplicated rows.
  const fs::path dir = spill->dir();
  const std::string sealed_note = " (the spill sealed " + std::to_string(sealed) + " files)";
  std::uint64_t expected = 1;
  for (const auto& [seq, name] : list_account_files(spill->dir())) {
    if (seq > sealed) {
      return util::Status::data_loss("account file " + (dir / name).string() +
                                     ": not sealed by this run" + sealed_note);
    }
    if (seq != expected) break;  // file `expected` is missing
    ++expected;
  }
  if (expected <= sealed) {
    return util::Status::data_loss("account file " + (dir / account_file_name(expected)).string() +
                                   ": missing" + sealed_note);
  }
  for (std::uint64_t seq = 1; seq <= sealed; ++seq) {
    auto file = std::make_unique<MappedAccountFile>();
    util::Status st = file->open((dir / account_file_name(seq)).string());
    if (!st.ok()) return st;
    files_.push_back(std::move(file));
  }
  return util::Status::ok_status();
}

void AccountReader::for_each_section(
    std::string_view name,
    const std::function<void(trace::UserId, std::string_view)>& cb) const {
  for (const auto& file : files_) {
    const int id = file->find_name(name);
    if (id < 0) continue;
    for (const AccountUserRow& row : file->rows()) {
      const AccountSectionRef* section = file->find_section(row, id);
      if (section != nullptr) cb(row.user, file->payload(*section));
    }
  }
}

}  // namespace wildenergy::energy
