#include "ckpt/checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace wildenergy::ckpt {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kFilePrefix = "ckpt_";

std::string checkpoint_filename(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt_%08llu", static_cast<unsigned long long>(seq));
  return buf;
}

/// Parse the sequence number out of a ckpt_<seq> filename; nullopt otherwise.
std::optional<std::uint64_t> parse_seq(std::string_view name) {
  if (name.size() <= kFilePrefix.size() || name.substr(0, kFilePrefix.size()) != kFilePrefix) {
    return std::nullopt;
  }
  const std::string_view digits = name.substr(kFilePrefix.size());
  std::uint64_t seq = 0;
  const auto [ptr, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), seq);
  if (ec != std::errc{} || ptr != digits.data() + digits.size()) return std::nullopt;
  return seq;
}

}  // namespace

void Snapshot::set_counter(std::string name, std::uint64_t value) {
  for (auto& [key, stored] : counters) {
    if (key == name) {
      stored = value;
      return;
    }
  }
  counters.emplace_back(std::move(name), value);
}

std::uint64_t Snapshot::counter(std::string_view name) const {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return 0;
}

void Snapshot::add_section(std::string name, std::string payload) {
  sections.emplace_back(std::move(name), std::move(payload));
}

const std::string* Snapshot::section(std::string_view name) const {
  for (const auto& [key, payload] : sections) {
    if (key == name) return &payload;
  }
  return nullptr;
}

std::string encode_snapshot(const Snapshot& snapshot, std::uint64_t seq) {
  ByteWriter out;
  out.put_bytes(std::string_view{kCheckpointMagic, sizeof(kCheckpointMagic)});
  out.put_u8(kCheckpointVersion);
  out.put_varint(seq);
  out.put_varint(snapshot.meta.num_users);
  out.put_varint(snapshot.meta.num_apps);
  out.put_varint(static_cast<std::uint64_t>(snapshot.meta.study_begin.us));
  out.put_varint(static_cast<std::uint64_t>(snapshot.meta.study_end.us));
  out.put_varint(snapshot.completed_users.size());
  for (const trace::UserId user : snapshot.completed_users) out.put_varint(user);
  out.put_varint(snapshot.failed_users.size());
  for (const trace::UserId user : snapshot.failed_users) out.put_varint(user);
  out.put_varint(snapshot.counters.size());
  for (const auto& [name, value] : snapshot.counters) {
    out.put_string(name);
    out.put_varint(value);
  }
  out.put_varint(snapshot.sections.size());
  for (const auto& [name, payload] : snapshot.sections) {
    out.put_string(name);
    out.put_string(payload);
  }
  out.put_checksum();
  return out.take();
}

util::StatusOr<Snapshot> decode_snapshot(std::string_view bytes, std::uint64_t* seq_out) {
  if (bytes.size() < sizeof(kCheckpointMagic) + 1 + 8) {
    return util::Status::data_loss("truncated checkpoint: " + std::to_string(bytes.size()) +
                                   " bytes is smaller than the minimal framing");
  }
  if (std::memcmp(bytes.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) != 0) {
    return util::Status::data_loss("corrupt checkpoint: bad magic (not a WECK file)");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - 8);
  if (fnv1a(body) != read_u64le(bytes.substr(body.size()))) {
    return util::Status::data_loss("corrupt checkpoint: checksum mismatch over " +
                                   std::to_string(body.size()) + " bytes");
  }
  ByteReader in{body};
  auto magic = in.get_bytes(sizeof(kCheckpointMagic), "magic");
  if (!magic.ok()) return magic.status();
  auto version = in.get_u8("version");
  if (!version.ok()) return version.status();
  if (*version != kCheckpointVersion) {
    return util::Status::data_loss("unsupported checkpoint version " +
                                   std::to_string(*version) + " (want " +
                                   std::to_string(kCheckpointVersion) + ")");
  }
  auto seq = in.get_varint("seq");
  if (!seq.ok()) return seq.status();
  if (seq_out != nullptr) *seq_out = *seq;

  Snapshot snapshot;
  auto num_users = in.get_varint("meta.num_users");
  if (!num_users.ok()) return num_users.status();
  snapshot.meta.num_users = static_cast<std::uint32_t>(*num_users);
  auto num_apps = in.get_varint("meta.num_apps");
  if (!num_apps.ok()) return num_apps.status();
  snapshot.meta.num_apps = static_cast<std::uint32_t>(*num_apps);
  auto begin_us = in.get_varint("meta.study_begin");
  if (!begin_us.ok()) return begin_us.status();
  snapshot.meta.study_begin.us = static_cast<std::int64_t>(*begin_us);
  auto end_us = in.get_varint("meta.study_end");
  if (!end_us.ok()) return end_us.status();
  snapshot.meta.study_end.us = static_cast<std::int64_t>(*end_us);

  auto completed = in.get_varint("completed_users");
  if (!completed.ok()) return completed.status();
  snapshot.completed_users.reserve(*completed);
  for (std::uint64_t i = 0; i < *completed; ++i) {
    auto user = in.get_varint("completed_user");
    if (!user.ok()) return user.status();
    snapshot.completed_users.push_back(static_cast<trace::UserId>(*user));
  }
  auto failed = in.get_varint("failed_users");
  if (!failed.ok()) return failed.status();
  snapshot.failed_users.reserve(*failed);
  for (std::uint64_t i = 0; i < *failed; ++i) {
    auto user = in.get_varint("failed_user");
    if (!user.ok()) return user.status();
    snapshot.failed_users.push_back(static_cast<trace::UserId>(*user));
  }
  auto num_counters = in.get_varint("counters");
  if (!num_counters.ok()) return num_counters.status();
  for (std::uint64_t i = 0; i < *num_counters; ++i) {
    auto name = in.get_string("counter.name");
    if (!name.ok()) return name.status();
    auto value = in.get_varint("counter.value");
    if (!value.ok()) return value.status();
    snapshot.counters.emplace_back(std::move(*name), *value);
  }
  auto num_sections = in.get_varint("sections");
  if (!num_sections.ok()) return num_sections.status();
  for (std::uint64_t i = 0; i < *num_sections; ++i) {
    auto name = in.get_string("section.name");
    if (!name.ok()) return name.status();
    auto payload = in.get_string("section '" + *name + "'");
    if (!payload.ok()) return payload.status();
    snapshot.sections.emplace_back(std::move(*name), std::move(*payload));
  }
  if (!in.at_end()) {
    return util::Status::data_loss("corrupt checkpoint: " + std::to_string(in.remaining()) +
                                   " trailing bytes after the last section");
  }
  return snapshot;
}

util::Status check_snapshot_meta(const Snapshot& snapshot, const trace::StudyMeta& expected) {
  const trace::StudyMeta& meta = snapshot.meta;
  if (meta.num_users != expected.num_users || meta.num_apps != expected.num_apps ||
      meta.study_begin.us != expected.study_begin.us ||
      meta.study_end.us != expected.study_end.us) {
    return util::Status::failed_precondition(
        "stale checkpoint: taken under a different study (" +
        std::to_string(meta.num_users) + " users, " + std::to_string(meta.num_apps) +
        " apps, span " + std::to_string((meta.study_end - meta.study_begin).us) +
        " us) than the resumed run (" + std::to_string(expected.num_users) + " users, " +
        std::to_string(expected.num_apps) + " apps, span " +
        std::to_string((expected.study_end - expected.study_begin).us) + " us)");
  }
  return util::Status::ok_status();
}

CheckpointWriter::CheckpointWriter(std::string dir, CheckpointWriterOptions options)
    : dir_(std::move(dir)), options_(options) {}

util::Status CheckpointWriter::write(const Snapshot& snapshot) {
  ++attempts_;
  std::optional<fault::CheckpointFaultSpec> fault;
  if (options_.fault_plan != nullptr) {
    fault = options_.fault_plan->checkpoint_fault_for(attempts_);
  }
  if (fault && fault->kind == fault::CheckpointFaultKind::kIoError) {
    ++write_failures_;
    return util::Status::internal("injected checkpoint I/O error (ENOSPC) at write " +
                                  std::to_string(attempts_));
  }

  const std::uint64_t seq = next_seq_++;
  std::string bytes = encode_snapshot(snapshot, seq);
  if (fault && fault->kind == fault::CheckpointFaultKind::kShortWrite) {
    // A torn write that still renames into place: the resume path must
    // detect it (truncation/checksum) and fall back to the previous seq.
    bytes.resize(std::min<std::size_t>(bytes.size(), fault->truncate_to));
  }

  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    ++write_failures_;
    return util::Status::internal("cannot create checkpoint directory '" + dir_ +
                                  "': " + ec.message());
  }
  const fs::path final_path = fs::path(dir_) / checkpoint_filename(seq);
  const fs::path tmp_path = final_path.string() + ".tmp";
  {
    std::ofstream out{tmp_path, std::ios::binary | std::ios::trunc};
    if (!out) {
      ++write_failures_;
      return util::Status::internal("cannot open '" + tmp_path.string() +
                                    "' for writing: " + std::strerror(errno));
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      ++write_failures_;
      return util::Status::internal("short write to '" + tmp_path.string() +
                                    "': " + std::strerror(errno));
    }
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    ++write_failures_;
    return util::Status::internal("cannot rename '" + tmp_path.string() + "' into place: " +
                                  ec.message());
  }
  ++checkpoints_written_;
  bytes_written_ += bytes.size();

  // Rotate: drop everything older than the newest keep_last sequences.
  if (options_.keep_last > 0 && seq > options_.keep_last) {
    const std::uint64_t oldest_kept = seq - options_.keep_last + 1;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      const auto old_seq = parse_seq(entry.path().filename().string());
      if (old_seq && *old_seq < oldest_kept) fs::remove(entry.path(), ec);
    }
  }

  if (fault && fault->kind == fault::CheckpointFaultKind::kHardStop) {
    throw fault::ShardFault("injected hard stop after checkpoint write " +
                            std::to_string(attempts_) + " (seq " + std::to_string(seq) + ")");
  }
  return util::Status::ok_status();
}

util::StatusOr<CheckpointReader::LoadResult> CheckpointReader::load_latest(
    const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return util::Status::not_found("checkpoint directory '" + dir + "' does not exist");
  }
  std::vector<std::pair<std::uint64_t, fs::path>> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const auto seq = parse_seq(entry.path().filename().string());
    if (seq) files.emplace_back(*seq, entry.path());
  }
  if (files.empty()) {
    return util::Status::not_found("no checkpoints in '" + dir + "'");
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  util::Status first_error = util::Status::ok_status();
  LoadResult result;
  for (const auto& [seq, path] : files) {
    std::ifstream in{path, std::ios::binary};
    std::string bytes{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    util::Status status = util::Status::ok_status();
    if (!in.good() && !in.eof()) {
      status = util::Status::internal("cannot read '" + path.string() + "'");
    } else {
      std::uint64_t stored_seq = 0;
      auto snapshot = decode_snapshot(bytes, &stored_seq);
      if (snapshot.ok() && stored_seq != seq) {
        status = util::Status::data_loss("corrupt checkpoint: file '" +
                                         path.filename().string() + "' stores seq " +
                                         std::to_string(stored_seq));
      } else if (snapshot.ok()) {
        result.snapshot = std::move(*snapshot);
        result.seq = seq;
        if (result.rejected > 0) result.recovered_from_seq = seq;
        return result;
      } else {
        status = snapshot.status();
      }
    }
    ++result.rejected;
    first_error.update(util::Status{status.code(), "checkpoint '" + path.filename().string() +
                                                       "': " + status.message()});
  }
  return first_error;
}

}  // namespace wildenergy::ckpt
