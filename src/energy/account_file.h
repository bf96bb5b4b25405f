// WEAC per-user account files: the folded half of the account plane
// (DESIGN.md §15).
//
// Every run folds each completed user's detail state into running
// aggregates and releases the per-user rows — but several consumers
// (what-if replays, per-user figures, persistence CDFs) still need the
// per-user detail rows. Those rows are spilled here: one *row group* per
// user, each holding named byte sections ("ledger", "attrib", "persist",
// ...) encoded by the owning sink with ckpt/codec.h primitives. Groups land
// in fold order (ascending user id), so reading the images back in sequence
// replays every user's detail in exactly the order the sinks' query-time
// folds visit them.
//
// File layout (all multi-byte integers are ckpt/codec.h primitives):
//
//   magic "WEAC" | u8 version
//   payload:      per row group, the section payloads back to back, in
//                 add_section order
//   index:        varint name_count, then each interned section name
//                 (varint length + bytes);
//                 varint group_count, then per group: varint user delta
//                 (chains from the previous group; the first is absolute —
//                 groups are in ascending user order), varint
//                 section_count, per section varint name_id + varint
//                 payload length (offsets reconstruct cumulatively)
//   footer:       u64 LE index offset, u64 LE FNV-1a over every preceding
//                 byte (including the index offset)
//
// Readers verify the trailer before trusting any field, and every parse
// failure is a positioned util::Status naming the file — a corrupted account
// file can never silently feed wrong detail rows to a figure
// (tests/account_plane_test.cpp corruption matrix).
//
// A run spills through AccountSpill, which seals the pending writer into an
// image when it crosses the flush threshold. With a directory each image is
// a file (accounts_%08u.weac, tmp-write + rename); without one the images
// stay in memory and no file is touched. AccountReader opens exactly the
// images 1..sealed_files() of a spill, in sequence order, for the cursor
// layer (energy/account_cursor.h) — a missing or extra file is an error,
// never fewer rows.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/codec.h"
#include "trace/record.h"
#include "util/mapped_file.h"
#include "util/status.h"

namespace wildenergy::energy {

inline constexpr char kAccountMagic[4] = {'W', 'E', 'A', 'C'};
inline constexpr std::uint8_t kAccountVersion = 1;

/// Builds one account file in memory; row groups append in stream order.
class AccountFileWriter {
 public:
  AccountFileWriter();

  /// Open a row group for `user`. Groups must arrive in ascending user order
  /// (the engines fold in stream order, which is ascending user id).
  void begin_user(trace::UserId user);
  /// Append one named section to the open group; returns the payload bytes
  /// appended (the caller's spill accounting). Section names are interned —
  /// repeating a name across groups costs one index varint, not the string.
  std::size_t add_section(std::string_view name, std::string_view payload);
  void end_user();

  /// Payload bytes encoded so far (header included) — sizing for the flush
  /// policy.
  [[nodiscard]] std::size_t size() const { return body_.size(); }
  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }

  /// Append index + footer and return the complete file bytes. The writer is
  /// spent afterwards.
  [[nodiscard]] std::string finish();

 private:
  struct PendingSection {
    std::uint32_t name_id;
    std::uint64_t len;
  };
  struct PendingGroup {
    trace::UserId user;
    std::vector<PendingSection> sections;
  };

  [[nodiscard]] std::uint32_t name_id(std::string_view name);

  ckpt::ByteWriter body_;
  std::vector<std::string> names_;
  std::vector<PendingGroup> groups_;
  bool in_user_ = false;
};

/// One section of a row group, as recorded in a file's index.
struct AccountSectionRef {
  std::uint32_t name_id = 0;
  std::size_t offset = 0;  ///< absolute file offset of the payload
  std::size_t len = 0;
};

/// One user's row group.
struct AccountUserRow {
  trace::UserId user = 0;
  std::vector<AccountSectionRef> sections;
};

/// An open, checksum-verified account file, read through util::MappedFile.
/// The checksum pass releases each 1 MiB window once hashed and open drops
/// what the index parse read, so only the payloads a cursor reads come back
/// resident.
class MappedAccountFile {
 public:
  /// Open + verify `path`. Any framing, checksum, or index inconsistency is
  /// a positioned data_loss status naming the file.
  [[nodiscard]] util::Status open(const std::string& path);
  /// Verify an in-memory image the caller keeps alive, as the buffered read
  /// path does; `label` names it in errors.
  [[nodiscard]] util::Status open_image(const std::string& label, std::string_view bytes);

  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }
  [[nodiscard]] const std::vector<AccountUserRow>& rows() const { return rows_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Interned id of `name` in this file, or -1 when absent.
  [[nodiscard]] int find_name(std::string_view name) const;
  /// The payload bytes of one section (view into the mapping).
  [[nodiscard]] std::string_view payload(const AccountSectionRef& section) const {
    return {file_.bytes().data() + section.offset, section.len};
  }
  /// `row`'s section named `name_id`, or nullptr when the group lacks it.
  [[nodiscard]] const AccountSectionRef* find_section(const AccountUserRow& row,
                                                      int name_id) const;

 private:
  [[nodiscard]] util::Status parse();
  [[nodiscard]] util::Status corrupt(const std::string& why) const;

  std::string path_;
  util::MappedFile file_;  ///< the file, or a view of the caller's image
  std::vector<std::string> names_;
  std::vector<AccountUserRow> rows_;
};

/// The run-side spill target sinks write through during fold_user. The
/// engine brackets each fold round (begin_user .. end_user); every sink
/// appends its named section in between. The pending writer seals into an
/// image when it crosses the flush threshold — a file under the directory,
/// or, with no directory, an image kept in memory — so the unsealed state
/// stays bounded no matter how many users fold.
class AccountSpill : public std::enable_shared_from_this<AccountSpill> {
 public:
  struct Options {
    /// Directory for sealed account files; created if missing. Empty keeps
    /// the sealed images in memory and touches no file.
    std::string dir;
    /// Soft budget for the account plane. The pending in-memory writer is
    /// sealed whenever it crosses half this budget (a sane default applies
    /// when 0), so unsealed account bytes stay < budget while the image
    /// count stays modest.
    std::uint64_t budget_bytes = 0;
  };

  explicit AccountSpill(Options options);

  /// Forget every sealed image: create the directory and remove stale
  /// account files from a previous run, or drop the in-memory images.
  /// Fresh-run entry point; resuming runs call resume() instead.
  [[nodiscard]] util::Status open_fresh();
  /// Keep the first `sealed_files` account files (the checkpoint recorded
  /// them durable), delete any later ones (sealed after the checkpoint — the
  /// re-run users will respill), and continue numbering after the kept
  /// prefix. An in-memory spill has nothing durable to keep, so it resumes
  /// only from zero.
  [[nodiscard]] util::Status resume(std::uint64_t sealed_files);

  void begin_user(trace::UserId user);
  /// Returns the payload bytes appended — the calling sink's own spill
  /// accounting (each sink counts only its sections, so the plane's total is
  /// the sum over sinks without double counting).
  std::size_t add_section(std::string_view name, std::string_view payload);
  /// Close the user's row group; seals the pending writer when it crossed
  /// the flush threshold. Failures latch into health().
  void end_user();
  /// Seal the pending writer (if it holds any groups) so every spilled row
  /// is readable. Call at end of run, and before checkpointing.
  [[nodiscard]] util::Status seal();

  /// Empty for an in-memory spill.
  [[nodiscard]] const std::string& dir() const { return options_.dir; }
  /// Bytes held in memory: the pending (unsealed) writer, plus the sealed
  /// images of an in-memory spill.
  [[nodiscard]] std::uint64_t resident_bytes() const;
  /// Bytes sealed into images (files, or memory without a directory).
  [[nodiscard]] std::uint64_t spilled_bytes() const { return spilled_bytes_; }
  /// Sealed image count — the checkpoint counter that makes spills resumable.
  [[nodiscard]] std::uint64_t sealed_files() const { return sealed_files_; }
  /// Row groups appended since the last seal; readers refuse a spill with
  /// any, since their rows are in no image yet.
  [[nodiscard]] std::size_t unsealed_groups() const;
  /// Non-OK when a spill write failed: detail rows are incomplete and
  /// cursor-based consumers must not trust the spill.
  [[nodiscard]] util::Status health() const { return health_; }
  /// The sealed in-memory images, in sequence order (empty with a directory).
  [[nodiscard]] const std::vector<std::string>& images() const { return images_; }

 private:
  [[nodiscard]] util::Status flush_writer();

  Options options_;
  std::uint64_t flush_threshold_;
  std::unique_ptr<AccountFileWriter> writer_;
  std::vector<std::string> images_;  ///< sealed images when dir is empty
  std::uint64_t spilled_bytes_ = 0;
  std::uint64_t sealed_files_ = 0;
  util::Status health_;
};

/// A handle to `spill` for the sinks that read it back at query time. A
/// spill owned by a std::shared_ptr (the pipeline and sweep make theirs that
/// way) is kept alive, so ledger copies and analyses can outlive the run
/// that filled them; any other spill is borrowed, and its owner must outlive
/// the readers. Null stays null.
[[nodiscard]] std::shared_ptr<AccountSpill> share_spill(AccountSpill* spill);

/// Opens every sealed image of a spill, in sequence order. The global row
/// order — image order, then group order within each image — is the fold
/// order (ascending user id).
class AccountReader {
 public:
  /// Open + verify exactly the images 1..sealed_files() of `spill`. A
  /// missing file, an extra one past the count, or a bad image is a data_loss
  /// status naming the file; a spill with unsealed groups or a failed write
  /// is refused. A null spill (a sink that never folded) opens empty.
  [[nodiscard]] util::Status open(const AccountSpill* spill);

  [[nodiscard]] const std::vector<std::unique_ptr<MappedAccountFile>>& files() const {
    return files_;
  }

  /// Stream cb(user, payload) for every row group that carries section
  /// `name`, in global row order.
  void for_each_section(
      std::string_view name,
      const std::function<void(trace::UserId, std::string_view)>& cb) const;

 private:
  std::vector<std::unique_ptr<MappedAccountFile>> files_;
};

/// accounts_00000042.weac for seq 42 (1-based).
[[nodiscard]] std::string account_file_name(std::uint64_t seq);

}  // namespace wildenergy::energy
