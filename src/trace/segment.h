// WESG columnar trace segments: the on-disk half of the trace plane
// (DESIGN.md §14).
//
// A segment file holds sealed column *chunks* — contiguous spans of one
// user's stream (packet column, transition column, interleave) — for many
// users, in stream order. SpillingTraceStore, when given a directory, seals
// chunks into segments as its resident budget fills; replay maps the file
// read-only, decodes one bounded span at a time and releases each chunk's
// pages after it, so a study much larger than RAM replays with a working set
// of O(batch_size) plus the chunks in flight, not O(stream).
//
// File layout (all multi-byte integers are ckpt/codec.h primitives):
//
//   magic "WESG" | u8 version
//   study meta:   varint num_users, varint num_apps,
//                 zigzag-varint study_begin_us, zigzag-varint study_end_us
//   payload:      per chunk, three byte streams back to back:
//     packets     zigzag-varint dt_us (chains from the previous packet in
//                 the chunk; the first is absolute), varint app, varint
//                 flow, varint bytes, u8 flags (direction | wifi<<1 |
//                 state<<2), f64 joules (raw LE bits)
//     transitions zigzag-varint dt_us (own chain), varint app, u8 from, u8 to
//     order       run-length pairs: u8 kind, varint run — the exact
//                 packet/transition interleave, so replay reproduces the
//                 captured event sequence bit-identically
//   index:        varint chunk_count, then per chunk: varint user,
//                 varint seq, u8 flags (bit0 = final chunk of the user's
//                 stream), varint packet/transition/order-run counts,
//                 varint packet/transition/order stream lengths (offsets
//                 are reconstructed cumulatively — chunks are contiguous)
//   footer:       u64 LE index offset, u64 LE FNV-1a over every preceding
//                 byte (including the index offset)
//
// Readers verify the trailer before trusting any field, and every parse or
// decode failure is a positioned util::Status naming the file — a corrupted
// segment can never silently replay wrong events (tests/out_of_core_test.cpp
// corruption matrix). A checksum only proves the bytes are the ones written,
// so replay also checks the decoded stream against the contract the CSV
// reader enforces (time order across the interleave and the chunk chain, the
// study window, enums): a segment is a trace input like any other
// (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/codec.h"
#include "trace/batch.h"
#include "trace/sink.h"
#include "util/mapped_file.h"
#include "util/status.h"

namespace wildenergy::trace {

inline constexpr char kSegmentMagic[4] = {'W', 'E', 'S', 'G'};
inline constexpr std::uint8_t kSegmentVersion = 1;

/// One sealed chunk as recorded in a segment's index. A user's full stream
/// is the concatenation of their chunks in seq order, the last one final.
struct SegmentChunkInfo {
  UserId user = 0;
  std::uint32_t seq = 0;     ///< chunk ordinal within the user's stream
  bool final_chunk = false;  ///< closes the user's stream
  std::uint64_t packets = 0;
  std::uint64_t transitions = 0;
  std::uint64_t order_runs = 0;
  // Absolute file offsets/lengths of the three encoded column streams.
  std::size_t packets_offset = 0;
  std::size_t packets_len = 0;
  std::size_t transitions_offset = 0;
  std::size_t transitions_len = 0;
  std::size_t order_offset = 0;
  std::size_t order_len = 0;

  [[nodiscard]] std::uint64_t events() const { return packets + transitions; }
};

/// Encodes one segment file into a stream; chunks append in stream order.
/// The writer holds at most ~kDrainBytes: whenever that much is buffered the
/// bytes are folded into a running FNV-1a and written out, so nothing
/// segment-sized is ever built. The drain buffer is allocated once and
/// reused by every later begin().
class SegmentWriter {
 public:
  /// Bytes buffered before a drain writes them out.
  static constexpr std::size_t kDrainBytes = 64 * 1024;

  /// Start a new segment for `meta`, written to `out` (which the caller
  /// opened and checks).
  void begin(const StudyMeta& meta, std::ostream& out);

  /// Encode one chunk of `events.user`'s stream. `seq` is the per-user chunk
  /// ordinal; `final_chunk` marks the last chunk of that user's stream.
  void add_chunk(const EventBatch& events, std::uint32_t seq, bool final_chunk);

  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }
  /// File bytes encoded so far (header included, drained or buffered).
  [[nodiscard]] std::size_t size() const { return drained_ + body_.size(); }

  /// Append index + footer and write out the rest. The segment is spent
  /// afterwards.
  void finish();

 private:
  struct PendingChunk {
    UserId user;
    std::uint32_t seq;
    bool final_chunk;
    std::uint64_t packets, transitions, order_runs;
    std::size_t packets_len, transitions_len, order_len;
  };

  /// Hash and write out the buffer once it holds kDrainBytes.
  void drain_if_full() {
    if (body_.size() >= kDrainBytes) drain();
  }
  void drain();

  ckpt::ByteWriter body_;  ///< the file's undrained bytes
  std::ostream* out_ = nullptr;
  std::size_t drained_ = 0;                ///< bytes already written to out_
  std::uint64_t hash_ = ckpt::kFnv1aBasis;  ///< FNV-1a of those bytes
  std::vector<PendingChunk> chunks_;
};

/// An open, checksum-verified segment, read through util::MappedFile (mapped
/// read-only where the platform allows). Opening costs one checksum pass,
/// which releases each 1 MiB window once hashed, + O(index), then releases
/// what the index parse read; replaying a chunk decodes its
/// span straight off the mapping with O(batch_size) working memory and
/// releases the span's pages when done, so a segment's pages are resident
/// only while a chunk of it is being replayed.
class MappedSegment {
 public:
  /// Open + verify `path`. Any framing, checksum, or index inconsistency is
  /// a positioned data_loss status naming the file.
  [[nodiscard]] util::Status open(const std::string& path);

  [[nodiscard]] const StudyMeta& meta() const { return meta_; }
  [[nodiscard]] const std::vector<SegmentChunkInfo>& chunks() const { return chunks_; }
  [[nodiscard]] std::uint64_t file_bytes() const { return file_.bytes().size(); }
  [[nodiscard]] const std::string& path() const { return path_; }
  /// Resident overhead of the parsed index. The mapping does not count: its
  /// pages are released after open and after each chunk replay, so only the
  /// chunks being replayed hold any.
  [[nodiscard]] std::uint64_t index_bytes() const;

  /// Decode one chunk into `sink` as spans of batch_size (≥ 1) events,
  /// preserving the captured interleave. Emits no user brackets — the
  /// caller owns the bracket protocol. Releases the chunk's pages on return,
  /// on error paths too. Concurrent replay_chunk calls on one segment are
  /// safe: a page released under another reader just refaults.
  ///
  /// The decoder enforces the stream contract itself, always strictly: an
  /// event earlier than the one before it, or outside meta()'s study window
  /// (inclusive, when the window is not empty — ValidatingSink's bounds), is
  /// a positioned data_loss naming the file, user, chunk and event, and
  /// nothing past it is delivered. `last_time_us` is the time of the event
  /// before this chunk in the user's stream (INT64_MIN for a first chunk);
  /// it is advanced to the chunk's last event, so a chunk chain is checked
  /// as one stream.
  [[nodiscard]] util::Status replay_chunk(const SegmentChunkInfo& chunk, TraceSink& sink,
                                          std::size_t batch_size,
                                          std::int64_t& last_time_us) const;

 private:
  [[nodiscard]] util::Status parse();
  [[nodiscard]] util::Status decode_chunk(const SegmentChunkInfo& chunk, TraceSink& sink,
                                          std::size_t batch_size,
                                          std::int64_t& last_time_us) const;
  [[nodiscard]] util::Status corrupt(const std::string& why) const;

  std::string path_;
  util::MappedFile file_;
  StudyMeta meta_;
  std::vector<SegmentChunkInfo> chunks_;
};

}  // namespace wildenergy::trace
