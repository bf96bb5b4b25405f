// Byte-level codec for checkpoint snapshots (DESIGN.md §13).
//
// One set of wire idioms for every binary format in the repo — LEB128
// varints with a 10-byte overlong cap, doubles as raw little-endian IEEE
// bits, FNV-1a checksums — as reusable ByteWriter/ByteReader pieces, so
// every sink can serialize its merge-protocol state into a named section
// without touching file framing, and the WESG segment and WEAC account
// codecs share the exact same primitives. Doubles round-trip as bit
// patterns, never through text: restoring a checkpoint must reproduce the
// parent sink state *exactly*, or the bit-identity guarantee of a resumed
// run is gone.
//
// All reader errors are positioned util::Status values ("truncated
// checkpoint: EOF mid-<field> at offset N") so a torn or tampered snapshot
// is always diagnosable.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace wildenergy::util {
class MappedFile;
}  // namespace wildenergy::util

namespace wildenergy::ckpt {

/// The FNV-1a (64-bit) offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1aBasis = 0xCBF29CE484222325ULL;

/// FNV-1a (64-bit) over a byte range: the checksum trailer of every binary
/// file in the repo (WECK snapshots, WESG segments and their manifest, WEAC
/// account files). Incremental: fnv1a(b, fnv1a(a)) == fnv1a(a + b), so a
/// file can be hashed piece by piece as it is written or read.
[[nodiscard]] std::uint64_t fnv1a(std::string_view data, std::uint64_t hash = kFnv1aBasis);

/// Signed integers go on the wire zig-zag mapped, so small negative deltas
/// stay short varints.
[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// 10 7-bit groups cover 64 bits; an 11th continuation byte is always
/// corrupt.
inline constexpr int kMaxVarintBytes = 10;

/// Write `value` as a LEB128 varint at `out`, which has room for
/// kMaxVarintBytes; returns the bytes written. ByteWriter::put_varint and
/// encoders that lay a whole record out on the stack share it.
inline std::size_t encode_varint(std::uint64_t value, char* out) {
  std::size_t n = 0;
  while (value >= 0x80) {
    out[n++] = static_cast<char>(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out[n++] = static_cast<char>(value);
  return n;
}

/// Write `value` as 8 little-endian bytes at `out`.
inline void encode_u64le(std::uint64_t value, char* out) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>(value >> (8 * i));
}

/// The fixed 8-byte little-endian u64 at the front of `bytes` (at least 8
/// long): the checksum trailer's encoding.
[[nodiscard]] std::uint64_t read_u64le(std::string_view bytes);

/// Append-only byte buffer with the checkpoint wire primitives.
class ByteWriter {
 public:
  void put_u8(std::uint8_t value) { buf_.push_back(static_cast<char>(value)); }
  void put_varint(std::uint64_t value);
  /// Fixed 8-byte little-endian.
  void put_u64le(std::uint64_t value);
  /// Seal the buffer: append the FNV-1a of every byte so far as a u64le.
  /// `hash` is the FNV-1a of bytes the file holds before this buffer (ones
  /// already written out); the checksum then covers them too.
  void put_checksum(std::uint64_t hash = kFnv1aBasis) { put_u64le(fnv1a(buf_, hash)); }
  /// Raw little-endian IEEE-754 bits: bit-exact round trip, NaN-safe.
  void put_f64(double value) { put_u64le(std::bit_cast<std::uint64_t>(value)); }
  /// varint length + raw bytes.
  void put_string(std::string_view text);
  void put_bytes(std::string_view raw) { buf_.append(raw); }

  void put_f64_span(std::span<const double> values);
  void put_u64_span(std::span<const std::uint64_t> values);
  void put_bool_vec(const std::vector<bool>& values);

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::string take() { return std::move(buf_); }
  /// Empty the buffer, keeping its allocation for reuse.
  void clear() { buf_.clear(); }
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

 private:
  std::string buf_;
};

/// The framing WESG segments and WEAC account files share: a 4-byte magic
/// and a version byte, the body, then a u64le index offset and a u64le
/// FNV-1a over every byte before it.
inline constexpr std::size_t kIndexedHeaderBytes = 5;
inline constexpr std::size_t kIndexedFooterBytes = 16;

/// Append that footer to `file`, the file's last bytes. `hash` is the
/// FNV-1a of the bytes before them, when the front of the file has already
/// been written out (SegmentWriter drains); by default `file` is the whole.
void finish_indexed(ByteWriter& file, std::uint64_t index_offset,
                    std::uint64_t hash = kFnv1aBasis);

/// Verify that framing over `file`'s bytes, checksum first, and return its
/// index offset (within [header, size - footer]); else a data_loss saying
/// why: too short, checksum mismatch, bad magic, unsupported version, or an
/// index offset out of range. The checksum pass hashes 1 MiB windows and
/// releases each one's pages, so verifying never holds a whole file
/// resident.
[[nodiscard]] util::StatusOr<std::size_t> check_indexed(const util::MappedFile& file,
                                                        std::string_view magic,
                                                        std::uint8_t version);

/// Cursor over a serialized snapshot. Every accessor names the field it is
/// decoding so failures carry both *what* was being read and *where*.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  // The three per-field decoders every format's hot loop calls are inline;
  // only their error paths are out of line.
  [[nodiscard]] util::StatusOr<std::uint8_t> get_u8(std::string_view field) {
    if (pos_ >= data_.size()) [[unlikely]] return truncated(field);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  [[nodiscard]] util::StatusOr<std::uint64_t> get_varint(std::string_view field) {
    std::uint64_t value = 0;
    for (int i = 0; i < kMaxVarintBytes; ++i) {
      if (pos_ >= data_.size()) [[unlikely]] return truncated(field);
      const auto byte = static_cast<std::uint8_t>(data_[pos_++]);
      // The last byte may only contribute the top bit of the 64-bit value:
      // anything else (including a continuation bit) is an overlong varint.
      if (i == kMaxVarintBytes - 1 && byte > 1) [[unlikely]] break;
      value |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
      if ((byte & 0x80) == 0) return value;
    }
    return overlong(field);
  }
  [[nodiscard]] util::StatusOr<double> get_f64(std::string_view field) {
    if (data_.size() - pos_ < 8) [[unlikely]] return truncated(field);
    std::uint64_t bits = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      bits |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_++])) << shift;
    }
    return std::bit_cast<double>(bits);
  }
  [[nodiscard]] util::StatusOr<std::string> get_string(std::string_view field);
  [[nodiscard]] util::StatusOr<std::string_view> get_bytes(std::size_t count,
                                                           std::string_view field);

  util::Status get_f64_span(std::span<double> out, std::string_view field);
  /// Self-sized counterpart of put_f64_span: reads the count prefix too.
  [[nodiscard]] util::StatusOr<std::vector<double>> get_f64_vec(std::string_view field);
  util::Status get_u64_span(std::span<std::uint64_t> out, std::string_view field);
  util::Status get_bool_vec(std::vector<bool>& out, std::string_view field);

  [[nodiscard]] std::size_t offset() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

 private:
  [[nodiscard, gnu::cold, gnu::noinline]] util::Status truncated(std::string_view field) const;
  /// Positioned at the offending byte, which has been consumed.
  [[nodiscard, gnu::cold, gnu::noinline]] util::Status overlong(std::string_view field) const;

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace wildenergy::ckpt
