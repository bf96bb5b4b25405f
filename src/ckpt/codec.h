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

namespace wildenergy::ckpt {

/// FNV-1a (64-bit) over a byte range: the checksum trailer of every binary
/// file in the repo (WECK snapshots, WESG segments and their manifest, WEAC
/// account files).
[[nodiscard]] std::uint64_t fnv1a(std::string_view data);

/// Signed integers go on the wire zig-zag mapped, so small negative deltas
/// stay short varints.
[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Append-only byte buffer with the checkpoint wire primitives.
class ByteWriter {
 public:
  void put_u8(std::uint8_t value) { buf_.push_back(static_cast<char>(value)); }
  void put_varint(std::uint64_t value);
  /// Raw little-endian IEEE-754 bits: bit-exact round trip, NaN-safe.
  void put_f64(double value);
  /// varint length + raw bytes.
  void put_string(std::string_view text);
  void put_bytes(std::string_view raw) { buf_.append(raw); }

  void put_f64_span(std::span<const double> values);
  void put_u64_span(std::span<const std::uint64_t> values);
  void put_bool_vec(const std::vector<bool>& values);

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Cursor over a serialized snapshot. Every accessor names the field it is
/// decoding so failures carry both *what* was being read and *where*.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  [[nodiscard]] util::StatusOr<std::uint8_t> get_u8(std::string_view field);
  [[nodiscard]] util::StatusOr<std::uint64_t> get_varint(std::string_view field);
  [[nodiscard]] util::StatusOr<double> get_f64(std::string_view field);
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
  [[nodiscard]] util::Status truncated(std::string_view field) const;

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace wildenergy::ckpt
