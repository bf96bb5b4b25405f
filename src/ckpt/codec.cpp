#include "ckpt/codec.h"

#include <algorithm>

#include "util/mapped_file.h"

namespace wildenergy::ckpt {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/// The verify pass's window: large enough that releasing costs nothing next
/// to hashing, small next to any segment or account file.
constexpr std::size_t kVerifyWindowBytes = std::size_t{1} << 20;

}  // namespace

std::uint64_t fnv1a(std::string_view data, std::uint64_t hash) {
  for (const char c : data) hash = (hash ^ static_cast<std::uint8_t>(c)) * kFnvPrime;
  return hash;
}

void ByteWriter::put_varint(std::uint64_t value) {
  char bytes[kMaxVarintBytes];
  buf_.append(bytes, encode_varint(value, bytes));
}

void ByteWriter::put_u64le(std::uint64_t value) {
  char bytes[8];
  encode_u64le(value, bytes);
  buf_.append(bytes, sizeof bytes);
}

std::uint64_t read_u64le(std::string_view bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[i])) << (8 * i);
  }
  return v;
}

void finish_indexed(ByteWriter& file, std::uint64_t index_offset, std::uint64_t hash) {
  file.put_u64le(index_offset);
  file.put_checksum(hash);
}

util::StatusOr<std::size_t> check_indexed(const util::MappedFile& mapped,
                                          std::string_view magic, std::uint8_t version) {
  const std::string_view file = mapped.bytes();
  const std::size_t size = file.size();
  if (size < kIndexedHeaderBytes + kIndexedFooterBytes) {
    return util::Status::data_loss("file too short (" + std::to_string(size) + " bytes)");
  }
  // Trust nothing until the trailer checksum passes: every later parse
  // failure is then a logic-level inconsistency, not random bit damage.
  std::uint64_t hash = kFnv1aBasis;
  for (std::size_t at = 0; at < size - 8; at += kVerifyWindowBytes) {
    const std::size_t len = std::min(kVerifyWindowBytes, size - 8 - at);
    hash = fnv1a(file.substr(at, len), hash);
    mapped.release(at, len);
  }
  if (read_u64le(file.substr(size - 8)) != hash) {
    return util::Status::data_loss("checksum mismatch");
  }
  if (file.substr(0, magic.size()) != magic) return util::Status::data_loss("bad magic");
  const auto found = static_cast<std::uint8_t>(file[magic.size()]);
  if (found != version) {
    return util::Status::data_loss("unsupported version " + std::to_string(found));
  }
  const std::uint64_t index_offset = read_u64le(file.substr(size - kIndexedFooterBytes));
  if (index_offset < kIndexedHeaderBytes || index_offset > size - kIndexedFooterBytes) {
    return util::Status::data_loss("index offset " + std::to_string(index_offset) +
                                   " out of range");
  }
  return static_cast<std::size_t>(index_offset);
}

void ByteWriter::put_string(std::string_view text) {
  put_varint(text.size());
  buf_.append(text);
}

void ByteWriter::put_f64_span(std::span<const double> values) {
  put_varint(values.size());
  for (const double v : values) put_f64(v);
}

void ByteWriter::put_u64_span(std::span<const std::uint64_t> values) {
  put_varint(values.size());
  for (const std::uint64_t v : values) put_varint(v);
}

void ByteWriter::put_bool_vec(const std::vector<bool>& values) {
  put_varint(values.size());
  for (std::size_t i = 0; i < values.size(); i += 8) {
    std::uint8_t packed = 0;
    for (std::size_t bit = 0; bit < 8 && i + bit < values.size(); ++bit) {
      if (values[i + bit]) packed |= static_cast<std::uint8_t>(1u << bit);
    }
    put_u8(packed);
  }
}

util::Status ByteReader::truncated(std::string_view field) const {
  return util::Status::data_loss("truncated checkpoint: EOF mid-" + std::string(field) +
                                 " at offset " + std::to_string(pos_));
}

util::Status ByteReader::overlong(std::string_view field) const {
  return util::Status::data_loss("corrupt checkpoint: overlong varint in " +
                                 std::string(field) + " at offset " +
                                 std::to_string(pos_ - 1));
}

util::StatusOr<std::string> ByteReader::get_string(std::string_view field) {
  auto len = get_varint(field);
  if (!len.ok()) return len.status();
  if (data_.size() - pos_ < *len) return truncated(field);
  std::string out(data_.substr(pos_, *len));
  pos_ += *len;
  return out;
}

util::StatusOr<std::string_view> ByteReader::get_bytes(std::size_t count,
                                                       std::string_view field) {
  if (data_.size() - pos_ < count) return truncated(field);
  std::string_view out = data_.substr(pos_, count);
  pos_ += count;
  return out;
}

util::Status ByteReader::get_f64_span(std::span<double> out, std::string_view field) {
  auto count = get_varint(field);
  if (!count.ok()) return count.status();
  if (*count != out.size()) {
    return util::Status::data_loss("corrupt checkpoint: " + std::string(field) + " holds " +
                                   std::to_string(*count) + " values, expected " +
                                   std::to_string(out.size()));
  }
  for (double& v : out) {
    auto value = get_f64(field);
    if (!value.ok()) return value.status();
    v = *value;
  }
  return util::Status::ok_status();
}

util::StatusOr<std::vector<double>> ByteReader::get_f64_vec(std::string_view field) {
  auto count = get_varint(field);
  if (!count.ok()) return count.status();
  if (*count > remaining() / 8) return truncated(field);
  std::vector<double> out(*count);
  for (double& v : out) {
    auto value = get_f64(field);
    if (!value.ok()) return value.status();
    v = *value;
  }
  return out;
}

util::Status ByteReader::get_u64_span(std::span<std::uint64_t> out, std::string_view field) {
  auto count = get_varint(field);
  if (!count.ok()) return count.status();
  if (*count != out.size()) {
    return util::Status::data_loss("corrupt checkpoint: " + std::string(field) + " holds " +
                                   std::to_string(*count) + " values, expected " +
                                   std::to_string(out.size()));
  }
  for (std::uint64_t& v : out) {
    auto value = get_varint(field);
    if (!value.ok()) return value.status();
    v = *value;
  }
  return util::Status::ok_status();
}

util::Status ByteReader::get_bool_vec(std::vector<bool>& out, std::string_view field) {
  auto count = get_varint(field);
  if (!count.ok()) return count.status();
  out.assign(*count, false);
  for (std::size_t i = 0; i < *count; i += 8) {
    auto packed = get_u8(field);
    if (!packed.ok()) return packed.status();
    for (std::size_t bit = 0; bit < 8 && i + bit < *count; ++bit) {
      out[i + bit] = (*packed >> bit) & 1;
    }
  }
  return util::Status::ok_status();
}

}  // namespace wildenergy::ckpt
