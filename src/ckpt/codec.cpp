#include "ckpt/codec.h"

namespace wildenergy::ckpt {

namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;
/// 10 7-bit groups cover 64 bits; an 11th continuation byte is always corrupt.
constexpr int kMaxVarintBytes = 10;

}  // namespace

std::uint64_t fnv1a(std::string_view data) {
  std::uint64_t hash = kFnvOffset;
  for (const char c : data) hash = (hash ^ static_cast<std::uint8_t>(c)) * kFnvPrime;
  return hash;
}

void ByteWriter::put_varint(std::uint64_t value) {
  while (value >= 0x80) {
    buf_.push_back(static_cast<char>(static_cast<std::uint8_t>(value) | 0x80));
    value >>= 7;
  }
  buf_.push_back(static_cast<char>(value));
}

void ByteWriter::put_f64(double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int shift = 0; shift < 64; shift += 8) {
    buf_.push_back(static_cast<char>((bits >> shift) & 0xFF));
  }
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

util::StatusOr<std::uint8_t> ByteReader::get_u8(std::string_view field) {
  if (pos_ >= data_.size()) return truncated(field);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

util::StatusOr<std::uint64_t> ByteReader::get_varint(std::string_view field) {
  std::uint64_t value = 0;
  for (int i = 0; i < kMaxVarintBytes; ++i) {
    if (pos_ >= data_.size()) return truncated(field);
    const auto byte = static_cast<std::uint8_t>(data_[pos_++]);
    // The last byte may only contribute the top bit of the 64-bit value:
    // anything else (including a continuation bit) is an overlong varint.
    if (i == kMaxVarintBytes - 1 && byte > 1) break;
    value |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) return value;
  }
  // Positioned at the offending byte, which has been consumed.
  return util::Status::data_loss("corrupt checkpoint: overlong varint in " +
                                 std::string(field) + " at offset " +
                                 std::to_string(pos_ - 1));
}

util::StatusOr<double> ByteReader::get_f64(std::string_view field) {
  if (data_.size() - pos_ < 8) return truncated(field);
  std::uint64_t bits = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    bits |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_++])) << shift;
  }
  return std::bit_cast<double>(bits);
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
