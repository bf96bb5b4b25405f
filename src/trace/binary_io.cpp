#include "trace/binary_io.h"

#include <bit>
#include <cstring>
#include <istream>
#include <ostream>

#include "ckpt/codec.h"
#include "obs/metrics.h"
#include "trace/batch.h"
#include "trace/validating_sink.h"

namespace wildenergy::trace {

namespace {

constexpr char kMagic[4] = {'W', 'E', 'T', 'R'};
constexpr std::uint8_t kVersion = 1;

// Varint/zigzag/FNV wire idioms are the shared ckpt/codec.h primitives; this
// file only owns the WETR record framing and its positioned diagnostics.
using ckpt::unzigzag;
using ckpt::zigzag;

}  // namespace

BinaryTraceWriter::BinaryTraceWriter(std::ostream& os) : os_(os) {
  os_.write(kMagic, sizeof kMagic);
  os_.put(static_cast<char>(kVersion));
  bytes_written_ = sizeof kMagic + 1;
}

void BinaryTraceWriter::put_byte(std::uint8_t b) {
  os_.put(static_cast<char>(b));
  checksum_ = ckpt::fnv1a_step(checksum_, b);
  ++bytes_written_;
}

void BinaryTraceWriter::put_varint(std::uint64_t v) {
  ckpt::encode_varint(v, [this](std::uint8_t byte) { put_byte(byte); });
}

void BinaryTraceWriter::put_f64(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) put_byte(static_cast<std::uint8_t>(bits >> (8 * i)));
}

void BinaryTraceWriter::on_study_begin(const StudyMeta& meta) {
  put_byte('M');
  put_varint(meta.num_users);
  put_varint(meta.num_apps);
  put_varint(zigzag(meta.study_begin.us));
  put_varint(zigzag(meta.study_end.us));
}

void BinaryTraceWriter::on_user_begin(UserId user) {
  put_byte('U');
  put_varint(user);
  last_time_us_ = 0;
}

void BinaryTraceWriter::on_packet(const PacketRecord& p) {
  put_byte('P');
  put_varint(zigzag(p.time.us - last_time_us_));
  last_time_us_ = p.time.us;
  put_varint(p.user);
  put_varint(p.app);
  put_varint(p.flow);
  put_varint(p.bytes);
  put_byte(static_cast<std::uint8_t>(p.direction == radio::Direction::kUplink ? 1 : 0) |
           static_cast<std::uint8_t>(p.interface == Interface::kWifi ? 2 : 0) |
           static_cast<std::uint8_t>(static_cast<std::uint8_t>(p.state) << 2));
  put_f64(p.joules);
}

void BinaryTraceWriter::on_transition(const StateTransition& t) {
  put_byte('T');
  put_varint(zigzag(t.time.us - last_time_us_));
  last_time_us_ = t.time.us;
  put_varint(t.user);
  put_varint(t.app);
  put_byte(static_cast<std::uint8_t>(t.from));
  put_byte(static_cast<std::uint8_t>(t.to));
}

void BinaryTraceWriter::on_user_end(UserId user) {
  put_byte('V');
  put_varint(user);
}

void BinaryTraceWriter::on_study_end() {
  put_byte('E');
  // Trailing checksum (not itself checksummed).
  const std::uint64_t sum = checksum_;
  for (int i = 0; i < 8; ++i) {
    os_.put(static_cast<char>(static_cast<std::uint8_t>(sum >> (8 * i))));
    ++bytes_written_;
  }
  os_.flush();
}

namespace {

/// Why a primitive read failed: framing damage comes in two distinct
/// flavors that must produce distinct errors (truncation is expected in the
/// wild; an overlong varint is always corruption).
enum class ReadFail { kNone, kEof, kOverlongVarint };

class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is) {}

  bool get_byte(std::uint8_t& b) {
    const int c = is_.get();
    if (c == EOF) {
      fail_ = ReadFail::kEof;
      return false;
    }
    b = static_cast<std::uint8_t>(c);
    checksum_ = ckpt::fnv1a_step(checksum_, b);
    ++offset_;
    return true;
  }

  bool get_varint(std::uint64_t& v) {
    switch (ckpt::decode_varint(v, [this](std::uint8_t& b) { return get_byte(b); })) {
      case ckpt::VarintFail::kOk:
        return true;
      case ckpt::VarintFail::kEof:
        return false;  // get_byte already latched ReadFail::kEof
      case ckpt::VarintFail::kOverlong:
        fail_ = ReadFail::kOverlongVarint;
        return false;
    }
    return false;
  }

  bool get_f64(double& v) {
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      std::uint8_t b = 0;
      if (!get_byte(b)) return false;
      bits |= static_cast<std::uint64_t>(b) << (8 * i);
    }
    v = std::bit_cast<double>(bits);
    return true;
  }

  /// Reads the trailing checksum without feeding it into the running sum.
  bool get_trailer(std::uint64_t& sum) {
    sum = 0;
    for (int i = 0; i < 8; ++i) {
      const int c = is_.get();
      if (c == EOF) {
        fail_ = ReadFail::kEof;
        return false;
      }
      sum |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(c)) << (8 * i);
      ++offset_;
    }
    return true;
  }

  /// True if any byte remains after the trailer (trailing garbage).
  bool at_eof() { return is_.peek() == EOF; }

  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }
  [[nodiscard]] ReadFail last_fail() const { return fail_; }
  /// Payload bytes consumed so far (excludes magic + version).
  [[nodiscard]] std::uint64_t offset() const { return offset_; }

 private:
  std::istream& is_;
  std::uint64_t checksum_ = ckpt::kFnvOffset;
  std::uint64_t offset_ = 0;
  ReadFail fail_ = ReadFail::kNone;
};

/// Decodes frames one record at a time into `batcher`, which hands
/// EventBatches to the validator and flushes before every bracket.
void decode_binary(std::istream& is, EventBatcher& batcher, const ReadOptions& options,
                   ReadSummary& result) {
  auto& registry = obs::MetricsRegistry::current();
  const auto fail = [&](std::string why) {
    result.status = util::Status::data_loss(std::move(why));
  };

  char magic[4] = {};
  is.read(magic, sizeof magic);
  if (is.gcount() != sizeof magic || std::memcmp(magic, kMagic, sizeof magic) != 0) {
    return fail("bad magic");
  }
  const int version = is.get();
  if (version != kVersion) return fail("unsupported version");

  Reader reader{is};
  std::int64_t last_time_us = 0;

  // Skip the rest of the current (fully framed) record under the lenient
  // policies, or report `why` as fatal under kStrict.
  const auto drop_record = [&](const std::string& why, const std::string& snippet) {
    ++result.records_dropped;
    registry.counter("ingest.records_dropped").inc();
    if (result.quarantine.size() < options.max_quarantine) {
      result.quarantine.push_back({reader.offset(), why, snippet});
    }
  };
  // Framing damage: the record boundary is lost, so no policy can resync.
  // kBestEffort degrades to "stream ends here"; the others fail.
  const auto framing = [&](const std::string& why) {
    if (options.policy == ReadPolicy::kBestEffort) {
      result.truncated = true;
      if (result.quarantine.size() < options.max_quarantine) {
        result.quarantine.push_back({reader.offset(), why, ""});
      }
      return;
    }
    fail(why);
  };
  // EOF vs overlong varint mid-record yield distinct, located errors.
  const auto record_cut = [&](const char* record) {
    const std::string where = " at offset " + std::to_string(reader.offset());
    if (reader.last_fail() == ReadFail::kOverlongVarint) {
      return framing("overlong varint in " + std::string(record) + where);
    }
    return framing("truncated stream: EOF mid-" + std::string(record) + where);
  };

  for (;;) {
    std::uint8_t tag = 0;
    if (!reader.get_byte(tag)) {
      return framing("truncated stream: no study end (E) record at offset " +
                     std::to_string(reader.offset()));
    }
    ++result.records;
    switch (tag) {
      case 'M': {
        StudyMeta meta;
        std::uint64_t users = 0;
        std::uint64_t apps = 0;
        std::uint64_t begin = 0;
        std::uint64_t end = 0;
        if (!reader.get_varint(users) || !reader.get_varint(apps) ||
            !reader.get_varint(begin) || !reader.get_varint(end)) {
          return record_cut("meta record");
        }
        meta.num_users = static_cast<std::uint32_t>(users);
        meta.num_apps = static_cast<std::uint32_t>(apps);
        meta.study_begin.us = unzigzag(begin);
        meta.study_end.us = unzigzag(end);
        batcher.on_study_begin(meta);
        break;
      }
      case 'U':
      case 'V': {
        std::uint64_t user = 0;
        if (!reader.get_varint(user)) return record_cut("user record");
        if (tag == 'U') {
          last_time_us = 0;
          batcher.on_user_begin(static_cast<UserId>(user));
        } else {
          batcher.on_user_end(static_cast<UserId>(user));
        }
        break;
      }
      case 'P': {
        PacketRecord p;
        std::uint64_t dt = 0;
        std::uint64_t user = 0;
        std::uint64_t app = 0;
        std::uint8_t flags = 0;
        if (!reader.get_varint(dt) || !reader.get_varint(user) || !reader.get_varint(app) ||
            !reader.get_varint(p.flow) || !reader.get_varint(p.bytes) ||
            !reader.get_byte(flags) || !reader.get_f64(p.joules)) {
          return record_cut("packet record");
        }
        const std::int64_t time_us = last_time_us + unzigzag(dt);
        const auto state = static_cast<std::uint8_t>(flags >> 2);
        if (state >= kNumProcessStates) {
          // The record is fully framed, so lenient policies can skip just it.
          if (options.policy == ReadPolicy::kStrict) {
            return fail("bad process state in packet record at offset " +
                        std::to_string(reader.offset()));
          }
          last_time_us = time_us;  // later deltas still chain off this record
          drop_record("bad process state in packet record",
                      "state=" + std::to_string(state));
          break;
        }
        if (time_us < last_time_us && options.policy == ReadPolicy::kBestEffort) {
          // A backwards delta violates the per-user time order the writer
          // guarantees; clamp rather than poison downstream analyses.
          ++result.records_repaired;
          registry.counter("ingest.records_repaired").inc();
          if (result.quarantine.size() < options.max_quarantine) {
            result.quarantine.push_back(
                {reader.offset(), "backwards packet timestamp clamped",
                 "dt=" + std::to_string(unzigzag(dt)) + "us"});
          }
        } else {
          last_time_us = time_us;
        }
        p.time.us = last_time_us;
        p.user = static_cast<UserId>(user);
        p.app = static_cast<AppId>(app);
        p.direction = (flags & 1) ? radio::Direction::kUplink : radio::Direction::kDownlink;
        p.interface = (flags & 2) ? Interface::kWifi : Interface::kCellular;
        p.state = static_cast<ProcessState>(state);
        batcher.add(p);
        break;
      }
      case 'T': {
        StateTransition t;
        std::uint64_t dt = 0;
        std::uint64_t user = 0;
        std::uint64_t app = 0;
        std::uint8_t from = 0;
        std::uint8_t to = 0;
        if (!reader.get_varint(dt) || !reader.get_varint(user) || !reader.get_varint(app) ||
            !reader.get_byte(from) || !reader.get_byte(to)) {
          return record_cut("transition record");
        }
        const std::int64_t time_us = last_time_us + unzigzag(dt);
        if (from >= kNumProcessStates || to >= kNumProcessStates) {
          if (options.policy == ReadPolicy::kStrict) {
            return fail("bad process state in transition record at offset " +
                        std::to_string(reader.offset()));
          }
          last_time_us = time_us;
          drop_record("bad process state in transition record",
                      "from=" + std::to_string(from) + " to=" + std::to_string(to));
          break;
        }
        if (time_us < last_time_us && options.policy == ReadPolicy::kBestEffort) {
          ++result.records_repaired;
          registry.counter("ingest.records_repaired").inc();
          if (result.quarantine.size() < options.max_quarantine) {
            result.quarantine.push_back(
                {reader.offset(), "backwards transition timestamp clamped",
                 "dt=" + std::to_string(unzigzag(dt)) + "us"});
          }
        } else {
          last_time_us = time_us;
        }
        t.time.us = last_time_us;
        t.user = static_cast<UserId>(user);
        t.app = static_cast<AppId>(app);
        t.from = static_cast<ProcessState>(from);
        t.to = static_cast<ProcessState>(to);
        batcher.add(t);
        break;
      }
      case 'E': {
        const std::uint64_t computed = reader.checksum();
        std::uint64_t stored = 0;
        if (!reader.get_trailer(stored)) {
          return framing("truncated stream: EOF mid-checksum at offset " +
                         std::to_string(reader.offset()));
        }
        if (stored != computed) {
          if (options.policy == ReadPolicy::kBestEffort) {
            result.checksum_ok = false;
            if (result.quarantine.size() < options.max_quarantine) {
              result.quarantine.push_back({reader.offset(), "checksum mismatch", ""});
            }
          } else {
            return fail("checksum mismatch");
          }
        }
        if (!reader.at_eof()) {
          if (options.policy == ReadPolicy::kBestEffort) {
            if (result.quarantine.size() < options.max_quarantine) {
              result.quarantine.push_back(
                  {reader.offset(), "trailing garbage after checksum ignored", ""});
            }
          } else {
            return fail("trailing garbage after checksum at offset " +
                        std::to_string(reader.offset()));
          }
        }
        batcher.on_study_end();
        return;
      }
      default:
        if (options.policy == ReadPolicy::kBestEffort) {
          return framing("unknown record tag " + std::to_string(tag) + " at offset " +
                         std::to_string(reader.offset()) + "; cannot resync");
        }
        return fail("unknown record tag " + std::to_string(tag) + " at offset " +
                    std::to_string(reader.offset()));
    }
  }
}

}  // namespace

ReadSummary read_binary_trace(std::istream& is, TraceSink& sink, const ReadOptions& options) {
  return read_validated(sink, options, [&](EventBatcher& batcher, ReadSummary& result) {
    decode_binary(is, batcher, options, result);
  });
}

util::Status BinaryTraceSource::emit(TraceSink& sink, std::size_t batch_size) {
  if (consumed_) {
    is_.clear();
    is_.seekg(0);
    if (!is_) {
      return util::Status::failed_precondition(
          "binary trace source: stream already consumed and not seekable");
    }
  }
  consumed_ = true;
  ReadOptions options = options_;
  options.batch_size = batch_size;
  MetaCaptureSink capture(&sink, &meta_);
  summary_ = read_binary_trace(is_, capture, options);
  return summary_.status;
}

}  // namespace wildenergy::trace
