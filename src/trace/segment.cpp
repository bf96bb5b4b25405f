#include "trace/segment.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <ostream>

namespace wildenergy::trace {

namespace {

/// Room past kDrainBytes for the most add_chunk or finish append between two
/// drain checks (the index count and one entry, then the footer), so a
/// draining buffer never reallocates.
constexpr std::size_t kDrainSlackBytes = 256;

/// The first failed status among decoded fields, or nullptr when all
/// decoded: the fields are read first and checked once, in read order.
template <typename... Fields>
const util::Status* first_error(const Fields&... fields) {
  const util::Status* bad = nullptr;
  ([&] { if (bad == nullptr && !fields.ok()) bad = &fields.status(); }(), ...);
  return bad;
}

std::uint8_t packet_flags(const PacketRecord& p) {
  return static_cast<std::uint8_t>(p.direction == radio::Direction::kUplink ? 1 : 0) |
         static_cast<std::uint8_t>(p.interface == Interface::kWifi ? 2 : 0) |
         static_cast<std::uint8_t>(static_cast<std::uint8_t>(p.state) << 2);
}

}  // namespace

// --- SegmentWriter ---------------------------------------------------------

void SegmentWriter::begin(const StudyMeta& meta, std::ostream& out) {
  out_ = &out;
  drained_ = 0;
  hash_ = ckpt::kFnv1aBasis;
  chunks_.clear();
  body_.clear();
  body_.reserve(kDrainBytes + kDrainSlackBytes);
  body_.put_bytes({kSegmentMagic, sizeof kSegmentMagic});
  body_.put_u8(kSegmentVersion);
  body_.put_varint(meta.num_users);
  body_.put_varint(meta.num_apps);
  body_.put_varint(ckpt::zigzag(meta.study_begin.us));
  body_.put_varint(ckpt::zigzag(meta.study_end.us));
}

void SegmentWriter::drain() {
  const std::string& bytes = body_.bytes();
  hash_ = ckpt::fnv1a(bytes, hash_);
  out_->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  drained_ += bytes.size();
  body_.clear();
}

void SegmentWriter::add_chunk(const EventBatch& events, std::uint32_t seq, bool final_chunk) {
  // The three column streams go into the file one after another; their
  // lengths are the distances between the offsets they start at. Each
  // record is laid out on the stack and appended in one call.
  const std::size_t packets_at = size();
  std::int64_t pkt_time = 0;
  for (const PacketRecord& p : events.packets) {
    char record[4 * ckpt::kMaxVarintBytes + 1 + 8];
    std::size_t n = ckpt::encode_varint(ckpt::zigzag(p.time.us - pkt_time), record);
    pkt_time = p.time.us;
    n += ckpt::encode_varint(p.app, record + n);
    n += ckpt::encode_varint(p.flow, record + n);
    n += ckpt::encode_varint(p.bytes, record + n);
    record[n++] = static_cast<char>(packet_flags(p));
    ckpt::encode_u64le(std::bit_cast<std::uint64_t>(p.joules), record + n);
    body_.put_bytes({record, n + 8});
    drain_if_full();
  }

  const std::size_t transitions_at = size();
  std::int64_t tr_time = 0;
  for (const StateTransition& t : events.transitions) {
    char record[2 * ckpt::kMaxVarintBytes + 2];
    std::size_t n = ckpt::encode_varint(ckpt::zigzag(t.time.us - tr_time), record);
    tr_time = t.time.us;
    n += ckpt::encode_varint(t.app, record + n);
    record[n++] = static_cast<char>(t.from);
    record[n++] = static_cast<char>(t.to);
    body_.put_bytes({record, n});
    drain_if_full();
  }

  const std::size_t order_at = size();
  std::uint64_t runs = 0;
  std::size_t oi = 0;
  const std::size_t n = events.order.size();
  while (oi < n) {
    const EventKind kind = events.order[oi];
    std::size_t run = 1;
    while (oi + run < n && events.order[oi + run] == kind) ++run;
    body_.put_u8(static_cast<std::uint8_t>(kind));
    body_.put_varint(run);
    drain_if_full();
    ++runs;
    oi += run;
  }

  chunks_.push_back({events.user, seq, final_chunk, events.packets.size(),
                     events.transitions.size(), runs, transitions_at - packets_at,
                     order_at - transitions_at, size() - order_at});
}

void SegmentWriter::finish() {
  const std::uint64_t index_offset = size();
  body_.put_varint(chunks_.size());
  for (const PendingChunk& c : chunks_) {
    body_.put_varint(c.user);
    body_.put_varint(c.seq);
    body_.put_u8(c.final_chunk ? 1 : 0);
    body_.put_varint(c.packets);
    body_.put_varint(c.transitions);
    body_.put_varint(c.order_runs);
    body_.put_varint(c.packets_len);
    body_.put_varint(c.transitions_len);
    body_.put_varint(c.order_len);
    drain_if_full();
  }
  ckpt::finish_indexed(body_, index_offset, hash_);
  chunks_.clear();
  drain();
  out_ = nullptr;
}

// --- MappedSegment ---------------------------------------------------------

util::Status MappedSegment::corrupt(const std::string& why) const {
  return util::Status::data_loss("segment " + path_ + ": " + why);
}

util::Status MappedSegment::open(const std::string& path) {
  path_ = path;
  if (!file_.open(path)) return corrupt("cannot open file");
  util::Status parsed = parse();
  // The checksum pass released each window as it went; drop what the index
  // parse read, so replay refaults only what it reads.
  file_.release();
  return parsed;
}

util::Status MappedSegment::parse() {
  constexpr std::size_t kHeader = ckpt::kIndexedHeaderBytes;
  constexpr std::size_t kFooter = ckpt::kIndexedFooterBytes;
  const std::string_view all = file_.bytes();
  const std::size_t size = all.size();
  const auto framed =
      ckpt::check_indexed(file_, {kSegmentMagic, sizeof kSegmentMagic}, kSegmentVersion);
  if (!framed.ok()) return corrupt(framed.status().message());
  const std::size_t index_offset = *framed;

  ckpt::ByteReader meta_reader{all.substr(kHeader, index_offset - kHeader)};
  const auto users = meta_reader.get_varint("segment meta users");
  const auto apps = meta_reader.get_varint("segment meta apps");
  const auto begin = meta_reader.get_varint("segment meta begin");
  const auto end = meta_reader.get_varint("segment meta end");
  if (const util::Status* bad = first_error(users, apps, begin, end)) {
    return corrupt(bad->message());
  }
  meta_.num_users = static_cast<std::uint32_t>(*users);
  meta_.num_apps = static_cast<std::uint32_t>(*apps);
  meta_.study_begin.us = ckpt::unzigzag(*begin);
  meta_.study_end.us = ckpt::unzigzag(*end);
  const std::size_t payload_start = kHeader + meta_reader.offset();

  ckpt::ByteReader index{all.substr(index_offset, size - kFooter - index_offset)};
  const auto count = index.get_varint("segment index count");
  if (!count.ok()) return corrupt(count.status().message());
  if (*count > index.remaining()) {
    // Each index entry is at least 9 bytes; a count beyond the remaining
    // index bytes is corrupt and must not drive a giant allocation.
    return corrupt("implausible chunk count " + std::to_string(*count));
  }
  chunks_.clear();
  chunks_.reserve(static_cast<std::size_t>(*count));
  std::size_t cursor = payload_start;
  for (std::uint64_t i = 0; i < *count; ++i) {
    SegmentChunkInfo chunk;
    const auto user = index.get_varint("chunk user");
    const auto seq = index.get_varint("chunk seq");
    const auto flags = index.get_u8("chunk flags");
    const auto packets = index.get_varint("chunk packets");
    const auto transitions = index.get_varint("chunk transitions");
    const auto runs = index.get_varint("chunk order runs");
    const auto packets_len = index.get_varint("chunk packets length");
    const auto transitions_len = index.get_varint("chunk transitions length");
    const auto order_len = index.get_varint("chunk order length");
    if (const util::Status* bad = first_error(user, seq, flags, packets, transitions, runs,
                                              packets_len, transitions_len, order_len)) {
      return corrupt(bad->message());
    }
    if (*user > std::numeric_limits<UserId>::max() ||
        *seq > std::numeric_limits<std::uint32_t>::max()) {
      return corrupt("chunk " + std::to_string(i) + " user/seq out of range");
    }
    chunk.user = static_cast<UserId>(*user);
    chunk.seq = static_cast<std::uint32_t>(*seq);
    chunk.final_chunk = (*flags & 1) != 0;
    chunk.packets = *packets;
    chunk.transitions = *transitions;
    chunk.order_runs = *runs;
    // Lower-bound sanity on stream lengths: a packet encodes to >= 13
    // bytes, a transition to >= 4, an order run to >= 2.
    const std::size_t span = size - kFooter;
    if (*packets_len > span || *transitions_len > span || *order_len > span ||
        chunk.packets * 13 > *packets_len || chunk.transitions * 4 > *transitions_len ||
        chunk.order_runs * 2 > *order_len) {
      return corrupt("chunk " + std::to_string(i) + " lengths inconsistent with counts");
    }
    chunk.packets_offset = cursor;
    chunk.packets_len = static_cast<std::size_t>(*packets_len);
    cursor += chunk.packets_len;
    chunk.transitions_offset = cursor;
    chunk.transitions_len = static_cast<std::size_t>(*transitions_len);
    cursor += chunk.transitions_len;
    chunk.order_offset = cursor;
    chunk.order_len = static_cast<std::size_t>(*order_len);
    cursor += chunk.order_len;
    if (cursor > index_offset) {
      return corrupt("chunk " + std::to_string(i) + " overruns the payload");
    }
    chunks_.push_back(chunk);
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

std::uint64_t MappedSegment::index_bytes() const {
  return sizeof(*this) + chunks_.capacity() * sizeof(SegmentChunkInfo) + path_.capacity() +
         file_.buffered_bytes();
}

util::Status MappedSegment::replay_chunk(const SegmentChunkInfo& chunk, TraceSink& sink,
                                         std::size_t batch_size,
                                         std::int64_t& last_time_us) const {
  assert(batch_size >= 1);
  util::Status status = decode_chunk(chunk, sink, batch_size, last_time_us);
  // Done with the chunk's pages, on every path: a later replay refaults them.
  const std::size_t end = chunk.order_offset + chunk.order_len;
  file_.release(chunk.packets_offset, end > chunk.packets_offset ? end - chunk.packets_offset : 0);
  return status;
}

util::Status MappedSegment::decode_chunk(const SegmentChunkInfo& chunk, TraceSink& sink,
                                         std::size_t batch_size,
                                         std::int64_t& last_time_us) const {
  const std::string_view all = file_.bytes();
  const auto in_file = [&](std::size_t off, std::size_t len) {
    return off <= all.size() && len <= all.size() - off;
  };
  if (!in_file(chunk.packets_offset, chunk.packets_len) ||
      !in_file(chunk.transitions_offset, chunk.transitions_len) ||
      !in_file(chunk.order_offset, chunk.order_len)) {
    return corrupt("chunk span out of file bounds");
  }
  const std::string where =
      "user " + std::to_string(chunk.user) + " chunk " + std::to_string(chunk.seq) + ": ";

  ckpt::ByteReader packets{all.substr(chunk.packets_offset, chunk.packets_len)};
  ckpt::ByteReader transitions{all.substr(chunk.transitions_offset, chunk.transitions_len)};
  ckpt::ByteReader order{all.substr(chunk.order_offset, chunk.order_len)};

  EventBatch scratch;
  scratch.user = chunk.user;
  scratch.reserve(std::min<std::uint64_t>(batch_size, chunk.events()));
  const auto deliver = [&] {
    if (scratch.size() >= batch_size) {
      sink.on_batch(scratch);
      scratch.clear();
    }
  };

  // The stream contract ValidatingSink enforces on the CSV reader, held here
  // unconditionally: a checksum-valid segment can still carry a stream no
  // sink may see (a buggy writer, a hand-made file).
  const bool has_window = meta_.study_end.us > meta_.study_begin.us;
  std::uint64_t event = 0;
  const auto out_of_order = [&](const char* what, std::int64_t t) {
    const std::string why = where + "event " + std::to_string(event) + " (" + what +
                            ") at t=" + std::to_string(t) + "us ";
    if (t < last_time_us) {
      return corrupt(why + "runs backwards from t=" + std::to_string(last_time_us) + "us");
    }
    return corrupt(why + "lies outside the study window [" +
                   std::to_string(meta_.study_begin.us) + ", " +
                   std::to_string(meta_.study_end.us) + "]us");
  };
  const auto in_order = [&](std::int64_t t) {
    return t >= last_time_us &&
           (!has_window || (t >= meta_.study_begin.us && t <= meta_.study_end.us));
  };

  std::int64_t pkt_time = 0;
  std::int64_t tr_time = 0;
  std::uint64_t pk_seen = 0;
  std::uint64_t tr_seen = 0;
  for (std::uint64_t r = 0; r < chunk.order_runs; ++r) {
    const auto kind = order.get_u8("order kind");
    if (!kind.ok()) return corrupt(where + kind.status().message());
    const auto run = order.get_varint("order run");
    if (!run.ok()) return corrupt(where + run.status().message());
    if (*kind > 1) return corrupt(where + "bad order kind " + std::to_string(*kind));
    if (*kind == static_cast<std::uint8_t>(EventKind::kPacket)) {
      if (*run > chunk.packets - pk_seen) return corrupt(where + "packet run overflows chunk");
      // The run decodes straight into the batch, a batch's room at a time.
      for (std::uint64_t left = *run; left > 0;) {
        const std::size_t piece = std::min<std::uint64_t>(left, batch_size - scratch.size());
        const std::size_t first = scratch.packets.size();
        scratch.packets.resize(first + piece);
        for (std::size_t j = first; j < first + piece; ++j) {
          const auto dt = packets.get_varint("packet dt");
          const auto app = packets.get_varint("packet app");
          const auto flow = packets.get_varint("packet flow");
          const auto bytes = packets.get_varint("packet bytes");
          const auto flags = packets.get_u8("packet flags");
          const auto joules = packets.get_f64("packet joules");
          if (const util::Status* bad = first_error(dt, app, flow, bytes, flags, joules))
              [[unlikely]] {
            return corrupt(where + bad->message());
          }
          const auto state = static_cast<std::uint8_t>(*flags >> 2);
          if (*app > kNoApp || state >= kNumProcessStates) [[unlikely]] {
            return corrupt(where + "bad packet fields at offset " +
                           std::to_string(packets.offset()));
          }
          pkt_time += ckpt::unzigzag(*dt);
          if (!in_order(pkt_time)) [[unlikely]] return out_of_order("packet", pkt_time);
          last_time_us = pkt_time;
          ++event;
          PacketRecord& p = scratch.packets[j];
          p.time.us = pkt_time;
          p.user = chunk.user;
          p.app = static_cast<AppId>(*app);
          p.flow = *flow;
          p.bytes = *bytes;
          p.direction = (*flags & 1) ? radio::Direction::kUplink : radio::Direction::kDownlink;
          p.interface = (*flags & 2) ? Interface::kWifi : Interface::kCellular;
          p.state = static_cast<ProcessState>(state);
          p.joules = *joules;
        }
        scratch.order.insert(scratch.order.end(), piece, EventKind::kPacket);
        left -= piece;
        deliver();
      }
      pk_seen += *run;
    } else {
      if (*run > chunk.transitions - tr_seen) {
        return corrupt(where + "transition run overflows chunk");
      }
      for (std::uint64_t j = 0; j < *run; ++j) {
        const auto dt = transitions.get_varint("transition dt");
        const auto app = transitions.get_varint("transition app");
        const auto from = transitions.get_u8("transition from");
        const auto to = transitions.get_u8("transition to");
        if (const util::Status* bad = first_error(dt, app, from, to)) [[unlikely]] {
          return corrupt(where + bad->message());
        }
        if (*app > kNoApp || *from >= kNumProcessStates || *to >= kNumProcessStates) {
          return corrupt(where + "bad transition fields at offset " +
                         std::to_string(transitions.offset()));
        }
        tr_time += ckpt::unzigzag(*dt);
        if (!in_order(tr_time)) return out_of_order("transition", tr_time);
        last_time_us = tr_time;
        ++event;
        StateTransition t;
        t.time.us = tr_time;
        t.user = chunk.user;
        t.app = static_cast<AppId>(*app);
        t.from = static_cast<ProcessState>(*from);
        t.to = static_cast<ProcessState>(*to);
        scratch.add(t);
        deliver();
      }
      tr_seen += *run;
    }
  }
  if (pk_seen != chunk.packets || tr_seen != chunk.transitions) {
    return corrupt(where + "decoded event counts disagree with index");
  }
  if (!packets.at_end() || !transitions.at_end() || !order.at_end()) {
    return corrupt(where + "undecoded bytes left in chunk streams");
  }
  if (!scratch.empty()) sink.on_batch(scratch);
  return util::Status::ok_status();
}

}  // namespace wildenergy::trace
