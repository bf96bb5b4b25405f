// The binary trace format: WESG columnar segments (trace/segment.h), the one
// binary encoding of an event stream. Round trip, size, and what damage to a
// segment file does: open verifies the FNV-1a trailer before it trusts any
// field, so every framing fault — a cut at any offset, a flipped bit,
// trailing bytes, a malformed varint behind a valid trailer — is a
// positioned data_loss naming the file, never a silent wrong replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "ckpt/codec.h"
#include "energy/ledger.h"
#include "fault/injector.h"
#include "seal.h"
#include "sim/generator.h"
#include "trace/csv_io.h"
#include "trace/segment.h"
#include "trace/sink.h"
#include "util/status.h"

namespace wildenergy::trace {
namespace {

namespace fs = std::filesystem;

sim::StudyConfig tiny_config() {
  sim::StudyConfig cfg = sim::small_study(7);
  cfg.num_users = 2;
  cfg.num_days = 7;
  cfg.total_apps = 40;
  return cfg;
}

fs::path segment_path(const std::string& name) {
  return fs::temp_directory_path() / ("wildenergy_binary_format_" + name + ".wesg");
}

/// Write `bytes` as a segment file and open it.
util::Status open_bytes(const std::string& bytes, const std::string& name,
                        MappedSegment& segment) {
  const fs::path path = segment_path(name);
  {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  return segment.open(path.string());
}

/// Replay a segment of single-chunk users into `sink` as one study.
util::Status replay_bytes(const std::string& bytes, const std::string& name, TraceSink& sink) {
  MappedSegment segment;
  if (util::Status opened = open_bytes(bytes, name, segment); !opened.ok()) return opened;
  sink.on_study_begin(segment.meta());
  for (const SegmentChunkInfo& chunk : segment.chunks()) {
    sink.on_user_begin(chunk.user);
    std::int64_t last_time_us = std::numeric_limits<std::int64_t>::min();
    if (util::Status st = segment.replay_chunk(chunk, sink, 64, last_time_us); !st.ok()) {
      return st;
    }
    sink.on_user_end(chunk.user);
  }
  sink.on_study_end();
  return util::Status::ok_status();
}

/// Recompute the u64 LE FNV-1a trailer, so hand-made damage gets past the
/// checksum and reaches the parser.
void refresh_trailer(std::string& bytes) {
  const std::uint64_t sum = ckpt::fnv1a(std::string_view{bytes}.substr(0, bytes.size() - 8));
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] = static_cast<char>(sum >> (8 * i));
  }
}

/// A segment whose meta region is exactly `meta_bytes`, an empty index and a
/// valid trailer.
std::string segment_with_meta(const std::string& meta_bytes) {
  std::string bytes{kSegmentMagic, sizeof kSegmentMagic};
  bytes += static_cast<char>(kSegmentVersion);
  bytes += meta_bytes;
  const std::uint64_t index_offset = bytes.size();
  bytes += '\0';  // chunk count 0
  for (int i = 0; i < 8; ++i) bytes += static_cast<char>(index_offset >> (8 * i));
  bytes += std::string(8, '\0');
  refresh_trailer(bytes);
  return bytes;
}

void expect_data_loss(const util::Status& status, const std::string& name) {
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kDataLoss);
  EXPECT_NE(status.message().find(segment_path(name).filename().string()), std::string::npos)
      << "status does not name the file: " << status.message();
}

TEST(BinaryIo, RoundTripPreservesEveryField) {
  const sim::StudyGenerator gen{tiny_config()};
  TraceCollector original;
  gen.run(original);

  TraceCollector replayed;
  const util::Status status = replay_bytes(seal_study(gen), "roundtrip", replayed);
  ASSERT_TRUE(status.ok()) << status.to_string();

  ASSERT_EQ(replayed.packets().size(), original.packets().size());
  ASSERT_EQ(replayed.transitions().size(), original.transitions().size());
  EXPECT_EQ(replayed.meta().num_users, original.meta().num_users);
  EXPECT_EQ(replayed.meta().num_apps, original.meta().num_apps);
  EXPECT_EQ(replayed.meta().study_begin.us, original.meta().study_begin.us);
  EXPECT_EQ(replayed.meta().study_end.us, original.meta().study_end.us);
  for (std::size_t i = 0; i < original.packets().size(); ++i) {
    const auto& a = original.packets()[i];
    const auto& b = replayed.packets()[i];
    EXPECT_EQ(a.time.us, b.time.us);
    EXPECT_EQ(a.user, b.user);
    EXPECT_EQ(a.app, b.app);
    EXPECT_EQ(a.flow, b.flow);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.direction, b.direction);
    EXPECT_EQ(a.interface, b.interface);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.joules, b.joules);  // raw IEEE bits on the wire: bit-exact
  }
  for (std::size_t i = 0; i < original.transitions().size(); ++i) {
    EXPECT_EQ(original.transitions()[i].time.us, replayed.transitions()[i].time.us);
    EXPECT_EQ(original.transitions()[i].user, replayed.transitions()[i].user);
    EXPECT_EQ(original.transitions()[i].app, replayed.transitions()[i].app);
    EXPECT_EQ(original.transitions()[i].from, replayed.transitions()[i].from);
    EXPECT_EQ(original.transitions()[i].to, replayed.transitions()[i].to);
  }
}

TEST(BinaryIo, SubstantiallySmallerThanCsv) {
  const sim::StudyGenerator gen{tiny_config()};
  std::ostringstream csv;
  CsvTraceWriter csv_writer{csv};
  gen.run(csv_writer);
  EXPECT_LT(seal_study(gen).size() * 2, csv.str().size());  // at least 2x smaller
}

TEST(BinaryIo, RejectsBadMagic) {
  {
    MappedSegment segment;
    const util::Status status = open_bytes("NOPE....", "short", segment);
    expect_data_loss(status, "short");
    EXPECT_NE(status.message().find("file too short"), std::string::npos) << status.message();
  }
  // Behind a valid trailer the magic itself is what fails.
  std::string bytes = seal_study(sim::StudyGenerator{tiny_config()});
  bytes.replace(0, 4, "NOPE");
  refresh_trailer(bytes);
  MappedSegment segment;
  const util::Status status = open_bytes(bytes, "bad_magic", segment);
  expect_data_loss(status, "bad_magic");
  EXPECT_NE(status.message().find("bad magic"), std::string::npos) << status.message();
}

TEST(BinaryIo, DetectsCorruption) {
  std::string bytes = seal_study(sim::StudyGenerator{tiny_config()});
  bytes[bytes.size() / 2] ^= 0x40;  // flip a byte in the middle of the payload
  MappedSegment segment;
  const util::Status status = open_bytes(bytes, "flipped", segment);
  expect_data_loss(status, "flipped");
  EXPECT_NE(status.message().find("checksum mismatch"), std::string::npos) << status.message();
}

TEST(BinaryIo, DetectsTruncation) {
  std::string bytes = seal_study(sim::StudyGenerator{tiny_config()});
  bytes.resize(bytes.size() / 2);
  MappedSegment segment;
  expect_data_loss(open_bytes(bytes, "halved", segment), "halved");
}

TEST(BinaryIo, EmptyStudyRoundTrips) {
  StudyMeta meta;
  meta.num_users = 0;
  meta.num_apps = 0;
  SegmentImage writer{meta};
  TraceCollector sink;
  const util::Status status = replay_bytes(writer.finish(), "empty", sink);
  EXPECT_TRUE(status.ok()) << status.to_string();
  EXPECT_EQ(sink.meta().num_users, 0u);
  EXPECT_TRUE(sink.packets().empty());
  EXPECT_TRUE(sink.transitions().empty());
}

TEST(BinaryIoGaps, RejectsTrailingGarbageAfterEndRecord) {
  // The trailer is the file's last 16 bytes, so bytes appended after it
  // shift the trailer and the checksum no longer matches.
  std::string bytes = seal_study(sim::StudyGenerator{tiny_config()});
  bytes += "trailing garbage that must not be read";
  MappedSegment segment;
  const util::Status status = open_bytes(bytes, "trailing", segment);
  expect_data_loss(status, "trailing");
  EXPECT_NE(status.message().find("checksum mismatch"), std::string::npos) << status.message();
}

TEST(BinaryRobustness, TruncationAtEveryByteOffsetFailsCleanly) {
  // A hand-built segment small enough for an exhaustive sweep: the header,
  // every meta varint, each column stream, the index and the trailer all get
  // cut at least once.
  StudyMeta meta;
  meta.num_users = 1;
  meta.num_apps = 4;
  meta.study_end.us = 10'000'000;
  EventBatch events;
  events.user = 0;
  PacketRecord p;
  p.time.us = 123'456;
  p.app = 3;
  p.flow = 1;
  p.bytes = 1500;
  p.joules = 0.25;
  events.add(p);
  StateTransition t;
  t.time.us = 200'000;
  t.app = 3;
  t.from = ProcessState::kForeground;
  t.to = ProcessState::kService;
  events.add(t);
  SegmentImage writer{meta};
  writer.add_chunk(events, 0, true);
  const std::string bytes = writer.finish();
  ASSERT_GT(bytes.size(), 16u);
  {
    TraceCollector whole;
    ASSERT_TRUE(replay_bytes(bytes, "tiny", whole).ok());
    ASSERT_EQ(whole.packets().size(), 1u);
  }
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    SCOPED_TRACE("prefix of " + std::to_string(cut) + " bytes");
    TraceCollector sink;
    expect_data_loss(replay_bytes(bytes.substr(0, cut), "tiny_cut", sink), "tiny_cut");
    EXPECT_TRUE(sink.packets().empty());  // nothing of a damaged file is replayed
  }
}

TEST(BinaryRobustness, TruncationOfAGeneratedStudySampledOffsets) {
  // The generated segment is too large for an exhaustive sweep; a prime
  // stride still lands cuts in the middle of real delta-coded records.
  sim::StudyConfig cfg = tiny_config();
  cfg.num_users = 1;
  cfg.num_days = 1;
  const std::string bytes = seal_study(sim::StudyGenerator{cfg});
  ASSERT_GT(bytes.size(), 1000u);
  for (std::size_t cut = 0; cut < bytes.size(); cut += 97) {
    SCOPED_TRACE("prefix of " + std::to_string(cut) + " bytes");
    MappedSegment segment;
    expect_data_loss(open_bytes(bytes.substr(0, cut), "study_cut", segment), "study_cut");
  }
}

TEST(BinaryRobustness, OverlongVarintIsADistinctError) {
  // 10 continuation bytes: one too many for a 64-bit varint.
  MappedSegment segment;
  const util::Status status =
      open_bytes(segment_with_meta(std::string(10, '\x80') + '\0'), "overlong", segment);
  expect_data_loss(status, "overlong");
  EXPECT_NE(status.message().find("overlong varint"), std::string::npos) << status.message();
}

TEST(BinaryRobustness, EofMidVarintIsATruncationError) {
  // Continuation bit set, then the meta region ends.
  MappedSegment segment;
  const util::Status status = open_bytes(segment_with_meta("\x80"), "eof_varint", segment);
  expect_data_loss(status, "eof_varint");
  EXPECT_NE(status.message().find("EOF mid-segment meta users"), std::string::npos)
      << status.message();
}

TEST(BinaryRobustness, EofMidChecksumIsATruncationError) {
  std::string bytes = seal_study(sim::StudyGenerator{tiny_config()});
  bytes.resize(bytes.size() - 3);  // cut into the 8-byte trailer
  MappedSegment segment;
  expect_data_loss(open_bytes(bytes, "eof_checksum", segment), "eof_checksum");
}

// A fault is surfaced or harmless: a damaged segment that still opens must
// replay the clean ledger exactly.
TEST(CorruptionProperty, BinaryFaultsAreNeverSilent) {
  sim::StudyConfig cfg = tiny_config();
  cfg.num_users = 1;
  cfg.num_days = 1;
  const std::string clean_bytes = seal_study(sim::StudyGenerator{cfg});
  energy::EnergyLedger clean;
  ASSERT_TRUE(replay_bytes(clean_bytes, "property_clean", clean).ok());
  ASSERT_GT(clean.total_packets(), 0u);

  for (const auto kind :
       {fault::CorruptionKind::kBitFlip, fault::CorruptionKind::kTruncate,
        fault::CorruptionKind::kDuplicateSpan, fault::CorruptionKind::kSwapSpans}) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      SCOPED_TRACE(std::string{fault::to_string(kind)} + " seed " + std::to_string(seed));
      const auto damaged = fault::apply_corruption(clean_bytes, {kind, seed});
      ASSERT_TRUE(damaged.ok());
      energy::EnergyLedger ledger;
      const util::Status status = replay_bytes(*damaged, "property", ledger);
      if (*damaged != clean_bytes) {
        expect_data_loss(status, "property");
        continue;
      }
      // Degenerate damage (e.g. two identical spans swapped) left the bytes
      // as they were: the replay must be the clean one.
      ASSERT_TRUE(status.ok()) << status.to_string();
      EXPECT_EQ(ledger.total_packets(), clean.total_packets());
      EXPECT_EQ(ledger.total_bytes(), clean.total_bytes());
      EXPECT_EQ(ledger.total_joules(), clean.total_joules());
    }
  }
}

}  // namespace
}  // namespace wildenergy::trace
