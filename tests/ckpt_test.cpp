// Checkpoint subsystem unit tests (src/ckpt/, DESIGN.md §13): wire codec,
// snapshot framing, writer rotation and injected write faults, and the
// corruption matrix — every byte-level damage kind from fault/injector.h
// applied to an on-disk checkpoint must either be detected (reader falls
// back to the last good sequence, never silently) or leave the payload
// byte-identical to what was written.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/codec.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "trace/sink.h"
#include "util/status.h"

namespace wildenergy {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test; removed up front so reruns are clean.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("wildenergy_ckpt_test_" + name);
  fs::remove_all(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

void write_file(const fs::path& path, std::string_view bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

trace::StudyMeta test_meta() {
  trace::StudyMeta meta;
  meta.num_users = 6;
  meta.num_apps = 80;
  meta.study_begin = TimePoint{1'000'000};
  meta.study_end = TimePoint{2'000'000};
  return meta;
}

ckpt::Snapshot test_snapshot(std::uint64_t tag) {
  ckpt::Snapshot snap;
  snap.meta = test_meta();
  snap.completed_users = {0, 1, 3};
  snap.failed_users = {2};
  snap.set_counter("off_interface_packets", 41 + tag);
  snap.set_counter("tag", tag);
  snap.add_section("ledger", std::string("\x01\x02\x00\xff payload ", 13) +
                                 std::to_string(tag));
  snap.add_section("attributor", "second section");
  return snap;
}

// ------------------------------------------------------------------ codec

TEST(CheckpointCodec, PrimitivesRoundTripBitExactly) {
  ckpt::ByteWriter w;
  w.put_u8(0xA5);
  w.put_varint(0);
  w.put_varint(127);
  w.put_varint(128);
  w.put_varint(0xFFFF'FFFF'FFFF'FFFFULL);
  w.put_f64(0.1);                                   // not exactly representable
  w.put_f64(-0.0);                                  // sign bit must survive
  w.put_string("hello\0world");                     // embedded NUL truncates the literal,
  const std::vector<double> doubles{1.5, -2.25, 3.75};
  w.put_f64_span(doubles);
  const std::vector<std::uint64_t> ints{7, 0, 1ULL << 40};
  w.put_u64_span(ints);
  const std::vector<bool> bools{true, false, true, true, false, false, true, false, true};
  w.put_bool_vec(bools);

  ckpt::ByteReader r{w.bytes()};
  EXPECT_EQ(r.get_u8("u8").value(), 0xA5);
  EXPECT_EQ(r.get_varint("v0").value(), 0u);
  EXPECT_EQ(r.get_varint("v127").value(), 127u);
  EXPECT_EQ(r.get_varint("v128").value(), 128u);
  EXPECT_EQ(r.get_varint("vmax").value(), 0xFFFF'FFFF'FFFF'FFFFULL);
  const double f1 = r.get_f64("f1").value();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(f1), std::bit_cast<std::uint64_t>(0.1));
  const double f2 = r.get_f64("f2").value();
  EXPECT_TRUE(std::signbit(f2));
  EXPECT_EQ(r.get_string("s").value(), "hello");
  std::vector<double> doubles_out(doubles.size());
  ASSERT_TRUE(r.get_f64_span(doubles_out, "doubles").ok());
  EXPECT_EQ(doubles_out, doubles);
  std::vector<std::uint64_t> ints_out(ints.size());
  ASSERT_TRUE(r.get_u64_span(ints_out, "ints").ok());
  EXPECT_EQ(ints_out, ints);
  std::vector<bool> bools_out;
  ASSERT_TRUE(r.get_bool_vec(bools_out, "bools").ok());
  EXPECT_EQ(bools_out, bools);
  EXPECT_TRUE(r.at_end());
}

TEST(CheckpointCodec, TruncationErrorsArePositionedAndNamed) {
  ckpt::ByteWriter w;
  w.put_varint(300);
  w.put_string("abcdef");
  const std::string full = w.bytes();

  // Cut mid-string: the varint length survives but the bytes do not.
  ckpt::ByteReader r{std::string_view{full}.substr(0, full.size() - 3)};
  ASSERT_TRUE(r.get_varint("count").ok());
  const auto s = r.get_string("name");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.status().to_string().find("name"), std::string::npos);
  EXPECT_NE(s.status().to_string().find("offset"), std::string::npos);
}

TEST(CheckpointCodec, OverlongVarintIsRejected) {
  // Eleven continuation bytes: more than any canonical 64-bit LEB128.
  const std::string overlong(11, '\x80');
  ckpt::ByteReader r{overlong};
  EXPECT_FALSE(r.get_varint("v").ok());
}

// --------------------------------------------------------------- snapshot

TEST(CheckpointSnapshot, EncodeDecodeRoundTrip) {
  const ckpt::Snapshot snap = test_snapshot(/*tag=*/9);
  const std::string bytes = ckpt::encode_snapshot(snap, /*seq=*/17);

  std::uint64_t seq = 0;
  const auto decoded = ckpt::decode_snapshot(bytes, &seq);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(seq, 17u);
  EXPECT_EQ(decoded->meta.num_users, snap.meta.num_users);
  EXPECT_EQ(decoded->meta.num_apps, snap.meta.num_apps);
  EXPECT_EQ(decoded->meta.study_begin.us, snap.meta.study_begin.us);
  EXPECT_EQ(decoded->meta.study_end.us, snap.meta.study_end.us);
  EXPECT_EQ(decoded->completed_users, snap.completed_users);
  EXPECT_EQ(decoded->failed_users, snap.failed_users);
  EXPECT_EQ(decoded->counters, snap.counters);
  EXPECT_EQ(decoded->sections, snap.sections);
  // Absent names resolve to the additive defaults, not errors.
  EXPECT_EQ(decoded->counter("no_such_counter"), 0u);
  EXPECT_EQ(decoded->section("no_such_section"), nullptr);
}

TEST(CheckpointSnapshot, Version1SnapshotIsRefusedByName) {
  // Version 1 sink sections led with a lifecycle mode byte and carried whole
  // resident per-user arrays; version 2 carries folded aggregates plus
  // pending rows. Re-seal the checksum so the version is the only damage.
  std::string bytes = ckpt::encode_snapshot(test_snapshot(/*tag=*/1), /*seq=*/1);
  ASSERT_EQ(static_cast<std::uint8_t>(bytes[sizeof ckpt::kCheckpointMagic]),
            ckpt::kCheckpointVersion);
  bytes[sizeof ckpt::kCheckpointMagic] = 1;
  const std::uint64_t checksum = ckpt::fnv1a(std::string_view{bytes}.substr(0, bytes.size() - 8));
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<char>(checksum >> (8 * i));
  }
  const auto decoded = ckpt::decode_snapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kDataLoss);
  EXPECT_NE(decoded.status().message().find("unsupported checkpoint version 1"),
            std::string::npos)
      << decoded.status().message();
}

TEST(CheckpointSnapshot, EveryDamagedByteIsDetected) {
  const std::string bytes = ckpt::encode_snapshot(test_snapshot(/*tag=*/1), /*seq=*/1);
  // Flip one bit in every byte of the frame — magic, version, payload, and
  // checksum trailer alike. The checksum (or framing) must catch each one.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string damaged = bytes;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x10);
    EXPECT_FALSE(ckpt::decode_snapshot(damaged).ok()) << "undetected flip at byte " << i;
  }
  // And any truncation, including losing just the last checksum byte.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3}, bytes.size() - 1}) {
    EXPECT_FALSE(ckpt::decode_snapshot(std::string_view{bytes}.substr(0, keep)).ok());
  }
}

TEST(CheckpointSnapshot, StaleMetaIsRejectedWithTheMismatchNamed) {
  const ckpt::Snapshot snap = test_snapshot(/*tag=*/1);
  EXPECT_TRUE(ckpt::check_snapshot_meta(snap, test_meta()).ok());

  trace::StudyMeta other = test_meta();
  other.num_users = 12;
  const util::Status bad = ckpt::check_snapshot_meta(snap, other);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.to_string().find("users"), std::string::npos);
}

// ---------------------------------------------------- writer/reader cycle

TEST(CheckpointWriter, RotationKeepsOnlyTheNewestTwo) {
  const fs::path dir = scratch_dir("rotation");
  ckpt::CheckpointWriter writer{dir.string()};
  for (std::uint64_t tag = 1; tag <= 4; ++tag) {
    ASSERT_TRUE(writer.write(test_snapshot(tag)).ok());
  }
  EXPECT_EQ(writer.checkpoints_written(), 4u);
  EXPECT_GT(writer.bytes_written(), 0u);

  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator{dir}) {
    ++files;
    (void)entry;
  }
  EXPECT_EQ(files, 2u);  // keep_last = 2

  const auto loaded = ckpt::CheckpointReader::load_latest(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->seq, 4u);
  EXPECT_EQ(loaded->recovered_from_seq, 0u);
  EXPECT_EQ(loaded->snapshot.counter("tag"), 4u);
  fs::remove_all(dir);
}

TEST(CheckpointWriter, SequenceNumberingContinuesAfterResume) {
  const fs::path dir = scratch_dir("seq");
  {
    ckpt::CheckpointWriter writer{dir.string()};
    ASSERT_TRUE(writer.write(test_snapshot(1)).ok());
  }
  const auto loaded = ckpt::CheckpointReader::load_latest(dir.string());
  ASSERT_TRUE(loaded.ok());
  ckpt::CheckpointWriter resumed{dir.string()};
  resumed.set_next_seq(loaded->seq + 1);
  ASSERT_TRUE(resumed.write(test_snapshot(2)).ok());
  const auto after = ckpt::CheckpointReader::load_latest(dir.string());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->seq, 2u);
  EXPECT_EQ(after->snapshot.counter("tag"), 2u);
  fs::remove_all(dir);
}

TEST(CheckpointWriter, InjectedIoErrorIsCountedAndLeavesPreviousIntact) {
  const fs::path dir = scratch_dir("io_error");
  fault::FaultPlan plan;
  plan.add_checkpoint_fault(
      fault::parse_checkpoint_fault_spec("nth=2,kind=io-error").value());
  ckpt::CheckpointWriter writer{dir.string(), {.keep_last = 2, .fault_plan = &plan}};
  ASSERT_TRUE(writer.write(test_snapshot(1)).ok());
  EXPECT_FALSE(writer.write(test_snapshot(2)).ok());
  EXPECT_EQ(writer.checkpoints_written(), 1u);
  EXPECT_EQ(writer.write_failures(), 1u);

  const auto loaded = ckpt::CheckpointReader::load_latest(dir.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->seq, 1u);
  EXPECT_EQ(loaded->snapshot.counter("tag"), 1u);
  fs::remove_all(dir);
}

TEST(CheckpointWriter, InjectedShortWriteFallsBackToLastGood) {
  const fs::path dir = scratch_dir("short_write");
  fault::FaultPlan plan;
  plan.add_checkpoint_fault(
      fault::parse_checkpoint_fault_spec("nth=2,kind=short-write,truncate_to=16").value());
  ckpt::CheckpointWriter writer{dir.string(), {.keep_last = 2, .fault_plan = &plan}};
  ASSERT_TRUE(writer.write(test_snapshot(1)).ok());
  (void)writer.write(test_snapshot(2));  // lands torn

  const auto loaded = ckpt::CheckpointReader::load_latest(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->seq, 1u);
  EXPECT_EQ(loaded->recovered_from_seq, 1u);  // never a silent fallback
  EXPECT_EQ(loaded->rejected, 1u);
  EXPECT_EQ(loaded->snapshot.counter("tag"), 1u);
  fs::remove_all(dir);
}

TEST(CheckpointWriter, InjectedHardStopThrowsAfterTheFileLands) {
  const fs::path dir = scratch_dir("hard_stop");
  fault::FaultPlan plan;
  plan.add_checkpoint_fault(
      fault::parse_checkpoint_fault_spec("nth=1,kind=hard-stop").value());
  ckpt::CheckpointWriter writer{dir.string(), {.keep_last = 2, .fault_plan = &plan}};
  EXPECT_THROW((void)writer.write(test_snapshot(1)), fault::ShardFault);

  // The kill fires *after* the rename: the checkpoint must be loadable.
  const auto loaded = ckpt::CheckpointReader::load_latest(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->seq, 1u);
  fs::remove_all(dir);
}

TEST(CheckpointReader, MissingDirectoryIsNotFound) {
  const auto loaded =
      ckpt::CheckpointReader::load_latest((scratch_dir("missing") / "nope").string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

TEST(CheckpointReader, EmptyDirectoryIsNotFound) {
  const fs::path dir = scratch_dir("empty");
  fs::create_directories(dir);
  const auto loaded = ckpt::CheckpointReader::load_latest(dir.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
  fs::remove_all(dir);
}

// ------------------------------------------------------ corruption matrix

TEST(CheckpointCorruption, EveryDamageKindFallsBackOrDecodesIdentically) {
  const fs::path dir = scratch_dir("matrix");
  {
    ckpt::CheckpointWriter writer{dir.string()};
    ASSERT_TRUE(writer.write(test_snapshot(1)).ok());
    ASSERT_TRUE(writer.write(test_snapshot(2)).ok());
  }
  const fs::path newest = dir / "ckpt_00000002";
  ASSERT_TRUE(fs::exists(newest));
  const std::string clean = read_file(newest);

  for (const fault::CorruptionKind kind :
       {fault::CorruptionKind::kBitFlip, fault::CorruptionKind::kTruncate,
        fault::CorruptionKind::kDuplicateSpan, fault::CorruptionKind::kSwapSpans}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const auto damaged = fault::apply_corruption(clean, {kind, seed});
      ASSERT_TRUE(damaged.ok());
      write_file(newest, *damaged);

      const auto loaded = ckpt::CheckpointReader::load_latest(dir.string());
      ASSERT_TRUE(loaded.ok())
          << fault::to_string(kind) << " seed " << seed << ": " << loaded.status().to_string();
      if (*damaged == clean) {
        // Degenerate corruption (e.g. swapping identical spans): the file is
        // byte-identical, so the newest sequence must still decode.
        EXPECT_EQ(loaded->seq, 2u);
        EXPECT_EQ(loaded->snapshot.counter("tag"), 2u);
      } else {
        // Damage detected: fall back to the last good sequence, loudly.
        EXPECT_EQ(loaded->seq, 1u) << fault::to_string(kind) << " seed " << seed;
        EXPECT_EQ(loaded->recovered_from_seq, 1u);
        EXPECT_EQ(loaded->rejected, 1u);
        EXPECT_EQ(loaded->snapshot.counter("tag"), 1u);
      }
      write_file(newest, clean);  // restore for the next cell
    }
  }
  fs::remove_all(dir);
}

TEST(CheckpointCorruption, AllCheckpointsDamagedIsDataLossNotSilence) {
  const fs::path dir = scratch_dir("all_damaged");
  {
    ckpt::CheckpointWriter writer{dir.string()};
    ASSERT_TRUE(writer.write(test_snapshot(1)).ok());
    ASSERT_TRUE(writer.write(test_snapshot(2)).ok());
  }
  for (const auto& entry : fs::directory_iterator{dir}) {
    const std::string clean = read_file(entry.path());
    write_file(entry.path(), clean.substr(0, 8));  // tear every file
  }
  const auto loaded = ckpt::CheckpointReader::load_latest(dir.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
  fs::remove_all(dir);
}

// ---------------------------------------------------------- fault parsing

TEST(CheckpointFaultSpec, ParsesEveryKind) {
  const auto hard = fault::parse_checkpoint_fault_spec("nth=2,kind=hard-stop");
  ASSERT_TRUE(hard.ok());
  EXPECT_EQ(hard->nth_write, 2u);
  EXPECT_EQ(hard->kind, fault::CheckpointFaultKind::kHardStop);

  const auto torn = fault::parse_checkpoint_fault_spec("nth=1,kind=short-write,truncate_to=16");
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(torn->kind, fault::CheckpointFaultKind::kShortWrite);

  const auto io = fault::parse_checkpoint_fault_spec("nth=3,kind=io-error");
  ASSERT_TRUE(io.ok());
  EXPECT_EQ(io->kind, fault::CheckpointFaultKind::kIoError);

  // nth defaults to the first write when omitted.
  const auto first = fault::parse_checkpoint_fault_spec("kind=hard-stop");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->nth_write, 1u);
}

TEST(CheckpointFaultSpec, RejectsMalformedSpecs) {
  EXPECT_FALSE(fault::parse_checkpoint_fault_spec("").ok());
  EXPECT_FALSE(fault::parse_checkpoint_fault_spec("nth=2,kind=explode").ok());
  EXPECT_FALSE(fault::parse_checkpoint_fault_spec("nth=zero,kind=hard-stop").ok());
  EXPECT_FALSE(fault::parse_checkpoint_fault_spec("nth=2 kind=hard-stop").ok());
}

}  // namespace
}  // namespace wildenergy
