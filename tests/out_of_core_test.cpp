// Out-of-core trace plane (trace/segment.h, trace/spilling_store.h,
// sim/population.h; DESIGN.md §14).
//
// The hard requirements under test:
//   - WESG segments round-trip chunks bit-exactly at every batch size.
//   - Corruption matrix: every fault/injector.h damage kind applied to a
//     sealed segment yields a positioned util::Status on open — never a
//     silent wrong replay. A checksum-valid segment whose stream breaks the
//     protocol (time runs backwards, leaves the study window) fails its
//     replay with a positioned data_loss, through the store and the CLI.
//   - A SpillingTraceStore sealing into a directory replays bit-identical to
//     one with no directory (all resident): same ledgers, figures, and
//     analyses at batch sizes {1, 256, 4096} and thread counts {1, 2, 8};
//     the budget actually bounds resident columns. Without a directory the
//     store touches no file, resume included.
//   - Kill-and-recover: a capture killed mid-study leaves sealed segments a
//     resuming capture reuses — only the missing users are regenerated.
//   - Populations: user k's stream is identical at any population size, and
//     the paper-default StudyConfig still produces the legacy streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ledger_compare.h"
#include "seal.h"
#include "analysis/figures.h"
#include "analysis/persistence.h"
#include "appmodel/catalog.h"
#include "core/pipeline.h"
#include "core/policy.h"
#include "core/sweep.h"
#include "energy/ledger.h"
#include "fault/injector.h"
#include "sim/generator.h"
#include "sim/population.h"
#include "sim/study_config.h"
#include "sim/user_model.h"
#include "trace/batch.h"
#include "trace/csv_io.h"
#include "trace/segment.h"
#include "trace/sink.h"
#include "trace/spilling_store.h"
#include "util/status.h"
#include "util/time.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace wildenergy {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test; removed up front so reruns are clean.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("wildenergy_ooc_test_" + name);
  fs::remove_all(dir);
  return dir;
}

void write_file(const fs::path& path, std::string_view bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

trace::StudyMeta test_meta() {
  trace::StudyMeta meta;
  meta.num_users = 3;
  meta.num_apps = 9;
  meta.study_begin = TimePoint{1'000'000};
  meta.study_end = TimePoint{90'000'000};
  return meta;
}

trace::PacketRecord test_packet(trace::UserId user, std::int64_t us, std::uint32_t app,
                                std::uint64_t bytes) {
  trace::PacketRecord p;
  p.time = TimePoint{us};
  p.user = user;
  p.app = app;
  p.flow = 77'000 + app;
  p.bytes = bytes;
  p.direction = (bytes % 2) == 0 ? radio::Direction::kDownlink : radio::Direction::kUplink;
  p.interface = (bytes % 3) == 0 ? trace::Interface::kWifi : trace::Interface::kCellular;
  p.state = static_cast<trace::ProcessState>(app % trace::kNumProcessStates);
  p.joules = 0.001 * static_cast<double>(bytes) + 0.125;
  return p;
}

trace::StateTransition test_transition(trace::UserId user, std::int64_t us,
                                       std::uint32_t app) {
  trace::StateTransition t;
  t.time = TimePoint{us};
  t.user = user;
  t.app = app;
  t.from = static_cast<trace::ProcessState>(app % trace::kNumProcessStates);
  t.to = static_cast<trace::ProcessState>((app + 1) % trace::kNumProcessStates);
  return t;
}

/// A small chunk with a non-trivial packet/transition interleave, negative
/// time deltas impossible but repeated timestamps present.
trace::EventBatch test_chunk(trace::UserId user, std::int64_t base_us, int events) {
  trace::EventBatch batch;
  batch.user = user;
  for (int i = 0; i < events; ++i) {
    const std::int64_t us = base_us + 1'000 * (i / 2);  // timestamp ties on purpose
    if (i % 3 == 2) {
      batch.add(test_transition(user, us, static_cast<std::uint32_t>(i % 5)));
    } else {
      batch.add(test_packet(user, us, static_cast<std::uint32_t>(i % 7),
                            static_cast<std::uint64_t>(40 + 13 * i)));
    }
  }
  return batch;
}

void expect_identical_columns(const trace::EventBatch& a, const trace::EventBatch& b) {
  ASSERT_EQ(a.order.size(), b.order.size());
  for (std::size_t i = 0; i < a.order.size(); ++i) EXPECT_EQ(a.order[i], b.order[i]);
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    const trace::PacketRecord& pa = a.packets[i];
    const trace::PacketRecord& pb = b.packets[i];
    ASSERT_EQ(pa.time.us, pb.time.us);
    ASSERT_EQ(pa.user, pb.user);
    ASSERT_EQ(pa.app, pb.app);
    ASSERT_EQ(pa.flow, pb.flow);
    ASSERT_EQ(pa.bytes, pb.bytes);
    ASSERT_EQ(pa.direction, pb.direction);
    ASSERT_EQ(pa.interface, pb.interface);
    ASSERT_EQ(pa.state, pb.state);
    ASSERT_EQ(pa.joules, pb.joules);
  }
  ASSERT_EQ(a.transitions.size(), b.transitions.size());
  for (std::size_t i = 0; i < a.transitions.size(); ++i) {
    const trace::StateTransition& ta = a.transitions[i];
    const trace::StateTransition& tb = b.transitions[i];
    ASSERT_EQ(ta.time.us, tb.time.us);
    ASSERT_EQ(ta.user, tb.user);
    ASSERT_EQ(ta.app, tb.app);
    ASSERT_EQ(ta.from, tb.from);
    ASSERT_EQ(ta.to, tb.to);
  }
}

/// Collects a replayed chunk into plain columns (no brackets expected).
trace::EventBatch collect_chunk(const trace::MappedSegment& segment,
                                const trace::SegmentChunkInfo& chunk,
                                std::size_t batch_size) {
  struct ColumnSink final : trace::TraceSink {
    trace::EventBatch out;
    void on_packet(const trace::PacketRecord& p) override { out.add(p); }
    void on_transition(const trace::StateTransition& t) override { out.add(t); }
  } sink;
  std::int64_t last_time_us = std::numeric_limits<std::int64_t>::min();
  const util::Status status = segment.replay_chunk(chunk, sink, batch_size, last_time_us);
  EXPECT_TRUE(status.ok()) << status.to_string();
  sink.out.user = chunk.user;
  return sink.out;
}

// --------------------------------------------------- output comparison kit
// Same assertions as sweep_test.cpp: EXPECT_EQ everywhere, never NEAR — an
// out-of-core replay must be bit-identical to resident replay, not close.

void expect_identical_figures(const energy::EnergyLedger& a, const energy::EnergyLedger& b) {
  const auto pop_a = analysis::top10_popularity(a);
  const auto pop_b = analysis::top10_popularity(b);
  ASSERT_EQ(pop_a.size(), pop_b.size());
  for (std::size_t i = 0; i < pop_a.size(); ++i) {
    EXPECT_EQ(pop_a[i].app, pop_b[i].app);
    EXPECT_EQ(pop_a[i].users_with_app_in_top10, pop_b[i].users_with_app_in_top10);
  }
  const auto cons_a = analysis::top_consumers_by_energy(a);
  const auto cons_b = analysis::top_consumers_by_energy(b);
  ASSERT_EQ(cons_a.size(), cons_b.size());
  for (std::size_t i = 0; i < cons_a.size(); ++i) {
    EXPECT_EQ(cons_a[i].app, cons_b[i].app);
    EXPECT_EQ(cons_a[i].bytes, cons_b[i].bytes);
    EXPECT_EQ(cons_a[i].joules, cons_b[i].joules);
  }
}

sim::StudyConfig ooc_study() {
  sim::StudyConfig config = sim::small_study();
  config.num_days = 30;
  return config;
}

// ---------------------------------------------------------- segment format

TEST(SegmentFormat, ChunksRoundTripBitExactlyAtEveryBatchSize) {
  const fs::path dir = scratch_dir("roundtrip");
  fs::create_directories(dir);
  const trace::StudyMeta meta = test_meta();

  std::vector<trace::EventBatch> chunks;
  chunks.push_back(test_chunk(0, 1'500'000, 57));
  chunks.push_back(test_chunk(2, 2'250'000, 1));   // single-event chunk
  chunks.push_back(test_chunk(1, 9'000'000, 260)); // spans several batches

  SegmentImage writer{meta};
  writer.add_chunk(chunks[0], 0, true);
  writer.add_chunk(chunks[1], 0, true);
  writer.add_chunk(chunks[2], 0, true);
  EXPECT_EQ(writer.chunk_count(), 3u);
  const fs::path file = dir / "seg_000001.wesg";
  write_file(file, writer.finish());

  trace::MappedSegment segment;
  const util::Status opened = segment.open(file.string());
  ASSERT_TRUE(opened.ok()) << opened.to_string();
  EXPECT_EQ(segment.meta().num_users, meta.num_users);
  EXPECT_EQ(segment.meta().num_apps, meta.num_apps);
  EXPECT_EQ(segment.meta().study_begin.us, meta.study_begin.us);
  EXPECT_EQ(segment.meta().study_end.us, meta.study_end.us);
  ASSERT_EQ(segment.chunks().size(), 3u);

  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const trace::SegmentChunkInfo& info = segment.chunks()[c];
    EXPECT_EQ(info.user, chunks[c].user);
    EXPECT_TRUE(info.final_chunk);
    EXPECT_EQ(info.packets, chunks[c].packets.size());
    EXPECT_EQ(info.transitions, chunks[c].transitions.size());
    for (const std::size_t batch_size : {std::size_t{1}, std::size_t{3}, std::size_t{4096}}) {
      const trace::EventBatch replayed = collect_chunk(segment, info, batch_size);
      expect_identical_columns(chunks[c], replayed);
    }
  }
}

TEST(SegmentFormat, EmptyChunkRoundTrips) {
  const fs::path dir = scratch_dir("empty_chunk");
  fs::create_directories(dir);
  trace::EventBatch empty;
  empty.user = 5;
  SegmentImage writer{test_meta()};
  writer.add_chunk(empty, 0, true);
  const fs::path file = dir / "seg_000001.wesg";
  write_file(file, writer.finish());

  trace::MappedSegment segment;
  ASSERT_TRUE(segment.open(file.string()).ok());
  ASSERT_EQ(segment.chunks().size(), 1u);
  EXPECT_EQ(segment.chunks()[0].user, 5u);
  EXPECT_EQ(segment.chunks()[0].events(), 0u);
  const trace::EventBatch replayed = collect_chunk(segment, segment.chunks()[0], 256);
  EXPECT_TRUE(replayed.empty());
}

// ------------------------------------------------------- corruption matrix
// Sealed segments under every fault/injector.h damage kind: open must fail
// with a positioned status naming the file, or — when the corruption is
// degenerate and the bytes are unchanged — decode and replay identically.

TEST(SegmentCorruption, EveryDamageKindIsDetectedNeverSilent) {
  const fs::path dir = scratch_dir("corruption");
  fs::create_directories(dir);
  SegmentImage writer{test_meta()};
  const trace::EventBatch chunk_a = test_chunk(0, 1'200'000, 120);
  const trace::EventBatch chunk_b = test_chunk(1, 3'400'000, 75);
  writer.add_chunk(chunk_a, 0, true);
  writer.add_chunk(chunk_b, 0, true);
  const fs::path file = dir / "seg_000001.wesg";
  const std::string clean = writer.finish();
  write_file(file, clean);
  {
    trace::MappedSegment segment;
    ASSERT_TRUE(segment.open(file.string()).ok());
  }

  for (const fault::CorruptionKind kind :
       {fault::CorruptionKind::kBitFlip, fault::CorruptionKind::kTruncate,
        fault::CorruptionKind::kDuplicateSpan, fault::CorruptionKind::kSwapSpans}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const auto damaged = fault::apply_corruption(clean, {kind, seed});
      ASSERT_TRUE(damaged.ok());
      write_file(file, *damaged);

      trace::MappedSegment segment;
      const util::Status opened = segment.open(file.string());
      if (*damaged == clean) {
        // Degenerate corruption (e.g. swapping identical spans): the bytes
        // did not change, so the segment must still open and replay.
        ASSERT_TRUE(opened.ok())
            << fault::to_string(kind) << " seed " << seed << ": " << opened.to_string();
        ASSERT_EQ(segment.chunks().size(), 2u);
        expect_identical_columns(chunk_a, collect_chunk(segment, segment.chunks()[0], 64));
        expect_identical_columns(chunk_b, collect_chunk(segment, segment.chunks()[1], 64));
      } else {
        ASSERT_FALSE(opened.ok())
            << fault::to_string(kind) << " seed " << seed << ": damage went undetected";
        EXPECT_EQ(opened.code(), util::StatusCode::kDataLoss);
        EXPECT_NE(opened.message().find("seg_000001.wesg"), std::string::npos)
            << "status does not name the damaged file: " << opened.message();
      }
    }
  }
}

// A checksum proves only that a segment holds the bytes its writer wrote.
// These segments are re-encoded by hand from a real chunk — valid framing,
// valid trailer — with a stream no sink may see (time running backwards
// within a chunk or across a chunk chain, a timestamp past the study window,
// an out-of-range enum): the decoder itself must refuse it, naming the file,
// user and chunk, whatever the batch size, and so must `analyze --store-dir`
// (exit 1). WESG has no read policy; the check is always strict.
TEST(SegmentCorruption, ChecksumValidOutOfOrderStreamIsDataLossOnReplay) {
  const fs::path dir = scratch_dir("crafted");
  sim::StudyConfig config = sim::small_study();
  config.num_users = 3;
  config.num_days = 3;
  {
    trace::SpillOptions spill;
    spill.dir = dir.string();  // budget 0: one segment per user
    trace::SpillingTraceStore store{spill};
    sim::StudyGenerator generator{config};
    ASSERT_TRUE(store.capture(generator).ok());
    ASSERT_EQ(store.num_segments(), 3u);
  }
  const fs::path victim = dir / "seg_000002.wesg";
  trace::StudyMeta meta;
  trace::SegmentChunkInfo info;
  trace::EventBatch events;
  {
    trace::MappedSegment segment;
    ASSERT_TRUE(segment.open(victim.string()).ok());
    ASSERT_EQ(segment.chunks().size(), 1u);
    meta = segment.meta();
    info = segment.chunks()[0];
    events = collect_chunk(segment, info, trace::kDefaultBatchSize);
  }  // unmapped before the file is rewritten
  ASSERT_EQ(info.user, 1u);
  ASSERT_GT(events.packets.size(), 10u);

  // One packet set just below its predecessor: the event before it in the
  // interleave is no earlier than that, so time runs backwards there.
  trace::EventBatch backwards = events;
  const std::size_t k = backwards.packets.size() / 2;
  ASSERT_GT(backwards.packets[k - 1].time.us, meta.study_begin.us);
  backwards.packets[k].time.us = backwards.packets[k - 1].time.us - 1;
  // The last packet one microsecond past the study window.
  trace::EventBatch past_end = events;
  past_end.packets.back().time.us = meta.study_end.us + 1;
  // A process state no enum value names, fully framed.
  trace::EventBatch bad_enum = events;
  ASSERT_FALSE(bad_enum.transitions.empty());
  bad_enum.transitions.back().from = static_cast<trace::ProcessState>(200);

  struct Crafted {
    const char* name;
    std::vector<trace::EventBatch> chunks;  ///< one user's chunk chain
    const char* why;
  };
  // Two chunks, each in order on its own, whose chain runs backwards at the
  // seam (the second repeats the first): only a check that carries time
  // across the chain sees it.
  trace::EventBatch head = events;
  head.packets.resize(k);
  head.transitions.clear();
  head.order.assign(k, trace::EventKind::kPacket);
  ASSERT_LT(head.packets.front().time.us, head.packets.back().time.us);
  const std::vector<Crafted> crafted = {
      {"backwards", {backwards}, "runs backwards"},
      {"past study end", {past_end}, "outside the study window"},
      {"bad enum", {bad_enum}, "bad transition fields at offset"},
      {"backwards across the chunk chain", {head, head}, "runs backwards"},
  };
  for (const Crafted& c : crafted) {
    SCOPED_TRACE(c.name);
    SegmentImage writer{meta};
    for (std::size_t seq = 0; seq < c.chunks.size(); ++seq) {
      writer.add_chunk(c.chunks[seq], static_cast<std::uint32_t>(seq),
                       seq + 1 == c.chunks.size());
    }
    write_file(victim, writer.finish());  // finish() writes a valid FNV trailer

    trace::SpillOptions spill;
    spill.dir = dir.string();
    trace::SpillingTraceStore store{spill};
    ASSERT_TRUE(store.open_existing().ok());  // framing and checksum are fine
    ASSERT_EQ(store.num_users(), 3u);
    for (const std::size_t batch_size : {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
      trace::TraceCollector all;
      trace::TraceCollector one;
      for (const util::Status& st :
           {store.emit(all, batch_size), store.emit_user(1, one, batch_size)}) {
        ASSERT_FALSE(st.ok()) << "batch " << batch_size << ": replayed a broken stream";
        EXPECT_EQ(st.code(), util::StatusCode::kDataLoss);
        for (const char* part : {"seg_000002.wesg", "user 1 chunk ", c.why}) {
          EXPECT_NE(st.message().find(part), std::string::npos)
              << "missing '" << part << "': " << st.message();
        }
      }
    }
    // The untouched users still replay.
    trace::TraceCollector other;
    EXPECT_TRUE(store.emit_user(0, other, 64).ok());
    EXPECT_TRUE(store.emit_user(2, other, 64).ok());

#if defined(WILDENERGY_CLI) && (defined(__unix__) || defined(__APPLE__))
    const std::string cmd = std::string{WILDENERGY_CLI} + " analyze --store-dir " +
                            dir.string() + " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 1) << cmd;
#endif
  }
}

// The decoder's truncation errors, pinned field by field. A real chunk (the
// first events of a generated user, sealed by SegmentWriter) is replayed with
// its packet, transition or order stream cut at every byte offset — the
// chunk record handed to replay_chunk says the stream ends there. Each cut
// must fail with the exact message ByteReader gives for the field the cut
// lands in: varint and u8 fields report the cut itself (the bytes read so
// far are consumed), the fixed-width f64 reports the field's start. The
// expected messages come from walking the documented field layout, not from
// the decoder. Whatever is delivered before the error is a prefix of the
// chunk's stream.
TEST(SegmentCorruption, TruncationAtEveryFieldKeepsItsMessage) {
  const fs::path dir = scratch_dir("truncation");
  fs::create_directories(dir);
  sim::StudyConfig config = sim::small_study();
  config.num_users = 1;
  config.num_days = 2;
  trace::SpillingTraceStore resident;
  sim::StudyGenerator generator{config};
  ASSERT_TRUE(resident.capture(generator).ok());

  // User 0's first events, up to its kKinds-th transition, as one chunk.
  constexpr std::size_t kKinds = 6;
  struct PrefixSink final : trace::TraceSink {
    trace::EventBatch out;
    void on_batch(const trace::EventBatch& batch) override {
      const auto take = [this](const auto& event) {
        if (out.transitions.size() < kKinds) out.add(event);
      };
      trace::for_each_event(batch, take, take);
    }
  } prefix;
  ASSERT_TRUE(resident.emit_user(0, prefix, trace::kDefaultBatchSize).ok());
  trace::EventBatch chunk = std::move(prefix.out);
  chunk.user = 0;
  ASSERT_EQ(chunk.transitions.size(), kKinds);
  ASSERT_GE(chunk.packets.size(), kKinds);

  SegmentImage writer{resident.meta()};
  writer.add_chunk(chunk, 0, true);
  const fs::path file = dir / "seg_000001.wesg";
  write_file(file, writer.finish());
  trace::MappedSegment segment;
  ASSERT_TRUE(segment.open(file.string()).ok());
  ASSERT_EQ(segment.chunks().size(), 1u);
  const trace::SegmentChunkInfo info = segment.chunks()[0];
  std::string bytes;
  {
    std::ifstream in{file, std::ios::binary};
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }

  // One encoded field: its name as the decoder reports it and its span.
  struct Field {
    std::string name;
    std::size_t begin = 0;
    std::size_t end = 0;
    bool fixed = false;  ///< f64: a short read does not consume
  };
  // Walk a stream whose records repeat `layout` (field name, width; width 0
  // = varint) until the stream ends.
  const auto walk = [&bytes](std::size_t offset, std::size_t len,
                             const std::vector<std::pair<std::string, int>>& layout) {
    std::vector<Field> fields;
    std::size_t pos = 0;
    while (pos < len) {
      for (const auto& [name, width] : layout) {
        Field f{name, pos, pos, width == 8};
        if (width == 0) {
          while (static_cast<std::uint8_t>(bytes[offset + f.end]) & 0x80) ++f.end;
          ++f.end;
        } else {
          f.end += static_cast<std::size_t>(width);
        }
        pos = f.end;
        fields.push_back(std::move(f));
      }
    }
    EXPECT_EQ(pos, len) << "layout walk overran the stream";
    return fields;
  };
  struct Stream {
    const char* name;
    std::size_t trace::SegmentChunkInfo::*len;
    std::vector<Field> fields;
  };
  const std::vector<Stream> streams = {
      {"packets", &trace::SegmentChunkInfo::packets_len,
       walk(info.packets_offset, info.packets_len,
            {{"packet dt", 0}, {"packet app", 0}, {"packet flow", 0}, {"packet bytes", 0},
             {"packet flags", 1}, {"packet joules", 8}})},
      {"transitions", &trace::SegmentChunkInfo::transitions_len,
       walk(info.transitions_offset, info.transitions_len,
            {{"transition dt", 0}, {"transition app", 0}, {"transition from", 1},
             {"transition to", 1}})},
      {"order", &trace::SegmentChunkInfo::order_len,
       walk(info.order_offset, info.order_len, {{"order kind", 1}, {"order run", 0}})},
  };

  const trace::EventBatch full = collect_chunk(segment, info, trace::kDefaultBatchSize);
  const std::string prefix_of_message = "segment " + file.string() + ": user 0 chunk 0: ";
  std::size_t cuts = 0;
  for (const Stream& stream : streams) {
    SCOPED_TRACE(stream.name);
    for (const Field& field : stream.fields) {
      for (std::size_t cut = field.begin; cut < field.end; ++cut) {
        trace::SegmentChunkInfo damaged = info;
        damaged.*stream.len = cut;
        const std::string expected =
            prefix_of_message + "truncated checkpoint: EOF mid-" + field.name + " at offset " +
            std::to_string(field.fixed ? field.begin : cut);
        for (const std::size_t batch_size : {std::size_t{1}, std::size_t{4096}}) {
          trace::EventBatch delivered;
          struct Collect final : trace::TraceSink {
            trace::EventBatch* out;
            explicit Collect(trace::EventBatch* o) : out(o) {}
            void on_batch(const trace::EventBatch& batch) override { out->append(batch); }
          } sink{&delivered};
          std::int64_t last_time_us = std::numeric_limits<std::int64_t>::min();
          const util::Status st = segment.replay_chunk(damaged, sink, batch_size, last_time_us);
          ASSERT_EQ(st.code(), util::StatusCode::kDataLoss)
              << "cut at " << cut << " batch " << batch_size << ": " << st.to_string();
          ASSERT_EQ(st.message(), expected) << "cut at " << cut << " batch " << batch_size;
          // What was delivered is a strict prefix of the chunk's stream.
          ASSERT_LT(delivered.size(), full.size());
          ASSERT_LE(delivered.packets.size(), full.packets.size());
          ASSERT_LE(delivered.transitions.size(), full.transitions.size());
          for (std::size_t i = 0; i < delivered.order.size(); ++i) {
            ASSERT_EQ(delivered.order[i], full.order[i]);
          }
          for (std::size_t i = 0; i < delivered.packets.size(); ++i) {
            ASSERT_EQ(delivered.packets[i].time.us, full.packets[i].time.us);
            ASSERT_EQ(delivered.packets[i].joules, full.packets[i].joules);
          }
          for (std::size_t i = 0; i < delivered.transitions.size(); ++i) {
            ASSERT_EQ(delivered.transitions[i].time.us, full.transitions[i].time.us);
          }
        }
        ++cuts;
      }
    }
  }
  EXPECT_EQ(cuts, info.packets_len + info.transitions_len + info.order_len);
}

// -------------------------------------------------------- spilling store

TEST(SpillingStore, ReplayBitIdenticalToRamStoreAcrossBatchAndThreads) {
  const fs::path dir = scratch_dir("bit_identical");
  const sim::StudyConfig config = ooc_study();
  sim::StudyGenerator generator{config};

  trace::SpillingTraceStore ram;
  ASSERT_TRUE(ram.capture(generator).ok());

  trace::SpillOptions spill;
  spill.dir = dir.string();
  spill.budget_bytes = 64 * 1024;  // small enough to force several spills
  trace::SpillingTraceStore spilling{spill};
  ASSERT_TRUE(spilling.capture(generator).ok());
  ASSERT_TRUE(spilling.health().ok());
  EXPECT_GT(spilling.num_segments(), 0u);
  EXPECT_GT(spilling.spilled_bytes(), 0u);
  EXPECT_EQ(spilling.event_count(), ram.event_count());

  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{256}, std::size_t{4096}}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      core::PipelineOptions options;
      options.batch_size = batch_size;
      options.num_threads = threads;

      core::StudyPipeline ram_pipeline{&ram, options};
      analysis::PersistenceAnalysis ram_persistence;
      ram_pipeline.add_analysis("persistence", &ram_persistence);
      const auto ram_stats = ram_pipeline.run();
      ASSERT_TRUE(ram_stats.ok()) << ram_stats.status().to_string();

      core::StudyPipeline ooc_pipeline{&spilling, options};
      analysis::PersistenceAnalysis ooc_persistence;
      ooc_pipeline.add_analysis("persistence", &ooc_persistence);
      const auto ooc_stats = ooc_pipeline.run();
      ASSERT_TRUE(ooc_stats.ok()) << ooc_stats.status().to_string();

      SCOPED_TRACE("batch_size=" + std::to_string(batch_size) +
                   " threads=" + std::to_string(threads));
      EXPECT_EQ(ram_stats->packets, ooc_stats->packets);
      EXPECT_EQ(ram_stats->transitions, ooc_stats->transitions);
      EXPECT_EQ(ram_stats->bytes, ooc_stats->bytes);
      EXPECT_EQ(ram_stats->joules, ooc_stats->joules);
      expect_identical_ledgers(ram_pipeline.ledger(), ooc_pipeline.ledger());
      expect_identical_figures(ram_pipeline.ledger(), ooc_pipeline.ledger());
      EXPECT_EQ(ram_persistence.memory_use().resident_bytes > 0,
                ooc_persistence.memory_use().resident_bytes > 0);
      EXPECT_GT(ooc_stats->memory.store.spilled_bytes, 0u);
    }
  }
}

TEST(SpillingStore, EmitUserMatchesRamColumns) {
  const fs::path dir = scratch_dir("emit_user");
  const sim::StudyConfig config = ooc_study();
  sim::StudyGenerator generator{config};
  trace::SpillingTraceStore ram;
  ASSERT_TRUE(ram.capture(generator).ok());
  trace::SpillOptions spill;
  spill.dir = dir.string();
  spill.budget_bytes = 32 * 1024;
  trace::SpillingTraceStore spilling{spill};
  ASSERT_TRUE(spilling.capture(generator).ok());
  ASSERT_EQ(spilling.users(), ram.users());

  for (const trace::UserId user : ram.users()) {
    for (const std::size_t batch_size :
         {std::size_t{0}, std::size_t{1}, std::size_t{4096}}) {
      trace::TraceCollector from_ram;
      trace::TraceCollector from_spill;
      ASSERT_TRUE(ram.emit_user(user, from_ram, batch_size).ok());
      ASSERT_TRUE(spilling.emit_user(user, from_spill, batch_size).ok());
      SCOPED_TRACE("user=" + std::to_string(user) +
                   " batch_size=" + std::to_string(batch_size));
      trace::EventBatch a;
      for (const auto& p : from_ram.packets()) a.add(p);
      trace::EventBatch b;
      for (const auto& p : from_spill.packets()) b.add(p);
      ASSERT_EQ(from_ram.packets().size(), from_spill.packets().size());
      ASSERT_EQ(from_ram.transitions().size(), from_spill.transitions().size());
      for (std::size_t i = 0; i < from_ram.packets().size(); ++i) {
        ASSERT_EQ(from_ram.packets()[i].time.us, from_spill.packets()[i].time.us);
        ASSERT_EQ(from_ram.packets()[i].bytes, from_spill.packets()[i].bytes);
        ASSERT_EQ(from_ram.packets()[i].joules, from_spill.packets()[i].joules);
        ASSERT_EQ(from_ram.packets()[i].flow, from_spill.packets()[i].flow);
      }
      for (std::size_t i = 0; i < from_ram.transitions().size(); ++i) {
        ASSERT_EQ(from_ram.transitions()[i].time.us, from_spill.transitions()[i].time.us);
        ASSERT_EQ(from_ram.transitions()[i].app, from_spill.transitions()[i].app);
      }
    }
  }
}

// batch_size 0 is normalized to 1 once, at the store's public entries: both
// the resident slicer and the sealed decoder then deliver event by event.
TEST(SpillingStore, BatchSizeZeroDeliversOneEventPerBatch) {
  struct BatchCounter final : trace::TraceSink {
    void on_batch(const trace::EventBatch& batch) override {
      ++batches;
      events += batch.size();
      if (batch.size() != 1) ++wider;
    }
    std::uint64_t batches = 0;
    std::uint64_t events = 0;
    std::uint64_t wider = 0;
  };
  sim::StudyConfig config = sim::small_study(/*seed=*/3);
  config.num_users = 2;
  config.num_days = 3;
  sim::StudyGenerator generator{config};
  const fs::path dir = scratch_dir("batch_zero");
  trace::SpillingTraceStore resident;
  trace::SpillingTraceStore sealed{{.dir = dir.string(), .budget_bytes = 0}};
  for (trace::SpillingTraceStore* store : {&resident, &sealed}) {
    ASSERT_TRUE(store->capture(generator).ok());
    SCOPED_TRACE(store == &sealed ? "sealed" : "resident");
    ASSERT_GT(store->event_count(), 0u);
    BatchCounter all;
    ASSERT_TRUE(store->emit(all, 0).ok());
    EXPECT_EQ(all.events, store->event_count());
    EXPECT_EQ(all.batches, all.events);
    EXPECT_EQ(all.wider, 0u);
    BatchCounter one;
    ASSERT_TRUE(store->emit_user(1, one, 0).ok());
    EXPECT_GT(one.events, 0u);
    EXPECT_EQ(one.batches, one.events);
    EXPECT_EQ(one.wider, 0u);
  }
  EXPECT_GT(sealed.num_segments(), 0u);
  EXPECT_EQ(resident.num_segments(), 0u);
}

TEST(SpillingStore, BudgetBoundsResidentColumns) {
  const fs::path dir = scratch_dir("budget");
  const sim::StudyConfig config = ooc_study();
  sim::StudyGenerator generator{config};

  trace::SpillingTraceStore ram;
  ASSERT_TRUE(ram.capture(generator).ok());
  const std::uint64_t full_bytes = ram.memory_use().resident_bytes;
  ASSERT_GT(full_bytes, 128u * 1024u);

  trace::SpillOptions spill;
  spill.dir = dir.string();
  spill.budget_bytes = 48 * 1024;
  trace::SpillingTraceStore spilling{spill};
  ASSERT_TRUE(spilling.capture(generator).ok());
  // The high-water mark of captured column bytes stays far below full
  // residency: within half the budget plus one batch, which
  // SpillingStore.ColumnsStayUnderHalfTheBudgetAtEveryThreadCount pins.
  EXPECT_LT(spilling.max_resident_bytes(), full_bytes / 2);
  EXPECT_GT(spilling.num_segments(), 1u);
  // After a sealed capture everything lives on disk.
  EXPECT_LT(spilling.memory_use().resident_bytes, full_bytes / 2);
  EXPECT_GT(spilling.spilled_bytes(), 0u);
}

TEST(SpillingStore, FullyOutOfCoreAndResidentTailModes) {
  const sim::StudyConfig config = ooc_study();
  sim::StudyGenerator generator{config};
  trace::SpillingTraceStore ram;
  ASSERT_TRUE(ram.capture(generator).ok());

  // budget 0: every user spills as soon as their bracket closes.
  {
    const fs::path dir = scratch_dir("all_disk");
    trace::SpillOptions spill;
    spill.dir = dir.string();
    spill.budget_bytes = 0;
    trace::SpillingTraceStore store{spill};
    ASSERT_TRUE(store.capture(generator).ok());
    EXPECT_GT(store.num_segments(), 0u);
    trace::TraceCollector a;
    trace::TraceCollector b;
    ASSERT_TRUE(ram.emit(a, 256).ok());
    ASSERT_TRUE(store.emit(b, 256).ok());
    ASSERT_EQ(a.packets().size(), b.packets().size());
    ASSERT_EQ(a.transitions().size(), b.transitions().size());
  }

  // Huge budget, fed as a plain sink (no capture(), so no final seal):
  // nothing spills, the resident tail replay path alone must still match.
  {
    const fs::path dir = scratch_dir("all_ram");
    trace::SpillOptions spill;
    spill.dir = dir.string();
    spill.budget_bytes = 1ull << 32;
    trace::SpillingTraceStore store{spill};
    ASSERT_TRUE(generator.emit(store, trace::kDefaultBatchSize).ok());
    ASSERT_TRUE(store.health().ok()) << store.health().to_string();
    EXPECT_EQ(store.num_segments(), 0u);
    EXPECT_EQ(store.spilled_bytes(), 0u);
    trace::TraceCollector a;
    trace::TraceCollector b;
    ASSERT_TRUE(ram.emit(a, 64).ok());
    ASSERT_TRUE(store.emit(b, 64).ok());
    ASSERT_EQ(a.packets().size(), b.packets().size());
    ASSERT_EQ(a.transitions().size(), b.transitions().size());
    for (std::size_t i = 0; i < a.packets().size(); ++i) {
      ASSERT_EQ(a.packets()[i].time.us, b.packets()[i].time.us);
      ASSERT_EQ(a.packets()[i].joules, b.packets()[i].joules);
    }
  }

  // Mid-size budget, fed as a plain sink: mixed sealed-segment +
  // resident-tail replay.
  {
    const fs::path dir = scratch_dir("mixed");
    trace::SpillOptions spill;
    spill.dir = dir.string();
    spill.budget_bytes = 96 * 1024;
    trace::SpillingTraceStore store{spill};
    ASSERT_TRUE(generator.emit(store, trace::kDefaultBatchSize).ok());
    ASSERT_TRUE(store.health().ok()) << store.health().to_string();
    trace::TraceCollector a;
    trace::TraceCollector b;
    ASSERT_TRUE(ram.emit(a, 256).ok());
    ASSERT_TRUE(store.emit(b, 256).ok());
    ASSERT_EQ(a.packets().size(), b.packets().size());
    ASSERT_EQ(a.transitions().size(), b.transitions().size());
    for (std::size_t i = 0; i < a.packets().size(); ++i) {
      ASSERT_EQ(a.packets()[i].time.us, b.packets()[i].time.us);
      ASSERT_EQ(a.packets()[i].joules, b.packets()[i].joules);
    }
  }
}

TEST(SpillingStore, TinyBudgetSplitsUsersIntoChunks) {
  const fs::path dir = scratch_dir("split");
  const sim::StudyConfig config = ooc_study();
  sim::StudyGenerator generator{config};
  trace::SpillingTraceStore ram;
  ASSERT_TRUE(ram.capture(generator).ok());

  trace::SpillOptions spill;
  spill.dir = dir.string();
  spill.budget_bytes = 4 * 1024;  // far below one user's stream
  trace::SpillingTraceStore store{spill};
  ASSERT_TRUE(store.capture(generator).ok());

  std::size_t total_chunks = 0;
  bool saw_non_final = false;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".wesg") continue;
    trace::MappedSegment segment;
    ASSERT_TRUE(segment.open(entry.path().string()).ok());
    total_chunks += segment.chunks().size();
    for (const auto& chunk : segment.chunks()) {
      if (!chunk.final_chunk) saw_non_final = true;
    }
  }
  EXPECT_GT(total_chunks, ram.num_users());  // at least one user was split
  EXPECT_TRUE(saw_non_final);

  trace::TraceCollector a;
  trace::TraceCollector b;
  ASSERT_TRUE(ram.emit(a, 256).ok());
  ASSERT_TRUE(store.emit(b, 256).ok());
  ASSERT_EQ(a.packets().size(), b.packets().size());
  for (std::size_t i = 0; i < a.packets().size(); ++i) {
    ASSERT_EQ(a.packets()[i].time.us, b.packets()[i].time.us);
    ASSERT_EQ(a.packets()[i].bytes, b.packets()[i].bytes);
    ASSERT_EQ(a.packets()[i].joules, b.packets()[i].joules);
  }
}

TEST(SpillingStore, ResumeWithDifferentStudyFails) {
  const fs::path dir = scratch_dir("stale_meta");
  {
    sim::StudyGenerator generator{ooc_study()};
    trace::SpillOptions spill;
    spill.dir = dir.string();
    trace::SpillingTraceStore store{spill};
    ASSERT_TRUE(store.capture(generator).ok());
  }
  sim::StudyConfig other = ooc_study();
  other.num_days = 45;  // different study => different meta
  sim::StudyGenerator generator{other};
  trace::SpillOptions spill;
  spill.dir = dir.string();
  spill.resume = true;
  trace::SpillingTraceStore store{spill};
  const util::Status status = store.capture(generator);
  EXPECT_FALSE(status.ok());
}

TEST(SpillingStore, MissingUserIsNotFound) {
  const fs::path dir = scratch_dir("not_found");
  sim::StudyGenerator generator{ooc_study()};
  trace::SpillOptions spill;
  spill.dir = dir.string();
  trace::SpillingTraceStore store{spill};
  ASSERT_TRUE(store.capture(generator).ok());
  trace::TraceCollector sink;
  const util::Status status = store.emit_user(9999, sink, 256);
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
}

TEST(SpillingStore, NoDirectoryResumeTouchesNoFile) {
  // A sealed store in the working directory: a no-directory store that read
  // it would resume its users; one that wrote would change its files.
  const fs::path dir = scratch_dir("no_dir_cwd");
  sim::StudyGenerator generator{ooc_study()};
  {
    trace::SpillingTraceStore sealed{{.dir = dir.string(), .budget_bytes = 0}};
    ASSERT_TRUE(sealed.capture(generator).ok());
  }
  ASSERT_TRUE(fs::exists(dir / "manifest.wesm"));
  const auto listing = [&dir] {
    std::vector<std::pair<std::string, std::uintmax_t>> files;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      files.emplace_back(entry.path().filename().string(), entry.file_size());
    }
    std::sort(files.begin(), files.end());
    return files;
  };
  const auto before = listing();
  const auto manifest_time = fs::last_write_time(dir / "manifest.wesm");

  const fs::path cwd = fs::current_path();
  fs::current_path(dir);
  trace::SpillingTraceStore store{{.resume = true}};
  const util::Status captured = store.capture(generator);
  const util::Status sealed = store.seal();
  trace::TraceCollector replayed;
  const util::Status emitted = store.emit(replayed, trace::kDefaultBatchSize);
  fs::current_path(cwd);

  ASSERT_TRUE(captured.ok()) << captured.to_string();
  ASSERT_TRUE(sealed.ok()) << sealed.to_string();
  ASSERT_TRUE(emitted.ok()) << emitted.to_string();
  EXPECT_EQ(store.resumed_users(), 0u);
  EXPECT_EQ(store.num_segments(), 0u);
  EXPECT_EQ(store.spilled_bytes(), 0u);
  EXPECT_EQ(store.num_users(), generator.config().num_users);
  trace::TraceCollector live;
  ASSERT_TRUE(generator.emit(live, trace::kDefaultBatchSize).ok());
  EXPECT_EQ(replayed.packets().size(), live.packets().size());
  EXPECT_EQ(replayed.transitions().size(), live.transitions().size());
  EXPECT_EQ(listing(), before);
  EXPECT_EQ(fs::last_write_time(dir / "manifest.wesm"), manifest_time);
}

/// Sum of `Rss:` over the /proc/self/smaps mappings of files under `dir`, or
/// -1 where smaps is absent.
std::int64_t mapped_rss_under(const fs::path& dir) {
  std::ifstream smaps{"/proc/self/smaps"};
  if (!smaps) return -1;
  const std::string prefix = fs::canonical(dir).string() + "/";
  std::int64_t total = 0;
  bool inside = false;
  std::string line;
  while (std::getline(smaps, line)) {
    if (line.empty()) continue;
    const char first = line[0];
    if ((first >= '0' && first <= '9') || (first >= 'a' && first <= 'f')) {
      // Mapping header: "start-end perms offset dev inode [path]".
      std::istringstream header{line};
      std::string range, perms, offset, dev, inode, path;
      header >> range >> perms >> offset >> dev >> inode >> path;
      inside = path.rfind(prefix, 0) == 0;
    } else if (inside && line.rfind("Rss:", 0) == 0) {
      total += std::stoll(line.substr(4)) * 1024;  // kB
    }
  }
  return total;
}

// A sealed segment's pages stay in the process only while they are read:
// open releases the mapping after its checksum pass, and each chunk replay
// releases its span. So after capture, and after a full replay at any thread
// count, the mapped segment bytes resident in this process stay within one
// chunk's span plus a boundary page per segment — not the whole store.
TEST(SpillingStore, ReplayReleasesMappedPages) {
  if (!fs::exists("/proc/self/smaps")) GTEST_SKIP() << "no /proc/self/smaps on this platform";
  const fs::path dir = scratch_dir("release_pages");
  trace::SpillOptions spill;
  spill.dir = dir.string();
  spill.budget_bytes = 64 * 1024;  // several segments, several chunks each
  trace::SpillingTraceStore store{spill};
  sim::StudyGenerator generator{ooc_study()};
  ASSERT_TRUE(store.capture(generator).ok());
  ASSERT_GT(store.num_segments(), 1u);

#if defined(__unix__) || defined(__APPLE__)
  const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
#else
  const std::uint64_t page = 4096;
#endif
  std::uint64_t largest_span = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".wesg") continue;
    trace::MappedSegment segment;  // unmapped again before anything is measured
    ASSERT_TRUE(segment.open(entry.path().string()).ok());
    for (const trace::SegmentChunkInfo& chunk : segment.chunks()) {
      largest_span = std::max<std::uint64_t>(
          largest_span, chunk.order_offset + chunk.order_len - chunk.packets_offset);
    }
  }
  const std::uint64_t bound = (largest_span + page - 1) / page * page + page * store.num_segments();
  // Keeping every page would break the bound: the check is not vacuous.
  ASSERT_GT(store.spilled_bytes(), 2 * bound);

  const std::int64_t after_capture = mapped_rss_under(dir);
  ASSERT_GE(after_capture, 0);
  EXPECT_LE(static_cast<std::uint64_t>(after_capture), bound)
      << "after capture; store holds " << store.spilled_bytes() << " sealed bytes";

  for (const unsigned threads : {1u, 4u}) {
    core::PipelineOptions options;
    options.num_threads = threads;
    core::StudyPipeline pipeline{&store, options};
    const auto stats = pipeline.run();
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    ASSERT_GT(stats->packets, 0u);
    const std::int64_t after_replay = mapped_rss_under(dir);
    EXPECT_LE(static_cast<std::uint64_t>(after_replay), bound)
        << "after a replay at " << threads << " threads; store holds " << store.spilled_bytes()
        << " sealed bytes";
  }
}

// --------------------------------------------- sweep over a sealed store

TEST(SweepStoreBackend, SpillingSweepMatchesRamSweep) {
  const sim::StudyConfig config = ooc_study();

  const auto add_scenarios = [](core::SweepEngine& sweep) {
    sweep.add_scenario({.name = "baseline"});
    core::Scenario kill;
    kill.name = "kill-3d";
    kill.policy = [](trace::TraceSink* downstream) {
      return std::make_unique<core::KillAfterIdlePolicy>(downstream, days(3.0));
    };
    sweep.add_scenario(std::move(kill));
  };

  sim::StudyGenerator ram_gen{config};
  core::SweepEngine ram_sweep{&ram_gen, {{.num_threads = 2}}};
  add_scenarios(ram_sweep);
  const auto ram_stats = ram_sweep.run();
  ASSERT_TRUE(ram_stats.ok()) << ram_stats.status().to_string();

  const fs::path dir = scratch_dir("sweep");
  sim::StudyGenerator ooc_gen{config};
  core::SweepOptions options;
  options.num_threads = 2;
  options.store_dir = dir.string();
  options.store_budget_bytes = 64 * 1024;
  core::SweepEngine ooc_sweep{&ooc_gen, options};
  add_scenarios(ooc_sweep);
  const auto ooc_stats = ooc_sweep.run();
  ASSERT_TRUE(ooc_stats.ok()) << ooc_stats.status().to_string();

  EXPECT_GT(ooc_sweep.store().spilled_bytes(), 0u);
  EXPECT_GT(ooc_stats->memory.store.spilled_bytes, 0u);
  ASSERT_EQ(ram_sweep.results().size(), ooc_sweep.results().size());
  for (std::size_t i = 0; i < ram_sweep.results().size(); ++i) {
    SCOPED_TRACE(ram_sweep.results()[i].name);
    ASSERT_TRUE(ooc_sweep.results()[i].status.ok());
    expect_identical_ledgers(ram_sweep.results()[i].ledger, ooc_sweep.results()[i].ledger);
    expect_identical_figures(ram_sweep.results()[i].ledger, ooc_sweep.results()[i].ledger);
    EXPECT_EQ(ram_sweep.results()[i].stats.packets, ooc_sweep.results()[i].stats.packets);
    EXPECT_EQ(ram_sweep.results()[i].stats.joules, ooc_sweep.results()[i].stats.joules);
  }
}

// -------------------------------------------------------- kill and recover

/// Forwards to the store until `kill_after` user brackets have closed, then
/// simulates a crash mid-capture by throwing.
class KillAfterUsersSink final : public trace::TraceSink {
 public:
  KillAfterUsersSink(trace::TraceSink* downstream, std::size_t kill_after)
      : downstream_(downstream), kill_after_(kill_after) {}

  void on_study_begin(const trace::StudyMeta& meta) override {
    downstream_->on_study_begin(meta);
  }
  void on_user_begin(trace::UserId user) override { downstream_->on_user_begin(user); }
  void on_batch(const trace::EventBatch& batch) override { downstream_->on_batch(batch); }
  void on_user_end(trace::UserId user) override {
    downstream_->on_user_end(user);
    if (++users_done_ >= kill_after_) throw std::runtime_error("killed mid-capture");
  }
  void on_study_end() override { downstream_->on_study_end(); }

 private:
  trace::TraceSink* downstream_;
  std::size_t kill_after_;
  std::size_t users_done_ = 0;
};

/// Counts per-user pulls, to prove a resuming capture never regenerates a
/// user the sealed segments already cover.
class CountingGenerator final : public sim::StudyGenerator {
 public:
  using sim::StudyGenerator::StudyGenerator;
  util::Status emit_user(trace::UserId user, trace::TraceSink& sink,
                         std::size_t batch_size) override {
    pulled.push_back(user);
    return sim::StudyGenerator::emit_user(user, sink, batch_size);
  }
  std::vector<trace::UserId> pulled;
};

TEST(SpillKillRecover, ResumeReusesSealedSegmentsAndPullsOnlyMissingUsers) {
  const fs::path dir = scratch_dir("kill_recover");
  const sim::StudyConfig config = ooc_study();
  constexpr std::size_t kKillAfter = 3;

  trace::SpillingTraceStore ram;
  {
    sim::StudyGenerator generator{config};
    ASSERT_TRUE(ram.capture(generator).ok());
  }
  const std::size_t num_users = ram.num_users();
  ASSERT_GT(num_users, kKillAfter);

  // Crash mid-capture: budget 0 seals (and manifests) each user at its
  // bracket close, so the first kKillAfter users survive the kill.
  {
    sim::StudyGenerator generator{config};
    trace::SpillOptions spill;
    spill.dir = dir.string();
    spill.budget_bytes = 0;
    trace::SpillingTraceStore store{spill};
    KillAfterUsersSink killer{&store, kKillAfter};
    EXPECT_THROW(generator.run(killer, 256), std::runtime_error);
  }

  // Resume: only the users the sealed segments do not cover are pulled.
  CountingGenerator generator{config};
  trace::SpillOptions spill;
  spill.dir = dir.string();
  spill.budget_bytes = 0;
  spill.resume = true;
  trace::SpillingTraceStore store{spill};
  const util::Status captured = store.capture(generator, 256);
  ASSERT_TRUE(captured.ok()) << captured.to_string();
  EXPECT_EQ(store.resumed_users(), kKillAfter);
  EXPECT_EQ(generator.pulled.size(), num_users - kKillAfter);
  for (const trace::UserId user : generator.pulled) {
    EXPECT_GE(user, static_cast<trace::UserId>(kKillAfter));
  }

  // The recovered + completed store replays the full study bit-identically.
  trace::TraceCollector a;
  trace::TraceCollector b;
  ASSERT_TRUE(ram.emit(a, 256).ok());
  ASSERT_TRUE(store.emit(b, 256).ok());
  ASSERT_EQ(a.packets().size(), b.packets().size());
  ASSERT_EQ(a.transitions().size(), b.transitions().size());
  for (std::size_t i = 0; i < a.packets().size(); ++i) {
    ASSERT_EQ(a.packets()[i].time.us, b.packets()[i].time.us);
    ASSERT_EQ(a.packets()[i].user, b.packets()[i].user);
    ASSERT_EQ(a.packets()[i].bytes, b.packets()[i].bytes);
    ASSERT_EQ(a.packets()[i].joules, b.packets()[i].joules);
  }

  // A second resuming capture has nothing left to pull.
  CountingGenerator again{config};
  trace::SpillOptions spill2;
  spill2.dir = dir.string();
  spill2.resume = true;
  trace::SpillingTraceStore store2{spill2};
  ASSERT_TRUE(store2.capture(again, 256).ok());
  EXPECT_EQ(store2.resumed_users(), num_users);
  EXPECT_TRUE(again.pulled.empty());
}

TEST(SpillKillRecover, ForwardOnlyResumeSkipsSealedUsers) {
  // A CSV source has no per-user access: the resuming capture replays the
  // whole stream and the store itself drops the users its segments cover.
  const fs::path dir = scratch_dir("kill_recover_forward_only");
  constexpr std::size_t kKillAfter = 2;
  std::ostringstream csv;
  {
    trace::CsvTraceWriter writer{csv};
    sim::StudyGenerator{ooc_study()}.run(writer);
  }

  trace::SpillingTraceStore uninterrupted;
  {
    std::istringstream is{csv.str()};
    trace::CsvTraceSource source{is};
    ASSERT_TRUE(uninterrupted.capture(source).ok());
  }
  ASSERT_GT(uninterrupted.num_users(), kKillAfter);

  trace::SpillOptions spill;
  spill.dir = dir.string();
  spill.budget_bytes = 0;
  {
    std::istringstream is{csv.str()};
    trace::CsvTraceSource source{is};
    trace::SpillingTraceStore store{spill};
    KillAfterUsersSink killer{&store, kKillAfter};
    EXPECT_THROW((void)source.emit(killer, 256), std::runtime_error);
  }

  spill.resume = true;
  std::istringstream is{csv.str()};
  trace::CsvTraceSource source{is};
  trace::SpillingTraceStore store{spill};
  const util::Status captured = store.capture(source, 256);
  ASSERT_TRUE(captured.ok()) << captured.to_string();
  EXPECT_EQ(store.resumed_users(), kKillAfter);
  EXPECT_EQ(store.users(), uninterrupted.users());

  trace::TraceCollector a;
  trace::TraceCollector b;
  ASSERT_TRUE(uninterrupted.emit(a, 256).ok());
  ASSERT_TRUE(store.emit(b, 256).ok());
  ASSERT_EQ(a.packets().size(), b.packets().size());
  ASSERT_EQ(a.transitions().size(), b.transitions().size());
  for (std::size_t i = 0; i < a.packets().size(); ++i) {
    ASSERT_EQ(a.packets()[i].time.us, b.packets()[i].time.us);
    ASSERT_EQ(a.packets()[i].user, b.packets()[i].user);
    ASSERT_EQ(a.packets()[i].app, b.packets()[i].app);
    ASSERT_EQ(a.packets()[i].bytes, b.packets()[i].bytes);
    ASSERT_EQ(a.packets()[i].joules, b.packets()[i].joules);
  }
  for (std::size_t i = 0; i < a.transitions().size(); ++i) {
    ASSERT_EQ(a.transitions()[i].time.us, b.transitions()[i].time.us);
    ASSERT_EQ(a.transitions()[i].user, b.transitions()[i].user);
    ASSERT_EQ(a.transitions()[i].to, b.transitions()[i].to);
  }
}

// -------------------------------------------------------------- population

TEST(Population, UserStreamsInvariantAcrossPopulationSize) {
  sim::PopulationConfig small_pop;
  small_pop.num_users = 5;
  small_pop.num_days = 3;
  sim::PopulationConfig large_pop = small_pop;
  large_pop.num_users = 50;

  sim::StudyGenerator small_gen{small_pop.study()};
  sim::StudyGenerator large_gen{large_pop.study()};
  for (trace::UserId user = 0; user < small_pop.num_users; ++user) {
    trace::TraceCollector a;
    trace::TraceCollector b;
    ASSERT_TRUE(small_gen.emit_user(user, a, trace::kDefaultBatchSize).ok());
    ASSERT_TRUE(large_gen.emit_user(user, b, trace::kDefaultBatchSize).ok());
    SCOPED_TRACE("user=" + std::to_string(user));
    ASSERT_EQ(a.packets().size(), b.packets().size());
    ASSERT_EQ(a.transitions().size(), b.transitions().size());
    for (std::size_t i = 0; i < a.packets().size(); ++i) {
      ASSERT_EQ(a.packets()[i].time.us, b.packets()[i].time.us);
      ASSERT_EQ(a.packets()[i].app, b.packets()[i].app);
      ASSERT_EQ(a.packets()[i].bytes, b.packets()[i].bytes);
      ASSERT_EQ(a.packets()[i].flow, b.packets()[i].flow);
    }
    for (std::size_t i = 0; i < a.transitions().size(); ++i) {
      ASSERT_EQ(a.transitions()[i].time.us, b.transitions()[i].time.us);
      ASSERT_EQ(a.transitions()[i].app, b.transitions()[i].app);
    }
  }
}

TEST(Population, PaperDefaultsKeepLegacyBehaviour) {
  // The gated knobs default off: no personal diurnal profile, and the
  // profile-aware weight function degrades to the shared legacy curve.
  const sim::StudyConfig config = sim::small_study();
  for (trace::UserId user = 0; user < 4; ++user) {
    const sim::DiurnalProfile profile = sim::make_user_diurnal(config, user);
    EXPECT_FALSE(profile.personal);
    for (const double hour : {0.5, 8.5, 13.0, 20.0, 23.9}) {
      EXPECT_EQ(sim::diurnal_weight(hour, profile), sim::diurnal_weight(hour));
    }
  }
}

TEST(Population, DiurnalSigmaPersonalizesProfiles) {
  sim::StudyConfig config = sim::small_study();
  config.diurnal_shift_sigma_hours = 1.5;
  config.diurnal_weight_sigma = 0.3;
  const sim::DiurnalProfile p0 = sim::make_user_diurnal(config, 0);
  const sim::DiurnalProfile p1 = sim::make_user_diurnal(config, 1);
  EXPECT_TRUE(p0.personal);
  EXPECT_TRUE(p1.personal);
  EXPECT_NE(p0.shift_hours, p1.shift_hours);
  // Deterministic per user: rebuilding yields the same profile.
  const sim::DiurnalProfile p0_again = sim::make_user_diurnal(config, 0);
  EXPECT_EQ(p0.shift_hours, p0_again.shift_hours);
  EXPECT_EQ(p0.morning, p0_again.morning);

  // The personalized study produces a different stream than the default one.
  sim::StudyConfig base = sim::small_study();
  base.num_days = 5;
  sim::StudyConfig shifted = base;
  shifted.diurnal_shift_sigma_hours = 1.5;
  sim::StudyGenerator base_gen{base};
  sim::StudyGenerator shifted_gen{shifted};
  trace::TraceCollector a;
  trace::TraceCollector b;
  ASSERT_TRUE(base_gen.emit_user(0, a, trace::kDefaultBatchSize).ok());
  ASSERT_TRUE(shifted_gen.emit_user(0, b, trace::kDefaultBatchSize).ok());
  bool differs = a.packets().size() != b.packets().size();
  for (std::size_t i = 0; !differs && i < a.packets().size(); ++i) {
    differs = a.packets()[i].time.us != b.packets()[i].time.us;
  }
  EXPECT_TRUE(differs);
}

TEST(Population, InstallScaleSparsifiesPortfolios) {
  const sim::StudyConfig dense = sim::small_study();
  sim::StudyConfig sparse = dense;
  sparse.install_scale = 0.25;
  const auto catalog = appmodel::AppCatalog::full_catalog(dense.seed, dense.total_apps);
  std::size_t dense_installed = 0;
  std::size_t sparse_installed = 0;
  for (trace::UserId user = 0; user < 12; ++user) {
    dense_installed += sim::make_user_plan(dense, catalog, user).installed.size();
    sparse_installed += sim::make_user_plan(sparse, catalog, user).installed.size();
  }
  EXPECT_LT(sparse_installed, dense_installed);
  EXPECT_GT(sparse_installed, 0u);
}

// ------------------------------------------------------ memory accounting

TEST(TraceStoreMemory, MemoryBytesCoversColumnsAndIndex) {
  sim::StudyGenerator generator{ooc_study()};
  trace::SpillingTraceStore store;
  ASSERT_TRUE(store.capture(generator).ok());

  std::uint64_t payload = 0;
  std::size_t users = 0;
  for (const trace::UserId user : store.users()) {
    trace::TraceCollector events;
    ASSERT_TRUE(store.emit_user(user, events, trace::kDefaultBatchSize).ok());
    const std::size_t num_events = events.packets().size() + events.transitions().size();
    payload += events.packets().size() * sizeof(trace::PacketRecord) +
               events.transitions().size() * sizeof(trace::StateTransition) +
               num_events * sizeof(trace::EventKind);
    ++users;
  }
  // Capacity accounting can only exceed the payload, and the per-user
  // EventBatch headers plus the user index must be counted on top.
  EXPECT_GE(store.memory_use().resident_bytes,
            payload + users * sizeof(trace::EventBatch) +
                users * (sizeof(trace::UserId) + sizeof(std::size_t)));
}

}  // namespace
}  // namespace wildenergy
