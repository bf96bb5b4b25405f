// Pins for the capture path: what the CSV reader delivers must not depend on
// how the input stream hands out its bytes, and the WESG segments a fixed
// study seals into must keep their exact bytes.
//
//   - CsvChunkedRead: read_csv_trace through a streambuf that yields at most
//     k bytes per refill gives the same ReadSummary and the same delivered
//     events as one istringstream, under every read policy, on input with a
//     final line without '\n', CRLF lines, empty lines, a line longer than
//     1 MiB, lines with more than 10 fields and a NUL byte. The record
//     counts, the strict error and the event digests are pinned literally.
//   - SegmentBytes: an FNV-1a over the files a budget-0 spilling store seals
//     for a fixed small study, and over the files a CSV capture seals at
//     every sealer thread count and budget, with the store's segment count,
//     resident high-water mark and replay digest.
//   - SpillingStore.ColumnsStayUnderHalfTheBudgetAtEveryThreadCount: a CSV
//     and a generator capture keep their columns within half the store
//     budget plus one batch, and seal the same files at every thread count.
//   - SpillingStore.InFlightSealFailureLatchesHealth: a seal that fails on
//     the sealer thread surfaces as the same capture status it has inline,
//     and the store leaves no thread behind.
//   - CsvParallelRead: CsvTraceSource::emit at threads {1, 2, 4, 8} under
//     every read policy, on inputs of many reader blocks with damage on the
//     first and last lines of blocks, a line longer than 1 MiB, CRLF, NUL, a
//     final line without '\n', records after "E", a missing "E" and a strict
//     failure in a late block, gives the summary, the events and the batch
//     and bracket sequence the serial reader gave, pinned literally; no parse
//     worker outlives emit(), even when the sink throws.
//   - CsvParallelMutation: a fixed-seed stream of corrupted copies of a small
//     multi-block CSV reads the same at threads 1 and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ckpt/codec.h"
#include "fault/injector.h"
#include "sim/generator.h"
#include "sim/study_config.h"
#include "trace/csv_io.h"
#include "trace/spilling_store.h"

namespace wildenergy {
namespace {

namespace fs = std::filesystem;

using trace::ReadPolicy;

/// A streambuf that refills its get area with at most `k` bytes at a time,
/// like a pipe or a socket that returns short reads.
class TrickleBuf final : public std::streambuf {
 public:
  TrickleBuf(std::string_view data, std::size_t k) : data_(data), k_(k) {}

 protected:
  int_type underflow() override {
    if (pos_ >= data_.size()) return traits_type::eof();
    const std::size_t n = std::min(k_, data_.size() - pos_);
    chunk_.assign(data_.substr(pos_, n));
    pos_ += n;
    setg(chunk_.data(), chunk_.data(), chunk_.data() + n);
    return traits_type::to_int_type(chunk_[0]);
  }

 private:
  std::string_view data_;
  std::size_t k_;
  std::size_t pos_ = 0;
  std::string chunk_;
};

/// Folds every delivered event, bracket and meta field into one FNV-1a.
class DigestSink final : public trace::TraceSink {
 public:
  void on_study_begin(const trace::StudyMeta& meta) override {
    mix(1);
    mix(meta.num_users);
    mix(meta.num_apps);
    mix(static_cast<std::uint64_t>(meta.study_begin.us));
    mix(static_cast<std::uint64_t>(meta.study_end.us));
  }
  void on_user_begin(trace::UserId user) override {
    mix(2);
    mix(user);
  }
  void on_packet(const trace::PacketRecord& p) override {
    mix(3);
    mix(static_cast<std::uint64_t>(p.time.us));
    mix(p.user);
    mix(p.app);
    mix(p.flow);
    mix(p.bytes);
    mix(static_cast<std::uint64_t>(p.direction));
    mix(static_cast<std::uint64_t>(p.interface));
    mix(static_cast<std::uint64_t>(p.state));
    mix(std::bit_cast<std::uint64_t>(p.joules));
  }
  void on_transition(const trace::StateTransition& t) override {
    mix(4);
    mix(static_cast<std::uint64_t>(t.time.us));
    mix(t.user);
    mix(t.app);
    mix(static_cast<std::uint64_t>(t.from));
    mix(static_cast<std::uint64_t>(t.to));
  }
  void on_user_end(trace::UserId user) override {
    mix(5);
    mix(user);
  }
  void on_study_end() override { mix(6); }

  [[nodiscard]] std::uint64_t digest() const { return hash_; }

 private:
  void mix(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash_ = (hash_ ^ ((value >> shift) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::string hex(std::uint64_t value) {
  std::ostringstream os;
  os << std::hex << value;
  return os.str();
}

constexpr const char* kStates[] = {"foreground", "visible", "perceptible", "service",
                                   "background"};

/// One user's body: packets over every direction, interface and state, with
/// a transition every 50 lines and an empty line every 211. Times start at
/// `t` and advance.
void append_user_body(std::string& csv, int user, std::int64_t& t, int lines) {
  for (int i = 0; i < lines; ++i) {
    t += 1000 + (i % 7) * 13;
    const std::string ts = std::to_string(t);
    const std::string app = std::to_string(1 + (i * 7) % 79);
    if (i % 50 == 7) {
      csv += "T," + ts + "," + std::to_string(user) + "," + app + "," + kStates[i % 5] + "," +
             kStates[(i / 5) % 5] + "\n";
    } else {
      csv += "P," + ts + "," + std::to_string(user) + "," + app + "," + std::to_string(i % 11) +
             "," + std::to_string(40 + i * 3) + "," + (i % 2 == 0 ? "up" : "down") + "," +
             (i % 3 == 0 ? "wifi" : "cell") + "," + kStates[i % 5] + "," +
             std::to_string(0.001 * (i % 97)) + "\n";
    }
    if (i % 211 == 3) csv += "\n";
  }
}

/// A two-user CSV. Clean: every line parses and the stream is well formed.
/// Damaged: user 0 also carries lines with 11 and 13 fields, an unknown tag
/// with many fields, a NUL byte and two CRLF lines. Both hold a valid packet
/// line longer than 1 MiB, empty lines, and end in "E" without a newline.
std::string capture_csv(bool damaged) {
  std::string csv = "M,2,80,0,86400000000\n\n";
  std::int64_t t = 1'000'000;
  csv += "U,0\n";
  append_user_body(csv, 0, t, 1500);
  t += 500;
  csv += "P," + std::to_string(t) + ",0,5,384,900,up,cell,service,0." +
         std::string(std::size_t{1} << 20, '3') + "7\n\n\n";
  if (damaged) {
    const auto at = [&] { return std::to_string(t += 100); };
    csv += "P," + at() + ",0,5,384,900,up,cell,service,0.5,extra\n";
    csv += "T," + at() + ",0,5,foreground,background,a,b,c,d,e,f,g\n";
    csv += "X,1,2,3,4,5,6,7,8,9,10,11\n";
    csv += "P," + at() + ",0,5,384,900,up,cell,serv";
    csv += '\0';
    csv += "ice,0.5\n";
    csv += "P," + at() + ",0,5,384,900,up,cell,service,0.5\r\n";
    csv += "T," + at() + ",0,5,foreground,background\r\n";
  }
  append_user_body(csv, 0, t, 700);
  csv += "V,0\nU,1\n";
  std::int64_t t1 = 2'000'000;
  append_user_body(csv, 1, t1, 900);
  csv += "V,1\nE";
  return csv;
}

struct Read {
  trace::ReadSummary summary;
  std::uint64_t digest = 0;
};

Read read_with(std::istream& is, ReadPolicy policy) {
  trace::ReadOptions options;
  options.policy = policy;
  options.batch_size = 97;
  DigestSink sink;
  Read out;
  out.summary = trace::read_csv_trace(is, sink, options);
  out.digest = sink.digest();
  return out;
}

void expect_same_read(const Read& expect, const Read& got) {
  EXPECT_EQ(got.summary.status.code(), expect.summary.status.code());
  EXPECT_EQ(got.summary.status.message(), expect.summary.status.message());
  EXPECT_EQ(got.summary.records, expect.summary.records);
  EXPECT_EQ(got.summary.records_dropped, expect.summary.records_dropped);
  EXPECT_EQ(got.summary.records_repaired, expect.summary.records_repaired);
  EXPECT_EQ(got.summary.truncated, expect.summary.truncated);
  ASSERT_EQ(got.summary.quarantine.size(), expect.summary.quarantine.size());
  for (std::size_t i = 0; i < expect.summary.quarantine.size(); ++i) {
    EXPECT_EQ(got.summary.quarantine[i].location, expect.summary.quarantine[i].location);
    EXPECT_EQ(got.summary.quarantine[i].reason, expect.summary.quarantine[i].reason);
    EXPECT_EQ(got.summary.quarantine[i].snippet, expect.summary.quarantine[i].snippet);
  }
  EXPECT_EQ(got.digest, expect.digest);
}

/// Reads `csv` in one istringstream and through TrickleBufs of 1, 3 and
/// 4096 bytes under `policy`; every read must agree. Returns the first.
Read read_every_way(const std::string& csv, ReadPolicy policy) {
  std::istringstream whole{csv};
  const Read expect = read_with(whole, policy);
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{4096}}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    TrickleBuf buf{csv, k};
    std::istream is{&buf};
    expect_same_read(expect, read_with(is, policy));
  }
  return expect;
}

TEST(CsvChunkedRead, CleanInputReadsTheSameAtEveryRefillSize) {
  const std::string csv = capture_csv(/*damaged=*/false);
  for (const ReadPolicy policy :
       {ReadPolicy::kStrict, ReadPolicy::kSkipAndCount, ReadPolicy::kBestEffort}) {
    SCOPED_TRACE(trace::to_string(policy));
    const Read read = read_every_way(csv, policy);
    EXPECT_TRUE(read.summary.ok()) << read.summary.status.to_string();
    EXPECT_EQ(read.summary.records, 3127u);
    EXPECT_EQ(read.summary.records_dropped, 0u);
    EXPECT_EQ(read.summary.records_repaired, 0u);
    EXPECT_FALSE(read.summary.truncated);
    EXPECT_EQ(hex(read.digest), "33e2a6053dbfe9");
  }
}

TEST(CsvChunkedRead, DamagedInputReadsTheSameAtEveryRefillSize) {
  const std::string csv = capture_csv(/*damaged=*/true);

  const Read strict = read_every_way(csv, ReadPolicy::kStrict);
  EXPECT_EQ(strict.summary.status.code(), util::StatusCode::kDataLoss);
  EXPECT_EQ(strict.summary.status.message(),
            "line 1515: expected 10 fields, got 11; line: \"P,2559035,0,5,384,900,up,cell,"
            "service,0.5,extra\"");
  EXPECT_EQ(strict.summary.records, 1515u);
  EXPECT_EQ(hex(strict.digest), "aa811990bea1c26f");

  const Read skip = read_every_way(csv, ReadPolicy::kSkipAndCount);
  EXPECT_TRUE(skip.summary.ok()) << skip.summary.status.to_string();
  EXPECT_EQ(skip.summary.records, 3133u);
  EXPECT_EQ(skip.summary.records_dropped, 6u);
  EXPECT_EQ(skip.summary.records_repaired, 0u);
  EXPECT_EQ(hex(skip.digest), "7d73b81eac0c70a9");

  const Read best = read_every_way(csv, ReadPolicy::kBestEffort);
  EXPECT_TRUE(best.summary.ok()) << best.summary.status.to_string();
  EXPECT_EQ(best.summary.records, 3133u);
  EXPECT_EQ(best.summary.records_dropped, 5u);
  EXPECT_EQ(best.summary.records_repaired, 1u);
  EXPECT_EQ(hex(best.digest), "a00018130d99f2c");
}

// -------------------------------------------------------- segment bytes pin

/// Every file under `dir` in name order, each as its name, a NUL and its
/// bytes, concatenated.
std::string directory_bytes(const fs::path& dir, std::size_t* files_out = nullptr) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  std::string all;
  for (const fs::path& file : files) {
    std::ifstream is{file, std::ios::binary};
    all += file.filename().string();
    all += '\0';
    all.append(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
  }
  if (files_out != nullptr) *files_out = files.size();
  return all;
}

/// A generated multi-user study as CSV text: the imported-trace input.
std::string study_csv(std::uint32_t users, std::uint32_t days, std::uint64_t seed) {
  sim::StudyConfig config = sim::small_study(seed);
  config.num_users = users;
  config.num_days = days;
  std::ostringstream os;
  trace::CsvTraceWriter writer{os};
  sim::StudyGenerator{config}.run(writer);
  return os.str();
}

/// Threads of this process, from /proc/self/task; 0 where there is none.
std::size_t live_threads() {
  const fs::path tasks{"/proc/self/task"};
  std::error_code ec;
  if (!fs::exists(tasks, ec)) return 0;
  std::size_t n = 0;
  for (auto it = fs::directory_iterator(tasks, ec); !ec && it != fs::directory_iterator();
       it.increment(ec)) {
    ++n;
  }
  return n;
}

/// live_threads() once it has fallen back to `expect`, or after ~2 s: a
/// joined thread can linger in /proc for a moment after its join.
std::size_t settled_threads(std::size_t expect) {
  std::size_t n = live_threads();
  for (int i = 0; i < 200 && n != expect; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    n = live_threads();
  }
  return n;
}

/// Forwards a stream to `target` and records the most threads this process
/// had at any user end.
class ThreadProbe final : public trace::TraceSink {
 public:
  explicit ThreadProbe(trace::TraceSink* target) : target_(target) {}
  void on_study_begin(const trace::StudyMeta& meta) override { target_->on_study_begin(meta); }
  void on_user_begin(trace::UserId user) override { target_->on_user_begin(user); }
  void on_batch(const trace::EventBatch& batch) override { target_->on_batch(batch); }
  void on_user_end(trace::UserId user) override {
    target_->on_user_end(user);
    max_threads_ = std::max(max_threads_, live_threads());
  }
  void on_study_end() override { target_->on_study_end(); }
  [[nodiscard]] std::size_t max_threads() const { return max_threads_; }

 private:
  trace::TraceSink* target_;
  std::size_t max_threads_ = 0;
};

/// A forward-only CSV source whose stream passes a ThreadProbe on its way.
class ProbedCsvSource final : public trace::TraceSource {
 public:
  explicit ProbedCsvSource(std::istream& is) : csv_(is) {}
  util::Status emit(trace::TraceSink& sink, std::size_t batch_size) override {
    ThreadProbe probe{&sink};
    util::Status status = csv_.emit(probe, batch_size);
    max_threads_ = probe.max_threads();
    return status;
  }
  [[nodiscard]] trace::StudyMeta meta() const override { return csv_.meta(); }
  [[nodiscard]] std::size_t max_threads() const { return max_threads_; }

 private:
  trace::CsvTraceSource csv_;
  std::size_t max_threads_ = 0;
};

TEST(SegmentBytes, BudgetZeroStoreSealsTheSameFiles) {
  const fs::path dir = fs::temp_directory_path() / "wildenergy_capture_pin_segments";
  fs::remove_all(dir);
  sim::StudyConfig config = sim::small_study(/*seed=*/5);
  config.num_users = 4;
  config.num_days = 12;
  sim::StudyGenerator generator{config};
  {
    trace::SpillingTraceStore store{{.dir = dir.string(), .budget_bytes = 0}};
    ASSERT_TRUE(store.capture(generator).ok());
  }
  std::size_t files = 0;
  const std::string all = directory_bytes(dir, &files);
  fs::remove_all(dir);
  EXPECT_EQ(files, 5u);  // four segments and the manifest
  EXPECT_EQ(all.size(), 2805855u);
  EXPECT_EQ(hex(ckpt::fnv1a(all)), "7515bb61c5cbc0d7");
}


// A CSV capture seals the same files, segment count and resident high-water
// mark whether each seal runs inline (threads 1) or on the sealer thread, at
// a budget that spills every user, one that splits users into many chunks,
// and one the whole study fits under (one seal at the end).
TEST(SegmentBytes, SealerThreadWritesTheSameFiles) {
  const std::string csv = study_csv(/*users=*/4, /*days=*/6, /*seed=*/23);
  ASSERT_EQ(csv.size(), 4127773u);
  struct Expect {
    std::uint64_t budget;
    std::size_t segments;
    std::uint64_t max_resident;
    const char* files_fnv;
  };
  const Expect expects[] = {
      {0, 4, 1101222, "9ee701835db4a4c3"},
      {64 * 1024, 162, 27886, "8e3b2542c3a27ae0"},
      {8 * 1024 * 1024, 1, 4007443, "2fc8a162c5369313"},
  };
  const fs::path dir = fs::temp_directory_path() / "wildenergy_capture_pin_sealer";
  for (const Expect& e : expects) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("budget " + std::to_string(e.budget) + ", threads " + std::to_string(threads));
      fs::remove_all(dir);
      std::uint64_t replay = 0;
      {
        std::istringstream in{csv};
        trace::CsvTraceSource source{in};
        trace::SpillingTraceStore store{{.dir = dir.string(), .budget_bytes = e.budget}};
        const util::Status captured = store.capture(source, /*batch_size=*/512, threads);
        ASSERT_TRUE(captured.ok()) << captured.to_string();
        EXPECT_EQ(store.num_segments(), e.segments);
        EXPECT_EQ(store.max_resident_bytes(), e.max_resident);
        DigestSink digest;
        ASSERT_TRUE(store.emit(digest, /*batch_size=*/256).ok());
        replay = digest.digest();
      }
      EXPECT_EQ(hex(replay), "1bbeec6117c28e88");
      EXPECT_EQ(hex(ckpt::fnv1a(directory_bytes(dir))), e.files_fnv);
    }
  }
  fs::remove_all(dir);
}

// A capture's columns stay within half the store budget plus one batch, so
// they and the one seal in flight hold at most the budget; and the cut reads
// sizes only, so every thread count seals the same files — for a CSV source
// (parsed on workers at threads > 1) and for the generator.
TEST(SpillingStore, ColumnsStayUnderHalfTheBudgetAtEveryThreadCount) {
  const std::string csv = study_csv(/*users=*/4, /*days=*/6, /*seed=*/23);
  sim::StudyConfig config = sim::small_study(/*seed=*/31);
  config.num_users = 3;
  config.num_days = 8;
  constexpr std::size_t kBatch = 512;
  const std::uint64_t batch_bytes =
      kBatch * (std::max(sizeof(trace::PacketRecord), sizeof(trace::StateTransition)) +
                sizeof(trace::EventKind));
  struct Result {
    std::size_t segments = 0;
    std::uint64_t max_resident = 0;
    std::string replay;
    std::string files_fnv;
  };
  const fs::path dir = fs::temp_directory_path() / "wildenergy_capture_pin_half_budget";
  for (const bool from_csv : {true, false}) {
    for (const std::uint64_t budget : {std::uint64_t{64} << 10, std::uint64_t{1} << 20,
                                       std::uint64_t{8} << 20}) {
      std::vector<Result> results;
      for (const unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::string{from_csv ? "csv" : "generator"} + ", budget " +
                     std::to_string(budget) + ", threads " + std::to_string(threads));
        fs::remove_all(dir);
        Result got;
        {
          std::istringstream in{csv};
          trace::CsvTraceSource csv_source{in};
          sim::StudyGenerator generator{config};
          trace::TraceSource& source =
              from_csv ? static_cast<trace::TraceSource&>(csv_source) : generator;
          trace::SpillingTraceStore store{{.dir = dir.string(), .budget_bytes = budget}};
          const util::Status captured = store.capture(source, kBatch, threads);
          ASSERT_TRUE(captured.ok()) << captured.to_string();
          got.segments = store.num_segments();
          got.max_resident = store.max_resident_bytes();
          EXPECT_GT(got.max_resident, 0u);
          EXPECT_LE(got.max_resident, budget / 2 + batch_bytes);
          DigestSink digest;
          ASSERT_TRUE(store.emit(digest, /*batch_size=*/256).ok());
          got.replay = hex(digest.digest());
        }
        got.files_fnv = hex(ckpt::fnv1a(directory_bytes(dir)));
        if (!results.empty()) {
          EXPECT_EQ(got.segments, results.front().segments);
          EXPECT_EQ(got.max_resident, results.front().max_resident);
          EXPECT_EQ(got.replay, results.front().replay);
          EXPECT_EQ(got.files_fnv, results.front().files_fnv);
        }
        results.push_back(got);
      }
    }
  }
  fs::remove_all(dir);
}

// A seal that fails (here: the second segment's tmp path is a directory)
// latches the store's health with the same status whether it failed inline
// or on the sealer thread, and no sealer thread outlives the store. At
// threads 1 the capture starts no thread at all.
TEST(SpillingStore, InFlightSealFailureLatchesHealth) {
  const std::string csv = study_csv(/*users=*/4, /*days=*/4, /*seed=*/29);
  const fs::path dir = fs::temp_directory_path() / "wildenergy_capture_pin_seal_failure";
  const fs::path blocked = dir / "seg_000002.wesg.tmp";
  const std::size_t before = live_threads();
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    fs::remove_all(dir);
    fs::create_directories(blocked);
    {
      std::istringstream in{csv};
      ProbedCsvSource source{in};
      trace::SpillingTraceStore store{{.dir = dir.string(), .budget_bytes = 0}};
      const util::Status captured = store.capture(source, /*batch_size=*/512, threads);
      EXPECT_FALSE(captured.ok());
      EXPECT_EQ(captured.to_string(), store.health().to_string());
      // The inline seal's own status, at every thread count.
      EXPECT_EQ(captured.to_string(),
                "internal: cannot open '" + blocked.string() + "' for writing");
      EXPECT_EQ(store.num_segments(), 1u);  // the first seal committed
      if (threads == 1 && before > 0) {
        EXPECT_EQ(source.max_threads(), before);  // inline seals start no thread
      }
    }
    EXPECT_EQ(settled_threads(before), before);
  }
  fs::remove_all(dir);
}


// --------------------------------------------------- parallel parse pins

/// The CSV reader's block: it reads this many bytes and cuts after the last
/// '\n' (trace/csv_io.cpp). Lines below end exactly on this grid, so each
/// such line is the last line of one block and the next line the first of
/// the next.
constexpr std::size_t kReaderBlock = std::size_t{128} << 10;

/// Builds a CSV line by line: valid body lines for one user with advancing
/// times, and damaged lines placed at byte offsets.
class CsvBuilder {
 public:
  explicit CsvBuilder(std::string header) : csv_(std::move(header)) {}

  std::string& text() { return csv_; }
  std::string time() { return std::to_string(t_ += 100); }

  /// One valid packet or transition line of `user`.
  void body_line(int user) {
    ++i_;
    t_ += 1000 + (i_ % 7) * 13;
    const std::string head = std::to_string(t_) + "," + std::to_string(user) + "," +
                             std::to_string(1 + (i_ * 7) % 79) + ",";
    if (i_ % 50 == 7) {
      csv_ += "T," + head + kStates[i_ % 5] + "," + kStates[(i_ / 5) % 5] + "\n";
    } else {
      csv_ += "P," + head + std::to_string(i_ % 11) + "," + std::to_string(40 + i_ % 900 * 3) +
              "," + (i_ % 2 == 0 ? "up" : "down") + "," + (i_ % 3 == 0 ? "wifi" : "cell") + "," +
              kStates[i_ % 5] + "," + std::to_string(0.001 * (i_ % 97)) + "\n";
    }
  }
  /// Body lines of `user` until the text reaches `offset`.
  void body_until(int user, std::size_t offset) {
    while (csv_.size() < offset) body_line(user);
  }
  /// Body lines of `user`, then an unknown-tag line padded to end exactly at
  /// `offset`.
  void bad_line_ending_at(int user, std::size_t offset) {
    while (csv_.size() + 256 < offset) body_line(user);
    csv_ += "X," + std::string(offset - csv_.size() - 3, 'x') + "\n";
  }

 private:
  std::string csv_;
  std::int64_t t_ = 1'000'000;
  int i_ = 0;
};

/// Many blocks with damage at their edges: bad lines end blocks 1 and 2 and
/// begin blocks 2 and 3; CRLF lines, a NUL byte and a valid packet line
/// longer than 1 MiB sit in the middle; after "E" come a packet, an empty
/// line and a final "V,1" without '\n'.
std::string edge_damaged_csv() {
  CsvBuilder b{"M,3,80,0,86400000000\nU,0\n"};
  std::string& csv = b.text();
  for (const std::size_t block : {1u, 2u}) {
    b.bad_line_ending_at(0, block * kReaderBlock);
    csv += "P," + b.time() + ",0,5,384,900,sideways,cell,service,0.5\n";
  }
  b.body_until(0, 5 * kReaderBlock + 1000);
  csv += "P," + b.time() + ",0,5,384,900,up,cell,service,0.5\r\n";
  csv += "T," + b.time() + ",0,5,foreground,background\r\n";
  csv += "P," + b.time() + ",0,5,384,900,up,cell,serv";
  csv += '\0';
  csv += "ice,0.5\n";
  b.body_until(0, 7 * kReaderBlock);
  csv += "P," + b.time() + ",0,5,384,900,up,cell,service,0." +
         std::string(std::size_t{1} << 20, '3') + "7\n";
  b.body_until(0, csv.size() + 9 * kReaderBlock);
  csv += "V,0\nU,1\n";
  b.body_until(1, csv.size() + 3 * kReaderBlock);
  csv += "V,1\nE\n";
  csv += "P," + b.time() + ",1,5,384,900,up,cell,service,0.5\n\nV,1";
  return csv;
}

/// A clean stream of many blocks whose first bad line (an unknown
/// interface) sits in a late block, and which ends without "E".
std::string late_damage_csv() {
  CsvBuilder b{"M,1,80,0,86400000000\nU,0\n"};
  std::string& csv = b.text();
  b.body_until(0, 14 * kReaderBlock + 5000);
  csv += "P," + b.time() + ",0,5,384,900,up,satellite,service,0.5\n";
  b.body_until(0, 16 * kReaderBlock + 700);
  csv += "V,0\n";
  return csv;
}

/// Folds the shape of the delivered stream (every bracket and every batch
/// size, in order) into one FNV-1a, and the events into a DigestSink.
class ShapeSink final : public trace::TraceSink {
 public:
  void on_study_begin(const trace::StudyMeta& meta) override {
    mix(1);
    events_.on_study_begin(meta);
  }
  void on_user_begin(trace::UserId user) override {
    mix(2, user);
    events_.on_user_begin(user);
  }
  void on_batch(const trace::EventBatch& batch) override {
    mix(3, batch.size());
    events_.on_batch(batch);
  }
  void on_user_end(trace::UserId user) override {
    mix(4, user);
    events_.on_user_end(user);
  }
  void on_study_end() override {
    mix(5);
    events_.on_study_end();
  }

  [[nodiscard]] std::uint64_t shape() const { return hash_; }
  [[nodiscard]] std::uint64_t events() const { return events_.digest(); }

 private:
  void mix(std::uint64_t tag, std::uint64_t value = 0) {
    hash_ = (hash_ ^ tag) * 0x100000001B3ULL;
    hash_ = (hash_ ^ value) * 0x100000001B3ULL;
  }
  DigestSink events_;
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// FNV-1a over every quarantined record's location, reason and echo.
std::string quarantine_fnv(const trace::ReadSummary& summary) {
  std::string all;
  for (const trace::QuarantinedRecord& q : summary.quarantine) {
    all += std::to_string(q.location) + '\0' + q.reason + '\0' + q.snippet + '\0';
  }
  return hex(ckpt::fnv1a(all));
}

struct ParallelRead {
  trace::ReadSummary summary;
  std::uint64_t events = 0;
  std::uint64_t shape = 0;
};

/// One CsvTraceSource::emit of `csv` at `threads` under `policy`.
ParallelRead read_parallel(const std::string& csv, ReadPolicy policy, unsigned threads,
                           std::size_t* max_threads = nullptr) {
  std::istringstream in{csv};
  trace::ReadOptions options;
  options.policy = policy;
  options.max_quarantine = 16;  // every reject of these inputs
  trace::CsvTraceSource source{in, options};
  ShapeSink sink;
  ThreadProbe probe{&sink};
  const util::Status status = source.emit(probe, /*batch_size=*/97, threads);
  EXPECT_EQ(status.to_string(), source.summary().status.to_string());
  if (max_threads != nullptr) *max_threads = probe.max_threads();
  return {source.summary(), sink.events(), sink.shape()};
}

/// What a read must give, recorded by the serial reader.
struct ParallelPin {
  ReadPolicy policy;
  const char* status;
  std::uint64_t records;
  std::uint64_t dropped;
  std::uint64_t repaired;
  bool truncated;
  std::size_t quarantined;
  const char* quarantine;
  const char* events;
  const char* shape;
};

/// Reads `csv` at threads {1, 2, 4, 8} under each pin's policy; every read
/// must match the pin, threads 1 must start no thread, and no thread may
/// outlive emit().
void expect_parallel_pins(const std::string& csv, const std::vector<ParallelPin>& pins) {
  const std::size_t before = live_threads();
  for (const ParallelPin& pin : pins) {
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(std::string(trace::to_string(pin.policy)) + ", threads " +
                   std::to_string(threads));
      std::size_t max_threads = 0;
      const ParallelRead read = read_parallel(csv, pin.policy, threads, &max_threads);
      EXPECT_EQ(read.summary.status.to_string(), pin.status);
      EXPECT_EQ(read.summary.records, pin.records);
      EXPECT_EQ(read.summary.records_dropped, pin.dropped);
      EXPECT_EQ(read.summary.records_repaired, pin.repaired);
      EXPECT_EQ(read.summary.truncated, pin.truncated);
      EXPECT_EQ(read.summary.quarantine.size(), pin.quarantined);
      EXPECT_EQ(quarantine_fnv(read.summary), pin.quarantine);
      EXPECT_EQ(hex(read.events), pin.events);
      EXPECT_EQ(hex(read.shape), pin.shape);
      if (threads == 1 && before > 0 && max_threads > 0) {
        EXPECT_EQ(max_threads, before);  // parsed inline: no thread started
      }
      EXPECT_EQ(settled_threads(before), before);
    }
  }
}

TEST(CsvParallelRead, EdgeDamageReadsTheSameAtEveryThreadCount) {
  const std::string csv = edge_damaged_csv();
  ASSERT_EQ(csv.size(), 3539114u);
  expect_parallel_pins(
      csv,
      {{ReadPolicy::kStrict,
        "data loss: line 2660: field 0 ('X'): unknown record tag; line: "
        "\"X,xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx...\"",
        2660, 0, 0, false, 0, "cbf29ce484222325", "3df69d47e0fc5ed6", "b9593e95cf7be9ff"},
       {ReadPolicy::kSkipAndCount, "ok", 49743, 9, 0, false, 9, "500e32576affa109",
        "4da55fc5d1a92c03", "3b778624d7c05f2b"},
       {ReadPolicy::kBestEffort, "ok", 49743, 8, 1, false, 9, "aa52a614861fa7a",
        "61745f44b78f0740", "baf71761f1c864ce"}});
}

TEST(CsvParallelRead, LateStrictFailureReadsTheSameAtEveryThreadCount) {
  const std::string csv = late_damage_csv();
  ASSERT_EQ(csv.size(), 2097894u);
  expect_parallel_pins(
      csv,
      {{ReadPolicy::kStrict,
        "data loss: line 36796: field 7 ('satellite'): bad interface (want cell|wifi); line: "
        "\"P,39228001,0,5,384,900,up,satellite,service,0.5\"",
        36796, 0, 0, false, 0, "cbf29ce484222325", "781b9a13b5914558", "c0c61d29d77f3ea7"},
       {ReadPolicy::kSkipAndCount,
        "data loss: truncated stream: no study end (E) record after line 41930", 41930, 1, 0,
        false, 1, "1b6505d48c59ab29", "fc72ad95e1a77722", "63198179ceb4e97"},
       {ReadPolicy::kBestEffort, "ok", 41930, 1, 0, true, 2, "201c02c807ed40bc",
        "485c15d021a2c3a4", "d501b1c3657f0b62"}});
}


/// Forwards to a ShapeSink and throws at its `nth` batch.
class ThrowingSink final : public trace::TraceSink {
 public:
  explicit ThrowingSink(std::size_t nth) : nth_(nth) {}
  void on_study_begin(const trace::StudyMeta& meta) override { seen_.on_study_begin(meta); }
  void on_user_begin(trace::UserId user) override { seen_.on_user_begin(user); }
  void on_batch(const trace::EventBatch& batch) override {
    if (++batches_ == nth_) throw std::runtime_error("sink failed");
    seen_.on_batch(batch);
  }
  void on_user_end(trace::UserId user) override { seen_.on_user_end(user); }
  void on_study_end() override { seen_.on_study_end(); }
  [[nodiscard]] const ShapeSink& seen() const { return seen_; }

 private:
  std::size_t nth_;
  std::size_t batches_ = 0;
  ShapeSink seen_;
};

// A sink that throws in a late block unwinds emit() at every thread count
// after the same events, and no parse worker outlives it (under ASan, none
// may touch a freed block either).
TEST(CsvParallelRead, ThrowingSinkLeavesNoWorkerBehind) {
  const std::string csv = late_damage_csv();
  const std::size_t before = live_threads();
  std::uint64_t shape = 0;
  std::uint64_t events = 0;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::istringstream in{csv};
    trace::CsvTraceSource source{in};
    ThrowingSink sink{/*nth=*/300};
    EXPECT_THROW((void)source.emit(sink, /*batch_size=*/97, threads), std::runtime_error);
    if (threads == 1) {
      shape = sink.seen().shape();
      events = sink.seen().events();
    }
    EXPECT_EQ(sink.seen().shape(), shape);
    EXPECT_EQ(sink.seen().events(), events);
    EXPECT_EQ(settled_threads(before), before);
  }
}

// ------------------------------------------------ differential mutation

/// Every field of two summaries and two streams equal.
void expect_same_parallel_read(const ParallelRead& expect, const ParallelRead& got) {
  EXPECT_EQ(got.summary.status.to_string(), expect.summary.status.to_string());
  EXPECT_EQ(got.summary.records, expect.summary.records);
  EXPECT_EQ(got.summary.records_dropped, expect.summary.records_dropped);
  EXPECT_EQ(got.summary.records_repaired, expect.summary.records_repaired);
  EXPECT_EQ(got.summary.truncated, expect.summary.truncated);
  EXPECT_EQ(got.summary.quarantine.size(), expect.summary.quarantine.size());
  EXPECT_EQ(quarantine_fnv(got.summary), quarantine_fnv(expect.summary));
  EXPECT_EQ(got.events, expect.events);
  EXPECT_EQ(got.shape, expect.shape);
}

// A fixed-seed stream of mutants of a small multi-block CSV — every
// fault::CorruptionKind, one or two corruptions stacked, under every read
// policy — reads the same at threads 1 and 4: the same summary, the same
// events and the same batches, and never a crash.
TEST(CsvParallelMutation, OneAndFourThreadsReadEveryMutantTheSame) {
  const std::string clean = study_csv(/*users=*/2, /*days=*/1, /*seed=*/31);
  ASSERT_GT(clean.size(), 2 * kReaderBlock);
  constexpr fault::CorruptionKind kKinds[] = {
      fault::CorruptionKind::kBitFlip,       fault::CorruptionKind::kTruncate,
      fault::CorruptionKind::kDuplicateSpan, fault::CorruptionKind::kSwapSpans,
      fault::CorruptionKind::kBadEnum,       fault::CorruptionKind::kBadTimestamp};
  constexpr ReadPolicy kPolicies[] = {ReadPolicy::kStrict, ReadPolicy::kSkipAndCount,
                                      ReadPolicy::kBestEffort};
  std::size_t damaged = 0;
  for (std::uint64_t i = 0; i < 240; ++i) {
    const fault::CorruptionKind kind = kKinds[i % 6];
    const ReadPolicy policy = kPolicies[(i / 6) % 3];
    SCOPED_TRACE("mutant " + std::to_string(i) + ": " + std::string(fault::to_string(kind)) +
                 ", " + trace::to_string(policy));
    auto mutant = fault::apply_corruption(clean, {kind, i});
    ASSERT_TRUE(mutant.ok()) << mutant.status().to_string();
    if (i % 3 == 2) {  // stack a second corruption of another kind
      mutant = fault::apply_corruption(std::move(*mutant), {kKinds[(i / 6 + 1) % 6], i + 1000});
      ASSERT_TRUE(mutant.ok()) << mutant.status().to_string();
    }
    const ParallelRead serial = read_parallel(*mutant, policy, 1);
    if (!serial.summary.ok() || serial.summary.degraded()) ++damaged;
    expect_same_parallel_read(serial, read_parallel(*mutant, policy, 4));
  }
  EXPECT_GT(damaged, 120u);  // most mutants are damage the reader sees
}

}  // namespace
}  // namespace wildenergy
