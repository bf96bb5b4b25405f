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
//     for a fixed small study.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/codec.h"
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
  fs::remove_all(dir);
  EXPECT_EQ(files.size(), 5u);  // four segments and the manifest
  EXPECT_EQ(all.size(), 2805855u);
  EXPECT_EQ(hex(ckpt::fnv1a(all)), "7515bb61c5cbc0d7");
}

}  // namespace
}  // namespace wildenergy
