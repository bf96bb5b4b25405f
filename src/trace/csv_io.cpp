#include "trace/csv_io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <istream>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "trace/batch.h"
#include "trace/validating_sink.h"
#include "util/ordered_window.h"

namespace wildenergy::trace {

void CsvTraceWriter::on_study_begin(const StudyMeta& meta) {
  os_ << "M," << meta.num_users << ',' << meta.num_apps << ',' << meta.study_begin.us << ','
      << meta.study_end.us << '\n';
}

void CsvTraceWriter::on_user_begin(UserId user) { os_ << "U," << user << '\n'; }

void CsvTraceWriter::on_packet(const PacketRecord& p) {
  os_ << "P," << p.time.us << ',' << p.user << ',' << p.app << ',' << p.flow << ',' << p.bytes
      << ',' << (p.direction == radio::Direction::kUplink ? "up" : "down") << ','
      << to_string(p.interface) << ',' << to_string(p.state) << ',' << p.joules << '\n';
}

void CsvTraceWriter::on_transition(const StateTransition& t) {
  os_ << "T," << t.time.us << ',' << t.user << ',' << t.app << ',' << to_string(t.from) << ','
      << to_string(t.to) << '\n';
}

void CsvTraceWriter::on_user_end(UserId user) { os_ << "V," << user << '\n'; }

void CsvTraceWriter::on_study_end() { os_ << "E\n"; }

namespace {

/// Bytes a block reads before it is cut after its last '\n'.
constexpr std::size_t kBlockBytes = std::size_t{128} << 10;

/// Cuts an istream into blocks of whole lines, with std::getline's line
/// semantics: a final line without '\n' is still a line, '\r' stays part of
/// its line, and input ending in '\n' has no empty line after it. A block
/// reads kBlockBytes and ends after its last '\n'; the partial line behind
/// it opens the next block. A block holding no '\n' doubles its read until
/// it does, so a line longer than kBlockBytes grows its block.
class BlockReader {
 public:
  explicit BlockReader(std::istream& is) : is_(is) {}

  /// Fill `text` with the next block, or return false at end of input.
  bool next(std::vector<char>& text) {
    text.assign(tail_.begin(), tail_.end());
    tail_.clear();
    for (std::size_t want = kBlockBytes;; want *= 2) {
      if (!at_eof_ && text.size() < want) {
        const std::size_t have = text.size();
        text.resize(want);
        is_.read(text.data() + have, static_cast<std::streamsize>(want - have));
        text.resize(have + static_cast<std::size_t>(is_.gcount()));
        // istream::read comes up short only at end of input or on an error;
        // getline stops at either too.
        if (!is_) at_eof_ = true;
      }
      // The last block keeps everything, a final line without '\n' included.
      if (at_eof_) return !text.empty();
      const auto nl = std::find(text.rbegin(), text.rend(), '\n');
      if (nl != text.rend()) {
        const auto cut = nl.base();
        tail_.assign(cut, text.end());
        text.erase(cut, text.end());
        return true;
      }
    }
  }

 private:
  std::istream& is_;
  std::vector<char> tail_;  ///< the partial line after the last block's cut
  bool at_eof_ = false;
};

/// The widest record (P) has this many fields; wider lines only need their
/// count, for the "expected N fields, got M" message.
constexpr std::size_t kMaxFields = 10;

/// A line split at its commas: the first kMaxFields fields and the true count.
struct Fields {
  std::array<std::string_view, kMaxFields> views;
  std::size_t count = 0;

  [[nodiscard]] std::size_t size() const { return count; }
  [[nodiscard]] std::string_view operator[](std::size_t i) const { return views[i]; }
};

Fields split(std::string_view line) {
  Fields fields;
  const char* const end = line.data() + line.size();
  const char* start = line.data();
  for (const char* p = start;; ++p) {
    if (p == end || *p == ',') {
      if (fields.count < kMaxFields) {
        fields.views[fields.count] = {start, static_cast<std::size_t>(p - start)};
      }
      ++fields.count;
      if (p == end) return fields;
      start = p + 1;
    }
  }
}

template <typename T>
bool parse_int(std::string_view s, T& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool parse_double(std::string_view s, double& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

constexpr std::size_t kNoField = static_cast<std::size_t>(-1);
constexpr std::size_t kSnippetMax = 80;

std::string snippet_of(std::string_view line) {
  std::string s{line.substr(0, kSnippetMax)};
  if (line.size() > kSnippetMax) s += "...";
  return s;
}

/// What went wrong on one line, precise enough to act on: which field
/// (kNoField for line-level problems) and why.
struct LineError {
  std::size_t field = kNoField;
  std::string reason;
};

/// The error message of a line, without its "line N: " prefix: only the
/// ordered apply step knows the line number.
std::string describe(const LineError& err, const Fields& fields, std::string_view line) {
  std::string msg;
  if (err.field != kNoField) {
    msg += "field " + std::to_string(err.field);
    if (err.field < std::min(fields.size(), kMaxFields)) {
      msg += " ('" + std::string(fields[err.field]) + "')";
    }
    msg += ": ";
  }
  msg += err.reason;
  msg += "; line: \"" + snippet_of(line) + "\"";
  return msg;
}

enum class LineKind : std::uint8_t {
  kEmpty,
  kMeta,
  kUserBegin,
  kUserEnd,
  kPacket,
  kTransition,
  kStudyEnd,
  kError,
};

/// What one line says on its own, before the stream's order decides what it
/// means.
struct ParsedLine {
  ParsedLine() : user(0) {}

  LineKind kind = LineKind::kEmpty;
  bool repaired = false;  ///< kPacket: its joules were repaired to 0
  std::size_t begin = 0;  ///< the line's offset in its block's text
  union {
    PacketRecord packet;
    StateTransition transition;
    StudyMeta meta;
    UserId user;
    std::uint32_t error;  ///< kError: index of its message in Block::errors
  };
};

/// A block of whole lines and what parse_line made of each, reused from
/// block to block.
struct Block {
  std::vector<char> text;
  std::vector<ParsedLine> lines;
  std::vector<std::string> errors;  ///< kError messages, without "line N: "
  double parse_ms = 0.0;            ///< the time parsing the block took

  /// The text of line `i`, without its '\n'.
  [[nodiscard]] std::string_view line(std::size_t i) const {
    const std::size_t end = i + 1 < lines.size() ? lines[i + 1].begin - 1
                                                 : text.size() - (text.back() == '\n' ? 1 : 0);
    return {text.data() + lines[i].begin, end - lines[i].begin};
  }
};

/// Parse one line: split, fields, enums, the kBestEffort joules repair and
/// the line's error. Touches nothing but its arguments (and the options'
/// app_resolver), so workers call it concurrently.
ParsedLine parse_line(std::string_view line, const ReadOptions& options,
                      std::vector<std::string>& errors) {
  ParsedLine out;
  if (line.empty()) return out;
  const auto fields = split(line);
  const std::string_view tag = fields[0];
  LineError err;
  const auto bad = [&](std::size_t field, std::string reason) {
    err = {field, std::move(reason)};
    return false;
  };
  const auto want_fields = [&](std::size_t n) {
    if (fields.size() == n) return true;
    return bad(kNoField, "expected " + std::to_string(n) + " fields, got " +
                             std::to_string(fields.size()));
  };
  const auto want_int = [&](std::size_t field, auto& value) {
    if (parse_int(fields[field], value)) return true;
    return bad(field, "not an integer");
  };
  const auto want_app = [&](std::size_t field, AppId& app) {
    if (parse_int(fields[field], app)) return true;
    if (options.app_resolver) {
      app = options.app_resolver(fields[field]);
      if (app != kNoApp) return true;
      return bad(field, "unknown app name");
    }
    return bad(field, "not an integer");
  };

  bool line_ok = true;
  if (tag == "M") {
    out.kind = LineKind::kMeta;
    out.meta = {};
    StudyMeta& meta = out.meta;
    line_ok = want_fields(5) && want_int(1, meta.num_users) && want_int(2, meta.num_apps) &&
              want_int(3, meta.study_begin.us) && want_int(4, meta.study_end.us);
  } else if (tag == "U" || tag == "V") {
    out.kind = tag == "U" ? LineKind::kUserBegin : LineKind::kUserEnd;
    line_ok = want_fields(2) && want_int(1, out.user);
  } else if (tag == "P") {
    out.kind = LineKind::kPacket;
    out.packet = {};
    PacketRecord& p = out.packet;
    line_ok = want_fields(10) && want_int(1, p.time.us) && want_int(2, p.user) &&
              want_app(3, p.app) && want_int(4, p.flow) && want_int(5, p.bytes);
    if (line_ok) {
      if (fields[6] == "up") {
        p.direction = radio::Direction::kUplink;
      } else if (fields[6] == "down") {
        p.direction = radio::Direction::kDownlink;
      } else {
        line_ok = bad(6, "bad direction (want up|down)");
      }
    }
    if (line_ok) {
      if (fields[7] == "cell") {
        p.interface = Interface::kCellular;
      } else if (fields[7] == "wifi") {
        p.interface = Interface::kWifi;
      } else {
        line_ok = bad(7, "bad interface (want cell|wifi)");
      }
    }
    if (line_ok && !parse_process_state(fields[8], p.state)) {
      line_ok = bad(8, "bad process state");
    }
    if (line_ok && !parse_double(fields[9], p.joules)) {
      if (options.policy == ReadPolicy::kBestEffort) {
        // Energy is recomputed by the attribution stage on re-analysis, so
        // a garbled joules field alone need not cost the whole record.
        p.joules = 0.0;
        out.repaired = true;
      } else {
        line_ok = bad(9, "bad joules value");
      }
    }
  } else if (tag == "T") {
    out.kind = LineKind::kTransition;
    out.transition = {};
    StateTransition& t = out.transition;
    line_ok = want_fields(6) && want_int(1, t.time.us) && want_int(2, t.user) &&
              want_app(3, t.app);
    if (line_ok && !parse_process_state(fields[4], t.from)) {
      line_ok = bad(4, "bad process state");
    }
    if (line_ok && !parse_process_state(fields[5], t.to)) {
      line_ok = bad(5, "bad process state");
    }
  } else if (tag == "E") {
    out.kind = LineKind::kStudyEnd;
    line_ok = want_fields(1);
  } else {
    line_ok = bad(0, "unknown record tag");
  }
  if (!line_ok) {
    out.kind = LineKind::kError;
    out.error = static_cast<std::uint32_t>(errors.size());
    errors.push_back(describe(err, fields, line));
  }
  return out;
}

/// Parse every line of `block.text` into `block.lines`.
void parse_block(Block& block, const ReadOptions& options) {
  block.lines.clear();
  block.errors.clear();
  const char* const data = block.text.data();
  const char* const end = data + block.text.size();
  for (const char* p = data; p < end;) {
    const auto* nl =
        static_cast<const char*>(std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    const char* const line_end = nl != nullptr ? nl : end;
    ParsedLine& line = block.lines.emplace_back(
        parse_line({p, static_cast<std::size_t>(line_end - p)}, options, block.errors));
    line.begin = static_cast<std::size_t>(p - data);
    p = line_end + 1;
  }
}

/// The stream's state across lines, on the calling thread: applies parsed
/// lines in input order — line numbers, the study-end rule, the policy's
/// drop/repair/quarantine, the ingest counters and every EventBatcher call.
class LineApplier {
 public:
  LineApplier(EventBatcher& batcher, const ReadOptions& options, ReadSummary& result)
      : batcher_(batcher),
        options_(options),
        result_(result),
        registry_(obs::MetricsRegistry::current()) {}

  /// Apply `block`'s lines; false once a strict failure has stopped the read.
  bool apply(const Block& block) {
    for (std::size_t i = 0; i < block.lines.size(); ++i) {
      const ParsedLine& line = block.lines[i];
      ++result_.records;
      if (line.kind == LineKind::kEmpty) continue;
      if (study_ended_) {
        if (!reject("record after study end (E); line: \"" + snippet_of(block.line(i)) + "\"",
                    block.line(i))) {
          return false;
        }
        continue;
      }
      switch (line.kind) {
        case LineKind::kEmpty: break;
        case LineKind::kMeta: batcher_.on_study_begin(line.meta); break;
        case LineKind::kUserBegin: batcher_.on_user_begin(line.user); break;
        case LineKind::kUserEnd: batcher_.on_user_end(line.user); break;
        case LineKind::kPacket: batcher_.add(line.packet); break;
        case LineKind::kTransition: batcher_.add(line.transition); break;
        case LineKind::kStudyEnd:
          batcher_.on_study_end();
          study_ended_ = true;
          break;
        case LineKind::kError:
          if (!reject(block.errors[line.error], block.line(i))) return false;
          continue;
      }
      saw_any_record_ = true;
      if (line.repaired) {
        ++result_.records_repaired;
        registry_.counter("ingest.records_repaired").inc();
        quarantine("unparseable joules repaired to 0", block.line(i));
      }
    }
    return true;
  }

  /// The end of input: a stream that began but never ended.
  void finish() {
    if (!saw_any_record_ || study_ended_) return;
    if (options_.policy == ReadPolicy::kBestEffort) {
      result_.truncated = true;
      if (result_.quarantine.size() < options_.max_quarantine) {
        result_.quarantine.push_back(
            {result_.records, "truncated stream: no study end (E) record", ""});
      }
    } else {
      result_.status = util::Status::data_loss(
          "truncated stream: no study end (E) record after line " +
          std::to_string(result_.records));
    }
  }

 private:
  /// The current line is malformed: fatal under kStrict (returns false),
  /// else dropped, counted and quarantined.
  bool reject(const std::string& error, std::string_view line) {
    std::string message = "line " + std::to_string(result_.records) + ": " + error;
    if (options_.policy == ReadPolicy::kStrict) {
      result_.status = util::Status::data_loss(std::move(message));
      return false;
    }
    ++result_.records_dropped;
    registry_.counter("ingest.records_dropped").inc();
    quarantine(std::move(message), line);
    return true;
  }

  void quarantine(std::string reason, std::string_view line) {
    if (result_.quarantine.size() < options_.max_quarantine) {
      result_.quarantine.push_back({result_.records, std::move(reason), snippet_of(line)});
    }
  }

  EventBatcher& batcher_;
  const ReadOptions& options_;
  ReadSummary& result_;
  obs::MetricsRegistry& registry_;
  bool saw_any_record_ = false;
  bool study_ended_ = false;
};

/// Reads `is` block by block into `batcher`: a window of 2 × threads blocks
/// parses on `threads` workers while this thread reads the next blocks and
/// applies the front one (inline, one block at a time, at 1).
void decode_csv(std::istream& is, EventBatcher& batcher, const ReadOptions& options,
                unsigned threads, ReadSummary& result) {
  BlockReader reader{is};
  LineApplier applier{batcher, options, result};
  util::OrderedWindow<Block> window{threads, threads <= 1 ? 1 : 2 * std::size_t{threads},
                                    [&options](Block& block, unsigned) {
                                      const obs::Stopwatch watch;
                                      parse_block(block, options);
                                      block.parse_ms = watch.elapsed_ms();
                                    }};
  for (bool more = true;;) {
    while (more && !window.full()) {
      more = reader.next(window.next().text);
      if (more) window.push();
    }
    if (window.empty()) break;
    Block& block = window.front();
    if (window.workers() > 0) result.parse_ms += block.parse_ms;
    if (!applier.apply(block)) return;
    if (block.text.capacity() > 2 * kBlockBytes) block = Block{};  // a long line's block
    window.pop();
  }
  applier.finish();
}

}  // namespace

ReadSummary read_csv_trace(std::istream& is, TraceSink& sink, const ReadOptions& options,
                           unsigned threads) {
  return read_validated(sink, options, [&](EventBatcher& batcher, ReadSummary& result) {
    decode_csv(is, batcher, options, threads, result);
  });
}

util::Status CsvTraceSource::emit(TraceSink& sink, std::size_t batch_size, unsigned threads) {
  if (consumed_) {
    // Rewind for replay-many consumers (sweep fallback, repeated runs).
    is_.clear();
    is_.seekg(0);
    if (!is_) {
      return util::Status::failed_precondition(
          "csv trace source: stream already consumed and not seekable");
    }
  }
  consumed_ = true;
  ReadOptions options = options_;
  options.batch_size = batch_size;
  MetaCaptureSink capture(&sink, &meta_);
  summary_ = read_csv_trace(is_, capture, options, threads);
  return summary_.status;
}

}  // namespace wildenergy::trace
