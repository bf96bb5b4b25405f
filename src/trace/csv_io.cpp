#include "trace/csv_io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <istream>
#include <ostream>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "trace/batch.h"
#include "trace/validating_sink.h"

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

/// Cuts an istream into lines a block at a time, with std::getline's
/// semantics: a final line without '\n' is still a line, '\r' stays part of
/// the line, and input ending in '\n' has no empty line after it. A line that
/// crosses a block boundary moves to the front of the buffer before the next
/// read; a line longer than the buffer doubles it.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is), buf_(kBlockBytes) {}

  /// The next line (valid until the next call), or false at end of input.
  bool next(std::string_view& line) {
    std::size_t scan = begin_;
    for (;;) {
      if (const void* nl = std::memchr(buf_.data() + scan, '\n', end_ - scan)) {
        const auto at = static_cast<std::size_t>(static_cast<const char*>(nl) - buf_.data());
        line = {buf_.data() + begin_, at - begin_};
        begin_ = at + 1;
        return true;
      }
      if (at_eof_) {
        if (begin_ == end_) return false;
        line = {buf_.data() + begin_, end_ - begin_};
        begin_ = end_;
        return true;
      }
      const std::size_t partial = end_ - begin_;
      std::memmove(buf_.data(), buf_.data() + begin_, partial);
      begin_ = 0;
      end_ = partial;
      scan = partial;
      if (end_ == buf_.size()) buf_.resize(buf_.size() * 2);
      is_.read(buf_.data() + end_, static_cast<std::streamsize>(buf_.size() - end_));
      end_ += static_cast<std::size_t>(is_.gcount());
      // istream::read comes up short only at end of input or on an error;
      // getline stops at either too.
      if (!is_) at_eof_ = true;
    }
  }

 private:
  static constexpr std::size_t kBlockBytes = std::size_t{128} << 10;

  std::istream& is_;
  std::vector<char> buf_;
  std::size_t begin_ = 0;  ///< first byte of the unread input in buf_
  std::size_t end_ = 0;    ///< one past the last byte read into buf_
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

std::string format_error(std::uint64_t line_no, const LineError& err, const Fields& fields,
                         std::string_view line) {
  std::string msg = "line " + std::to_string(line_no) + ": ";
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

/// Parses lines one record at a time into `batcher`, which hands
/// EventBatches to the validator and flushes before every bracket.
void decode_csv(std::istream& is, EventBatcher& batcher, const ReadOptions& options,
                ReadSummary& result) {
  auto& registry = obs::MetricsRegistry::current();
  LineReader lines{is};
  std::string_view line;
  bool saw_any_record = false;
  bool study_ended = false;

  while (lines.next(line)) {
    ++result.records;
    if (line.empty()) continue;
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
    const auto want_int = [&](std::size_t field, auto& out) {
      if (parse_int(fields[field], out)) return true;
      return bad(field, "not an integer");
    };
    const auto want_app = [&](std::size_t field, AppId& out) {
      if (parse_int(fields[field], out)) return true;
      if (options.app_resolver) {
        out = options.app_resolver(fields[field]);
        if (out != kNoApp) return true;
        return bad(field, "unknown app name");
      }
      return bad(field, "not an integer");
    };

    bool line_ok = true;
    bool repaired_line = false;
    std::string repair_reason;
    if (study_ended) {
      line_ok = bad(kNoField, "record after study end (E)");
    } else if (tag == "M") {
      StudyMeta meta;
      line_ok = want_fields(5) && want_int(1, meta.num_users) && want_int(2, meta.num_apps) &&
                want_int(3, meta.study_begin.us) && want_int(4, meta.study_end.us);
      if (line_ok) batcher.on_study_begin(meta);
    } else if (tag == "U" || tag == "V") {
      UserId user = 0;
      line_ok = want_fields(2) && want_int(1, user);
      if (line_ok) {
        if (tag == "U") {
          batcher.on_user_begin(user);
        } else {
          batcher.on_user_end(user);
        }
      }
    } else if (tag == "P") {
      PacketRecord p;
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
          repaired_line = true;
          repair_reason = "unparseable joules repaired to 0";
        } else {
          line_ok = bad(9, "bad joules value");
        }
      }
      if (line_ok) batcher.add(p);
    } else if (tag == "T") {
      StateTransition t;
      line_ok = want_fields(6) && want_int(1, t.time.us) && want_int(2, t.user) &&
                want_app(3, t.app);
      if (line_ok && !parse_process_state(fields[4], t.from)) {
        line_ok = bad(4, "bad process state");
      }
      if (line_ok && !parse_process_state(fields[5], t.to)) {
        line_ok = bad(5, "bad process state");
      }
      if (line_ok) batcher.add(t);
    } else if (tag == "E") {
      if ((line_ok = want_fields(1))) {
        batcher.on_study_end();
        study_ended = true;
      }
    } else {
      line_ok = bad(0, "unknown record tag");
    }

    if (line_ok) {
      saw_any_record = true;
      if (repaired_line) {
        ++result.records_repaired;
        registry.counter("ingest.records_repaired").inc();
        if (result.quarantine.size() < options.max_quarantine) {
          result.quarantine.push_back({result.records, repair_reason, snippet_of(line)});
        }
      }
      continue;
    }
    const std::string message = format_error(result.records, err, fields, line);
    if (options.policy == ReadPolicy::kStrict) {
      result.status = util::Status::data_loss(message);
      return;
    }
    ++result.records_dropped;
    registry.counter("ingest.records_dropped").inc();
    if (result.quarantine.size() < options.max_quarantine) {
      result.quarantine.push_back({result.records, message, snippet_of(line)});
    }
  }

  if (saw_any_record && !study_ended) {
    if (options.policy == ReadPolicy::kBestEffort) {
      result.truncated = true;
      if (result.quarantine.size() < options.max_quarantine) {
        result.quarantine.push_back(
            {result.records, "truncated stream: no study end (E) record", ""});
      }
    } else {
      result.status = util::Status::data_loss(
          "truncated stream: no study end (E) record after line " +
          std::to_string(result.records));
    }
  }
}

}  // namespace

ReadSummary read_csv_trace(std::istream& is, TraceSink& sink, const ReadOptions& options) {
  return read_validated(sink, options, [&](EventBatcher& batcher, ReadSummary& result) {
    decode_csv(is, batcher, options, result);
  });
}

util::Status CsvTraceSource::emit(TraceSink& sink, std::size_t batch_size) {
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
  summary_ = read_csv_trace(is_, capture, options);
  return summary_.status;
}

}  // namespace wildenergy::trace
