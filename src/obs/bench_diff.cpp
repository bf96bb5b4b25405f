#include "obs/bench_diff.h"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "obs/json.h"

namespace wildenergy::obs {

std::string BenchRecord::key() const {
  std::string k = bench + " t" + std::to_string(threads);
  if (batch_size >= 0) k += " b" + std::to_string(batch_size);
  if (resumed) k += " resumed";
  return k;
}

std::vector<BenchRecord> parse_bench_log(std::string_view jsonl) {
  std::vector<BenchRecord> out;
  std::size_t pos = 0;
  while (pos <= jsonl.size()) {
    const std::size_t eol = jsonl.find('\n', pos);
    const std::string_view line =
        jsonl.substr(pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);
    pos = eol == std::string_view::npos ? jsonl.size() + 1 : eol + 1;
    if (line.empty()) continue;
    const auto parsed = JsonValue::parse(line);
    if (!parsed || !parsed->is_object()) continue;
    const std::string bench = parsed->string_or("bench", "");
    if (bench.empty()) continue;
    BenchRecord rec;
    rec.bench = bench;
    rec.threads = static_cast<std::int64_t>(parsed->number_or("threads", 1));
    rec.batch_size = static_cast<std::int64_t>(parsed->number_or("batch_size", -1));
    rec.users = static_cast<std::int64_t>(parsed->number_or("users", 0));
    rec.days = static_cast<std::int64_t>(parsed->number_or("days", 0));
    rec.seed = static_cast<std::int64_t>(parsed->number_or("seed", 0));
    rec.wall_ms = parsed->number_or("wall_ms", 0.0);
    rec.packets_per_sec = parsed->number_or("packets_per_sec", 0.0);
    rec.host_cpus = static_cast<std::int64_t>(parsed->number_or("host_cpus", 0));
    // "resumed" may arrive as a JSON bool or as the string "true" (it is
    // spliced via report_perf's free-form extra_json parameter).
    if (const JsonValue* resumed = parsed->get("resumed"); resumed != nullptr) {
      rec.resumed = (resumed->type() == JsonValue::Type::kBool && resumed->as_bool()) ||
                    (resumed->is_string() && resumed->as_string() == "true");
    }
    out.push_back(std::move(rec));
  }
  return out;
}

double BenchDiffOptions::threshold_for(const std::string& bench) const {
  const auto it = per_bench.find(bench);
  return it == per_bench.end() ? threshold : it->second;
}

const char* to_string(BenchDiffStatus s) {
  switch (s) {
    case BenchDiffStatus::kOk: return "ok";
    case BenchDiffStatus::kImproved: return "improved";
    case BenchDiffStatus::kRegressed: return "REGRESSED";
    case BenchDiffStatus::kScaleMismatch: return "skipped (scale mismatch)";
    case BenchDiffStatus::kMissingBaseline: return "new (no baseline)";
  }
  return "?";
}

bool BenchDiffReport::has_regressions() const {
  for (const auto& e : entries) {
    if (e.status == BenchDiffStatus::kRegressed) return true;
  }
  return false;
}

std::size_t BenchDiffReport::count(BenchDiffStatus s) const {
  std::size_t n = 0;
  for (const auto& e : entries) {
    if (e.status == s) ++n;
  }
  return n;
}

namespace {
std::string fmt_pps(double pps) {
  char buf[32];
  if (pps >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", pps / 1e6);
  } else if (pps >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", pps / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", pps);
  }
  return buf;
}

std::string fmt_delta(const BenchDiffEntry& e) {
  if (e.status == BenchDiffStatus::kScaleMismatch ||
      e.status == BenchDiffStatus::kMissingBaseline) {
    return "-";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", e.delta * 100.0);
  return buf;
}
}  // namespace

std::string BenchDiffReport::to_markdown() const {
  std::string md = "## Bench throughput vs committed baseline\n\n";
  md += "| bench | baseline pkt/s | fresh pkt/s | delta | threshold | status |\n";
  md += "|---|---:|---:|---:|---:|---|\n";
  for (const auto& e : entries) {
    char thr[16];
    std::snprintf(thr, sizeof(thr), "-%.0f%%", e.threshold * 100.0);
    md += "| " + e.key + " | " +
          (e.status == BenchDiffStatus::kMissingBaseline ? "-" : fmt_pps(e.baseline_pps)) +
          " | " + fmt_pps(e.fresh_pps) + " | " + fmt_delta(e) + " | " + thr + " | " +
          to_string(e.status) + " |\n";
  }
  md += "\n";
  md += std::to_string(count(BenchDiffStatus::kRegressed)) + " regressed, " +
        std::to_string(count(BenchDiffStatus::kImproved)) + " improved, " +
        std::to_string(count(BenchDiffStatus::kOk)) + " within threshold, " +
        std::to_string(count(BenchDiffStatus::kScaleMismatch)) + " skipped (scale mismatch), " +
        std::to_string(count(BenchDiffStatus::kMissingBaseline)) + " without baseline.\n";
  return md;
}

void BenchDiffReport::print(std::ostream& os) const {
  for (const auto& e : entries) {
    os << "[diff] " << e.key << ": ";
    if (e.status == BenchDiffStatus::kMissingBaseline) {
      os << fmt_pps(e.fresh_pps) << " pkt/s (no baseline)";
    } else if (e.status == BenchDiffStatus::kScaleMismatch) {
      os << "skipped (scale mismatch vs baseline)";
    } else {
      os << fmt_pps(e.baseline_pps) << " -> " << fmt_pps(e.fresh_pps) << " pkt/s ("
         << fmt_delta(e) << ") " << to_string(e.status);
    }
    os << "\n";
  }
  os << "[diff] " << count(BenchDiffStatus::kRegressed) << " regression(s) over threshold\n";
}

BenchDiffReport diff_bench_logs(std::string_view baseline_jsonl, std::string_view fresh_jsonl,
                                const BenchDiffOptions& options) {
  // Last record per key wins on both sides: the baseline file is a
  // trajectory (appended per PR), and a fresh log may re-run a bench.
  std::map<std::string, BenchRecord> baseline;
  for (auto& rec : parse_bench_log(baseline_jsonl)) baseline[rec.key()] = std::move(rec);

  std::map<std::string, BenchRecord> fresh;
  std::vector<std::string> fresh_order;  // report in fresh-run order
  for (auto& rec : parse_bench_log(fresh_jsonl)) {
    const std::string k = rec.key();
    if (fresh.find(k) == fresh.end()) fresh_order.push_back(k);
    fresh[k] = std::move(rec);
  }

  BenchDiffReport report;
  for (const std::string& k : fresh_order) {
    const BenchRecord& f = fresh[k];
    BenchDiffEntry e;
    e.key = k;
    e.bench = f.bench;
    e.fresh_pps = f.packets_per_sec;
    e.threshold = options.threshold_for(f.bench);
    const auto it = baseline.find(k);
    if (it == baseline.end()) {
      e.status = BenchDiffStatus::kMissingBaseline;
    } else {
      const BenchRecord& b = it->second;
      e.baseline_pps = b.packets_per_sec;
      const bool other_host = b.host_cpus > 0 && f.host_cpus > 0 && b.host_cpus != f.host_cpus;
      if (b.users != f.users || b.days != f.days || b.seed != f.seed || other_host) {
        e.status = BenchDiffStatus::kScaleMismatch;
      } else if (b.packets_per_sec <= 0.0 || !std::isfinite(f.packets_per_sec)) {
        e.status = BenchDiffStatus::kScaleMismatch;  // degenerate record
      } else {
        e.delta = (f.packets_per_sec - b.packets_per_sec) / b.packets_per_sec;
        e.status = e.delta < -e.threshold  ? BenchDiffStatus::kRegressed
                   : e.delta > e.threshold ? BenchDiffStatus::kImproved
                                           : BenchDiffStatus::kOk;
      }
    }
    report.entries.push_back(std::move(e));
  }
  return report;
}

}  // namespace wildenergy::obs
