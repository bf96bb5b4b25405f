// bench_diff: compare a fresh WILDENERGY_BENCH_JSON run against the
// committed BENCH_pipeline.json baseline and fail on throughput regressions
// and on peak-RSS growth.
//
//   bench_diff <baseline.jsonl> <fresh.jsonl>
//              [--threshold PCT]           default 25 (percent), both gates
//              [--threshold-for BENCH=PCT] repeatable per-bench override
//              [--markdown FILE]           write the summary table for CI
//
// Exit codes: 0 = no regression over threshold, 1 = at least one regression,
// 2 = usage or unreadable input. Pairs are matched by (bench, threads,
// batch_size); records whose users/days/seed differ from the baseline are
// skipped, not compared (see src/obs/bench_diff.h).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/bench_diff.h"

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int usage() {
  std::cerr << "usage: bench_diff <baseline.jsonl> <fresh.jsonl> [--threshold PCT]\n"
               "                  [--threshold-for BENCH=PCT]... [--markdown FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string fresh_path;
  std::string markdown_path;
  wildenergy::obs::BenchDiffOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold") {
      if (++i >= argc) return usage();
      options.threshold = std::strtod(argv[i], nullptr) / 100.0;
      if (options.threshold <= 0.0) {
        std::cerr << "bench_diff: --threshold must be a positive percentage\n";
        return 2;
      }
    } else if (arg == "--threshold-for") {
      if (++i >= argc) return usage();
      const std::string spec = argv[i];
      const std::size_t eq = spec.rfind('=');
      if (eq == std::string::npos || eq == 0) return usage();
      options.per_bench[spec.substr(0, eq)] =
          std::strtod(spec.c_str() + eq + 1, nullptr) / 100.0;
    } else if (arg == "--markdown") {
      if (++i >= argc) return usage();
      markdown_path = argv[i];
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (fresh_path.empty()) {
      fresh_path = arg;
    } else {
      return usage();
    }
  }
  if (baseline_path.empty() || fresh_path.empty()) return usage();

  std::string baseline_jsonl;
  std::string fresh_jsonl;
  if (!read_file(baseline_path, &baseline_jsonl)) {
    std::cerr << "bench_diff: cannot read baseline " << baseline_path << "\n";
    return 2;
  }
  if (!read_file(fresh_path, &fresh_jsonl)) {
    std::cerr << "bench_diff: cannot read fresh log " << fresh_path << "\n";
    return 2;
  }

  const auto report = wildenergy::obs::diff_bench_logs(baseline_jsonl, fresh_jsonl, options);
  if (report.entries.empty()) {
    std::cerr << "bench_diff: no comparable records in " << fresh_path << "\n";
    return 2;
  }
  report.print(std::cout);

  if (!markdown_path.empty()) {
    std::ofstream md{markdown_path};
    if (!md) {
      std::cerr << "bench_diff: cannot write " << markdown_path << "\n";
      return 2;
    }
    md << report.to_markdown();
  }
  return report.has_regressions() ? 1 : 0;
}
