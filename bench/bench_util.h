// Shared helpers for the figure/table bench binaries.
//
// Every bench runs the synthetic study at a default scale chosen to finish
// in seconds; set WILDENERGY_DAYS / WILDENERGY_USERS / WILDENERGY_SEED to
// rescale (e.g. WILDENERGY_DAYS=623 for the paper's full 22 months).
//
// Perf trajectory: each bench ends with a "[perf]" footer (wall time,
// packets/s) and, when WILDENERGY_BENCH_JSON=<path> is set, appends one
// machine-readable JSON line per run to that file:
//   {"bench":...,"users":...,"days":...,"seed":...,"wall_ms":...,
//    "packets":...,"packets_per_sec":...,"joules":...,"threads":...,
//    "speedup":...,"peak_rss_bytes":...,"host_cpus":...}
// `threads` is the pipeline's worker count and `speedup` the serial wall time
// divided by this run's wall time (1 for serial runs by definition).
// `joules` is omitted (pass no_joules()) for benches with no attribution
// stage; `peak_rss_bytes` is the process peak RSS at report time — the
// phase's own peak when the bench main called obs::reset_peak_rss() before
// the phase, the process-lifetime peak otherwise. `host_cpus` is the
// recording host's hardware thread count. tools/bench_diff consumes these
// records.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "core/pipeline.h"
#include "obs/memory.h"
#include "sim/study_config.h"
#include "util/table.h"

namespace wildenergy::benchutil {

/// Strict env var parse: the whole value must be an integer >= min_value;
/// anything else (e.g. WILDENERGY_DAYS=foo, which atol would turn into 0)
/// is a usage error that exits rather than silently running a zero-day study.
inline long env_long(const char* name, long fallback, long min_value = 1) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || parsed < min_value) {
    std::cerr << "env " << name << "='" << v << "' is not an integer >= " << min_value << "\n";
    std::exit(2);
  }
  return parsed;
}

inline sim::StudyConfig config_from_env(std::int64_t default_days = 200) {
  sim::StudyConfig cfg;
  cfg.num_days = env_long("WILDENERGY_DAYS", default_days);
  cfg.num_users =
      static_cast<std::uint32_t>(env_long("WILDENERGY_USERS", cfg.num_users));
  cfg.seed = static_cast<std::uint64_t>(env_long("WILDENERGY_SEED", 42, /*min_value=*/0));
  return cfg;
}

inline void print_header(const std::string& title, const sim::StudyConfig& cfg) {
  std::cout << "=== " << title << " ===\n"
            << "study: " << cfg.num_users << " users, " << cfg.num_days << " days, "
            << cfg.total_apps << " apps, seed " << cfg.seed << "\n\n";
}

/// Sentinel for report_perf's `joules`: the bench has no energy measurement
/// (e.g. raw-read paths with no attribution stage), so the field is omitted
/// from the footer and the JSON record instead of logging a bogus zero.
inline double no_joules() { return std::nan(""); }

/// Perf footer + optional WILDENERGY_BENCH_JSON record for one measured run.
/// `threads` is the worker count the run used; `speedup` is serial wall time
/// over this run's wall time (pass 1.0 for serial runs). Pass no_joules()
/// when the bench path attributes no energy. Every record also carries the
/// process peak RSS (obs/memory.h) for the memory trajectory.
/// `extra_json` (optional) is spliced verbatim into the JSON record as
/// additional fields, e.g. "\"batch_size\":64".
inline void report_perf(const std::string& bench, const sim::StudyConfig& cfg, double wall_ms,
                        std::uint64_t packets, double joules, unsigned threads = 1,
                        double speedup = 1.0, const std::string& extra_json = {}) {
  const double pps = wall_ms > 0.0 ? static_cast<double>(packets) / (wall_ms / 1e3) : 0.0;
  const std::uint64_t peak_rss = obs::peak_rss_bytes();
  std::cout << "\n[perf] " << bench << ": " << fmt(wall_ms, 1) << " ms wall, " << packets
            << " packets (" << fmt(pps / 1e6, 2) << " Mpkt/s)";
  if (!std::isnan(joules)) std::cout << ", " << fmt(joules / 1e3, 1) << " kJ";
  if (peak_rss > 0) std::cout << ", peak RSS " << fmt_bytes(static_cast<double>(peak_rss));
  if (threads > 1) std::cout << " [" << threads << " threads, " << fmt(speedup, 2) << "x]";
  std::cout << "\n";
  const char* path = std::getenv("WILDENERGY_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  std::ofstream os{path, std::ios::app};
  if (!os) {
    std::cerr << "cannot append bench record to WILDENERGY_BENCH_JSON=" << path << "\n";
    return;
  }
  os << "{\"bench\":\"" << bench << "\",\"users\":" << cfg.num_users
     << ",\"days\":" << cfg.num_days << ",\"seed\":" << cfg.seed << ",\"wall_ms\":" << wall_ms
     << ",\"packets\":" << packets << ",\"packets_per_sec\":" << pps;
  if (!std::isnan(joules)) os << ",\"joules\":" << joules;
  os << ",\"threads\":" << threads << ",\"speedup\":" << speedup
     << ",\"peak_rss_bytes\":" << peak_rss
     << ",\"host_cpus\":" << std::thread::hardware_concurrency();
  if (!extra_json.empty()) os << ',' << extra_json;
  os << "}\n";
}

/// Convenience overload: read the measurement off a run's RunStats.
/// `serial_wall_ms` <= 0 means "this run is the serial baseline".
inline void report_perf(const std::string& bench, const sim::StudyConfig& cfg,
                        const obs::RunStats& stats, double serial_wall_ms = 0.0) {
  const double speedup =
      serial_wall_ms > 0.0 && stats.wall_ms > 0.0 ? serial_wall_ms / stats.wall_ms : 1.0;
  report_perf(bench, cfg, stats.wall_ms, stats.packets, stats.joules, stats.num_threads, speedup);
}

}  // namespace wildenergy::benchutil
