// wildbench: one benchmark step per process, one JSON line on stdout.
//
//   wildbench prepare   --workload W --seed N --dir D   write/digest the inputs
//   wildbench measure   ...                             one untraced run
//   wildbench reference ...                             csv_sweep's plain-pipeline run
//   wildbench traced    ... [--spans FILE]              the layer-by-layer run
//
// Optional --users/--days/--threads override the workload's sizes (the
// harness self-tests use small ones, run.py the --threads 1 references).
// run.py orchestrates these steps; see README.md.
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "harness.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "wildbench: " << why << "\n"
            << "usage: wildbench prepare|measure|reference|traced --workload "
               "panel_ckpt|fleet_fold|csv_sweep --seed N --dir DIR [--users N] [--days N] "
               "[--threads N] [--spans FILE]\n";
  return 2;
}

bool parse_u64(const char* text, unsigned long long& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text, &end, 10);
  return errno == 0 && end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing mode");
  const std::string_view mode = argv[1];
  wildbench::Workload workload{};
  bool have_workload = false;
  unsigned long long seed = 0;
  bool have_seed = false;
  std::string dir;
  std::string spans;
  unsigned long long users = 0, days = 0, threads = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + std::string(flag));
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      ok = have_workload = wildbench::parse_workload(value, workload);
    } else if (flag == "--seed") {
      ok = have_seed = parse_u64(value, seed);
    } else if (flag == "--dir") {
      dir = value;
    } else if (flag == "--spans") {
      spans = value;
    } else if (flag == "--users") {
      ok = parse_u64(value, users) && users <= 1'000'000;
    } else if (flag == "--days") {
      ok = parse_u64(value, days) && days <= 10'000;
    } else if (flag == "--threads") {
      ok = parse_u64(value, threads) && threads <= 256;
    } else {
      return usage("unknown flag " + std::string(flag));
    }
    if (!ok) return usage("bad value '" + std::string(value) + "' for " + std::string(flag));
  }
  if (!have_workload || !have_seed || dir.empty()) {
    return usage("--workload, --seed and --dir are required");
  }
  const wildbench::Spec spec = wildbench::default_spec(
      workload, seed, dir, static_cast<std::uint32_t>(users), static_cast<std::int64_t>(days),
      static_cast<unsigned>(threads));
  if (mode == "prepare") return wildbench::run_prepare(spec);
  if (mode == "measure") return wildbench::run_measure(spec);
  if (mode == "reference") return wildbench::run_reference(spec);
  if (mode == "traced") return wildbench::run_traced(spec, spans);
  return usage("unknown mode " + std::string(mode));
}
