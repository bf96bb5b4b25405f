#include "obs/memory.h"

#include <fstream>
#include <string>
#include <string_view>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace wildenergy::obs {

namespace {

/// VmHWM, RssAnon and RssFile from /proc/self/status in bytes; zeros where
/// procfs (or a field) is absent.
struct StatusFields {
  std::uint64_t hwm = 0;
  RssSplit rss;
};

StatusFields read_proc_status() {
  StatusFields f;
  const std::pair<std::string_view, std::uint64_t*> fields[] = {
      {"VmHWM:", &f.hwm}, {"RssAnon:", &f.rss.anon_bytes}, {"RssFile:", &f.rss.file_bytes}};
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    for (const auto& [key, out] : fields) {
      if (line.rfind(key, 0) == 0) *out = std::stoull(line.substr(key.size())) * 1024;  // kB
    }
  }
  return f;
}

std::uint64_t rusage_max_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace

std::uint64_t peak_rss_bytes() {
  const std::uint64_t hwm = read_proc_status().hwm;
  return hwm != 0 ? hwm : rusage_max_rss_bytes();
}

RssSplit rss_split() { return read_proc_status().rss; }

bool reset_peak_rss() {
#if defined(__GLIBC__)
  // Hand freed heap pages back first: the mark resets to the current
  // resident set, which would otherwise keep the last phase's free lists.
  malloc_trim(0);
#endif
  std::ofstream clear_refs{"/proc/self/clear_refs"};
  if (!clear_refs) return false;
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

}  // namespace wildenergy::obs
