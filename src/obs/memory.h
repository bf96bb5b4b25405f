// Process and sink memory accounting for the telemetry layer.
//
// Sink-level footprints come from TraceSink::memory_use() overrides
// (capacity estimates of the containers each sink owns, plus bytes the sink
// has spilled to disk); this header defines the shared MemoryUse struct and
// adds the one process-wide number the OS tracks for us — peak resident set
// size — so RunStats and the bench footer can report both "what the data
// structures think they hold" and "what the process actually peaked at".
// The two diverge (allocator slack, code, stacks); DESIGN.md §11 documents
// the caveats.
#pragma once

#include <cstdint>

namespace wildenergy::obs {

/// One sink's (or store's) memory footprint, split by where the bytes
/// live. `resident_bytes` is the capacity estimate of owned containers —
/// what counts against a RAM budget; `spilled_bytes` is what the component
/// has written to durable side files (WESG segments, WEAC account files) and
/// released from RAM. Components that never spill leave spilled_bytes 0.
struct MemoryUse {
  std::uint64_t resident_bytes = 0;
  std::uint64_t spilled_bytes = 0;

  MemoryUse& operator+=(const MemoryUse& other) {
    resident_bytes += other.resident_bytes;
    spilled_bytes += other.spilled_bytes;
    return *this;
  }
  [[nodiscard]] std::uint64_t total_bytes() const { return resident_bytes + spilled_bytes; }
};

/// Peak resident set size of this process, in bytes: VmHWM from
/// /proc/self/status, falling back to getrusage ru_maxrss where procfs is
/// absent. Monotone between resets: it never decreases until
/// reset_peak_rss() lowers the mark to the current resident set, so a bench
/// that resets before each phase reads that phase's own peak. Returns 0
/// when the platform does not report it.
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// This process's current resident set, split by kind (RssAnon and RssFile
/// from /proc/self/status). `anon_bytes` is heap and stacks, the part a RAM
/// budget governs; `file_bytes` is mapped file pages: the binary, its
/// libraries, and any mapped WESG segment or WEAC account pages not yet
/// released. VmHWM (peak_rss_bytes) counts both. Zeros where procfs is
/// absent.
struct RssSplit {
  std::uint64_t anon_bytes = 0;
  std::uint64_t file_bytes = 0;
};
[[nodiscard]] RssSplit rss_split();

/// Lower the peak-RSS mark to the current resident set (writes "5" to
/// /proc/self/clear_refs, Linux ≥ 4.0), after returning freed heap pages to
/// the OS (glibc malloc_trim) so the mark does not start at the previous
/// phase's free lists. Returns whether the reset worked; when it
/// did not (no procfs, file not writable), peak_rss_bytes() stays the
/// process-lifetime peak. ru_maxrss is never reset, so the fallback is
/// always lifetime-monotone.
bool reset_peak_rss();

}  // namespace wildenergy::obs
