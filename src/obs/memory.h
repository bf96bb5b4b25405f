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

/// Peak resident set size of this process, in bytes (getrusage ru_maxrss).
/// Monotone over the process lifetime: it never decreases, so per-run deltas
/// are only meaningful for the first run in a process. Returns 0 when the
/// platform does not report it.
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace wildenergy::obs
