// Deterministic fault injection for serialized trace streams.
//
// The paper's pipeline digested 125 GB of in-the-wild traces (§3); at that
// scale truncated files and flipped bits are routine, and a robustness claim
// is only as good as the faults it was tested against. This injector turns a
// (kind, seed) pair into one reproducible corruption of a serialized trace
// buffer, so tests, the CLI (`analyze --corrupt`), and the fault bench can
// all replay the exact same damage. No wall clock, no global RNG: identical
// (data, spec) => identical corrupted bytes.
//
// Byte-level kinds work on any format (CSV text or a binary WESG segment);
// the field-level kinds parse CSV structure and are rejected for binary
// buffers (binary tampering is covered by the byte-level kinds plus the
// checksum).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace wildenergy::fault {

enum class CorruptionKind : std::uint8_t {
  // Byte-level (format-agnostic).
  kBitFlip = 0,    ///< flip one bit at a seed-chosen offset
  kTruncate,       ///< cut the buffer at a seed-chosen offset
  kDuplicateSpan,  ///< re-insert a seed-chosen span right after itself
  kSwapSpans,      ///< exchange two equal-length non-overlapping spans
  // CSV field-level (require a CSV buffer).
  kBadEnum,       ///< replace a direction/interface/state field with junk
  kBadTimestamp,  ///< send one record's timestamp wildly out of range
};

[[nodiscard]] std::string_view to_string(CorruptionKind kind);
/// Parse the spellings printed by to_string ("bit-flip", "truncate", ...).
[[nodiscard]] util::StatusOr<CorruptionKind> parse_corruption_kind(std::string_view text);

struct CorruptionSpec {
  CorruptionKind kind = CorruptionKind::kBitFlip;
  std::uint64_t seed = 0;  ///< selects offsets/spans/fields deterministically
};

/// Apply one corruption to a serialized trace buffer. Errors only on
/// unusable input: an empty/too-short buffer, or a CSV-only kind applied to
/// a buffer with no CSV data lines.
[[nodiscard]] util::StatusOr<std::string> apply_corruption(std::string data,
                                                           const CorruptionSpec& spec);

}  // namespace wildenergy::fault
