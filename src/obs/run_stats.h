// RunStats: the summary one StudyPipeline::run() leaves behind.
//
// The cheap part (wall time, packet/byte/joule totals, attributor and radio
// state-machine counters) is collected on every run from counters the
// pipeline maintains anyway. The per-stage breakdown (`stages`, self-time
// profiling of generator vs filter vs policy vs attributor vs each sink) is
// only populated when RunOptions::collect_stage_stats or a trace writer
// asks for it, because it costs two clock reads per callback per stage.
//
// Serializable: to_json() emits the stable "wildenergy.run_stats.v2" schema
// (DESIGN.md §11) the CLI --stats-json flag and the sweep engine export.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/memory.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace wildenergy::obs {

class JsonWriter;  // obs/json.h

/// One pipeline stage's share of a run, as seen by its InstrumentedSink.
/// In a sharded run this is the fold of every surviving shard's copy of the
/// stage: self times add, batch-latency histograms merge binwise.
struct StageStats {
  std::string name;
  double self_ms = 0.0;  ///< callback time net of downstream stages
  std::uint64_t packets = 0;
  std::uint64_t transitions = 0;
  std::uint64_t bytes = 0;
  /// Per-on_batch self latency, in microseconds, on every profiled stage
  /// (policy and fault-injected runs included: every stage receives
  /// batches). Its count — one sample per delivered batch — is
  /// bit-identical across thread counts because batch boundaries are
  /// per-user and thread-count-independent.
  Histogram batch_latency_us;

  [[nodiscard]] double packets_per_sec() const {
    return self_ms > 0.0 ? static_cast<double>(packets) / (self_ms / 1e3) : 0.0;
  }

  /// Fold another shard's copy of this stage into this one.
  void merge_from(const StageStats& other);
};

/// One user-shard's share of a run (core/engine.h). Its stage profile is
/// folded into RunStats::stages as the shard merges, not kept per row.
struct ShardRunStats {
  std::uint64_t user = 0;
  unsigned worker = 0;   ///< worker-pool thread that ran the shard
  double wall_ms = 0.0;  ///< generate+attribute time for this shard
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  double joules = 0.0;
  // Failure handling (RunOptions::failure_policy, kRetryThenSkip).
  unsigned attempts = 1;   ///< 1 = succeeded first try; >1 = retried
  bool skipped = false;    ///< user excluded from the merge after retries
  util::Status status;     ///< last failure; OK for healthy shards
};

/// Data-structure footprints plus the process peak RSS (obs/memory.h).
/// Bytes are container-capacity estimates, not allocator truth — see
/// DESIGN.md §11 for the caveats.
struct MemoryStats {
  MemoryUse ledger;    ///< EnergyLedger accounts + per-user totals
  MemoryUse analyses;  ///< sum over registered analysis sinks (incl. spilled rows)
  MemoryUse store;     ///< trace store columns: resident + sealed WESG segments
  /// WEAC account-spill plane (energy/account_file.h): resident row-group
  /// builder + sealed per-user detail files. The spilled halves of the
  /// ledger/analyses entries land in these files; this entry tracks the
  /// spill writer itself, so its resident half counts against the budget.
  MemoryUse accounts;
  /// High-water of the engine's shard window (core/engine.h): the summed
  /// footprint of the shard chains that had finished their stream but not
  /// yet merged. A transient peak, not held at the end of the run, so it is
  /// not part of tracked_bytes().
  MemoryUse shards;
  std::uint64_t peak_rss_bytes = 0;  ///< process-lifetime peak resident set
  /// The resident set at the end of the run, split (obs::rss_split): anon is
  /// what budgets govern, file is mapped pages (binary, libraries, segments).
  std::uint64_t rss_anon_bytes = 0;
  std::uint64_t rss_file_bytes = 0;

  /// Resident bytes under the run's control — what a RAM budget bounds.
  /// Spilled halves are disk, not RAM: excluded.
  [[nodiscard]] std::uint64_t tracked_bytes() const {
    return ledger.resident_bytes + analyses.resident_bytes + store.resident_bytes +
           accounts.resident_bytes;
  }
};

struct RunStats {
  // Always collected.
  double wall_ms = 0.0;
  /// The part of wall_ms a sweep spends capturing its base source into the
  /// store, serially, before any scenario worker starts; 0 when nothing was
  /// captured (a pipeline run, or a sweep over a filled store).
  double capture_ms = 0.0;
  /// Of a sealed capture: the time its segment seals were busy (encode,
  /// write, rename, verify) — on the sealer thread at num_threads > 1, so it
  /// overlaps capture_ms — and the time the capturing thread waited on a seal
  /// in flight (part of capture_ms; 0 when seals ran inline).
  double capture_seal_ms = 0.0;
  double capture_wait_ms = 0.0;
  /// Of a capture from a CSV source at num_threads > 1: its parse workers'
  /// busy time, summed over workers (it overlaps capture_ms); 0 when the
  /// capturing thread parsed every line itself.
  double capture_parse_ms = 0.0;
  /// The process peak resident set (VmHWM) read as the capture ended, so at
  /// most memory.peak_rss_bytes: whether the capture or the replay set the
  /// run's peak. 0 when nothing was captured.
  std::uint64_t capture_peak_rss_bytes = 0;
  unsigned num_threads = 1;  ///< worker threads the run actually used
  std::uint64_t users = 0;
  std::uint64_t packets = 0;      ///< attributed packets (post interface filter)
  std::uint64_t transitions = 0;  ///< process-state transitions streamed
  std::uint64_t bytes = 0;
  std::uint64_t off_interface_packets = 0;  ///< dropped before attribution
  std::uint64_t off_interface_bytes = 0;
  double joules = 0.0;

  // Attribution counters (energy/attributor.cpp).
  std::uint64_t tail_attributions = 0;    ///< tail segments assigned to a packet
  std::uint64_t proportional_splits = 0;  ///< windows split under kProportional
  std::uint64_t promotion_segments = 0;
  std::uint64_t transfer_segments = 0;
  std::uint64_t tail_segments = 0;
  std::uint64_t drx_segments = 0;  ///< tail segments spent in a DRX phase
  std::uint64_t idle_segments = 0;

  // Radio state-machine counters (radio/burst_machine.cpp, via the global
  // MetricsRegistry; deltas over this run).
  std::uint64_t radio_bursts = 0;
  std::uint64_t radio_bursts_queued = 0;  ///< bursts that queued behind airtime
  std::uint64_t radio_promotions = 0;     ///< idle -> active promotions
  std::uint64_t radio_repromotions = 0;   ///< mid-tail re-promotions

  // Per-stage profile; empty unless stage stats were requested. Sharded runs
  // fill it too: each shard profiles its own chain copy on a shard-local
  // PhaseStack and the copies are folded in user-id order (self times and
  // counters add, batch-latency histograms merge binwise), so --stats names
  // the hot stages at any thread count.
  bool timed = false;
  std::vector<StageStats> stages;

  // Memory accounting: sink/source footprints plus process peak RSS.
  MemoryStats memory;

  // One entry per user shard, in stream order, when the run used several
  // threads or a failure policy (retries, scripted faults); a plain serial
  // run keeps none, so its stats stay O(1) in users. Plus how many
  // registered sinks are not shardable and were wrapped in a collect-splice
  // adapter (core/engine.cpp) — their merge replays captured streams
  // serially. 0 for the default analysis set.
  std::vector<ShardRunStats> shards;
  std::uint64_t serial_fallback_sinks = 0;

  // Failure handling (FailurePolicy::kRetryThenSkip): total extra shard
  // attempts this run, and the users dropped from the merge after their
  // shard exhausted max_shard_retries (each shard's error is in `shards`).
  std::uint64_t shard_retries = 0;
  std::vector<std::uint64_t> failed_users;

  // Checkpoint/restore accounting (src/ckpt/, RunOptions::checkpoint_dir).
  // The written/bytes/failure counters cover this process only — they reset
  // on resume, because the writes of the killed run are not this run's work.
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_bytes = 0;           ///< encoded bytes landed on disk
  std::uint64_t checkpoint_write_failures = 0;  ///< failed writes (run continued)
  std::uint64_t resumed_users = 0;  ///< users a loaded checkpoint already covered
  /// When resuming had to fall back past damaged checkpoints, the sequence
  /// number actually loaded; 0 when the newest checkpoint was good (or no
  /// resume happened). Recovery is never silent.
  std::uint64_t recovered_from_seq = 0;

  [[nodiscard]] double packets_per_sec() const {
    return wall_ms > 0.0 ? static_cast<double>(packets) / (wall_ms / 1e3) : 0.0;
  }
  [[nodiscard]] double bytes_per_sec() const {
    return wall_ms > 0.0 ? static_cast<double>(bytes) / (wall_ms / 1e3) : 0.0;
  }

  /// Human-readable report: totals, throughput, attribution counters, and —
  /// when timed — the per-stage wall-time breakdown (the --stats output).
  void print(std::ostream& os) const;

  /// Write the "wildenergy.run_stats.v2" JSON object (DESIGN.md §11).
  void write_json(JsonWriter& w) const;
  /// write_json into a fresh document string.
  [[nodiscard]] std::string to_json() const;
};

}  // namespace wildenergy::obs
