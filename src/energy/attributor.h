// Per-app network energy attribution (paper §3.1).
//
// "As we evaluate the impact of each app in the wild, rather than the impact
//  of apps in isolation, we assign any tail energy to the last packet sent
//  during the tail period to avoid double-counting energy when there are
//  multiple concurrent flows. In this way, the total cellular network energy
//  consumed by each device is the sum of the energy assigned to each app."
//
// EnergyAttributor implements exactly that: it merges the device-wide packet
// stream of each user through one radio model instance, and attributes
//   - promotion + transfer segments -> the packet that caused them,
//   - tail segments                 -> the last packet before the tail,
//   - idle segments                 -> the device baseline (no app).
// Downstream sinks receive the same trace stream with PacketRecord::joules
// filled in, preserving time order. A packet's joules are settled once the
// next packet (or the user's end) has fed the radio, so the attributor hands
// the stream on one packet behind its input (under kProportional, one active
// period behind).
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>

#include "ckpt/checkpointable.h"
#include "radio/burst_machine.h"
#include "trace/batch.h"
#include "trace/sink.h"

namespace wildenergy::energy {

class AccountSpill;  // energy/account_file.h

/// Builds one user's radio model (radio::make_lte_model and its siblings).
using RadioModelFactory = std::function<std::unique_ptr<radio::BurstMachine>()>;

/// Alternative attribution rules, for the ablation bench (DESIGN.md §4.1).
enum class TailPolicy {
  kLastPacket,   ///< the paper's rule: whole tail to the last packet
  kProportional, ///< split each tail across apps by their bytes in the
                 ///< preceding active period (double-counting-free variant)
};

/// Plain event counters the attributor bumps as it works. They feed
/// obs::RunStats; incrementing them never touches the energy math, so they
/// cannot perturb attribution (obs_test proves joules are bit-identical
/// with and without stats collection).
struct AttributionCounters {
  std::uint64_t packets = 0;
  std::uint64_t transitions = 0;
  std::uint64_t users = 0;
  std::uint64_t tail_attributions = 0;    ///< tail segments assigned to a packet
  std::uint64_t proportional_splits = 0;  ///< active windows split under kProportional
  std::uint64_t promotion_segments = 0;
  std::uint64_t transfer_segments = 0;
  std::uint64_t tail_segments = 0;
  std::uint64_t drx_segments = 0;  ///< tail segments whose radio state is a DRX phase
  std::uint64_t idle_segments = 0;

  /// Fold another attributor's counters in (shard merge; order-free).
  void merge_from(const AttributionCounters& other);
};

class EnergyAttributor final : public trace::TraceSink, public ckpt::CheckpointableSink {
 public:
  /// Energy partials for one user — kept per user so cross-user double sums
  /// fold in user-id order (see determinism note below).
  struct UserEnergy {
    double device = 0.0;
    double attributed = 0.0;
    double baseline = 0.0;
    double tail = 0.0;
    double promotion = 0.0;
    double transfer = 0.0;
  };

  /// `downstream` receives the energy-annotated stream; it must outlive this.
  /// An empty `factory` means LTE (radio::make_lte_model), the default every
  /// façade (core/pipeline.h, core/sweep.h) relies on.
  EnergyAttributor(RadioModelFactory factory, trace::TraceSink* downstream,
                   TailPolicy policy = TailPolicy::kLastPacket);

  void on_study_begin(const trace::StudyMeta& meta) override;
  void on_user_begin(trace::UserId user) override;
  void on_user_end(trace::UserId user) override;
  void on_study_end() override;
  /// One pass: appends `batch` to out_, feeds each new packet straight to
  /// the radio and annotates the segments' joules in place, then sends out_
  /// downstream minus the unsettled window, which it carries to the next
  /// batch. Bit-identical for every batch size.
  void on_batch(const trace::EventBatch& batch) override;

  // Study-wide energy totals: the folded aggregate, then each pending user's
  // partials in ascending user order — the same fold however far the folds
  // got, so a sharded run merged in user order yields bit-identical values
  // to the serial pass (trace/shardable.h).

  /// Total energy of every segment (incl. idle baseline) — the device total.
  [[nodiscard]] double device_joules() const { return total(&UserEnergy::device); }
  /// Energy attributed to apps (promotion + transfer + tail).
  [[nodiscard]] double attributed_joules() const { return total(&UserEnergy::attributed); }
  /// Idle/paging baseline energy (never attributed).
  [[nodiscard]] double baseline_joules() const { return total(&UserEnergy::baseline); }
  [[nodiscard]] double tail_joules() const { return total(&UserEnergy::tail); }
  [[nodiscard]] double promotion_joules() const { return total(&UserEnergy::promotion); }
  [[nodiscard]] double transfer_joules() const { return total(&UserEnergy::transfer); }
  /// Event counters for this run (reset on each study begin).
  [[nodiscard]] const AttributionCounters& counters() const { return counters_; }

  /// A fresh attributor with this one's radio factory and tail policy,
  /// feeding `downstream`, for one user's shard chain. It holds only that
  /// user's partials, whatever the study size.
  [[nodiscard]] std::unique_ptr<EnergyAttributor> clone_shard(trace::TraceSink* downstream) const;
  /// Fold a clone's counters into this one and steal its per-user row
  /// (called by the engine in stream order; users must be disjoint).
  void merge_from(EnergyAttributor& shard);

  // -- account plane (DESIGN.md §15) -----------------------------------------
  /// The spill fold_user() writes through. Unarmed, the attributor never
  /// folds and every user's partials stay pending.
  void set_account_spill(AccountSpill* spill) { spill_ = spill; }
  /// Fold `user`'s pending partials into the study-wide aggregate (in
  /// ascending user order — the additions every query performs), spill them
  /// as an "attrib" row-group section, and drop the row. The engine calls
  /// this explicitly (the attributor sits above the fan-out and is not a
  /// ShardableSink).
  void fold_user(trace::UserId user);
  /// Decode one spilled "attrib" section (the fold_user encode mirror).
  [[nodiscard]] static util::Status decode_user_energy(std::string_view payload,
                                                       UserEnergy& out);

  [[nodiscard]] obs::MemoryUse memory_use() const override;

  // CheckpointableSink: the folded aggregate and pending per-user partials
  // (raw double bits) plus the attribution counters. Per-packet transients
  // (the window, pending tails) are empty at user boundaries, so only the
  // durable fold state travels.
  void save_state(ckpt::ByteWriter& out) const override;
  [[nodiscard]] util::Status restore_state(ckpt::ByteReader& in) override;

 private:
  struct Pass;  ///< the radio's segment sink for one pass (attributor.cpp)

  /// Settle the window up to packet `end_pkt` at order position `end_ord`;
  /// everything before `end_ord` is then final.
  void settle(std::size_t end_pkt, std::size_t end_ord, AttributionCounters& counters);
  /// settle()'s rare work: split pending_tail_ over the window's packets by
  /// bytes, then merge its packets and transitions back into time order,
  /// packets winning ties (the identity on a time-ordered stream under
  /// kLastPacket).
  void close_window(std::size_t end_pkt, std::size_t end_ord, AttributionCounters& counters);
  /// Send out_ minus the unsettled window downstream as one batch, and carry
  /// the window to the front of out_.
  void flush_out();
  /// The folded aggregate of `field` plus every pending user's, ascending.
  [[nodiscard]] double total(double UserEnergy::*field) const;

  RadioModelFactory factory_;
  trace::TraceSink* downstream_;
  TailPolicy policy_;
  std::unique_ptr<radio::BurstMachine> model_;  ///< this user's radio
  trace::StudyMeta meta_;

  // The annotated events not yet sent: a settled prefix, then the window —
  // packets from win_pkt_ and order entries from win_ord_ on — whose tail
  // attribution is still open. Under kLastPacket the window is the last
  // packet and the transitions after it; under kProportional, every event
  // since the radio last went idle.
  trace::EventBatch out_;
  // Holds the window while out_'s settled prefix is sent. Swapping the two
  // buffers instead would leave both at batch capacity, which measured
  // ~0.8 MB more peak RSS on the 20-user 120-day panel.
  trace::EventBatch carry_;
  std::size_t win_pkt_ = 0;
  std::size_t win_ord_ = 0;
  double pending_tail_ = 0.0;  ///< tail energy awaiting proportional split

  // Per-user energy partials of users not yet folded: the one a stream or
  // clone is feeding, and merged ones awaiting fold_user.
  std::map<trace::UserId, UserEnergy> pending_;
  UserEnergy* current_ = nullptr;  ///< this user's partials (set in on_user_begin)
  AttributionCounters counters_;

  AccountSpill* spill_ = nullptr;  ///< non-owning; armed by the engine
  std::uint64_t spilled_self_ = 0;
  UserEnergy folded_;              ///< study-wide fold over released users
};

}  // namespace wildenergy::energy
