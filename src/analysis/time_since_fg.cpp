#include "analysis/time_since_fg.h"

#include <algorithm>
#include <cmath>

#include "trace/batch.h"

namespace wildenergy::analysis {

TimeSinceForegroundAnalysis::TimeSinceForegroundAnalysis(Duration horizon, Duration bin)
    : horizon_(horizon),
      bin_(bin),
      histogram_(0.0, horizon.seconds(),
                 static_cast<std::size_t>(horizon.us / std::max<std::int64_t>(bin.us, 1))) {}

std::unique_ptr<trace::TraceSink> TimeSinceForegroundAnalysis::clone_shard() const {
  return std::make_unique<TimeSinceForegroundAnalysis>(horizon_, bin_);
}

void TimeSinceForegroundAnalysis::merge_from(trace::TraceSink& shard) {
  auto& other = dynamic_cast<TimeSinceForegroundAnalysis&>(shard);
  histogram_.merge_from(other.histogram_);
  if (other.tallies_.size() > tallies_.size()) {
    tallies_.resize(other.tallies_.size());
    touched_.resize(other.tallies_.size(), false);
  }
  for (std::size_t app = 0; app < other.tallies_.size(); ++app) {
    if (!other.touched_[app]) continue;
    tallies_[app].bg_bytes += other.tallies_[app].bg_bytes;
    tallies_[app].bg_bytes_first_minute += other.tallies_[app].bg_bytes_first_minute;
    touched_[app] = true;
  }
}

void TimeSinceForegroundAnalysis::on_study_begin(const trace::StudyMeta& meta) {
  cur_user_ = kNoUser;
  track_.assign(meta.num_apps, 0);
  last_exit_.assign(meta.num_apps, TimePoint{});
  tallies_.assign(meta.num_apps, AppTally{});
  touched_.assign(meta.num_apps, false);
}

void TimeSinceForegroundAnalysis::switch_user(trace::UserId user) {
  std::fill(track_.begin(), track_.end(), 0);
  cur_user_ = user;
}

void TimeSinceForegroundAnalysis::grow_tracking(trace::AppId app) {
  track_.resize(app + 1, 0);
  last_exit_.resize(app + 1, TimePoint{});
  if (tallies_.size() < track_.size()) {
    tallies_.resize(track_.size());
    touched_.resize(track_.size(), false);
  }
}

void TimeSinceForegroundAnalysis::on_user_begin(trace::UserId user) { switch_user(user); }

void TimeSinceForegroundAnalysis::handle_transition(const trace::StateTransition& t) {
  if (t.user != cur_user_) switch_user(t.user);
  if (t.app >= track_.size()) grow_tracking(t.app);
  if (t.is_fg_to_bg()) {
    last_exit_[t.app] = t.time;
    track_[t.app] = kHasExit;
  } else if (t.is_bg_to_fg()) {
    track_[t.app] |= kInForeground;
  }
}

void TimeSinceForegroundAnalysis::handle_packet(const trace::PacketRecord& p) {
  if (trace::is_foreground(p.state)) return;
  if (p.user != cur_user_) switch_user(p.user);
  if (p.app >= track_.size()) return;  // never tracked: no reference point
  const std::uint8_t track = track_[p.app];
  if ((track & kInForeground) != 0) return;  // app is fg; bg-state packet is stale
  if ((track & kHasExit) == 0) return;       // never foregrounded: no reference point
  const Duration dt = p.time - last_exit_[p.app];
  if (dt.us < 0) return;

  // Per-app tallies are unbounded in dt (the 84%-of-apps criterion covers
  // all background bytes); only the plotted histogram has a horizon.
  AppTally& tally = tallies_[p.app];
  touched_[p.app] = true;
  tally.bg_bytes += p.bytes;
  if (dt <= sec(60.0)) tally.bg_bytes_first_minute += p.bytes;
  if (dt <= horizon_) histogram_.add(dt.seconds(), static_cast<double>(p.bytes));
}

void TimeSinceForegroundAnalysis::on_batch(const trace::EventBatch& batch) {
  // Packet/transition interleaving matters here (transitions re-arm the
  // reference point), so walk the order column — still no virtual dispatch.
  trace::for_each_event(
      batch, [this](const trace::PacketRecord& p) { handle_packet(p); },
      [this](const trace::StateTransition& t) { handle_transition(t); });
}

void TimeSinceForegroundAnalysis::save_state(ckpt::ByteWriter& out) const {
  out.put_f64_span(histogram_.masses());
  out.put_f64(histogram_.total_mass());
  out.put_varint(tallies_.size());
  out.put_bool_vec(touched_);
  for (std::size_t app = 0; app < tallies_.size(); ++app) {
    if (!touched_[app]) continue;
    out.put_varint(tallies_[app].bg_bytes);
    out.put_varint(tallies_[app].bg_bytes_first_minute);
  }
}

util::Status TimeSinceForegroundAnalysis::restore_state(ckpt::ByteReader& in) {
  std::vector<double> masses(histogram_.bins());
  auto status = in.get_f64_span(masses, "time_since_fg.histogram");
  if (!status.ok()) return status;
  auto total = in.get_f64("time_since_fg.histogram_total");
  if (!total.ok()) return total.status();
  histogram_.restore_masses(masses, *total);
  auto num_apps = in.get_varint("time_since_fg.apps");
  if (!num_apps.ok()) return num_apps.status();
  status = in.get_bool_vec(touched_, "time_since_fg.touched");
  if (!status.ok()) return status;
  if (touched_.size() != *num_apps) {
    return util::Status::data_loss("corrupt checkpoint: time_since_fg touched flags mismatch");
  }
  tallies_.assign(*num_apps, AppTally{});
  if (track_.size() < tallies_.size()) {
    track_.resize(tallies_.size(), 0);
    last_exit_.resize(tallies_.size(), TimePoint{});
  }
  for (std::size_t app = 0; app < tallies_.size(); ++app) {
    if (!touched_[app]) continue;
    auto bg = in.get_varint("time_since_fg.bg_bytes");
    if (!bg.ok()) return bg.status();
    tallies_[app].bg_bytes = *bg;
    auto first = in.get_varint("time_since_fg.bg_bytes_first_minute");
    if (!first.ok()) return first.status();
    tallies_[app].bg_bytes_first_minute = *first;
  }
  return util::Status::ok_status();
}

std::vector<std::pair<trace::AppId, TimeSinceForegroundAnalysis::AppTally>>
TimeSinceForegroundAnalysis::app_tallies() const {
  std::vector<std::pair<trace::AppId, AppTally>> out;
  for (std::size_t app = 0; app < tallies_.size(); ++app) {
    if (touched_[app]) out.emplace_back(static_cast<trace::AppId>(app), tallies_[app]);
  }
  return out;
}

double TimeSinceForegroundAnalysis::fraction_of_apps_frontloaded(double share,
                                                                 std::uint64_t min_bytes) const {
  std::size_t eligible = 0;
  std::size_t frontloaded = 0;
  for (std::size_t app = 0; app < tallies_.size(); ++app) {
    if (!touched_[app]) continue;
    const AppTally& tally = tallies_[app];
    if (tally.bg_bytes < min_bytes) continue;
    ++eligible;
    if (static_cast<double>(tally.bg_bytes_first_minute) >=
        share * static_cast<double>(tally.bg_bytes)) {
      ++frontloaded;
    }
  }
  return eligible ? static_cast<double>(frontloaded) / static_cast<double>(eligible) : 0.0;
}

std::vector<double> TimeSinceForegroundAnalysis::spike_offsets_seconds(
    std::size_t max_spikes) const {
  // Find local maxima beyond 120 s that stand well above their neighbourhood.
  struct Spike {
    double offset = 0.0;
    double prominence = 0.0;
  };
  std::vector<Spike> spikes;
  const auto masses = histogram_.masses();
  const std::size_t start =
      static_cast<std::size_t>(120.0 / histogram_.bin_width()) + 1;
  for (std::size_t i = start; i + 2 < masses.size(); ++i) {
    const double v = masses[i];
    if (v <= 0.0) continue;
    // Background level: median over bins 3..10 away on each side — spikes
    // from jittered timers spread over a couple of bins, so the immediate
    // neighbours are excluded from the baseline.
    std::vector<double> neigh;
    for (std::size_t j = (i >= 10 ? i - 10 : 0); j + 3 <= i; ++j) neigh.push_back(masses[j]);
    for (std::size_t j = i + 3; j <= std::min(i + 10, masses.size() - 1); ++j) {
      neigh.push_back(masses[j]);
    }
    if (neigh.empty()) continue;
    std::nth_element(neigh.begin(), neigh.begin() + neigh.size() / 2, neigh.end());
    const double median = neigh[neigh.size() / 2];
    if (v > 1.35 * median && v > masses[i - 1] && v >= masses[i + 1]) {
      spikes.push_back({histogram_.bin_lo(i) + histogram_.bin_width() / 2.0, v / (median + 1.0)});
    }
  }
  // Report the earliest qualifying spikes: the paper's figure annotates the
  // 5- and 10-minute offsets; later bins are harmonics over a thinner base.
  std::sort(spikes.begin(), spikes.end(),
            [](const Spike& a, const Spike& b) { return a.offset < b.offset; });
  if (spikes.size() > max_spikes) spikes.resize(max_spikes);
  std::vector<double> out;
  out.reserve(spikes.size());
  for (const auto& s : spikes) out.push_back(s.offset);
  return out;
}

obs::MemoryUse TimeSinceForegroundAnalysis::memory_use() const {
  return {.resident_bytes = histogram_.bins() * sizeof(double) +
                            track_.capacity() * sizeof(std::uint8_t) +
                            last_exit_.capacity() * sizeof(TimePoint) +
                            tallies_.capacity() * sizeof(AppTally) + (touched_.capacity() + 7) / 8,
          .spilled_bytes = 0};
}

}  // namespace wildenergy::analysis
