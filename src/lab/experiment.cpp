#include "lab/experiment.h"

#include <algorithm>
#include <cmath>

#include "radio/burst_machine.h"
#include "trace/batch.h"
#include "trace/sink.h"
#include "util/rng.h"

namespace wildenergy::lab {

using appmodel::AppProfile;
using radio::Direction;
using trace::PacketRecord;
using trace::ProcessState;

double LabReport::foreground_joules() const {
  double j = 0.0;
  for (const auto& p : phases) {
    if (p.foreground) j += p.joules;
  }
  return j;
}

double LabReport::background_joules() const {
  double j = 0.0;
  for (const auto& p : phases) {
    if (!p.foreground) j += p.joules;
  }
  return j;
}

namespace {

struct Timeline {
  std::vector<PhaseSpec> script;
  std::vector<TimePoint> boundaries;  ///< script.size() + 1 entries
  TimePoint end;

  [[nodiscard]] bool foreground_at(TimePoint t) const {
    for (std::size_t i = 0; i < script.size(); ++i) {
      if (t >= boundaries[i] && t < boundaries[i + 1]) return script[i].foreground;
    }
    return false;
  }
  /// Start of the next foreground phase strictly after t (or experiment end).
  [[nodiscard]] TimePoint next_foreground_after(TimePoint t) const {
    for (std::size_t i = 0; i < script.size(); ++i) {
      if (script[i].foreground && boundaries[i] > t) return boundaries[i];
    }
    return end;
  }
};

void emit_foreground(const AppProfile& profile, const Timeline& tl, std::size_t phase,
                     Rng& rng, std::vector<PacketRecord>& out) {
  const auto& fg = profile.foreground;
  if (fg.burst_bytes_down == 0 && fg.burst_bytes_up == 0) return;
  TimePoint t = tl.boundaries[phase] + sec(0.5);
  const TimePoint end = tl.boundaries[phase + 1];
  while (t < end) {
    const bool up = rng.chance(0.15);
    const double mean =
        static_cast<double>(up ? fg.burst_bytes_up : fg.burst_bytes_down);
    PacketRecord p;
    p.time = t;
    p.bytes = static_cast<std::uint64_t>(rng.lognormal(std::log(std::max(mean, 1.0)), 0.8));
    p.direction = up ? Direction::kUplink : Direction::kDownlink;
    p.state = ProcessState::kForeground;
    out.push_back(p);
    t += sec(rng.exponential(fg.burst_interval.seconds()));
  }
}

void emit_flush(const AppProfile& profile, TimePoint at, Rng& rng,
                std::vector<PacketRecord>& out) {
  if (!profile.flush || !rng.chance(profile.flush->flush_probability)) return;
  TimePoint t = at;
  for (int b = 0; b < profile.flush->bursts; ++b) {
    t += sec(rng.exponential(profile.flush->mean_spacing.seconds()));
    PacketRecord up;
    up.time = t;
    up.bytes = profile.flush->bytes_up;
    up.direction = Direction::kUplink;
    up.state = ProcessState::kBackground;
    out.push_back(up);
    PacketRecord down = up;
    down.time = t + msec(300);
    down.bytes = profile.flush->bytes_down;
    down.direction = Direction::kDownlink;
    out.push_back(down);
  }
}

void emit_leak(const AppProfile& profile, const Timeline& tl, TimePoint at, Rng& rng,
               std::vector<PacketRecord>& out) {
  if (!profile.leak || !rng.chance(profile.leak->leak_probability)) return;
  const auto& leak = *profile.leak;
  const double poll_s = leak.poll_period.at(0).seconds();
  Duration lifetime;
  if (rng.chance(leak.pareto_tail_probability)) {
    lifetime = hours(rng.pareto(2.0, leak.pareto_tail_alpha));
  } else {
    lifetime = minutes(rng.lognormal(leak.duration_minutes_mu, leak.duration_minutes_sigma));
  }
  const TimePoint stop = std::min({at + lifetime, tl.next_foreground_after(at), tl.end});
  TimePoint t = at + sec(rng.exponential(poll_s));
  while (t < stop) {
    PacketRecord up;
    up.time = t;
    up.bytes = leak.poll_bytes_up;
    up.direction = Direction::kUplink;
    up.state = ProcessState::kBackground;
    out.push_back(up);
    PacketRecord down = up;
    down.time = t + msec(200);
    down.bytes = leak.poll_bytes_down;
    down.direction = Direction::kDownlink;
    out.push_back(down);
    t += sec(rng.lognormal(std::log(poll_s), leak.poll_period_sigma));
  }
}

}  // namespace

std::vector<PhaseSpec> use_then_background(double fg_minutes, double bg_hours) {
  return {{minutes(fg_minutes), true}, {hours(bg_hours), false}};
}

LabReport run_experiment(const AppProfile& profile, std::span<const PhaseSpec> script,
                         LabConfig config) {
  if (!config.radio_factory) config.radio_factory = radio::make_lte_model;
  LabReport report;

  Timeline tl;
  tl.script.assign(script.begin(), script.end());
  tl.boundaries.resize(tl.script.size() + 1);
  tl.boundaries[0] = kEpoch;
  for (std::size_t i = 0; i < tl.script.size(); ++i) {
    tl.boundaries[i + 1] = tl.boundaries[i] + tl.script[i].duration;
  }
  tl.end = tl.boundaries.back();

  Rng rng = Rng::keyed({config.seed, hash_name("lab"), hash_name(profile.name)});
  std::vector<PacketRecord> packets;

  // Scripted foreground phases: session traffic + flush/leak on minimize.
  for (std::size_t i = 0; i < tl.script.size(); ++i) {
    if (!tl.script[i].foreground) continue;
    emit_foreground(profile, tl, i, rng, packets);
    emit_flush(profile, tl.boundaries[i + 1], rng, packets);
    emit_leak(profile, tl, tl.boundaries[i + 1], rng, packets);
  }

  // Background-initiated periodic traffic: free-running, never force-closed
  // (nothing kills the app in the lab).
  for (const auto& spec : profile.periodic) {
    TimePoint t = kEpoch + sec(rng.uniform(0.0, spec.period.at(0).seconds()));
    while (t < tl.end) {
      ++report.periodic_updates;
      if (rng.chance(spec.user_visible_probability)) ++report.visible_notifications;
      const ProcessState state =
          tl.foreground_at(t) ? ProcessState::kForeground : spec.state;
      PacketRecord up;
      up.time = t;
      up.bytes = std::max<std::uint64_t>(spec.bytes_up.at(0), 1);
      up.direction = Direction::kUplink;
      up.state = state;
      packets.push_back(up);
      const int bursts = std::max(1, spec.bursts_per_update);
      TimePoint bt = t + msec(400);
      for (int b = 0; b < bursts; ++b) {
        PacketRecord down = up;
        down.time = bt;
        down.bytes =
            std::max<std::uint64_t>(spec.bytes_down.at(0) / static_cast<std::uint64_t>(bursts), 1);
        down.direction = Direction::kDownlink;
        packets.push_back(down);
        bt += spec.intra_update_gap;
      }
      const double sigma = spec.period_jitter;
      t += sec(std::max(0.5, rng.lognormal(std::log(spec.period.at(0).seconds()) -
                                               0.5 * sigma * sigma,
                                           sigma)));
    }
  }

  std::stable_sort(packets.begin(), packets.end(),
                   [](const PacketRecord& a, const PacketRecord& b) { return a.time < b.time; });
  // Clamp to the experiment window.
  std::erase_if(packets, [&](const PacketRecord& p) { return p.time >= tl.end; });

  // Energy attribution: same engine as the wild-study pipeline.
  trace::StudyMeta meta;
  meta.num_users = 1;
  meta.num_apps = 1;
  meta.study_begin = kEpoch;
  meta.study_end = tl.end;
  trace::EventBatch stream;  // the device's whole stream, one batch
  for (const auto& p : packets) stream.add(p);
  trace::TraceCollector annotated;
  energy::EnergyAttributor attributor{config.radio_factory, &annotated};
  attributor.on_study_begin(meta);
  attributor.on_user_begin(0);
  attributor.on_batch(stream);
  attributor.on_user_end(0);
  attributor.on_study_end();

  // Radio timeline for inspection: replay the same stream through a fresh
  // model instance.
  auto model = config.radio_factory();
  for (const auto& p : packets) {
    model->on_transfer({p.time, p.bytes, p.direction}, report.timeline.sink());
  }
  model->finish(tl.end, report.timeline.sink());

  // Per-phase binning.
  report.phases.reserve(tl.script.size());
  for (std::size_t i = 0; i < tl.script.size(); ++i) {
    PhaseResult phase;
    phase.foreground = tl.script[i].foreground;
    phase.begin = tl.boundaries[i];
    phase.end = tl.boundaries[i + 1];
    report.phases.push_back(phase);
  }
  for (const auto& p : annotated.packets()) {
    for (auto& phase : report.phases) {
      if (p.time >= phase.begin && p.time < phase.end) {
        ++phase.packets;
        phase.bytes += p.bytes;
        phase.joules += p.joules;
        break;
      }
    }
    ++report.total_packets;
    report.total_bytes += p.bytes;
    report.total_joules += p.joules;
  }
  return report;
}

}  // namespace wildenergy::lab
