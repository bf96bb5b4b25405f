#include "sim/generator.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "sim/user_model.h"
#include "trace/batch.h"

namespace wildenergy::sim {

using appmodel::AppProfile;
using appmodel::FlushSpec;
using appmodel::LeakSpec;
using appmodel::MediaSpec;
using appmodel::PeriodicSpec;
using appmodel::PeriodPhase;
using radio::Direction;
using trace::AppId;
using trace::PacketRecord;
using trace::ProcessState;
using trace::StateTransition;
using trace::UserId;

namespace {

/// A foreground or listening session of one app.
struct Session {
  TimePoint begin;
  TimePoint end;
  AppId app = 0;
  bool media = false;       ///< listening session (perceptible phase follows)
  TimePoint fg_end;         ///< for media: when foreground hand-off happens
  bool visible = false;     ///< secondary-UI session (Fig. 3 "visible" state)
};

/// A packet as UserSim buffers it: a PacketRecord without `user` (constant
/// per UserSim) and `interface` (a pure function of time), which emission
/// fills in. Half the size of the record, so a user's buffered stream is too.
struct GenPacket {
  TimePoint time;
  std::uint64_t bytes = 0;
  trace::FlowId flow = 0;
  AppId app = 0;
  Direction direction = Direction::kDownlink;
  ProcessState state = ProcessState::kBackground;
};
static_assert(sizeof(GenPacket) == 32);

/// One study day of a user's events, each kind in insertion order.
struct DayBucket {
  std::vector<GenPacket> packets;
  std::vector<StateTransition> transitions;
};

constexpr std::int64_t kDayUs = days(1.0).us;

/// Builds one user's event stream. All state is local; determinism comes
/// from keyed Rng streams.
class UserSim {
 public:
  UserSim(const StudyConfig& config, const appmodel::AppCatalog& catalog, UserId user)
      : config_(config), catalog_(catalog), user_(user),
        plan_(make_user_plan(config, catalog, user)),
        diurnal_(make_user_diurnal(config, user)),
        buckets_(static_cast<std::size_t>(std::max<std::int64_t>(config.num_days, 0))) {
    if (config.wifi_availability > 0.0) {
      Rng rng = stream("wifi-window");
      wifi_hours_ = std::clamp(config.wifi_availability, 0.0, 1.0) * 24.0;
      wifi_start_ = rng.uniform(18.0, 22.0);  // evening arrival at home
    }
  }

  void generate(trace::TraceSink& sink, std::size_t batch_size) {
    build_sessions();
    build_media_sessions();
    index_foreground_intervals();
    emit_session_traffic();
    emit_periodic_traffic();
    emit_stream(sink, batch_size);
  }

 private:
  // -- helpers -------------------------------------------------------------

  Rng stream(std::string_view purpose, AppId app = trace::kNoApp) const {
    return Rng::keyed({config_.seed, hash_name(purpose), user_, app});
  }

  [[nodiscard]] TimePoint study_end() const { return config_.study_end(); }

  /// The bucket of the study day t falls on. Callers have checked
  /// t in [study_begin, study_end), which bounds the index by num_days.
  DayBucket& bucket(TimePoint t) {
    return buckets_[static_cast<std::size_t>((t - config_.study_begin()).us / kDayUs)];
  }

  void packet(TimePoint t, AppId app, std::uint64_t bytes, Direction dir, ProcessState state,
              trace::FlowId flow) {
    if (bytes == 0 || t >= study_end() || t < config_.study_begin()) return;
    bucket(t).packets.push_back({t, bytes, flow, app, dir, state});
  }

  /// Interface in use at t: WiFi during the user's nightly home window when
  /// WiFi modeling is enabled, cellular otherwise.
  [[nodiscard]] trace::Interface interface_at(TimePoint t) const {
    if (wifi_hours_ <= 0.0) return trace::Interface::kCellular;
    const double hour = t.seconds_into_day() / 3600.0;
    // Window [wifi_start_, wifi_start_ + wifi_hours_), wrapping midnight.
    const double rel = std::fmod(hour - wifi_start_ + 24.0, 24.0);
    return rel < wifi_hours_ ? trace::Interface::kWifi : trace::Interface::kCellular;
  }

  void transition(TimePoint t, AppId app, ProcessState from, ProcessState to) {
    if (t >= study_end() || t < config_.study_begin()) return;
    bucket(t).transitions.push_back({t, user_, app, from, to});
  }

  /// Process state an app's *scheduled-background* packet should carry at t:
  /// if the app happens to be foregrounded, the traffic is foreground.
  ProcessState state_at(AppId app, TimePoint t, ProcessState scheduled) const {
    const auto it = fg_intervals_.find(app);
    if (it == fg_intervals_.end()) return scheduled;
    const auto& ivs = it->second;
    auto pos = std::upper_bound(ivs.begin(), ivs.end(), t,
                                [](TimePoint v, const auto& iv) { return v < iv.first; });
    if (pos != ivs.begin()) {
      --pos;
      if (t >= pos->first && t < pos->second) return ProcessState::kForeground;
    }
    return scheduled;
  }

  /// Start of the app's next foreground session strictly after t (or study end).
  TimePoint next_session_after(AppId app, TimePoint t) const {
    const auto it = fg_intervals_.find(app);
    if (it == fg_intervals_.end()) return study_end();
    const auto& ivs = it->second;
    const auto pos = std::upper_bound(ivs.begin(), ivs.end(), t,
                                      [](TimePoint v, const auto& iv) { return v < iv.first; });
    return pos == ivs.end() ? study_end() : pos->first;
  }

  // -- phase 1: user-driven foreground sessions -----------------------------

  void build_sessions() {
    Rng rng = stream("pickups");
    // Selection weights over installed apps with foreground behaviour.
    std::vector<std::pair<std::size_t, double>> weights;  // (index into installed, weight)
    double total_weight = 0.0;
    for (std::size_t i = 0; i < plan_.installed.size(); ++i) {
      const auto& ia = plan_.installed[i];
      const AppProfile& profile = catalog_[ia.app];
      const double w = profile.popularity * ia.affinity * profile.foreground.sessions_per_day;
      if (w > 0.0) {
        weights.emplace_back(i, w);
        total_weight += w;
      }
    }
    if (weights.empty()) return;

    TimePoint cursor{};  // serializes sessions: one foreground app at a time
    for (std::int64_t day = 0; day < config_.num_days; ++day) {
      const double mean = config_.pickups_per_day * plan_.engagement *
                          weekday_factor(day, config_.weekday_amplitude);
      const std::uint64_t pickups = rng.poisson(mean);
      std::vector<double> times;
      times.reserve(pickups);
      for (std::uint64_t i = 0; i < pickups; ++i) {
        times.push_back(sample_diurnal_seconds(rng, diurnal_));
      }
      std::sort(times.begin(), times.end());

      for (double tod : times) {
        TimePoint t = config_.study_begin() + days(static_cast<double>(day)) + sec(tod);
        t = std::max(t, cursor);
        // 1-4 apps per pickup, geometric-ish.
        int chain = 1;
        while (chain < 4 && rng.chance(0.3)) ++chain;
        for (int c = 0; c < chain; ++c) {
          // Weighted app pick.
          double target = rng.uniform() * total_weight;
          std::size_t pick = weights.back().first;
          for (const auto& [idx, w] : weights) {
            if ((target -= w) <= 0.0) {
              pick = idx;
              break;
            }
          }
          const auto& ia = plan_.installed[pick];
          const AppProfile& profile = catalog_[ia.app];
          const double minutes_len =
              rng.lognormal(std::log(profile.foreground.session_minutes_mean),
                            profile.foreground.session_minutes_sigma);
          Session s;
          s.begin = t;
          s.end = t + minutes(std::clamp(minutes_len, 0.15, 90.0));
          s.app = ia.app;
          s.visible = rng.chance(0.08);
          if (s.end >= study_end()) s.end = study_end() - usec(1);
          if (s.end <= s.begin) continue;
          sessions_.push_back(s);
          t = s.end + sec(2.0);
        }
        cursor = t + sec(30.0);
      }
    }
  }

  // -- phase 2: media listening sessions ------------------------------------

  void build_media_sessions() {
    for (const auto& ia : plan_.installed) {
      const AppProfile& profile = catalog_[ia.app];
      if (!profile.media) continue;
      const MediaSpec& media = *profile.media;
      Rng rng = stream("media", ia.app);
      const double rate =
          media.listen_sessions_per_day * std::min(ia.affinity, 2.5) * plan_.engagement;
      for (std::int64_t day = 0; day < config_.num_days; ++day) {
        const std::uint64_t n = rng.poisson(rate);
        for (std::uint64_t i = 0; i < n; ++i) {
          Session s;
          s.begin = config_.study_begin() + days(static_cast<double>(day)) +
                    sec(sample_diurnal_seconds(rng, diurnal_));
          const double len = rng.lognormal(std::log(media.session_minutes_mean),
                                           media.session_minutes_sigma);
          s.end = s.begin + minutes(std::clamp(len, 2.0, 240.0));
          s.app = ia.app;
          s.media = true;
          s.fg_end = s.begin + sec(std::min(60.0, (s.end - s.begin).seconds() * 0.1));
          if (s.end >= study_end()) s.end = study_end() - usec(1);
          if (s.end <= s.begin) continue;
          sessions_.push_back(s);
        }
      }
    }
  }

  void index_foreground_intervals() {
    std::sort(sessions_.begin(), sessions_.end(),
              [](const Session& a, const Session& b) { return a.begin < b.begin; });
    for (const auto& s : sessions_) {
      if (s.media && catalog_[s.app].media->delegated_service) continue;
      const TimePoint fg_hi = s.media ? s.fg_end : s.end;
      fg_intervals_[s.app].emplace_back(s.begin, fg_hi);
    }
    for (auto& [app, ivs] : fg_intervals_) {
      std::sort(ivs.begin(), ivs.end());
    }
  }

  // -- phase 3: per-session traffic (fg bursts, flush, leaks, media chunks) --

  void emit_session_traffic() {
    std::unordered_map<AppId, Rng> rngs;
    for (const auto& s : sessions_) {
      auto [it, inserted] = rngs.try_emplace(s.app, stream("session-traffic", s.app));
      Rng& rng = it->second;
      const AppProfile& profile = catalog_[s.app];

      if (s.media) {
        emit_media_session(s, *profile.media, rng);
        continue;
      }

      const ProcessState fg_state = s.visible ? ProcessState::kVisible : ProcessState::kForeground;
      transition(s.begin, s.app, ProcessState::kBackground, fg_state);
      const trace::FlowId flow = next_flow_++;
      const auto& fg = profile.foreground;
      TimePoint t = s.begin + sec(0.5);
      while (t < s.end) {
        const bool up = rng.chance(0.15);
        const double mean_bytes =
            static_cast<double>(up ? fg.burst_bytes_up : fg.burst_bytes_down);
        const auto bytes =
            static_cast<std::uint64_t>(rng.lognormal(std::log(mean_bytes), 0.8));
        packet(t, s.app, bytes, up ? Direction::kUplink : Direction::kDownlink, fg_state, flow);
        t += sec(rng.exponential(fg.burst_interval.seconds()));
      }
      transition(s.end, s.app, fg_state, ProcessState::kBackground);

      if (profile.flush) emit_flush(s, *profile.flush, rng);
      // A leak is the *same* logical flow continuing after minimize (§4.1),
      // so it keeps the session's flow id.
      if (profile.leak) emit_leak(s, *profile.leak, flow, rng);
    }
  }

  void emit_flush(const Session& s, const FlushSpec& flush, Rng& rng) {
    if (!rng.chance(flush.flush_probability)) return;
    const trace::FlowId flow = next_flow_++;
    TimePoint t = s.end;
    for (int b = 0; b < flush.bursts; ++b) {
      t += sec(rng.exponential(flush.mean_spacing.seconds()));
      const auto down = static_cast<std::uint64_t>(
          rng.lognormal(std::log(static_cast<double>(flush.bytes_down)), 0.6));
      const auto up = static_cast<std::uint64_t>(
          rng.lognormal(std::log(static_cast<double>(flush.bytes_up)), 0.6));
      packet(t, s.app, up, Direction::kUplink,
             state_at(s.app, t, ProcessState::kBackground), flow);
      packet(t + msec(300), s.app, down, Direction::kDownlink,
             state_at(s.app, t + msec(300), ProcessState::kBackground), flow);
    }
  }

  void emit_leak(const Session& s, const LeakSpec& leak, trace::FlowId flow, Rng& rng) {
    if (!rng.chance(leak.leak_probability)) return;
    const std::int64_t day = s.end.day_index();

    const bool egregious = rng.chance(leak.egregious_probability);
    double poll_s;
    Duration lifetime;
    if (egregious) {
      // The 2-second transit page: polls "indefinitely, keeping the cellular
      // radio alive ... until the app is killed or the tab is closed".
      poll_s = leak.egregious_poll_period.seconds();
      lifetime = hours(rng.pareto(1.0, 1.0));  // hours, heavy-tailed
    } else {
      poll_s = leak.poll_period.at(day).seconds();
      if (rng.chance(leak.pareto_tail_probability)) {
        lifetime = hours(rng.pareto(2.0, leak.pareto_tail_alpha));
      } else {
        lifetime = minutes(rng.lognormal(leak.duration_minutes_mu, leak.duration_minutes_sigma));
      }
    }
    TimePoint stop = s.end + lifetime;
    stop = std::min({stop, next_session_after(s.app, s.end), study_end()});

    TimePoint t = s.end + sec(rng.exponential(poll_s));
    while (t < stop) {
      packet(t, s.app, leak.poll_bytes_up, Direction::kUplink, ProcessState::kBackground, flow);
      packet(t + msec(200), s.app, leak.poll_bytes_down, Direction::kDownlink,
             ProcessState::kBackground, flow);
      t += sec(rng.lognormal(std::log(poll_s), egregious ? 0.05 : leak.poll_period_sigma));
    }
  }

  void emit_media_session(const Session& s, const MediaSpec& media, Rng& rng) {
    const std::int64_t day = s.begin.day_index();
    const trace::FlowId flow = next_flow_++;
    if (!media.delegated_service) {
      transition(s.begin, s.app, ProcessState::kBackground, ProcessState::kForeground);
      transition(s.fg_end, s.app, ProcessState::kForeground, ProcessState::kPerceptible);
      transition(s.end, s.app, ProcessState::kPerceptible, ProcessState::kBackground);
      // Browsing/track-picking burst at the start.
      packet(s.begin + sec(1.0), s.app, 150'000, Direction::kDownlink,
             ProcessState::kForeground, flow);
    }

    if (media.whole_file) {
      const auto bytes = static_cast<std::uint64_t>(
          rng.lognormal(std::log(static_cast<double>(media.whole_file_bytes)), 0.35));
      packet(s.fg_end + sec(1.0), s.app, bytes, Direction::kDownlink,
             ProcessState::kPerceptible, flow);
      return;
    }
    const double period_s = media.chunk_period.at(day).seconds();
    const auto chunk = media.chunk_bytes.at(day);
    TimePoint t = s.fg_end + sec(1.0);
    while (t < s.end) {
      const auto bytes = static_cast<std::uint64_t>(
          rng.lognormal(std::log(static_cast<double>(chunk)), 0.25));
      packet(t, s.app, bytes, Direction::kDownlink, ProcessState::kPerceptible, next_flow_++);
      t += sec(rng.lognormal(std::log(period_s), 0.15));
    }
  }

  // -- phase 4: background-initiated (periodic) traffic ----------------------

  void emit_periodic_traffic() {
    for (const auto& ia : plan_.installed) {
      const AppProfile& profile = catalog_[ia.app];
      for (std::size_t spec_idx = 0; spec_idx < profile.periodic.size(); ++spec_idx) {
        const PeriodicSpec& spec = profile.periodic[spec_idx];
        Rng rng = Rng::keyed({config_.seed, hash_name("periodic"), user_, ia.app,
                              static_cast<std::uint64_t>(spec_idx)});
        if (spec.phase == PeriodPhase::kResetOnBackground) {
          emit_reset_phase_periodic(ia.app, spec, rng);
        } else {
          emit_free_running_periodic(ia.app, spec, rng);
        }
      }
    }
  }

  void emit_update(TimePoint t, AppId app, const PeriodicSpec& spec, Rng& rng) {
    const std::int64_t day = t.day_index();
    const trace::FlowId flow = next_flow_++;
    // Mild payload variation around the scheduled sizes.
    const auto vary = [&rng](std::uint64_t mean) {
      return mean == 0 ? std::uint64_t{0}
                       : static_cast<std::uint64_t>(
                             rng.lognormal(std::log(static_cast<double>(mean)), 0.25));
    };
    const auto up = vary(spec.bytes_up.at(day));
    const auto down_total = vary(spec.bytes_down.at(day));
    const int bursts = std::max(1, spec.bursts_per_update);
    packet(t, app, up, Direction::kUplink, state_at(app, t, spec.state), flow);
    TimePoint bt = t + msec(400);
    for (int b = 0; b < bursts; ++b) {
      const auto bytes = std::max<std::uint64_t>(1, down_total / static_cast<std::uint64_t>(bursts));
      packet(bt, app, bytes, Direction::kDownlink, state_at(app, bt, spec.state), flow);
      bt += spec.intra_update_gap;
    }
  }

  void emit_free_running_periodic(AppId app, const PeriodicSpec& spec, Rng& rng) {
    TimePoint t = config_.study_begin() + sec(rng.uniform(0.0, spec.period.at(0).seconds()));
    TimePoint next_close = spec.forced_close_mean_days > 0.0
                               ? t + days(rng.exponential(spec.forced_close_mean_days))
                               : study_end() + sec(1.0);
    while (t < study_end()) {
      if (t >= next_close) {
        // Forced close: traffic pauses until a restart (alarm/boot) or the
        // user foregrounds the app again — non-sticky processes only come
        // back with the user.
        const TimePoint reopened = next_session_after(app, next_close);
        if (spec.restart_on_foreground_only) {
          t = reopened + sec(5.0);
        } else {
          const TimePoint restart = next_close + hours(rng.exponential(spec.restart_mean_hours));
          t = std::min(restart, reopened);
        }
        next_close = t + days(rng.exponential(std::max(0.05, spec.forced_close_mean_days)));
        continue;
      }
      emit_update(t, app, spec, rng);
      const double period_s = spec.period.at(t.day_index()).seconds();
      const double sigma = spec.period_jitter;
      t += sec(std::max(1.0, rng.lognormal(std::log(period_s) - 0.5 * sigma * sigma, sigma)));
    }
  }

  void emit_reset_phase_periodic(AppId app, const PeriodicSpec& spec, Rng& rng) {
    const auto it = fg_intervals_.find(app);
    if (it == fg_intervals_.end()) return;
    for (const auto& [begin, end] : it->second) {
      // The timer re-arms when the app leaves the foreground and keeps
      // firing until the next session or a forced stop.
      const TimePoint stop =
          std::min({next_session_after(app, end),
                    end + hours(rng.exponential(spec.restart_mean_hours)), study_end()});
      const double period_s = spec.period.at(end.day_index()).seconds();
      TimePoint t = end + sec(period_s * rng.lognormal(-0.5 * spec.period_jitter * spec.period_jitter,
                                                       spec.period_jitter));
      while (t < stop) {
        emit_update(t, app, spec, rng);
        t += sec(period_s *
                 rng.lognormal(-0.5 * spec.period_jitter * spec.period_jitter, spec.period_jitter));
      }
    }
  }

  // -- phase 5: sort and emit, one day at a time ------------------------------

  /// The user's stream is every event stable-sorted by time, transitions
  /// winning ties. A day's bucket holds exactly the events of one time range,
  /// in insertion order, so sorting each day and concatenating the days in
  /// order yields that same stream without sorting the whole user at once.
  void emit_stream(trace::TraceSink& sink, std::size_t batch_size) {
    std::size_t total = 0;
    for (const DayBucket& day : buckets_) total += day.packets.size() + day.transitions.size();
    trace::EventBatch batch;
    batch.user = user_;
    batch.reserve(std::min(batch_size, total));
    for (DayBucket& day : buckets_) {
      std::vector<GenPacket>& packets = day.packets;
      std::vector<StateTransition>& transitions = day.transitions;
      std::stable_sort(packets.begin(), packets.end(),
                       [](const GenPacket& a, const GenPacket& b) { return a.time < b.time; });
      std::stable_sort(transitions.begin(), transitions.end(),
                       [](const StateTransition& a, const StateTransition& b) {
                         return a.time < b.time;
                       });
      // Merge into spans of batch_size events (spans run across days);
      // transitions win ties so a session's packets follow its transition
      // into the new state.
      std::size_t pi = 0;
      std::size_t ti = 0;
      while (pi < packets.size() || ti < transitions.size()) {
        const bool take_transition =
            ti < transitions.size() &&
            (pi >= packets.size() || transitions[ti].time <= packets[pi].time);
        if (take_transition) {
          batch.add(transitions[ti++]);
        } else {
          const GenPacket& p = packets[pi++];
          batch.add(PacketRecord{p.time, user_, p.app, p.flow, p.bytes, p.direction,
                                 interface_at(p.time), p.state});
        }
        if (batch.size() >= batch_size) {
          sink.on_batch(batch);
          batch.clear();
        }
      }
      day = DayBucket{};  // release the day's buffers
    }
    if (!batch.empty()) sink.on_batch(batch);
  }

  const StudyConfig& config_;
  const appmodel::AppCatalog& catalog_;
  UserId user_;
  UserPlan plan_;
  DiurnalProfile diurnal_;  ///< per-user rhythm (shared curve at paper defaults)
  std::vector<Session> sessions_;
  std::unordered_map<AppId, std::vector<std::pair<TimePoint, TimePoint>>> fg_intervals_;
  std::vector<DayBucket> buckets_;  ///< one per study day; empty when num_days <= 0
  trace::FlowId next_flow_ = 1;
  double wifi_hours_ = 0.0;   ///< daily WiFi window length (0 = disabled)
  double wifi_start_ = 20.0;  ///< window start, hour of day
};

}  // namespace

StudyGenerator::StudyGenerator(StudyConfig config)
    : config_(config),
      catalog_(appmodel::AppCatalog::full_catalog(config.seed, config.total_apps)) {}

StudyGenerator::StudyGenerator(StudyConfig config, appmodel::AppCatalog catalog)
    : config_(config), catalog_(std::move(catalog)) {}

trace::StudyMeta StudyGenerator::meta() const {
  trace::StudyMeta meta;
  meta.num_users = config_.num_users;
  meta.num_apps = static_cast<std::uint32_t>(catalog_.size());
  meta.study_begin = config_.study_begin();
  meta.study_end = config_.study_end();
  return meta;
}

void StudyGenerator::run(trace::TraceSink& sink, std::size_t batch_size) const {
  sink.on_study_begin(meta());
  for (UserId u = 0; u < config_.num_users; ++u) {
    sink.on_user_begin(u);
    UserSim{config_, catalog_, u}.generate(sink, batch_size);
    sink.on_user_end(u);
  }
  sink.on_study_end();
}

void StudyGenerator::run_user(trace::UserId user, trace::TraceSink& sink,
                              std::size_t batch_size) const {
  sink.on_study_begin(meta());
  sink.on_user_begin(user);
  UserSim{config_, catalog_, user}.generate(sink, batch_size);
  sink.on_user_end(user);
  sink.on_study_end();
}

}  // namespace wildenergy::sim
