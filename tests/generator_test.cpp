// Tests for the synthetic study generator (src/sim/): determinism, stream
// contracts (ordering, bracketing), and behavioural properties of the app
// models.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "appmodel/catalog.h"
#include "sim/generator.h"
#include "sim/population.h"
#include "sim/user_model.h"
#include "trace/batch.h"
#include "trace/sink.h"

namespace wildenergy::sim {
namespace {

sim::StudyConfig tiny() {
  StudyConfig cfg = small_study(123);
  cfg.num_users = 3;
  cfg.num_days = 20;
  cfg.total_apps = 50;
  return cfg;
}

TEST(StudyGenerator, DeterministicAcrossRuns) {
  const StudyGenerator gen{tiny()};
  trace::TraceCollector a;
  trace::TraceCollector b;
  gen.run(a);
  gen.run(b);
  ASSERT_EQ(a.packets().size(), b.packets().size());
  ASSERT_EQ(a.transitions().size(), b.transitions().size());
  for (std::size_t i = 0; i < a.packets().size(); ++i) {
    EXPECT_EQ(a.packets()[i].time.us, b.packets()[i].time.us);
    EXPECT_EQ(a.packets()[i].bytes, b.packets()[i].bytes);
    EXPECT_EQ(a.packets()[i].app, b.packets()[i].app);
  }
}

TEST(StudyGenerator, DifferentSeedsDiffer) {
  StudyConfig c1 = tiny();
  StudyConfig c2 = tiny();
  c2.seed = 999;
  trace::TraceCollector a;
  trace::TraceCollector b;
  StudyGenerator{c1}.run(a);
  StudyGenerator{c2}.run(b);
  EXPECT_NE(a.packets().size(), b.packets().size());
}

/// Sink asserting the TraceSink stream contract.
class ContractChecker final : public trace::TraceSink {
 public:
  void on_study_begin(const trace::StudyMeta& meta) override {
    EXPECT_FALSE(began_);
    began_ = true;
    meta_ = meta;
  }
  void on_user_begin(trace::UserId user) override {
    EXPECT_TRUE(began_);
    EXPECT_FALSE(in_user_);
    in_user_ = true;
    user_ = user;
    last_time_ = TimePoint{std::numeric_limits<std::int64_t>::min()};
  }
  void on_packet(const trace::PacketRecord& p) override {
    EXPECT_TRUE(in_user_);
    EXPECT_EQ(p.user, user_);
    EXPECT_GE(p.time.us, last_time_.us) << "packets must be time-ordered";
    EXPECT_GE(p.time.us, meta_.study_begin.us);
    EXPECT_LT(p.time.us, meta_.study_end.us);
    EXPECT_GT(p.bytes, 0u);
    last_time_ = p.time;
    ++packets_;
  }
  void on_transition(const trace::StateTransition& t) override {
    EXPECT_TRUE(in_user_);
    EXPECT_EQ(t.user, user_);
    EXPECT_GE(t.time.us, last_time_.us) << "transitions must be time-ordered";
    EXPECT_NE(t.from, t.to);
    last_time_ = t.time;
    ++transitions_;
  }
  void on_user_end(trace::UserId user) override {
    EXPECT_TRUE(in_user_);
    EXPECT_EQ(user, user_);
    in_user_ = false;
  }
  void on_study_end() override {
    EXPECT_FALSE(in_user_);
    ended_ = true;
  }

  [[nodiscard]] std::uint64_t packets() const { return packets_; }
  [[nodiscard]] bool ended() const { return ended_; }

 private:
  bool began_ = false;
  bool in_user_ = false;
  bool ended_ = false;
  trace::UserId user_ = 0;
  trace::StudyMeta meta_;
  TimePoint last_time_{};
  std::uint64_t packets_ = 0;
  std::uint64_t transitions_ = 0;
};

TEST(StudyGenerator, StreamContractHolds) {
  ContractChecker checker;
  StudyGenerator{tiny()}.run(checker);
  EXPECT_TRUE(checker.ended());
  EXPECT_GT(checker.packets(), 1000u);
}

TEST(StudyGenerator, TransitionsFormLegalStateMachine) {
  trace::TraceCollector out;
  StudyGenerator{tiny()}.run(out);
  // Per (user, app): fg->bg and bg->fg transitions must alternate.
  std::map<std::uint64_t, bool> in_fg;
  for (const auto& t : out.transitions()) {
    const std::uint64_t k = (static_cast<std::uint64_t>(t.user) << 32) | t.app;
    const bool fg = trace::is_foreground(t.to);
    if (trace::is_foreground(t.from)) {
      EXPECT_TRUE(in_fg[k]) << "fg->x transition while not in fg";
    }
    in_fg[k] = fg;
  }
}

TEST(StudyGenerator, ForegroundPacketsLieWithinSessions) {
  trace::TraceCollector out;
  StudyGenerator{tiny()}.run(out);
  // Reconstruct fg intervals from transitions and check every fg packet
  // falls inside one.
  std::map<std::uint64_t, bool> in_fg;
  std::map<std::uint64_t, std::size_t> violations;
  std::size_t fg_packets = 0;
  std::size_t ti = 0;
  // Packets and transitions are separate vectors; walk them merged per user
  // via the collector order (packets and transitions each time-ordered).
  // Simpler: index transitions by time per key.
  std::map<std::uint64_t, std::vector<std::pair<TimePoint, bool>>> edges;
  for (const auto& t : out.transitions()) {
    const std::uint64_t k = (static_cast<std::uint64_t>(t.user) << 32) | t.app;
    edges[k].emplace_back(t.time, trace::is_foreground(t.to));
  }
  (void)ti;
  for (const auto& p : out.packets()) {
    if (!trace::is_foreground(p.state)) continue;
    ++fg_packets;
    const std::uint64_t k = (static_cast<std::uint64_t>(p.user) << 32) | p.app;
    const auto& es = edges[k];
    // State at p.time = last edge before or at p.time.
    bool fg = false;
    for (const auto& [time, to_fg] : es) {
      if (time.us <= p.time.us) {
        fg = to_fg;
      } else {
        break;
      }
    }
    if (!fg) violations[k]++;
  }
  ASSERT_GT(fg_packets, 100u);
  std::size_t total_violations = 0;
  for (const auto& [k, v] : violations) total_violations += v;
  // state_at() tags scheduled-background packets foreground when they land
  // in a session, and media sessions overlap; tolerate a small residue.
  EXPECT_LT(static_cast<double>(total_violations), 0.02 * static_cast<double>(fg_packets));
}

TEST(StudyGenerator, RunUserMatchesFullRunSubset) {
  const StudyGenerator gen{tiny()};
  trace::TraceCollector full;
  trace::TraceCollector single;
  gen.run(full);
  gen.run_user(1, single);
  std::uint64_t full_user1 = 0;
  for (const auto& p : full.packets()) {
    if (p.user == 1) ++full_user1;
  }
  EXPECT_EQ(single.packets().size(), full_user1);
}

/// FNV-1a over every field of every event and every user bracket, in stream
/// order. Study brackets are counted, not hashed, so a concatenation of
/// run_user streams digests the same as one run.
class StreamDigest final : public trace::TraceSink {
 public:
  explicit StreamDigest(std::size_t batch_size) : batch_size_(batch_size) {}

  void on_study_begin(const trace::StudyMeta&) override { ++study_begins; }
  void on_user_begin(trace::UserId user) override {
    mix(1);
    mix(user);
    user_ = user;
  }
  void on_batch(const trace::EventBatch& batch) override {
    ++batches;
    EXPECT_EQ(batch.user, user_);
    EXPECT_FALSE(batch.empty());
    EXPECT_LE(batch.size(), batch_size_);
    trace::for_each_event(
        batch,
        [&](const trace::PacketRecord& p) {
          mix(2);
          mix(static_cast<std::uint64_t>(p.time.us));
          mix(p.user);
          mix(p.app);
          mix(p.flow);
          mix(p.bytes);
          mix(static_cast<std::uint64_t>(p.direction));
          mix(static_cast<std::uint64_t>(p.interface));
          mix(static_cast<std::uint64_t>(p.state));
          ++events;
        },
        [&](const trace::StateTransition& t) {
          mix(3);
          mix(static_cast<std::uint64_t>(t.time.us));
          mix(t.user);
          mix(t.app);
          mix(static_cast<std::uint64_t>(t.from));
          mix(static_cast<std::uint64_t>(t.to));
          ++events;
        });
  }
  void on_user_end(trace::UserId user) override {
    mix(4);
    mix(user);
  }
  void on_study_end() override { ++study_ends; }

  std::uint64_t digest = 14695981039346656037ULL;
  std::uint64_t events = 0;
  std::uint64_t batches = 0;
  std::uint64_t study_begins = 0;
  std::uint64_t study_ends = 0;

 private:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 1099511628211ULL;
    }
  }

  std::size_t batch_size_;
  trace::UserId user_ = 0;
};

/// A catalog built so that every emitter's output is many short, overlapping
/// time runs: each periodic spec's period is shorter than its update's burst
/// train (400 ms + bursts × intra_update_gap), leaks poll faster than their
/// 200 ms reply, and schedules change mid-study (one drops bytes_up to 0).
appmodel::AppCatalog overlapping_catalog() {
  appmodel::AppCatalog catalog;
  appmodel::AppProfile chatty;
  chatty.name = "overlap-free-running";
  chatty.install_probability = 1.0;
  chatty.foreground.sessions_per_day = 6.0;
  appmodel::PeriodicSpec fast;
  fast.period = appmodel::Schedule<Duration>{sec(45.0)}.then(2, sec(30.0));
  fast.bursts_per_update = 3;
  fast.intra_update_gap = sec(20.0);  // 60.4 s train > 45 s period
  fast.bytes_up = appmodel::Schedule<std::uint64_t>{std::uint64_t{800}}.then(3, 0);
  fast.forced_close_mean_days = 0.3;
  fast.restart_mean_hours = 2.0;
  chatty.periodic.push_back(fast);
  appmodel::PeriodicSpec fg_only = fast;
  fg_only.period = sec(25.0);
  fg_only.restart_on_foreground_only = true;
  chatty.periodic.push_back(fg_only);
  appmodel::LeakSpec leak;
  leak.leak_probability = 0.6;
  leak.poll_period = appmodel::Schedule<Duration>{sec(0.15)}.then(1, sec(0.4));
  leak.egregious_probability = 0.2;
  leak.egregious_poll_period = sec(0.1);
  chatty.leak = leak;
  chatty.flush = appmodel::FlushSpec{};
  catalog.add(chatty);

  appmodel::AppProfile reset;
  reset.name = "overlap-reset-phase";
  reset.install_probability = 1.0;
  reset.foreground.sessions_per_day = 8.0;
  appmodel::PeriodicSpec timer;
  timer.period = sec(10.0);
  timer.bursts_per_update = 4;
  timer.intra_update_gap = sec(3.0);  // 12.4 s train > 10 s period
  timer.phase = appmodel::PeriodPhase::kResetOnBackground;
  timer.restart_mean_hours = 0.5;
  reset.periodic.push_back(timer);
  appmodel::MediaSpec media;
  media.listen_sessions_per_day = 2.0;
  media.chunk_period = appmodel::Schedule<Duration>{sec(20.0)}.then(2, sec(40.0));
  media.chunk_bytes = appmodel::Schedule<std::uint64_t>{std::uint64_t{90'000}}.then(3, 30'000);
  reset.media = media;
  catalog.add(reset);

  appmodel::AppProfile service;
  service.name = "overlap-delegated-media";
  service.install_probability = 1.0;
  appmodel::MediaSpec delegated = media;
  delegated.delegated_service = true;
  service.media = delegated;
  catalog.add(service);
  return catalog;
}

// The generator's whole stream, pinned: every field of every event (flow
// ids and interfaces included, which no downstream digest sees), at several
// batch sizes, with per-user generation concatenating to the full run. A
// change to how the generator stores or orders events must keep these.
TEST(StudyGenerator, StreamDigestIsPinned) {
  StudyConfig wifi = small_study(42);
  wifi.wifi_availability = 0.4;
  PopulationConfig population;
  population.num_users = 40;
  population.num_days = 3;
  population.seed = 7;
  StudyConfig no_days = small_study(42);
  no_days.num_days = 0;
  StudyConfig negative_days = small_study(42);
  negative_days.num_days = -3;
  // The paper's panel (342 apps): reset-phase timers, foreground-only
  // restarts and forced-close restarts that step back in time.
  StudyConfig panel;
  panel.seed = 1;
  panel.num_users = 2;
  panel.num_days = 120;
  StudyConfig overlapping = small_study(5);
  overlapping.num_users = 2;
  overlapping.num_days = 4;
  struct Case {
    const char* name;
    StudyGenerator gen;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"small_study", StudyGenerator{small_study(42)}, 0x2f9cd24281ccf838ULL},
      {"wifi_0.4", StudyGenerator{wifi}, 0x422867782b43d979ULL},
      {"population_40x3", StudyGenerator{population.study()}, 0xc931a057b9c63ad6ULL},
      {"num_days_0", StudyGenerator{no_days}, 0xca5ae66062fd6ae5ULL},
      {"num_days_-3", StudyGenerator{negative_days}, 0xca5ae66062fd6ae5ULL},
      {"paper_panel_2x120", StudyGenerator{panel}, 0x99f3760fc28bcd94ULL},
      {"overlapping_runs", StudyGenerator{overlapping, overlapping_catalog()},
       0x6e71e5c6b2f67e53ULL},
  };
  for (const Case& c : cases) {
    const StudyGenerator& gen = c.gen;
    for (const std::size_t batch_size : {1, 7, 256, 4096}) {
      SCOPED_TRACE(std::string{c.name} + " batch " + std::to_string(batch_size));
      StreamDigest full{batch_size};
      gen.run(full, batch_size);
      EXPECT_EQ(full.study_begins, 1u);
      EXPECT_EQ(full.study_ends, 1u);
      EXPECT_EQ(full.digest, c.digest) << std::hex << "0x" << full.digest << std::dec << " over "
                                       << full.events << " events";
      if (gen.config().num_days <= 0) {
        EXPECT_EQ(full.batches, 0u);  // bracket-only users
      } else {
        EXPECT_GT(full.events, 0u);
      }

      StreamDigest per_user{batch_size};
      for (trace::UserId u = 0; u < gen.config().num_users; ++u) {
        gen.run_user(u, per_user, batch_size);
      }
      EXPECT_EQ(per_user.study_begins, gen.config().num_users);
      EXPECT_EQ(per_user.digest, full.digest);
      EXPECT_EQ(per_user.events, full.events);
    }
  }
}

TEST(UserModel, PlansAreDeterministicAndDiverse) {
  const StudyConfig cfg = tiny();
  const auto catalog = appmodel::AppCatalog::full_catalog(cfg.seed, cfg.total_apps);
  const UserPlan a = make_user_plan(cfg, catalog, 0);
  const UserPlan a2 = make_user_plan(cfg, catalog, 0);
  const UserPlan b = make_user_plan(cfg, catalog, 1);
  EXPECT_EQ(a.installed.size(), a2.installed.size());
  EXPECT_GT(a.installed.size(), 5u);
  // Different users install different sets (overwhelmingly likely).
  std::set<trace::AppId> sa;
  std::set<trace::AppId> sb;
  for (const auto& ia : a.installed) sa.insert(ia.app);
  for (const auto& ia : b.installed) sb.insert(ia.app);
  EXPECT_NE(sa, sb);
}

TEST(UserModel, DiurnalWeightShape) {
  EXPECT_LT(diurnal_weight(3.5), diurnal_weight(20.0));  // night << evening
  EXPECT_GT(diurnal_weight(8.5), diurnal_weight(4.0));   // morning bump
  for (double h = 0.0; h < 24.0; h += 0.25) {
    EXPECT_GT(diurnal_weight(h), 0.0);
    EXPECT_LT(diurnal_weight(h), 1.7);  // bound used by rejection sampler
  }
}

TEST(UserModel, WeekdayFactorMeanIsOne) {
  double sum = 0.0;
  for (int d = 0; d < 7; ++d) sum += weekday_factor(d, 0.25);
  EXPECT_NEAR(sum / 7.0, 1.0, 0.02);
}

TEST(AppCatalog, PaperAppsPresent) {
  const auto catalog = appmodel::AppCatalog::paper_catalog();
  for (const char* name :
       {"Weibo", "Twitter", "Facebook", "Plus", "Samsung Push", "Urbanairship", "Maps", "GMail",
        "Go Weather widget", "Go Weather", "Accuweather", "Accuweather widget", "Spotify",
        "Pandora", "Pocketcasts", "Podcastaddict", "Chrome", "Firefox", "Browser",
        "Media Server", "Google Play", "Messenger", "ESPN", "4shared", "Stock Weather"}) {
    EXPECT_NE(catalog.find(name), trace::kNoApp) << name;
  }
}

TEST(AppCatalog, FullCatalogHas342Apps) {
  const auto catalog = appmodel::AppCatalog::full_catalog(42);
  EXPECT_EQ(catalog.size(), 342u);
  // Deterministic in the seed.
  const auto again = appmodel::AppCatalog::full_catalog(42);
  ASSERT_EQ(again.size(), catalog.size());
  for (trace::AppId id = 0; id < catalog.size(); ++id) {
    EXPECT_EQ(catalog[id].name, again[id].name);
    EXPECT_EQ(catalog[id].popularity, again[id].popularity);
  }
}

// Property sweep over every profile in the full catalog: parameters must be
// physically sensible or the generator would misbehave silently.
class ProfileInvariants : public ::testing::TestWithParam<int> {};

TEST_P(ProfileInvariants, AllProfilesWellFormed) {
  const auto catalog =
      appmodel::AppCatalog::full_catalog(static_cast<std::uint64_t>(GetParam()));
  ASSERT_EQ(catalog.size(), 342u);
  for (trace::AppId id = 0; id < catalog.size(); ++id) {
    const auto& p = catalog[id];
    EXPECT_FALSE(p.name.empty());
    EXPECT_GT(p.popularity, 0.0) << p.name;
    EXPECT_GE(p.install_probability, 0.0) << p.name;
    EXPECT_LE(p.install_probability, 1.0) << p.name;
    EXPECT_GE(p.foreground.sessions_per_day, 0.0) << p.name;
    for (const auto& spec : p.periodic) {
      for (std::int64_t day : {0, 100, 300, 622}) {
        EXPECT_GT(spec.period.at(day).us, 0) << p.name;
      }
      EXPECT_GE(spec.period_jitter, 0.0) << p.name;
      EXPECT_GT(spec.bursts_per_update, 0) << p.name;
    }
    if (p.leak) {
      EXPECT_GE(p.leak->leak_probability, 0.0) << p.name;
      EXPECT_LE(p.leak->leak_probability, 1.0) << p.name;
      EXPECT_GT(p.leak->poll_period.at(0).us, 0) << p.name;
    }
    if (p.flush) {
      EXPECT_GT(p.flush->bursts, 0) << p.name;
      EXPECT_GT(p.flush->mean_spacing.us, 0) << p.name;
    }
    if (p.media) {
      EXPECT_GT(p.media->session_minutes_mean, 0.0) << p.name;
      EXPECT_GT(p.media->chunk_period.at(0).us, 0) << p.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileInvariants, ::testing::Values(1, 42, 777));

}  // namespace
}  // namespace wildenergy::sim
