// Tests for the background-traffic management policies (core/policy.h).
#include <gtest/gtest.h>

#include "deliver.h"
#include "core/policy.h"
#include "trace/sink.h"

namespace wildenergy::core {
namespace {

using trace::PacketRecord;
using trace::ProcessState;
using trace::StateTransition;

trace::StudyMeta meta10d() {
  trace::StudyMeta meta;
  meta.num_users = 1;
  meta.num_apps = 4;
  meta.study_begin = kEpoch;
  meta.study_end = kEpoch + days(10.0);
  return meta;
}

PacketRecord pkt(double t_days, trace::AppId app, ProcessState state,
                 trace::FlowId flow = 0, std::uint64_t bytes = 1000) {
  PacketRecord p;
  p.time = kEpoch + days(t_days);
  p.app = app;
  p.flow = flow;
  p.bytes = bytes;
  p.state = state;
  return p;
}

StateTransition trans(double t_days, trace::AppId app, bool to_fg) {
  StateTransition t;
  t.time = kEpoch + days(t_days);
  t.app = app;
  t.from = to_fg ? ProcessState::kBackground : ProcessState::kForeground;
  t.to = to_fg ? ProcessState::kForeground : ProcessState::kBackground;
  return t;
}

TEST(KillAfterIdlePolicy, SuppressesAfterIdleWindow) {
  trace::TraceCollector out;
  KillAfterIdlePolicy policy{&out, days(3.0)};
  policy.on_study_begin(meta10d());
  policy.on_user_begin(0);
  deliver(policy, pkt(0.1, 1, ProcessState::kForeground));  // fg use re-arms
  deliver(policy, pkt(1.0, 1, ProcessState::kService));     // within 3 days: pass
  deliver(policy, pkt(5.0, 1, ProcessState::kService));     // idle > 3 days: drop
  policy.on_user_end(0);
  ASSERT_EQ(out.packets().size(), 2u);
  EXPECT_EQ(policy.packets_dropped(), 1u);
  EXPECT_EQ(policy.bytes_dropped(), 1000u);
}

TEST(KillAfterIdlePolicy, TransitionToForegroundReArms) {
  trace::TraceCollector out;
  KillAfterIdlePolicy policy{&out, days(3.0)};
  policy.on_study_begin(meta10d());
  policy.on_user_begin(0);
  deliver(policy, trans(4.0, 1, true));              // user opens the app
  deliver(policy, pkt(5.0, 1, ProcessState::kService));  // 1 day since fg: pass
  policy.on_user_end(0);
  EXPECT_EQ(out.packets().size(), 1u);
}

TEST(KillAfterIdlePolicy, NeverForegroundedSuppressedFromStudyStart) {
  trace::TraceCollector out;
  KillAfterIdlePolicy policy{&out, days(3.0)};
  policy.on_study_begin(meta10d());
  policy.on_user_begin(0);
  deliver(policy, pkt(1.0, 2, ProcessState::kService));  // pass: < 3 days in
  deliver(policy, pkt(4.0, 2, ProcessState::kService));  // drop
  policy.on_user_end(0);
  EXPECT_EQ(out.packets().size(), 1u);
}

TEST(KillAfterIdlePolicy, WhitelistExempts) {
  trace::TraceCollector out;
  KillAfterIdlePolicy policy{&out, days(3.0), {trace::AppId{2}}};
  policy.on_study_begin(meta10d());
  policy.on_user_begin(0);
  deliver(policy, pkt(9.0, 2, ProcessState::kService));  // widget: whitelisted
  deliver(policy, pkt(9.0, 3, ProcessState::kService));  // dropped
  policy.on_user_end(0);
  ASSERT_EQ(out.packets().size(), 1u);
  EXPECT_EQ(out.packets()[0].app, 2u);
}

TEST(KillAfterIdlePolicy, ForegroundAlwaysPasses) {
  trace::TraceCollector out;
  KillAfterIdlePolicy policy{&out, days(3.0)};
  policy.on_study_begin(meta10d());
  policy.on_user_begin(0);
  deliver(policy, pkt(9.0, 1, ProcessState::kForeground));
  deliver(policy, pkt(9.1, 1, ProcessState::kService));  // re-armed by the fg packet
  policy.on_user_end(0);
  EXPECT_EQ(out.packets().size(), 2u);
}

TEST(KillAfterIdlePolicy, StatePerUserIsReset) {
  trace::TraceCollector out;
  KillAfterIdlePolicy policy{&out, days(3.0)};
  policy.on_study_begin(meta10d());
  policy.on_user_begin(0);
  deliver(policy, pkt(0.1, 1, ProcessState::kForeground));
  policy.on_user_end(0);
  policy.on_user_begin(1);
  // User 1 never foregrounded app 1; idle clock starts at study begin.
  deliver(policy, pkt(5.0, 1, ProcessState::kService));
  policy.on_user_end(1);
  EXPECT_EQ(policy.packets_dropped(), 1u);
}

TEST(DozeLikePolicy, DropsOutsideMaintenanceWindows) {
  trace::TraceCollector out;
  DozeLikePolicy policy{&out, hours(1.0), hours(4.0), minutes(5.0)};
  policy.on_study_begin(meta10d());
  policy.on_user_begin(0);
  deliver(policy, trans(0.0, 1, true));
  deliver(policy, trans(0.001, 1, false));
  // 30 min after activity: not dozing yet.
  deliver(policy, pkt(0.5 / 24.0, 1, ProcessState::kService));
  // 2 h after activity: dozing, and 1 h into doze is outside the window.
  deliver(policy, pkt(2.0 / 24.0, 1, ProcessState::kService));
  // Exactly 1 h + 4 h + 1 min after activity: inside a maintenance window.
  deliver(policy, pkt((5.0 + 1.0 / 60.0) / 24.0, 1, ProcessState::kService));
  policy.on_user_end(0);
  ASSERT_EQ(out.packets().size(), 2u);
  EXPECT_EQ(policy.packets_dropped(), 1u);
}

TEST(DozeLikePolicy, ForegroundActivityWakesDevice) {
  trace::TraceCollector out;
  DozeLikePolicy policy{&out, hours(1.0), hours(4.0), minutes(5.0)};
  policy.on_study_begin(meta10d());
  policy.on_user_begin(0);
  deliver(policy, pkt(0.0, 1, ProcessState::kForeground));
  deliver(policy, pkt(2.0 / 24.0, 2, ProcessState::kService));   // dozing: drop
  deliver(policy, pkt(2.01 / 24.0, 1, ProcessState::kForeground));  // wake
  deliver(policy, pkt(2.02 / 24.0, 2, ProcessState::kService));  // pass
  policy.on_user_end(0);
  EXPECT_EQ(policy.packets_dropped(), 1u);
  EXPECT_EQ(out.packets().size(), 3u);
}

TEST(LeakTerminationPolicy, DropsOnlyForegroundInitiatedFlows) {
  trace::TraceCollector out;
  LeakTerminationPolicy policy{&out};
  policy.on_study_begin(meta10d());
  policy.on_user_begin(0);
  deliver(policy, pkt(0.0, 1, ProcessState::kForeground, /*flow=*/10));
  // Same flow continuing in background (a §4.1 leak): dropped.
  deliver(policy, pkt(0.001, 1, ProcessState::kBackground, /*flow=*/10));
  // A genuine background flow (periodic sync): passes.
  deliver(policy, pkt(0.002, 1, ProcessState::kService, /*flow=*/11));
  policy.on_user_end(0);
  ASSERT_EQ(out.packets().size(), 2u);
  EXPECT_EQ(policy.packets_dropped(), 1u);
  EXPECT_EQ(out.packets()[1].flow, 11u);
}

TEST(LeakTerminationPolicy, FlowTableResetsPerUser) {
  trace::TraceCollector out;
  LeakTerminationPolicy policy{&out};
  policy.on_study_begin(meta10d());
  policy.on_user_begin(0);
  deliver(policy, pkt(0.0, 1, ProcessState::kForeground, /*flow=*/10));
  policy.on_user_end(0);
  policy.on_user_begin(1);
  // Flow id 10 for user 1 is a different flow; background here is fine.
  deliver(policy, pkt(0.0, 1, ProcessState::kBackground, /*flow=*/10));
  policy.on_user_end(1);
  EXPECT_EQ(policy.packets_dropped(), 0u);
}

TEST(PacketFilterPolicy, ForwardsBracketingCallbacks) {
  trace::TraceCollector out;
  LeakTerminationPolicy policy{&out};
  policy.on_study_begin(meta10d());
  policy.on_user_begin(0);
  deliver(policy, trans(0.1, 1, true));
  policy.on_user_end(0);
  policy.on_study_end();
  EXPECT_EQ(out.meta().num_users, 1u);
  EXPECT_EQ(out.transitions().size(), 1u);
}

}  // namespace
}  // namespace wildenergy::core
