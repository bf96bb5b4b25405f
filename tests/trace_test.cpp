// Unit tests for src/trace/: process states, flow assembly, CSV round trip.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "deliver.h"
#include "appmodel/catalog.h"
#include "trace/csv_io.h"
#include "trace/flow_assembler.h"
#include "trace/process_state.h"
#include "trace/sink.h"

namespace wildenergy::trace {
namespace {

TEST(ProcessState, ForegroundGrouping) {
  EXPECT_TRUE(is_foreground(ProcessState::kForeground));
  EXPECT_TRUE(is_foreground(ProcessState::kVisible));
  EXPECT_TRUE(is_background(ProcessState::kPerceptible));
  EXPECT_TRUE(is_background(ProcessState::kService));
  EXPECT_TRUE(is_background(ProcessState::kBackground));
}

TEST(ProcessState, ParseRoundTrip) {
  for (ProcessState s : kAllProcessStates) {
    ProcessState parsed{};
    ASSERT_TRUE(parse_process_state(to_string(s), parsed));
    EXPECT_EQ(parsed, s);
  }
  ProcessState out{};
  EXPECT_FALSE(parse_process_state("Foreground", out));  // case-sensitive
  EXPECT_FALSE(parse_process_state("", out));
}

TEST(StateTransition, FgBgPredicates) {
  StateTransition t;
  t.from = ProcessState::kForeground;
  t.to = ProcessState::kBackground;
  EXPECT_TRUE(t.is_fg_to_bg());
  EXPECT_FALSE(t.is_bg_to_fg());
  t.from = ProcessState::kForeground;
  t.to = ProcessState::kPerceptible;  // perceptible counts as background
  EXPECT_TRUE(t.is_fg_to_bg());
  t.from = ProcessState::kService;
  t.to = ProcessState::kVisible;
  EXPECT_TRUE(t.is_bg_to_fg());
}

PacketRecord make_packet(double t_s, AppId app, std::uint64_t bytes,
                         ProcessState state = ProcessState::kService, double joules = 1.0,
                         UserId user = 0) {
  PacketRecord p;
  p.time = kEpoch + sec(t_s);
  p.user = user;
  p.app = app;
  p.bytes = bytes;
  p.state = state;
  p.joules = joules;
  return p;
}

TEST(FlowAssembler, SplitsOnIdleGap) {
  std::vector<FlowRecord> flows;
  FlowAssembler fa{[&](const FlowRecord& f) { flows.push_back(f); }, sec(15.0)};
  fa.reset();
  fa.begin_user();
  fa.add(make_packet(0.0, 1, 100));
  fa.add(make_packet(5.0, 1, 100));
  fa.add(make_packet(100.0, 1, 100));  // > 15 s gap: new flow
  fa.end_user();

  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].packets, 2u);
  EXPECT_EQ(flows[0].total_bytes(), 200u);
  EXPECT_NEAR(flows[0].joules, 2.0, 1e-12);
  EXPECT_EQ(flows[1].packets, 1u);
  EXPECT_EQ(fa.flows_emitted(), 2u);
}

TEST(FlowAssembler, AppsAssembleIndependently) {
  std::vector<FlowRecord> flows;
  FlowAssembler fa{[&](const FlowRecord& f) { flows.push_back(f); }, sec(15.0)};
  fa.reset();
  fa.begin_user();
  // Interleaved packets of two apps, each within its own gap threshold.
  for (int i = 0; i < 5; ++i) {
    fa.add(make_packet(i * 10.0, 1, 100));
    fa.add(make_packet(i * 10.0 + 1.0, 2, 200));
  }
  fa.end_user();
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_NE(flows[0].app, flows[1].app);
  EXPECT_EQ(flows[0].packets, 5u);
  EXPECT_EQ(flows[1].packets, 5u);
}

TEST(FlowAssembler, TracksForegroundFlag) {
  std::vector<FlowRecord> flows;
  FlowAssembler fa{[&](const FlowRecord& f) { flows.push_back(f); }, sec(15.0)};
  fa.reset();
  fa.begin_user();
  fa.add(make_packet(0.0, 1, 100, ProcessState::kForeground));
  fa.add(make_packet(2.0, 1, 100, ProcessState::kBackground));
  fa.end_user();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_TRUE(flows[0].any_foreground);
  EXPECT_EQ(flows[0].first_state, ProcessState::kForeground);
}

TEST(FlowAssembler, UserBoundaryFlushes) {
  std::vector<FlowRecord> flows;
  FlowAssembler fa{[&](const FlowRecord& f) { flows.push_back(f); }, sec(15.0)};
  fa.reset();
  fa.begin_user();
  fa.add(make_packet(0.0, 1, 100));
  fa.end_user();
  fa.begin_user();
  fa.add(make_packet(1.0, 1, 100, ProcessState::kService, 1.0,
                           /*user=*/1));  // same app, next user: separate flow
  fa.end_user();
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].user, 0u);
  EXPECT_EQ(flows[1].user, 1u);
}

TEST(CsvIo, RoundTripPreservesStream) {
  StudyMeta meta;
  meta.num_users = 2;
  meta.num_apps = 3;
  meta.study_begin = kEpoch;
  meta.study_end = kEpoch + days(1.0);

  std::ostringstream os;
  CsvTraceWriter writer{os};
  writer.on_study_begin(meta);
  writer.on_user_begin(0);
  PacketRecord p = make_packet(12.5, 2, 4096, ProcessState::kVisible, 3.25);
  p.flow = 99;
  p.direction = radio::Direction::kUplink;
  deliver(writer, p);
  StateTransition t;
  t.time = kEpoch + sec(13.0);
  t.app = 2;
  t.from = ProcessState::kVisible;
  t.to = ProcessState::kBackground;
  deliver(writer, t);
  writer.on_user_end(0);
  writer.on_study_end();

  std::istringstream is{os.str()};
  TraceCollector collector;
  const auto result = read_csv_trace(is, collector);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(collector.meta().num_users, 2u);
  ASSERT_EQ(collector.packets().size(), 1u);
  const auto& rp = collector.packets()[0];
  EXPECT_EQ(rp.time.us, p.time.us);
  EXPECT_EQ(rp.app, 2u);
  EXPECT_EQ(rp.flow, 99u);
  EXPECT_EQ(rp.bytes, 4096u);
  EXPECT_EQ(rp.direction, radio::Direction::kUplink);
  EXPECT_EQ(rp.state, ProcessState::kVisible);
  EXPECT_DOUBLE_EQ(rp.joules, 3.25);
  ASSERT_EQ(collector.transitions().size(), 1u);
  EXPECT_EQ(collector.transitions()[0].from, ProcessState::kVisible);
}

TEST(CsvIo, RejectsMalformedLines) {
  TraceCollector collector;
  {
    std::istringstream is{"P,notanumber,0,0,0,100,down,cell,service,0\n"};
    const auto r = read_csv_trace(is, collector);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error().find("line 1"), std::string::npos);
  }
  {
    std::istringstream is{"X,1,2\n"};
    EXPECT_FALSE(read_csv_trace(is, collector).ok());
  }
  {
    std::istringstream is{"P,1,0,0,0,100,sideways,cell,service,0\n"};
    EXPECT_FALSE(read_csv_trace(is, collector).ok());
  }
  {
    std::istringstream is{"T,1,0,0,service\n"};  // missing to-state
    EXPECT_FALSE(read_csv_trace(is, collector).ok());
  }
}

TEST(CsvIo, AppResolverMapsNamesThroughTheCatalog) {
  // Traces exported by other tooling carry app *names*; ReadOptions can wire
  // AppCatalog::find so the P/T app field accepts either form.
  const auto catalog = appmodel::AppCatalog::paper_catalog();
  const AppId chrome = catalog.find("Chrome");
  const AppId weibo = catalog.find("Weibo");
  ASSERT_NE(chrome, kNoApp);
  ASSERT_NE(weibo, kNoApp);

  ReadOptions options;
  options.app_resolver = [&catalog](std::string_view name) { return catalog.find(name); };

  std::istringstream is{
      "M,1,80,0,86400000000\n"
      "U,0\n"
      "P,1000,0,Chrome,0,100,down,cell,service,0.5\n"
      "P,2000,0,7,1,200,up,wifi,foreground,1.5\n"
      "T,3000,0,Weibo,foreground,background\n"
      "V,0\n"
      "E\n"};
  TraceCollector collector;
  const auto result = read_csv_trace(is, collector, options);
  ASSERT_TRUE(result.ok()) << result.error();
  ASSERT_EQ(collector.packets().size(), 2u);
  EXPECT_EQ(collector.packets()[0].app, chrome);
  EXPECT_EQ(collector.packets()[1].app, 7u);  // numeric ids still pass through
  ASSERT_EQ(collector.transitions().size(), 1u);
  EXPECT_EQ(collector.transitions()[0].app, weibo);

  // Unknown names are a per-line error, not a silent kNoApp record.
  std::istringstream bad{"P,1000,0,NoSuchApp,0,100,down,cell,service,0.5\nE\n"};
  TraceCollector unused;
  const auto failed = read_csv_trace(bad, unused, options);
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.error().find("unknown app name"), std::string::npos);

  // Without a resolver, a non-numeric app field stays an integer-parse error.
  std::istringstream no_resolver{"P,1000,0,Chrome,0,100,down,cell,service,0.5\nE\n"};
  EXPECT_FALSE(read_csv_trace(no_resolver, unused).ok());
}

TEST(TraceMulticast, FansOutInOrder) {
  TraceCollector a;
  TraceCollector b;
  TraceMulticast mc;
  mc.add(&a);
  mc.add(&b);
  mc.on_study_begin({});
  deliver(mc, make_packet(1.0, 1, 10));
  deliver(mc, make_packet(2.0, 1, 20));
  EXPECT_EQ(a.packets().size(), 2u);
  EXPECT_EQ(b.packets().size(), 2u);
  EXPECT_EQ(a.packets()[1].bytes, 20u);
}

}  // namespace
}  // namespace wildenergy::trace
