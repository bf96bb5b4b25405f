// Test helper: a sink that keeps the whole stream it receives — the
// interleave (`order`) and every field of every event — so two runs can be
// compared event for event, not only in aggregate.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "trace/batch.h"
#include "trace/sink.h"

namespace wildenergy {

class StreamRecorder final : public trace::TraceSink {
 public:
  void on_batch(const trace::EventBatch& batch) override { stream_.append(batch); }

  [[nodiscard]] const trace::EventBatch& stream() const { return stream_; }

 private:
  trace::EventBatch stream_;
};

/// Every field of `actual` equals `expected`'s, event by event, with the same
/// interleave. Joules compare exactly.
inline void expect_same_stream(const trace::EventBatch& expected,
                               const trace::EventBatch& actual) {
  ASSERT_EQ(expected.order, actual.order);
  ASSERT_EQ(expected.packets.size(), actual.packets.size());
  for (std::size_t i = 0; i < expected.packets.size(); ++i) {
    SCOPED_TRACE("packet " + std::to_string(i));
    const trace::PacketRecord& e = expected.packets[i];
    const trace::PacketRecord& a = actual.packets[i];
    EXPECT_EQ(e.time.us, a.time.us);
    EXPECT_EQ(e.user, a.user);
    EXPECT_EQ(e.app, a.app);
    EXPECT_EQ(e.flow, a.flow);
    EXPECT_EQ(e.bytes, a.bytes);
    EXPECT_EQ(e.direction, a.direction);
    EXPECT_EQ(e.interface, a.interface);
    EXPECT_EQ(e.state, a.state);
    EXPECT_EQ(e.joules, a.joules);
  }
  ASSERT_EQ(expected.transitions.size(), actual.transitions.size());
  for (std::size_t i = 0; i < expected.transitions.size(); ++i) {
    SCOPED_TRACE("transition " + std::to_string(i));
    const trace::StateTransition& e = expected.transitions[i];
    const trace::StateTransition& a = actual.transitions[i];
    EXPECT_EQ(e.time.us, a.time.us);
    EXPECT_EQ(e.user, a.user);
    EXPECT_EQ(e.app, a.app);
    EXPECT_EQ(e.from, a.from);
    EXPECT_EQ(e.to, a.to);
  }
}

}  // namespace wildenergy
