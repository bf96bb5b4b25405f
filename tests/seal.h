// Test helper: a generated study sealed into one in-memory WESG segment
// (trace/segment.h), one final chunk per user — the bytes a spilling store
// with budget 0 would write, without the directory around them.
#pragma once

#include <string>

#include "sim/generator.h"
#include "trace/batch.h"
#include "trace/segment.h"
#include "trace/sink.h"

namespace wildenergy {

inline std::string seal_study(const sim::StudyGenerator& generator) {
  struct ChunkPerUser final : trace::TraceSink {
    explicit ChunkPerUser(trace::SegmentWriter* writer) : writer(writer) {}
    void on_user_begin(trace::UserId user) override {
      events.clear();
      events.user = user;
    }
    void on_batch(const trace::EventBatch& batch) override { events.append(batch); }
    void on_user_end(trace::UserId /*user*/) override { writer->add_chunk(events, 0, true); }
    trace::SegmentWriter* writer;
    trace::EventBatch events;
  };
  trace::SegmentWriter writer{generator.meta()};
  ChunkPerUser sink{&writer};
  generator.run(sink);
  return writer.finish();
}

}  // namespace wildenergy
