// Test helpers: WESG segment images (trace/segment.h) built in memory —
// the bytes a spilling store would write, without the directory around them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "sim/generator.h"
#include "trace/batch.h"
#include "trace/segment.h"
#include "trace/sink.h"

namespace wildenergy {

/// A SegmentWriter draining into a string instead of a file.
class SegmentImage {
 public:
  explicit SegmentImage(const trace::StudyMeta& meta) { writer_.begin(meta, out_); }

  void add_chunk(const trace::EventBatch& events, std::uint32_t seq, bool final_chunk) {
    writer_.add_chunk(events, seq, final_chunk);
  }
  [[nodiscard]] std::size_t chunk_count() const { return writer_.chunk_count(); }
  /// The complete segment bytes; the image is spent afterwards.
  [[nodiscard]] std::string finish() {
    writer_.finish();
    return std::move(out_).str();
  }

 private:
  std::ostringstream out_;
  trace::SegmentWriter writer_;
};

/// A generated study sealed into one segment, one final chunk per user — the
/// bytes a spilling store with budget 0 would write.
inline std::string seal_study(const sim::StudyGenerator& generator) {
  struct ChunkPerUser final : trace::TraceSink {
    explicit ChunkPerUser(SegmentImage* writer) : writer(writer) {}
    void on_user_begin(trace::UserId user) override {
      events.clear();
      events.user = user;
    }
    void on_batch(const trace::EventBatch& batch) override { events.append(batch); }
    void on_user_end(trace::UserId /*user*/) override { writer->add_chunk(events, 0, true); }
    SegmentImage* writer;
    trace::EventBatch events;
  };
  SegmentImage writer{generator.meta()};
  ChunkPerUser sink{&writer};
  generator.run(sink);
  return writer.finish();
}

}  // namespace wildenergy
