#include "trace/store_backend.h"

namespace wildenergy::trace {

void replay_column_span(const EventBatch& events, TraceSink& sink, std::size_t batch_size) {
  if (events.size() <= batch_size) {
    if (!events.empty()) sink.on_batch(events);  // whole span at once, zero copies
    return;
  }
  // Slice the columns into batch_size spans, preserving the interleave.
  // Contiguous packet runs (the overwhelming bulk of a stream) copy as
  // whole ranges instead of one record per iteration.
  EventBatch scratch;
  scratch.user = events.user;
  scratch.reserve(batch_size);
  std::size_t pi = 0;
  std::size_t ti = 0;
  std::size_t oi = 0;
  const std::size_t n = events.order.size();
  while (oi < n) {
    if (events.order[oi] == EventKind::kPacket) {
      const std::size_t room = batch_size - scratch.size();
      std::size_t run = 1;
      while (run < room && oi + run < n && events.order[oi + run] == EventKind::kPacket) {
        ++run;
      }
      const auto first = events.packets.begin() + static_cast<std::ptrdiff_t>(pi);
      scratch.packets.insert(scratch.packets.end(), first,
                             first + static_cast<std::ptrdiff_t>(run));
      scratch.order.insert(scratch.order.end(), run, EventKind::kPacket);
      pi += run;
      oi += run;
    } else {
      scratch.add(events.transitions[ti++]);
      ++oi;
    }
    if (scratch.size() >= batch_size) {
      sink.on_batch(scratch);
      scratch.clear();
    }
  }
  if (!scratch.empty()) sink.on_batch(scratch);
}

util::Status StoreBackend::capture(TraceSource& source, std::size_t batch_size) {
  util::Status emitted = source.emit(*this, batch_size);
  if (!emitted.ok()) return emitted;
  return health();
}

}  // namespace wildenergy::trace
