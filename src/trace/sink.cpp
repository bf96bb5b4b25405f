#include "trace/sink.h"

#include "trace/batch.h"

namespace wildenergy::trace {

// Leaf sinks that take the interleave one record at a time implement
// on_packet / on_transition and inherit this replay.
void TraceSink::on_batch(const EventBatch& batch) { replay(batch, *this); }

void TraceMulticast::on_batch(const EventBatch& batch) {
  for (auto* s : sinks_) s->on_batch(batch);
}

void TraceCollector::on_batch(const EventBatch& batch) {
  // Events of each kind are in array order, so bulk appends collect exactly
  // the interleaved stream's packets and transitions.
  packets_.insert(packets_.end(), batch.packets.begin(), batch.packets.end());
  transitions_.insert(transitions_.end(), batch.transitions.begin(), batch.transitions.end());
}

std::unique_ptr<TraceSink> TraceCollector::clone_shard() const {
  return std::make_unique<TraceCollector>();
}

void TraceCollector::merge_from(TraceSink& shard) {
  auto& other = dynamic_cast<TraceCollector&>(shard);
  packets_.insert(packets_.end(), other.packets_.begin(), other.packets_.end());
  transitions_.insert(transitions_.end(), other.transitions_.begin(),
                      other.transitions_.end());
  other.packets_.clear();
  other.transitions_.clear();
}

}  // namespace wildenergy::trace
