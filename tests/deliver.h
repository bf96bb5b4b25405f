// Test helper: hand one hand-built event to a sink.
//
// EventBatch is the only way events reach a sink (trace/batch.h), so a test
// that scripts a stream event by event wraps each one in a one-event batch
// naming the event's user.
#pragma once

#include "trace/batch.h"
#include "trace/sink.h"

namespace wildenergy {

/// `Event` is trace::PacketRecord or trace::StateTransition.
template <typename Event>
void deliver(trace::TraceSink& sink, const Event& event) {
  trace::EventBatch batch;
  batch.user = event.user;
  batch.add(event);
  sink.on_batch(batch);
}

}  // namespace wildenergy
