#include "trace/trace_store.h"

#include <algorithm>
#include <string>

namespace wildenergy::trace {

void TraceStore::on_study_begin(const StudyMeta& meta) {
  clear();
  meta_ = meta;
}

void TraceStore::on_user_begin(UserId user) {
  users_.emplace_back();
  users_.back().user = user;
  index_[user] = users_.size() - 1;
  current_ = &users_.back();
}

void TraceStore::on_user_end(UserId /*user*/) { current_ = nullptr; }

void TraceStore::on_study_end() { current_ = nullptr; }

void TraceStore::on_batch(const EventBatch& batch) {
  if (current_ != nullptr) current_->append(batch);
}

void TraceStore::replay_user(const EventBatch& events, TraceSink& sink,
                             std::size_t batch_size) const {
  sink.on_user_begin(events.user);
  replay_column_span(events, sink, batch_size);  // shared backend slicer
  sink.on_user_end(events.user);
}

util::Status TraceStore::emit(TraceSink& sink, std::size_t batch_size) {
  sink.on_study_begin(meta_);
  for (const EventBatch& events : users_) replay_user(events, sink, batch_size);
  sink.on_study_end();
  return util::Status::ok_status();
}

util::Status TraceStore::emit_user(UserId user, TraceSink& sink, std::size_t batch_size) {
  const auto it = index_.find(user);
  if (it == index_.end()) {
    return util::Status::not_found("trace store holds no user " + std::to_string(user));
  }
  sink.on_study_begin(meta_);
  replay_user(users_[it->second], sink, batch_size);
  sink.on_study_end();
  return util::Status::ok_status();
}

std::vector<UserId> TraceStore::users() const {
  std::vector<UserId> ids;
  ids.reserve(users_.size());
  for (const EventBatch& events : users_) ids.push_back(events.user);
  return ids;
}

std::uint64_t TraceStore::event_count() const {
  std::uint64_t n = 0;
  for (const EventBatch& events : users_) n += events.size();
  return n;
}

obs::MemoryUse TraceStore::memory_use() const {
  std::uint64_t bytes = sizeof(*this);
  // The outer vector's own allocation is capacity-sized: after a doubling
  // growth the slack past size() is still resident memory.
  bytes += users_.capacity() * sizeof(EventBatch);
  for (const EventBatch& events : users_) {
    bytes += events.packets.capacity() * sizeof(PacketRecord);
    bytes += events.transitions.capacity() * sizeof(StateTransition);
    bytes += events.order.capacity() * sizeof(EventKind);
  }
  // Each map node carries the payload plus tree pointers and color.
  bytes += index_.size() *
           (sizeof(UserId) + sizeof(std::size_t) + 3 * sizeof(void*) + sizeof(int));
  return {.resident_bytes = bytes, .spilled_bytes = 0};
}

const EventBatch* TraceStore::find_user(UserId user) const {
  const auto it = index_.find(user);
  return it == index_.end() ? nullptr : &users_[it->second];
}

void TraceStore::clear() {
  meta_ = {};
  users_.clear();
  index_.clear();
  current_ = nullptr;
}

}  // namespace wildenergy::trace
