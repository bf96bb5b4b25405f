#include "trace/spilling_store.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <utility>

#include "ckpt/codec.h"
#include "obs/stopwatch.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace wildenergy::trace {

namespace fs = std::filesystem;

namespace {

constexpr char kManifestMagic[4] = {'W', 'E', 'S', 'M'};
constexpr std::uint8_t kManifestVersion = 1;
constexpr const char* kManifestName = "manifest.wesm";

bool same_meta(const StudyMeta& a, const StudyMeta& b) {
  return a.num_users == b.num_users && a.num_apps == b.num_apps &&
         a.study_begin.us == b.study_begin.us && a.study_end.us == b.study_end.us;
}

std::string segment_name(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "seg_%06llu.wesg", static_cast<unsigned long long>(seq));
  return buf;
}

/// seg_000042.wesg -> 42; 0 when the name doesn't follow the pattern.
std::uint64_t parse_segment_seq(const std::string& name) {
  const std::size_t under = name.find('_');
  const std::size_t dot = name.rfind('.');
  if (under == std::string::npos || dot == std::string::npos || dot <= under + 1) return 0;
  std::uint64_t seq = 0;
  for (std::size_t i = under + 1; i < dot; ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    seq = seq * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return seq;
}

/// Hand the allocator's free pages back to the OS. glibc keeps freed blocks
/// below the top of its heap resident, and a sealed capture frees every
/// column it grows, so without this the replay stacks its memory on the
/// capture's free heap (a budget-0 CSV sweep at 4 threads peaked ~2 MB
/// higher). Each page handed back costs a fault when the heap reuses it, so
/// this runs once, at the end of a sealed capture, never per seal.
void return_free_heap_pages() {
#if defined(__GLIBC__)
  ::malloc_trim(0);
#endif
}

/// The bytes `events`' columns hold: what the budget counts.
std::uint64_t column_bytes(const EventBatch& events) {
  return events.packets.size() * sizeof(PacketRecord) +
         events.transitions.size() * sizeof(StateTransition) +
         events.order.size() * sizeof(EventKind);
}

/// The bytes `events`' columns hold allocated, slack included.
std::uint64_t allocated_bytes(const EventBatch& events) {
  return events.packets.capacity() * sizeof(PacketRecord) +
         events.transitions.capacity() * sizeof(StateTransition) +
         events.order.capacity() * sizeof(EventKind);
}

/// Write `dir`/`name` via a tmp file and a rename, so a crash leaves the old
/// file or the new one, never a torn one; `fill` writes the bytes.
template <typename Fill>
util::Status write_file_atomic(const std::string& dir, const std::string& name, Fill&& fill) {
  std::error_code ec;
  fs::create_directories(dir, ec);  // best effort; the open below diagnoses
  const fs::path tmp = fs::path(dir) / (name + ".tmp");
  const fs::path final_path = fs::path(dir) / name;
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) return util::Status::internal("cannot open '" + tmp.string() + "' for writing");
    fill(out);
    out.flush();
    if (!out) return util::Status::internal("cannot write '" + tmp.string() + "'");
  }
  fs::rename(tmp, final_path, ec);
  if (ec) {
    return util::Status::internal("cannot rename '" + tmp.string() + "' into place: " +
                                  ec.message());
  }
  return util::Status::ok_status();
}

}  // namespace

void replay_column_span(const EventBatch& events, TraceSink& sink, std::size_t batch_size) {
  assert(batch_size >= 1);
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

/// Forwards per-user pulls into the store while swallowing the per-pull
/// study brackets that TraceSource::emit_user wraps each user in.
class SpillingTraceStore::BracketStrip final : public TraceSink {
 public:
  explicit BracketStrip(SpillingTraceStore* store) : store_(store) {}

  void on_study_begin(const StudyMeta& meta) override { store_->note_source_meta(meta); }
  void on_user_begin(UserId user) override { store_->on_user_begin(user); }
  void on_batch(const EventBatch& batch) override { store_->on_batch(batch); }
  void on_user_end(UserId user) override { store_->on_user_end(user); }
  void on_study_end() override {}

 private:
  SpillingTraceStore* store_;
};

// --- capture ---------------------------------------------------------------

void SpillingTraceStore::note_source_meta(const StudyMeta& meta) {
  if (!same_meta(meta, meta_)) {
    health_ = util::Status::failed_precondition(
        "spilling store at '" + options_.dir +
        "' was sealed for a different study (users " + std::to_string(meta_.num_users) +
        " vs " + std::to_string(meta.num_users) + ", apps " +
        std::to_string(meta_.num_apps) + " vs " + std::to_string(meta.num_apps) + ")");
  }
}

void SpillingTraceStore::on_study_begin(const StudyMeta& meta) {
  if (resuming_capture_) {
    // A resuming capture extends the recovered contents; the incoming
    // bracket must describe the same study the segments were sealed for.
    note_source_meta(meta);
    return;
  }
  clear();
  meta_ = meta;
  started_ = true;
}

void SpillingTraceStore::on_user_begin(UserId user) {
  auto [it, inserted] = users_.try_emplace(user);
  if (inserted) order_.push_back(user);
  UserState& state = it->second;
  // A resuming capture of a forward-only source replays every user; the
  // ones the sealed segments already cover are dropped here (in_user_ stays
  // false, so their events and end are ignored).
  if (resuming_capture_ && state.complete) return;
  if (state.complete) {
    // Recapture of an already-complete user supersedes the old stream; the
    // stale chunks stay in their segments but are no longer referenced —
    // including any in flight, so commit that seal first.
    finish_seal();
    if (state.resident != kNoResident) {
      resident_bytes_ -= column_bytes(resident_[state.resident].events);
      resident_[state.resident].dead = true;
      state.resident = kNoResident;
    }
    state.spilled.clear();
    state.complete = false;
    state.next_seq = 0;
  }
  state.broken = false;
  current_.clear();
  current_.user = user;
  in_user_ = true;
}

void SpillingTraceStore::on_batch(const EventBatch& batch) {
  if (!in_user_) return;
  // Cut before an append would take the queued chunks and the capturing
  // columns past half the budget, so the capture holds at most half of it
  // and the one seal in flight the other half. The cut reads sizes only, so
  // split points are the same at every thread count.
  const std::uint64_t live = resident_bytes_ + column_bytes(current_);
  if (!options_.dir.empty() && options_.budget_bytes > 0 && live > 0 &&
      live + column_bytes(batch) > options_.budget_bytes / 2) {
    cut_chunk();
  }
  current_.append(batch);
  max_resident_bytes_ = std::max(max_resident_bytes_, resident_bytes_ + column_bytes(current_));
}

void SpillingTraceStore::on_user_end(UserId /*user*/) {
  if (!in_user_) return;
  in_user_ = false;
  UserState& state = users_[current_.user];
  resident_.push_back({std::move(current_), state.next_seq++, /*final_chunk=*/true});
  state.resident = resident_.size() - 1;
  state.complete = true;
  resident_bytes_ += column_bytes(resident_.back().events);
  // Budget 0 means fully out-of-core: every completed user spills at once.
  if (!options_.dir.empty() && options_.budget_bytes == 0) {
    spill_resident();  // failures latch health_
  }
  current_ = std::exchange(spare_, EventBatch{});
}

void SpillingTraceStore::on_study_end() { in_user_ = false; }

void SpillingTraceStore::cut_chunk() {
  const UserId user = current_.user;
  if (!current_.empty()) {
    resident_.push_back({std::move(current_), users_[user].next_seq++, /*final_chunk=*/false});
    resident_bytes_ += column_bytes(resident_.back().events);
  }
  spill_resident();
  current_ = std::exchange(spare_, EventBatch{});
  current_.user = user;
}

void SpillingTraceStore::spill_resident() {
  finish_seal();  // at most one seal in flight
  if (!health_.ok()) return;
  SealJob job;
  for (ResidentChunk& chunk : resident_) {
    if (chunk.dead) continue;
    users_[chunk.events.user].resident = kNoResident;
    job.users.push_back(chunk.events.user);
    job.chunks.push_back(std::move(chunk));
  }
  resident_.clear();
  resident_bytes_ = 0;
  if (job.chunks.empty()) return;
  job.meta = meta_;
  job.name = segment_name(next_segment_seq_);
  job.segment = std::make_unique<MappedSegment>();
  seals_->next() = std::move(job);
  seals_->push();
  if (seals_->workers() == 0) finish_seal();  // sealed inline: commit it now
}

void SpillingTraceStore::open_seals(unsigned threads) {
  seals_.emplace(threads, 1, [this](SealJob& job, unsigned) { run_seal(job); });
}

void SpillingTraceStore::run_seal(SealJob& job) {
  const obs::Stopwatch busy;
  job.status = write_file_atomic(options_.dir, job.name, [&](std::ostream& out) {
    writer_.begin(job.meta, out);
    for (ResidentChunk& chunk : job.chunks) {
      writer_.add_chunk(chunk.events, chunk.seq, chunk.final_chunk);
      // Encoded: keep the roomiest columns for the capture to refill.
      if (allocated_bytes(chunk.events) > allocated_bytes(job.recycled)) {
        std::swap(chunk.events, job.recycled);
      }
      chunk.events = EventBatch{};
    }
    writer_.finish();
  });
  job.chunks.clear();
  if (job.status.ok()) {
    job.status = job.segment->open((fs::path(options_.dir) / job.name).string());
  }
  job.busy_ms = busy.elapsed_ms();
}

void SpillingTraceStore::finish_seal() {
  if (seals_->empty()) return;
  const obs::Stopwatch waited;
  SealJob job;
  try {
    job = std::move(seals_->front());
  } catch (const std::exception& e) {
    job.status = util::Status::internal(std::string{"segment seal failed: "} + e.what());
  }
  seals_->pop();
  if (seals_->workers() > 0) wait_ms_ += waited.elapsed_ms();
  commit_seal(job);
}

void SpillingTraceStore::commit_seal(SealJob& job) {
  seal_ms_ += job.busy_ms;
  spare_ = std::move(job.recycled);
  spare_.clear();
  if (!job.status.ok()) {
    health_ = job.status;
    return;
  }
  ++next_segment_seq_;
  const auto segment_index = static_cast<std::uint32_t>(segments_.size());
  for (std::size_t k = 0; k < job.users.size(); ++k) {
    users_[job.users[k]].spilled.push_back({segment_index, static_cast<std::uint32_t>(k)});
  }
  spilled_bytes_ += job.segment->file_bytes();
  segments_.push_back(std::move(job.segment));
  if (util::Status manifest = write_manifest(); !manifest.ok()) health_ = manifest;
}

util::Status SpillingTraceStore::write_manifest() {
  ckpt::ByteWriter writer;
  writer.put_bytes({kManifestMagic, sizeof kManifestMagic});
  writer.put_u8(kManifestVersion);
  writer.put_varint(meta_.num_users);
  writer.put_varint(meta_.num_apps);
  writer.put_varint(ckpt::zigzag(meta_.study_begin.us));
  writer.put_varint(ckpt::zigzag(meta_.study_end.us));
  writer.put_varint(segments_.size());
  for (const auto& segment : segments_) {
    writer.put_string(fs::path(segment->path()).filename().string());
  }
  writer.put_checksum();
  return write_file_atomic(options_.dir, kManifestName, [&](std::ostream& out) {
    out.write(writer.bytes().data(), static_cast<std::streamsize>(writer.size()));
  });
}

util::Status SpillingTraceStore::seal() {
  finish_seal();
  if (!health_.ok()) return health_;
  if (in_user_) {
    return util::Status::failed_precondition("cannot seal a spilling store mid-user");
  }
  if (options_.dir.empty() || resident_.empty()) return util::Status::ok_status();
  spill_resident();
  finish_seal();
  return health_;
}

// --- recovery --------------------------------------------------------------

util::Status SpillingTraceStore::open_existing() { return recover(); }

util::Status SpillingTraceStore::recover() {
  if (recovered_) return util::Status::ok_status();
  recovered_ = true;
  if (options_.dir.empty()) return util::Status::ok_status();  // nothing was ever sealed
  const fs::path manifest_path = fs::path(options_.dir) / kManifestName;
  std::error_code ec;
  if (!fs::exists(manifest_path, ec)) return util::Status::ok_status();  // nothing sealed yet

  std::ifstream is{manifest_path, std::ios::binary};
  if (!is) {
    return util::Status::data_loss("cannot open segment manifest '" + manifest_path.string() +
                                   "'");
  }
  std::string bytes{std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
  const auto fail = [&](const std::string& why) {
    clear();
    recovered_ = true;
    return util::Status::data_loss("segment manifest '" + manifest_path.string() + "': " + why);
  };
  if (bytes.size() < sizeof kManifestMagic + 1 + 8) return fail("file too short");
  const std::string_view body{bytes.data(), bytes.size() - 8};
  if (ckpt::fnv1a(body) != ckpt::read_u64le(std::string_view{bytes}.substr(body.size()))) {
    return fail("checksum mismatch");
  }
  if (std::memcmp(bytes.data(), kManifestMagic, sizeof kManifestMagic) != 0) {
    return fail("bad magic");
  }
  if (static_cast<std::uint8_t>(bytes[4]) != kManifestVersion) return fail("unsupported version");

  ckpt::ByteReader reader{body.substr(sizeof kManifestMagic + 1)};
  const auto users = reader.get_varint("manifest users");
  const auto apps = reader.get_varint("manifest apps");
  const auto begin = reader.get_varint("manifest begin");
  const auto end = reader.get_varint("manifest end");
  const auto count = reader.get_varint("manifest segment count");
  for (const util::Status& st :
       {users.status(), apps.status(), begin.status(), end.status(), count.status()}) {
    if (!st.ok()) return fail(st.message());
  }
  StudyMeta meta;
  meta.num_users = static_cast<std::uint32_t>(*users);
  meta.num_apps = static_cast<std::uint32_t>(*apps);
  meta.study_begin.us = ckpt::unzigzag(*begin);
  meta.study_end.us = ckpt::unzigzag(*end);

  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto name = reader.get_string("manifest segment name");
    if (!name.ok()) return fail(name.status().message());
    auto segment = std::make_unique<MappedSegment>();
    util::Status opened = segment->open((fs::path(options_.dir) / *name).string());
    if (!opened.ok()) {
      clear();
      recovered_ = true;
      return opened;
    }
    if (!same_meta(segment->meta(), meta)) {
      return fail("segment '" + *name + "' was sealed for a different study");
    }
    const std::uint64_t seq = parse_segment_seq(*name);
    if (seq >= next_segment_seq_) next_segment_seq_ = seq + 1;
    spilled_bytes_ += segment->file_bytes();
    segments_.push_back(std::move(segment));
  }
  if (!reader.at_end()) return fail("trailing bytes after segment list");

  meta_ = meta;
  started_ = true;
  // Rebuild per-user chunk chains. A seq-0 chunk in a LATER segment
  // supersedes earlier chunks (the user was recaptured after a restart);
  // a gap in the seq chain means the tail was lost — drop the user so the
  // next capture regenerates them rather than replaying a torn stream.
  for (std::size_t si = 0; si < segments_.size(); ++si) {
    const auto& chunks = segments_[si]->chunks();
    for (std::size_t ci = 0; ci < chunks.size(); ++ci) {
      const SegmentChunkInfo& chunk = chunks[ci];
      auto [it, inserted] = users_.try_emplace(chunk.user);
      if (inserted) order_.push_back(chunk.user);
      UserState& state = it->second;
      if (chunk.seq == 0 && !state.spilled.empty()) {
        state.spilled.clear();
        state.complete = false;
        state.broken = false;
      }
      if (state.broken || state.complete || chunk.seq != state.spilled.size()) {
        state.broken = true;
        state.spilled.clear();
        state.complete = false;
        continue;
      }
      state.spilled.push_back({static_cast<std::uint32_t>(si), static_cast<std::uint32_t>(ci)});
      state.complete = chunk.final_chunk;
    }
  }
  for (auto& [user, state] : users_) {
    if (!state.complete) {
      state.spilled.clear();
      state.next_seq = 0;
      state.broken = false;
    } else {
      state.next_seq = static_cast<std::uint32_t>(state.spilled.size());
    }
  }
  return util::Status::ok_status();
}

std::vector<UserId> SpillingTraceStore::completed_users() const {
  std::vector<UserId> done;
  for (const auto& [user, state] : users_) {
    if (state.complete) done.push_back(user);  // map order: already sorted
  }
  return done;
}

SpillingTraceStore::~SpillingTraceStore() { finish_seal(); }

util::Status SpillingTraceStore::capture(TraceSource& source, std::size_t batch_size,
                                         unsigned threads) {
  seal_ms_ = 0.0;
  wait_ms_ = 0.0;
  open_seals(options_.dir.empty() ? 1 : threads);  // a resident store never seals
  // On every way out — an early return or a throwing source — no seal is
  // left in flight and later spills run inline again.
  struct Settle {
    SpillingTraceStore& store;
    ~Settle() {
      store.finish_seal();
      store.open_seals(1);
      store.spare_ = EventBatch{};
      if (!store.in_user_) store.current_ = EventBatch{};
      if (!store.options_.dir.empty()) return_free_heap_pages();
    }
  } settle{*this};
  return capture_pass(source, batch_size, threads);
}

util::Status SpillingTraceStore::capture_pass(TraceSource& source, std::size_t batch_size,
                                              unsigned threads) {
  if (options_.resume) {
    util::Status recovered = recover();
    if (!recovered.ok()) return recovered;
    // A sealed dir from a different study must never be silently extended.
    // The pull loop below only surfaces the source's meta for users it
    // actually regenerates — when every user is already complete it would
    // never compare at all, so check up front against the manifest's meta.
    // A forward-only reader knows its meta only once its stream is read;
    // its study bracket is checked in on_study_begin instead.
    if (!segments_.empty() && source.supports_user_access()) {
      note_source_meta(source.meta());
    }
  }
  if (!health_.ok()) return health_;
  const std::vector<UserId> done = completed_users();
  resumed_users_ = done.size();
  // A resuming capture extends the recovered contents and never recaptures
  // a sealed user (on_study_begin / on_user_begin).
  resuming_capture_ = !done.empty();
  util::Status emitted = util::Status::ok_status();
  if (resuming_capture_ && source.supports_user_access()) {
    // The whole point of resume: sealed users are never regenerated. Pull
    // only the missing users; each emit_user wraps its pull in a study
    // bracket that BracketStrip strips (after verifying it matches).
    BracketStrip strip{this};
    for (const UserId user : source.users()) {
      if (std::binary_search(done.begin(), done.end(), user)) continue;
      emitted = source.emit_user(user, strip, batch_size);
      if (!emitted.ok()) break;
    }
  } else {
    // Forward-only sources replay in full; sealed users drop at the store.
    emitted = source.emit(*this, batch_size, threads);
  }
  resuming_capture_ = false;
  if (!emitted.ok()) return emitted;
  return seal();
}

// --- replay ----------------------------------------------------------------

util::Status SpillingTraceStore::replay_user_body(const UserState& state, UserId user,
                                                  TraceSink& sink, std::size_t batch_size) {
  sink.on_user_begin(user);
  // One time chain across the user's sealed chunks: order is checked over
  // the whole stream, not per chunk.
  std::int64_t last_time_us = std::numeric_limits<std::int64_t>::min();
  for (const ChunkRef ref : state.spilled) {
    const MappedSegment& segment = *segments_[ref.segment];
    util::Status replayed =
        segment.replay_chunk(segment.chunks()[ref.chunk], sink, batch_size, last_time_us);
    if (!replayed.ok()) return replayed;
  }
  if (state.resident != kNoResident) {
    replay_column_span(resident_[state.resident].events, sink, batch_size);
  }
  sink.on_user_end(user);
  return util::Status::ok_status();
}

util::Status SpillingTraceStore::emit(TraceSink& sink, std::size_t batch_size) {
  batch_size = std::max<std::size_t>(batch_size, 1);  // 0 delivers event by event, as 1
  if (!health_.ok()) return health_;
  if (in_user_) {
    return util::Status::failed_precondition("spilling store is mid-capture; cannot replay");
  }
  sink.on_study_begin(meta_);
  for (const UserId user : order_) {
    util::Status replayed = replay_user_body(users_.at(user), user, sink, batch_size);
    if (!replayed.ok()) return replayed;
  }
  sink.on_study_end();
  return util::Status::ok_status();
}

util::Status SpillingTraceStore::emit_user(UserId user, TraceSink& sink,
                                           std::size_t batch_size) {
  batch_size = std::max<std::size_t>(batch_size, 1);  // 0 delivers event by event, as 1
  if (!health_.ok()) return health_;
  if (in_user_) {
    return util::Status::failed_precondition("spilling store is mid-capture; cannot replay");
  }
  const auto it = users_.find(user);
  if (it == users_.end()) {
    return util::Status::not_found("spilling store holds no user " + std::to_string(user));
  }
  sink.on_study_begin(meta_);
  util::Status replayed = replay_user_body(it->second, user, sink, batch_size);
  if (!replayed.ok()) return replayed;
  sink.on_study_end();
  return util::Status::ok_status();
}

// --- introspection ---------------------------------------------------------

std::uint64_t SpillingTraceStore::event_count() const {
  std::uint64_t count = in_user_ ? current_.size() : 0;
  for (const auto& [user, state] : users_) {
    for (const ChunkRef ref : state.spilled) {
      count += segments_[ref.segment]->chunks()[ref.chunk].events();
    }
    if (state.resident != kNoResident) count += resident_[state.resident].events.size();
  }
  return count;
}

obs::MemoryUse SpillingTraceStore::memory_use() const {
  std::uint64_t bytes = sizeof(*this);
  bytes += resident_.capacity() * sizeof(ResidentChunk);
  for (const ResidentChunk& chunk : resident_) bytes += allocated_bytes(chunk.events);
  bytes += allocated_bytes(current_) + allocated_bytes(spare_);
  bytes += order_.capacity() * sizeof(UserId);
  for (const auto& [user, state] : users_) {
    bytes += sizeof(UserId) + sizeof(UserState) + 3 * sizeof(void*) + sizeof(int);
    bytes += state.spilled.capacity() * sizeof(ChunkRef);
  }
  for (const auto& segment : segments_) bytes += segment->index_bytes();
  bytes += segments_.capacity() * sizeof(std::unique_ptr<MappedSegment>);
  return {.resident_bytes = bytes, .spilled_bytes = spilled_bytes_};
}

void SpillingTraceStore::clear() {
  finish_seal();
  meta_ = {};
  users_.clear();
  order_.clear();
  segments_.clear();
  resident_.clear();
  current_ = EventBatch{};
  spare_ = EventBatch{};
  in_user_ = false;
  started_ = false;
  resuming_capture_ = false;
  resident_bytes_ = 0;
  max_resident_bytes_ = 0;
  spilled_bytes_ = 0;
  next_segment_seq_ = 1;
  resumed_users_ = 0;
  health_ = util::Status::ok_status();
}

}  // namespace wildenergy::trace
