#include "trace/validating_sink.h"

#include <limits>

#include "obs/metrics.h"

namespace wildenergy::trace {

namespace {

constexpr std::size_t kSnippetMax = 96;

std::string truncate_snippet(std::string s) {
  if (s.size() > kSnippetMax) {
    s.resize(kSnippetMax);
    s += "...";
  }
  return s;
}

bool valid_state(ProcessState s) {
  return static_cast<std::uint8_t>(s) < kNumProcessStates;
}
bool valid_direction(radio::Direction d) { return static_cast<std::uint8_t>(d) <= 1; }
bool valid_interface(Interface i) { return static_cast<std::uint8_t>(i) <= 1; }

std::string describe(const PacketRecord& p) {
  return "packet user=" + std::to_string(p.user) + " app=" + std::to_string(p.app) +
         " t=" + std::to_string(p.time.us) + "us bytes=" + std::to_string(p.bytes);
}

std::string describe(const StateTransition& t) {
  return "transition user=" + std::to_string(t.user) + " app=" + std::to_string(t.app) +
         " t=" + std::to_string(t.time.us) + "us";
}

}  // namespace

ValidatingSink::ValidatingSink(TraceSink* downstream, ReadOptions options)
    : downstream_(downstream),
      options_(options),
      dropped_metric_(&obs::MetricsRegistry::current().counter("validate.records_dropped")),
      repaired_metric_(&obs::MetricsRegistry::current().counter("validate.records_repaired")) {}

void ValidatingSink::note(std::uint64_t& counter, obs::Counter* metric, const std::string& reason,
                          const std::string& snippet) {
  ++counter;
  metric->inc();
  if (quarantine_.size() < options_.max_quarantine) {
    quarantine_.push_back({records_seen_, reason, truncate_snippet(snippet)});
  }
}

bool ValidatingSink::flag(const std::string& reason, const std::string& snippet) {
  if (options_.policy == ReadPolicy::kStrict) {
    if (status_.ok()) {
      status_ = util::Status::failed_precondition("record " + std::to_string(records_seen_) +
                                                  ": " + reason + " [" +
                                                  truncate_snippet(snippet) + "]");
    }
    ++records_dropped_;
    dropped_metric_->inc();
    return true;
  }
  note(records_dropped_, dropped_metric_, reason, snippet);
  return true;
}

void ValidatingSink::on_batch(const EventBatch& batch) {
  // Check every event in stream order (drop/repair/poison semantics,
  // counters and quarantine are the same at any batch size), collecting
  // survivors into one output batch.
  out_.clear();
  out_.user = batch.user;
  for_each_event(
      batch, [this](const PacketRecord& packet) { check(packet); },
      [this](const StateTransition& transition) { check(transition); });
  if (!out_.empty()) downstream_->on_batch(out_);
}

void ValidatingSink::on_study_begin(const StudyMeta& meta) {
  ++records_seen_;
  if (options_.policy == ReadPolicy::kStrict && !status_.ok()) {
    ++records_dropped_;
    return;  // poisoned
  }
  if (in_study_ || study_ended_) {
    flag(in_study_ ? "nested study begin" : "study begin after study end", "study_begin");
    return;
  }
  in_study_ = true;
  num_users_ = meta.num_users;
  has_window_ = meta.study_end.us > meta.study_begin.us;
  window_begin_us_ = meta.study_begin.us;
  window_end_us_ = meta.study_end.us;
  downstream_->on_study_begin(meta);
}

void ValidatingSink::on_user_begin(UserId user) {
  ++records_seen_;
  if (options_.policy == ReadPolicy::kStrict && !status_.ok()) {
    ++records_dropped_;
    return;
  }
  const std::string snippet = "user_begin " + std::to_string(user);
  if (!in_study_) {
    flag("user begin outside study bracket", snippet);
    return;
  }
  // Sinks index per-user state by id and merge each user once, so an id
  // past the header's count or a second bracket for one user cannot pass.
  if (user >= num_users_) {
    flag("user " + std::to_string(user) + " outside the study's " + std::to_string(num_users_) +
             " users",
         snippet);
    return;
  }
  if (seen_users_.contains(user)) {
    flag("user " + std::to_string(user) + " appears twice in the study", snippet);
    return;
  }
  if (open_user_.has_value()) {
    if (options_.policy == ReadPolicy::kBestEffort) {
      // Repair: the previous user's end record went missing — close it.
      note(records_repaired_, repaired_metric_,
           "user " + std::to_string(*open_user_) + " left open; auto-closed", snippet);
      downstream_->on_user_end(*open_user_);
    } else {
      flag("user begin while user " + std::to_string(*open_user_) + " is open", snippet);
      return;
    }
  }
  seen_users_.insert(user);
  open_user_ = user;
  last_time_us_ = std::numeric_limits<std::int64_t>::min();
  downstream_->on_user_begin(user);
}

void ValidatingSink::check(const PacketRecord& packet) {
  ++records_seen_;
  if (options_.policy == ReadPolicy::kStrict && !status_.ok()) {
    ++records_dropped_;
    return;
  }
  if (!in_study_ || !open_user_.has_value() || *open_user_ != packet.user) {
    flag(open_user_.has_value()
             ? "packet for user " + std::to_string(packet.user) + " inside user " +
                   std::to_string(*open_user_) + "'s bracket"
             : "packet outside a user bracket",
         describe(packet));
    return;
  }
  if (!valid_direction(packet.direction) || !valid_interface(packet.interface) ||
      !valid_state(packet.state)) {
    flag("packet enum out of range", describe(packet));
    return;
  }
  if (has_window_ && (packet.time.us < window_begin_us_ || packet.time.us > window_end_us_)) {
    flag("packet timestamp outside the study window", describe(packet));
    return;
  }
  if (packet.time.us < last_time_us_) {
    if (options_.policy == ReadPolicy::kBestEffort) {
      note(records_repaired_, repaired_metric_,
           "backwards packet timestamp clamped", describe(packet));
      PacketRecord repaired = packet;
      repaired.time.us = last_time_us_;
      out_.add(repaired);
      return;
    }
    flag("packet timestamp goes backwards", describe(packet));
    return;
  }
  last_time_us_ = packet.time.us;
  out_.add(packet);
}

void ValidatingSink::check(const StateTransition& transition) {
  ++records_seen_;
  if (options_.policy == ReadPolicy::kStrict && !status_.ok()) {
    ++records_dropped_;
    return;
  }
  if (!in_study_ || !open_user_.has_value() || *open_user_ != transition.user) {
    flag(open_user_.has_value()
             ? "transition for user " + std::to_string(transition.user) + " inside user " +
                   std::to_string(*open_user_) + "'s bracket"
             : "transition outside a user bracket",
         describe(transition));
    return;
  }
  if (!valid_state(transition.from) || !valid_state(transition.to)) {
    flag("transition state out of range", describe(transition));
    return;
  }
  if (has_window_ &&
      (transition.time.us < window_begin_us_ || transition.time.us > window_end_us_)) {
    flag("transition timestamp outside the study window", describe(transition));
    return;
  }
  if (transition.time.us < last_time_us_) {
    if (options_.policy == ReadPolicy::kBestEffort) {
      note(records_repaired_, repaired_metric_,
           "backwards transition timestamp clamped", describe(transition));
      StateTransition repaired = transition;
      repaired.time.us = last_time_us_;
      out_.add(repaired);
      return;
    }
    flag("transition timestamp goes backwards", describe(transition));
    return;
  }
  last_time_us_ = transition.time.us;
  out_.add(transition);
}

void ValidatingSink::on_user_end(UserId user) {
  ++records_seen_;
  if (options_.policy == ReadPolicy::kStrict && !status_.ok()) {
    ++records_dropped_;
    return;
  }
  const std::string snippet = "user_end " + std::to_string(user);
  if (!in_study_ || !open_user_.has_value() || *open_user_ != user) {
    flag(open_user_.has_value()
             ? "user end for " + std::to_string(user) + " while user " +
                   std::to_string(*open_user_) + " is open"
             : "user end without a matching user begin",
         snippet);
    return;
  }
  open_user_.reset();
  downstream_->on_user_end(user);
}

void ValidatingSink::on_study_end() {
  ++records_seen_;
  if (options_.policy == ReadPolicy::kStrict && !status_.ok()) {
    ++records_dropped_;
    return;
  }
  if (!in_study_) {
    flag(study_ended_ ? "second study end" : "study end without study begin", "study_end");
    return;
  }
  if (open_user_.has_value()) {
    if (options_.policy == ReadPolicy::kBestEffort) {
      note(records_repaired_, repaired_metric_,
           "user " + std::to_string(*open_user_) + " left open at study end; auto-closed",
           "study_end");
      downstream_->on_user_end(*open_user_);
      open_user_.reset();
    } else {
      flag("study end while user " + std::to_string(*open_user_) + " is open", "study_end");
      return;
    }
  }
  in_study_ = false;
  study_ended_ = true;
  downstream_->on_study_end();
}

ReadSummary read_validated(TraceSink& sink, const ReadOptions& options,
                           const std::function<void(EventBatcher&, ReadSummary&)>& decode) {
  ValidatingSink validator{&sink, options};
  EventBatcher batcher{&validator, options.batch_size};
  ReadSummary summary;
  decode(batcher, summary);
  batcher.flush();
  if (summary.truncated) validator.end_early();
  summary.records_dropped += validator.records_dropped();
  summary.records_repaired += validator.records_repaired();
  for (const QuarantinedRecord& q : validator.quarantine()) {
    if (summary.quarantine.size() >= options.max_quarantine) break;
    summary.quarantine.push_back(q);
  }
  if (!validator.status().ok()) summary.status = validator.status();
  return summary;
}

}  // namespace wildenergy::trace
