#include "analysis/longitudinal.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "energy/account_file.h"
#include "trace/batch.h"

namespace wildenergy::analysis {

double WeeklySeries::max_weekly_bg_fluctuation() const {
  if (bg_joules.size() < 3) return 0.0;
  double peak = 0.0;
  for (double w : bg_joules) peak = std::max(peak, w);
  double worst = 0.0;
  // Skip the first and last week (partial weeks distort ratios).
  for (std::size_t w = 2; w + 1 < bg_joules.size(); ++w) {
    const double prev = bg_joules[w - 1];
    if (prev < 0.02 * peak) continue;  // ramp-in noise
    worst = std::max(worst, std::abs(bg_joules[w] - prev) / prev);
  }
  return worst;
}

LongitudinalAnalysis::LongitudinalAnalysis(std::vector<trace::AppId> tracked_apps)
    : tracked_(std::move(tracked_apps)) {
  for (std::size_t i = 0; i < tracked_.size(); ++i) {
    const trace::AppId app = tracked_[i];
    if (app >= tracked_index_.size()) tracked_index_.resize(app + 1, kUntracked);
    tracked_index_[app] = static_cast<std::uint32_t>(i);
  }
}

void LongitudinalAnalysis::on_study_begin(const trace::StudyMeta& meta) {
  meta_ = meta;
  num_days_ = static_cast<std::int64_t>(std::ceil(meta.span().days()));
  num_weeks_ = std::max<std::size_t>(static_cast<std::size_t>((num_days_ + 6) / 7), 1);
  users_.clear();
  // Fold mode and shard clones never allocate the dense per-user partial
  // array: the live user accumulates in live_ (DESIGN.md §15).
  if (!single_user()) users_.resize(meta.num_users);
  spilled_self_ = 0;
  live_valid_ = false;
  staged_.clear();
  folded_fg_weeks_.assign(num_weeks_, 0.0);
  folded_bg_weeks_.assign(num_weeks_, 0.0);
  folded_eras_.assign(tracked_.size(), EraAccum{});
  dirty_ = true;
}

LongitudinalAnalysis::UserPart& LongitudinalAnalysis::user_part(trace::UserId user) {
  if (single_user()) {
    if (!live_valid_ || live_user_ != user) {
      live_.fg_weeks.assign(num_weeks_, 0.0);
      live_.bg_weeks.assign(num_weeks_, 0.0);
      live_.eras.assign(tracked_.size(), EraAccum{});
      live_user_ = user;
      live_valid_ = true;
    }
    return live_;
  }
  if (user >= users_.size()) users_.resize(user + 1);
  auto& slot = users_[user];
  if (!slot) {
    slot = std::make_unique<UserPart>();
    slot->fg_weeks.assign(num_weeks_, 0.0);
    slot->bg_weeks.assign(num_weeks_, 0.0);
    slot->eras.resize(tracked_.size());
  }
  return *slot;
}

void LongitudinalAnalysis::on_batch(const trace::EventBatch& batch) {
  if (batch.packets.empty()) return;
  // Batches lie inside one user bracket: hoist the user partial, then run a
  // tight pass over the packet column (transitions are ignored).
  UserPart& part = user_part(batch.user);
  dirty_ = true;
  const std::int64_t begin_us = meta_.study_begin.us;
  const auto last_week = static_cast<std::int64_t>(num_weeks_) - 1;
  for (const auto& p : batch.packets) {
    const std::int64_t day = (p.time.us - begin_us) / 86'400'000'000LL;
    const auto week =
        static_cast<std::size_t>(std::clamp<std::int64_t>(day / 7, 0, last_week));
    (trace::is_foreground(p.state) ? part.fg_weeks : part.bg_weeks)[week] += p.joules;

    if (p.app >= tracked_index_.size()) continue;
    const std::uint32_t slot = tracked_index_[p.app];
    if (slot == kUntracked) continue;
    EraAccum& era = part.eras[slot];
    if (day < num_days_ / 3) {
      era.early_joules += p.joules;
      era.early_bytes += p.bytes;
    } else if (day >= num_days_ - num_days_ / 3) {
      era.late_joules += p.joules;
      era.late_bytes += p.bytes;
    }
  }
}

std::unique_ptr<trace::TraceSink> LongitudinalAnalysis::clone_shard() const {
  auto clone = std::make_unique<LongitudinalAnalysis>(tracked_);
  clone->shard_ = true;
  return clone;
}

void LongitudinalAnalysis::merge_from(trace::TraceSink& shard) {
  auto& other = dynamic_cast<LongitudinalAnalysis&>(shard);
  dirty_ = true;
  if (!other.live_valid_) return;  // the clone's user had no traffic
  other.live_valid_ = false;
  const trace::UserId user = other.live_user_;
  if (spill_ != nullptr) {
    // Fold mode: stage the clone's row until the engine's fold_user call
    // collapses and spills it.
    staged_.emplace_back(user, std::move(other.live_));
    return;
  }
  if (user >= users_.size()) users_.resize(user + 1);
  users_[user] = std::make_unique<UserPart>(std::move(other.live_));
}

void LongitudinalAnalysis::fold_user(trace::UserId user) {
  if (spill_ == nullptr) return;
  UserPart* part = nullptr;
  auto staged_it = staged_.end();
  if (live_valid_ && live_user_ == user) {
    part = &live_;
  } else {
    staged_it = std::find_if(staged_.begin(), staged_.end(),
                             [user](const auto& entry) { return entry.first == user; });
    if (staged_it != staged_.end()) part = &staged_it->second;
  }
  if (part == nullptr) return;  // the user had no traffic for this sink
  // Stream order is ascending user id, so these running sums reproduce the
  // ascending query-time fold bit for bit.
  for (std::size_t w = 0; w < num_weeks_; ++w) {
    folded_fg_weeks_[w] += part->fg_weeks[w];
    folded_bg_weeks_[w] += part->bg_weeks[w];
  }
  for (std::size_t i = 0; i < folded_eras_.size(); ++i) {
    folded_eras_[i].early_joules += part->eras[i].early_joules;
    folded_eras_[i].late_joules += part->eras[i].late_joules;
    folded_eras_[i].early_bytes += part->eras[i].early_bytes;
    folded_eras_[i].late_bytes += part->eras[i].late_bytes;
  }
  ckpt::ByteWriter row;
  row.put_f64_span(part->fg_weeks);
  row.put_f64_span(part->bg_weeks);
  row.put_varint(part->eras.size());
  for (const EraAccum& era : part->eras) {
    row.put_f64(era.early_joules);
    row.put_f64(era.late_joules);
    row.put_varint(era.early_bytes);
    row.put_varint(era.late_bytes);
  }
  spilled_self_ += spill_->add_section(kLongitSection, row.bytes());
  if (staged_it != staged_.end()) {
    staged_.erase(staged_it);
  } else {
    live_valid_ = false;
  }
  dirty_ = true;
}

void LongitudinalAnalysis::save_state(ckpt::ByteWriter& out) const {
  // Leading mode byte: 0 = dense resident partials (historical body
  // follows); 1 = fold mode, folded week/era sums first.
  out.put_u8(spill_ != nullptr ? 1 : 0);
  if (spill_ != nullptr) {
    out.put_f64_span(folded_fg_weeks_);
    out.put_f64_span(folded_bg_weeks_);
    out.put_varint(folded_eras_.size());
    for (const EraAccum& era : folded_eras_) {
      out.put_f64(era.early_joules);
      out.put_f64(era.late_joules);
      out.put_varint(era.early_bytes);
      out.put_varint(era.late_bytes);
    }
    out.put_varint(spilled_self_);
  }
  out.put_varint(users_.size());
  for (const auto& part : users_) {
    out.put_u8(part ? 1 : 0);
    if (!part) continue;
    out.put_f64_span(part->fg_weeks);
    out.put_f64_span(part->bg_weeks);
    out.put_varint(part->eras.size());
    for (const EraAccum& era : part->eras) {
      out.put_f64(era.early_joules);
      out.put_f64(era.late_joules);
      out.put_varint(era.early_bytes);
      out.put_varint(era.late_bytes);
    }
  }
}

util::Status LongitudinalAnalysis::restore_state(ckpt::ByteReader& in) {
  auto mode = in.get_u8("longitudinal.mode");
  if (!mode.ok()) return mode.status();
  if (*mode > 1) {
    return util::Status::data_loss("corrupt checkpoint: unknown longitudinal mode " +
                                   std::to_string(*mode));
  }
  spilled_self_ = 0;
  live_valid_ = false;
  staged_.clear();
  folded_fg_weeks_.assign(num_weeks_, 0.0);
  folded_bg_weeks_.assign(num_weeks_, 0.0);
  folded_eras_.assign(tracked_.size(), EraAccum{});
  if (*mode == 1) {
    auto status = in.get_f64_span(folded_fg_weeks_, "longitudinal.folded_fg_weeks");
    if (!status.ok()) return status;
    status = in.get_f64_span(folded_bg_weeks_, "longitudinal.folded_bg_weeks");
    if (!status.ok()) return status;
    auto num_eras = in.get_varint("longitudinal.folded_eras");
    if (!num_eras.ok()) return num_eras.status();
    if (*num_eras != folded_eras_.size()) {
      return util::Status::data_loss("corrupt checkpoint: longitudinal tracks " +
                                     std::to_string(folded_eras_.size()) +
                                     " apps, snapshot holds " + std::to_string(*num_eras));
    }
    for (EraAccum& era : folded_eras_) {
      auto early_j = in.get_f64("longitudinal.folded_era_early_joules");
      if (!early_j.ok()) return early_j.status();
      era.early_joules = *early_j;
      auto late_j = in.get_f64("longitudinal.folded_era_late_joules");
      if (!late_j.ok()) return late_j.status();
      era.late_joules = *late_j;
      auto early_b = in.get_varint("longitudinal.folded_era_early_bytes");
      if (!early_b.ok()) return early_b.status();
      era.early_bytes = *early_b;
      auto late_b = in.get_varint("longitudinal.folded_era_late_bytes");
      if (!late_b.ok()) return late_b.status();
      era.late_bytes = *late_b;
    }
    auto spilled = in.get_varint("longitudinal.spilled_bytes");
    if (!spilled.ok()) return spilled.status();
    spilled_self_ = *spilled;
  }
  auto num_users = in.get_varint("longitudinal.users");
  if (!num_users.ok()) return num_users.status();
  users_.clear();
  users_.resize(*num_users);
  for (auto& slot : users_) {
    auto present = in.get_u8("longitudinal.user_present");
    if (!present.ok()) return present.status();
    if (*present == 0) continue;
    auto part = std::make_unique<UserPart>();
    part->fg_weeks.assign(num_weeks_, 0.0);
    part->bg_weeks.assign(num_weeks_, 0.0);
    auto status = in.get_f64_span(part->fg_weeks, "longitudinal.fg_weeks");
    if (!status.ok()) return status;
    status = in.get_f64_span(part->bg_weeks, "longitudinal.bg_weeks");
    if (!status.ok()) return status;
    auto num_eras = in.get_varint("longitudinal.eras");
    if (!num_eras.ok()) return num_eras.status();
    part->eras.resize(*num_eras);
    for (EraAccum& era : part->eras) {
      auto early_j = in.get_f64("longitudinal.era_early_joules");
      if (!early_j.ok()) return early_j.status();
      era.early_joules = *early_j;
      auto late_j = in.get_f64("longitudinal.era_late_joules");
      if (!late_j.ok()) return late_j.status();
      era.late_joules = *late_j;
      auto early_b = in.get_varint("longitudinal.era_early_bytes");
      if (!early_b.ok()) return early_b.status();
      era.early_bytes = *early_b;
      auto late_b = in.get_varint("longitudinal.era_late_bytes");
      if (!late_b.ok()) return late_b.status();
      era.late_bytes = *late_b;
    }
    slot = std::move(part);
  }
  dirty_ = true;
  return util::Status::ok_status();
}

void LongitudinalAnalysis::fold() const {
  if (!dirty_) return;
  const auto add_part = [this](const UserPart& part) {
    for (std::size_t w = 0; w < num_weeks_; ++w) {
      overall_.fg_joules[w] += part.fg_weeks[w];
      overall_.bg_joules[w] += part.bg_weeks[w];
    }
    for (std::size_t i = 0; i < eras_.size(); ++i) {
      eras_[i].early_joules += part.eras[i].early_joules;
      eras_[i].late_joules += part.eras[i].late_joules;
      eras_[i].early_bytes += part.eras[i].early_bytes;
      eras_[i].late_bytes += part.eras[i].late_bytes;
    }
  };
  // Folded prefix first, then the resident remainder in the same ascending
  // user order — the identical floating-point fold either way.
  if (spill_ != nullptr) {
    overall_.fg_joules = folded_fg_weeks_;
    overall_.bg_joules = folded_bg_weeks_;
    eras_ = folded_eras_;
  } else {
    overall_.fg_joules.assign(num_weeks_, 0.0);
    overall_.bg_joules.assign(num_weeks_, 0.0);
    eras_.assign(tracked_.size(), EraAccum{});
  }
  for (const auto& part : users_) {
    if (part) add_part(*part);
  }
  for (const auto& [user, part] : staged_) add_part(part);
  if (live_valid_) add_part(live_);
  dirty_ = false;
}

const WeeklySeries& LongitudinalAnalysis::overall() const {
  fold();
  return overall_;
}

EraComparison LongitudinalAnalysis::era_comparison(trace::AppId app) const {
  fold();
  EraComparison out;
  out.app = app;
  if (num_days_ < 3) return out;
  if (app >= tracked_index_.size() || tracked_index_[app] == kUntracked) return out;
  const EraAccum& era = eras_[tracked_index_[app]];
  const double era_days = static_cast<double>(num_days_) / 3.0;
  out.early_joules_per_day = era.early_joules / era_days;
  out.late_joules_per_day = era.late_joules / era_days;
  if (era.early_bytes > 0) {
    out.early_uj_per_byte = era.early_joules / static_cast<double>(era.early_bytes) * 1e6;
  }
  if (era.late_bytes > 0) {
    out.late_uj_per_byte = era.late_joules / static_cast<double>(era.late_bytes) * 1e6;
  }
  return out;
}

obs::MemoryUse LongitudinalAnalysis::memory_use() const {
  const auto part_bytes = [](const UserPart& part) -> std::uint64_t {
    return sizeof(UserPart) +
           (part.fg_weeks.capacity() + part.bg_weeks.capacity()) * sizeof(double) +
           part.eras.capacity() * sizeof(EraAccum);
  };
  std::uint64_t total = users_.capacity() * sizeof(users_[0]) +
                        (folded_fg_weeks_.capacity() + folded_bg_weeks_.capacity()) *
                            sizeof(double) +
                        folded_eras_.capacity() * sizeof(EraAccum) + part_bytes(live_);
  for (const auto& part : users_) {
    if (part) total += part_bytes(*part);
  }
  for (const auto& [user, part] : staged_) total += sizeof(user) + part_bytes(part);
  return {.resident_bytes = total, .spilled_bytes = spilled_self_};
}

}  // namespace wildenergy::analysis
