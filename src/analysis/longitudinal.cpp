#include "analysis/longitudinal.h"

#include <algorithm>
#include <cmath>
#include <limits>
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
  pending_.clear();
  spilled_self_ = 0;
  folded_fg_weeks_.assign(num_weeks_, 0.0);
  folded_bg_weeks_.assign(num_weeks_, 0.0);
  folded_eras_.assign(tracked_.size(), EraAccum{});
  dirty_ = true;
}

LongitudinalAnalysis::UserPart& LongitudinalAnalysis::user_part(trace::UserId user) {
  auto [it, inserted] = pending_.try_emplace(user);
  if (inserted) {
    it->second.fg_weeks.assign(num_weeks_, 0.0);
    it->second.bg_weeks.assign(num_weeks_, 0.0);
    it->second.eras.resize(tracked_.size());
  }
  return it->second;
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
  return std::make_unique<LongitudinalAnalysis>(tracked_);
}

void LongitudinalAnalysis::merge_from(trace::TraceSink& shard) {
  auto& other = dynamic_cast<LongitudinalAnalysis&>(shard);
  pending_.merge(other.pending_);  // steals the shard's one partial
  dirty_ = true;
}

namespace {

// Templates: EraAccum is private to the sink; deduction names it here.
template <typename EraAccum>
void put_eras(ckpt::ByteWriter& out, const std::vector<EraAccum>& eras) {
  out.put_varint(eras.size());
  for (const auto& era : eras) {
    out.put_f64(era.early_joules);
    out.put_f64(era.late_joules);
    out.put_varint(era.early_bytes);
    out.put_varint(era.late_bytes);
  }
}

template <typename EraAccum>
util::Status get_eras(ckpt::ByteReader& in, std::vector<EraAccum>& eras) {
  auto num_eras = in.get_varint("longitudinal.eras");
  if (!num_eras.ok()) return num_eras.status();
  if (*num_eras != eras.size()) {
    return util::Status::data_loss("corrupt checkpoint: longitudinal tracks " +
                                   std::to_string(eras.size()) + " apps, snapshot holds " +
                                   std::to_string(*num_eras));
  }
  for (auto& era : eras) {
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
  return util::Status::ok_status();
}

}  // namespace

void LongitudinalAnalysis::fold_user(trace::UserId user) {
  if (spill_ == nullptr) return;  // unarmed: the partial stays pending
  const auto it = pending_.find(user);
  if (it == pending_.end()) return;  // the user had no traffic for this sink
  const UserPart& part = it->second;
  // Folds run in ascending user order, so these running sums reproduce
  // every query-time fold bit for bit.
  for (std::size_t w = 0; w < num_weeks_; ++w) {
    folded_fg_weeks_[w] += part.fg_weeks[w];
    folded_bg_weeks_[w] += part.bg_weeks[w];
  }
  for (std::size_t i = 0; i < folded_eras_.size(); ++i) {
    folded_eras_[i].early_joules += part.eras[i].early_joules;
    folded_eras_[i].late_joules += part.eras[i].late_joules;
    folded_eras_[i].early_bytes += part.eras[i].early_bytes;
    folded_eras_[i].late_bytes += part.eras[i].late_bytes;
  }
  ckpt::ByteWriter row;
  row.put_f64_span(part.fg_weeks);
  row.put_f64_span(part.bg_weeks);
  put_eras(row, part.eras);
  spilled_self_ += spill_->add_section(kLongitSection, row.bytes());
  pending_.erase(it);
  dirty_ = true;
}

void LongitudinalAnalysis::save_state(ckpt::ByteWriter& out) const {
  out.put_f64_span(folded_fg_weeks_);
  out.put_f64_span(folded_bg_weeks_);
  put_eras(out, folded_eras_);
  out.put_varint(spilled_self_);
  out.put_varint(pending_.size());
  trace::UserId prev = 0;
  for (const auto& [user, part] : pending_) {
    out.put_varint(user - prev);
    prev = user;
    out.put_f64_span(part.fg_weeks);
    out.put_f64_span(part.bg_weeks);
    put_eras(out, part.eras);
  }
}

util::Status LongitudinalAnalysis::restore_state(ckpt::ByteReader& in) {
  pending_.clear();
  dirty_ = true;
  util::Status status = in.get_f64_span(folded_fg_weeks_, "longitudinal.folded_fg_weeks");
  if (!status.ok()) return status;
  status = in.get_f64_span(folded_bg_weeks_, "longitudinal.folded_bg_weeks");
  if (!status.ok()) return status;
  status = get_eras(in, folded_eras_);
  if (!status.ok()) return status;
  auto spilled = in.get_varint("longitudinal.spilled_bytes");
  if (!spilled.ok()) return spilled.status();
  spilled_self_ = *spilled;
  auto num_pending = in.get_varint("longitudinal.pending");
  if (!num_pending.ok()) return num_pending.status();
  std::uint64_t user = 0;
  for (std::uint64_t i = 0; i < *num_pending; ++i) {
    auto delta = in.get_varint("longitudinal.pending.user");
    if (!delta.ok()) return delta.status();
    user += *delta;
    if (user > std::numeric_limits<trace::UserId>::max()) {
      return util::Status::data_loss("corrupt checkpoint: longitudinal user id out of range");
    }
    UserPart& part = user_part(static_cast<trace::UserId>(user));
    status = in.get_f64_span(part.fg_weeks, "longitudinal.fg_weeks");
    if (!status.ok()) return status;
    status = in.get_f64_span(part.bg_weeks, "longitudinal.bg_weeks");
    if (!status.ok()) return status;
    status = get_eras(in, part.eras);
    if (!status.ok()) return status;
  }
  return util::Status::ok_status();
}

void LongitudinalAnalysis::fold() const {
  if (!dirty_) return;
  // The folded sums first, then the pending partials in the same ascending
  // user order — the identical floating-point fold however far folds got.
  overall_.fg_joules = folded_fg_weeks_;
  overall_.bg_joules = folded_bg_weeks_;
  eras_ = folded_eras_;
  for (const auto& [user, part] : pending_) {
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
  }
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
  std::uint64_t total = (folded_fg_weeks_.capacity() + folded_bg_weeks_.capacity()) *
                            sizeof(double) +
                        folded_eras_.capacity() * sizeof(EraAccum);
  for (const auto& [user, part] : pending_) {
    total += sizeof(user) + sizeof(UserPart) +
             (part.fg_weeks.capacity() + part.bg_weeks.capacity()) * sizeof(double) +
             part.eras.capacity() * sizeof(EraAccum);
  }
  return {.resident_bytes = total, .spilled_bytes = spilled_self_};
}

}  // namespace wildenergy::analysis
