#include "analysis/case_studies.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "energy/account_file.h"

namespace wildenergy::analysis {

CaseStudyAnalysis::CaseStudyAnalysis(std::vector<trace::AppId> apps)
    : apps_(std::move(apps)),
      assembler_([this](const trace::FlowRecord& flow) { on_flow(flow); }) {
  trace::AppId max_app = 0;
  for (trace::AppId app : apps_) max_app = std::max(max_app, app);
  tracked_index_.assign(apps_.empty() ? 0 : max_app + 1, kUntracked);
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    tracked_index_[apps_[i]] = static_cast<std::uint32_t>(i);
  }
}

void CaseStudyAnalysis::on_study_begin(const trace::StudyMeta& meta) {
  meta_ = meta;
  const auto num_days = static_cast<std::int64_t>(std::ceil(meta.span().days()));
  era_split_lo_ = num_days / 3;
  era_split_hi_ = num_days - num_days / 3;
  num_days_ = static_cast<std::size_t>(std::max<std::int64_t>(num_days, 1));
  cur_user_ = kNoUser;
  per_app_.assign(apps_.size(), PerApp{});
  if (!single_user()) {
    // Fold mode and shard clones never allocate the dense O(users) energy
    // arrays or the O(users x days) day bitmaps (DESIGN.md §15).
    for (PerApp& pa : per_app_) {
      pa.joules_by_user.resize(meta.num_users, 0.0);
      pa.joules_touched.resize(meta.num_users, false);
      pa.active_day.assign(static_cast<std::size_t>(meta.num_users) * num_days_, false);
    }
  }
  spilled_self_ = 0;
  hydrated_ = false;
  hydrate_status_ = util::Status::ok_status();
  assembler_.reset();
}

CaseStudyAnalysis::PerApp* CaseStudyAnalysis::slot(trace::AppId app) {
  if (app >= tracked_index_.size()) return nullptr;
  const std::uint32_t index = tracked_index_[app];
  if (index == kUntracked || index >= per_app_.size()) return nullptr;
  return &per_app_[index];
}

void CaseStudyAnalysis::switch_user(trace::UserId user) {
  for (PerApp& pa : per_app_) pa.has_last_flow = false;
  cur_user_ = user;
}

void CaseStudyAnalysis::on_user_begin(trace::UserId user) {
  live_user_ = user;
  switch_user(user);
  assembler_.begin_user();
}

void CaseStudyAnalysis::on_packet(const trace::PacketRecord& p) {
  if (trace::is_foreground(p.state)) return;  // Table 1 is about background transfers
  PerApp* pa = slot(p.app);
  if (pa == nullptr) return;
  if (p.user != cur_user_) switch_user(p.user);
  if (single_user()) {
    // Fold mode and clones: the live user accumulates in scalars and one day
    // bitmap; fold_user or the parent's merge_from takes them after the
    // user bracket.
    pa->live_joules += p.joules;
    pa->live_touched = true;
    pa->bytes += p.bytes;
    if (pa->live_days.size() != num_days_) pa->live_days.assign(num_days_, false);
    const auto day = static_cast<std::size_t>(
        std::clamp<std::int64_t>((p.time - meta_.study_begin).us / 86'400'000'000LL, 0,
                                 static_cast<std::int64_t>(num_days_) - 1));
    pa->live_days[day] = true;
    assembler_.add(p);
    return;
  }
  if (p.user >= pa->joules_by_user.size()) {
    pa->joules_by_user.resize(p.user + 1, 0.0);
    pa->joules_touched.resize(p.user + 1, false);
  }
  pa->joules_by_user[p.user] += p.joules;
  pa->joules_touched[p.user] = true;
  pa->bytes += p.bytes;
  const std::size_t num_users = std::max<std::size_t>(meta_.num_users, 1);
  const std::size_t num_days = std::max<std::size_t>(pa->active_day.size() / num_users, 1);
  const auto day = static_cast<std::size_t>(
      std::clamp<std::int64_t>((p.time - meta_.study_begin).us / 86'400'000'000LL, 0,
                               static_cast<std::int64_t>(num_days) - 1));
  const std::size_t cell = p.user * num_days + day;
  if (cell >= pa->active_day.size()) pa->active_day.resize(cell + 1, false);
  pa->active_day[cell] = true;
  assembler_.add(p);
}

void CaseStudyAnalysis::on_user_end(trace::UserId /*user*/) {
  assembler_.end_user();
  for (PerApp& pa : per_app_) pa.has_last_flow = false;
  cur_user_ = kNoUser;
}

void CaseStudyAnalysis::on_study_end() {}

std::unique_ptr<trace::TraceSink> CaseStudyAnalysis::clone_shard() const {
  auto clone = std::make_unique<CaseStudyAnalysis>(apps_);
  clone->shard_ = true;
  return clone;
}

void CaseStudyAnalysis::merge_from(trace::TraceSink& shard) {
  auto& other = dynamic_cast<CaseStudyAnalysis&>(shard);
  const trace::UserId user = other.live_user_;
  for (std::size_t i = 0; i < per_app_.size() && i < other.per_app_.size(); ++i) {
    PerApp& mine = per_app_[i];
    PerApp& theirs = other.per_app_[i];
    mine.bytes += theirs.bytes;
    mine.flows += theirs.flows;
    mine.early_gaps.merge_from(theirs.early_gaps);
    mine.late_gaps.merge_from(theirs.late_gaps);
    if (!theirs.live_touched) continue;
    if (spill_ != nullptr) {
      // Fold mode: stage the clone's row until the engine's fold_user call
      // collapses and spills it. The gap samples landed in the parent's
      // (cleared-at-each-fold) distributions above.
      mine.staged.emplace_back(user, StagedPart{theirs.live_joules, std::move(theirs.live_days)});
      continue;
    }
    if (user >= mine.joules_by_user.size()) {
      mine.joules_by_user.resize(user + 1, 0.0);
      mine.joules_touched.resize(user + 1, false);
    }
    mine.joules_by_user[user] += theirs.live_joules;
    mine.joules_touched[user] = true;
    const std::size_t base = static_cast<std::size_t>(user) * num_days_;
    for (std::size_t d = 0; d < theirs.live_days.size(); ++d) {
      if (!theirs.live_days[d]) continue;
      if (base + d >= mine.active_day.size()) mine.active_day.resize(base + d + 1, false);
      mine.active_day[base + d] = true;
    }
  }
}

void CaseStudyAnalysis::fold_user(trace::UserId user) {
  if (spill_ == nullptr || hydrated_) return;
  const auto find_staged = [user](PerApp& pa) {
    return std::find_if(pa.staged.begin(), pa.staged.end(),
                        [user](const auto& entry) { return entry.first == user; });
  };
  std::size_t with_data = 0;
  for (PerApp& pa : per_app_) {
    if (find_staged(pa) != pa.staged.end() || pa.live_touched || pa.early_gaps.count() > 0 ||
        pa.late_gaps.count() > 0) {
      ++with_data;
    }
  }
  if (with_data == 0) return;
  ckpt::ByteWriter row;
  row.put_varint(with_data);
  std::size_t prev_slot = 0;
  static const std::vector<bool> kNoDays;
  for (std::size_t i = 0; i < per_app_.size(); ++i) {
    PerApp& pa = per_app_[i];
    auto it = find_staged(pa);
    double joules = 0.0;
    const std::vector<bool>* days = nullptr;
    if (it != pa.staged.end()) {
      joules = it->second.joules;
      days = &it->second.days;
    } else if (pa.live_touched) {
      joules = pa.live_joules;
      days = &pa.live_days;
    } else if (pa.early_gaps.count() == 0 && pa.late_gaps.count() == 0) {
      continue;  // nothing of this user's for the slot
    }
    row.put_varint(i - prev_slot);  // slot-ascending delta; the first is absolute
    prev_slot = i;
    row.put_f64(joules);
    row.put_bool_vec(days != nullptr ? *days : kNoDays);
    row.put_f64_span(pa.early_gaps.samples());
    row.put_f64_span(pa.late_gaps.samples());
    if (days != nullptr) {
      // Stream order is ascending user id, so the running joules sum
      // reproduces the ascending query-time fold bit for bit; day counts
      // are integers either way.
      pa.folded_joules += joules;
      pa.folded_days_active +=
          static_cast<std::uint64_t>(std::count(days->begin(), days->end(), true));
    }
    pa.early_gaps.restore_samples({});
    pa.late_gaps.restore_samples({});
    if (it != pa.staged.end()) pa.staged.erase(it);
    pa.live_joules = 0.0;
    pa.live_touched = false;
    pa.live_days.clear();
  }
  spilled_self_ += spill_->add_section(kCaseSection, row.bytes());
}

void CaseStudyAnalysis::hydrate() {
  if (spill_ == nullptr || hydrated_) return;
  hydrated_ = true;
  energy::AccountReader reader;
  util::Status st = reader.open(spill_->dir());
  if (!st.ok()) {
    hydrate_status_ = std::move(st);
    return;
  }
  reader.for_each_section(kCaseSection, [&](trace::UserId user, std::string_view payload) {
    if (!hydrate_status_.ok()) return;
    ckpt::ByteReader in{payload};
    const auto count = in.get_varint("case slot count");
    if (!count.ok()) {
      hydrate_status_ = count.status();
      return;
    }
    if (*count > per_app_.size()) {
      hydrate_status_ = util::Status::data_loss("case row for user " + std::to_string(user) +
                                                ": implausible slot count " +
                                                std::to_string(*count));
      return;
    }
    std::size_t slot_index = 0;
    std::vector<bool> days_scratch;
    for (std::uint64_t i = 0; i < *count; ++i) {
      const auto delta = in.get_varint("case slot delta");
      if (!delta.ok()) {
        hydrate_status_ = delta.status();
        return;
      }
      slot_index += static_cast<std::size_t>(*delta);
      if (slot_index >= per_app_.size()) {
        hydrate_status_ = util::Status::data_loss("case row for user " + std::to_string(user) +
                                                  ": slot " + std::to_string(slot_index) +
                                                  " out of range");
        return;
      }
      const auto joules = in.get_f64("case joules");
      if (!joules.ok()) {
        hydrate_status_ = joules.status();
        return;
      }
      auto status = in.get_bool_vec(days_scratch, "case days");
      if (!status.ok()) {
        hydrate_status_ = std::move(status);
        return;
      }
      auto early = in.get_f64_vec("case early gaps");
      if (!early.ok()) {
        hydrate_status_ = early.status();
        return;
      }
      auto late = in.get_f64_vec("case late gaps");
      if (!late.ok()) {
        hydrate_status_ = late.status();
        return;
      }
      PerApp& pa = per_app_[slot_index];
      for (const double v : *early) pa.spill_early.add(v);
      for (const double v : *late) pa.spill_late.add(v);
    }
    if (!in.at_end()) {
      hydrate_status_ = util::Status::data_loss("case row for user " + std::to_string(user) +
                                                ": trailing bytes at offset " +
                                                std::to_string(in.offset()));
    }
  });
}

void CaseStudyAnalysis::save_state(ckpt::ByteWriter& out) const {
  // Leading mode byte: 0 = dense resident partials (historical body
  // follows); 1 = fold mode, folded per-app sums first.
  out.put_u8(spill_ != nullptr ? 1 : 0);
  if (spill_ != nullptr) {
    for (const PerApp& pa : per_app_) {
      out.put_f64(pa.folded_joules);
      out.put_varint(pa.folded_days_active);
    }
    out.put_varint(spilled_self_);
  }
  out.put_varint(per_app_.size());
  for (const PerApp& pa : per_app_) {
    out.put_f64_span(pa.joules_by_user);
    out.put_bool_vec(pa.joules_touched);
    out.put_varint(pa.bytes);
    out.put_varint(pa.flows);
    out.put_bool_vec(pa.active_day);
    out.put_f64_span(pa.early_gaps.samples());
    out.put_f64_span(pa.late_gaps.samples());
  }
}

util::Status CaseStudyAnalysis::restore_state(ckpt::ByteReader& in) {
  auto mode = in.get_u8("case_studies.mode");
  if (!mode.ok()) return mode.status();
  if (*mode > 1) {
    return util::Status::data_loss("corrupt checkpoint: unknown case_studies mode " +
                                   std::to_string(*mode));
  }
  spilled_self_ = 0;
  for (PerApp& pa : per_app_) {
    pa.folded_joules = 0.0;
    pa.folded_days_active = 0;
    pa.live_joules = 0.0;
    pa.live_touched = false;
    pa.live_days.clear();
    pa.staged.clear();
    pa.spill_early.restore_samples({});
    pa.spill_late.restore_samples({});
  }
  if (*mode == 1) {
    for (PerApp& pa : per_app_) {
      auto joules = in.get_f64("case_studies.folded_joules");
      if (!joules.ok()) return joules.status();
      pa.folded_joules = *joules;
      auto days = in.get_varint("case_studies.folded_days_active");
      if (!days.ok()) return days.status();
      pa.folded_days_active = *days;
    }
    auto spilled = in.get_varint("case_studies.spilled_bytes");
    if (!spilled.ok()) return spilled.status();
    spilled_self_ = *spilled;
  }
  auto num_apps = in.get_varint("case_studies.apps");
  if (!num_apps.ok()) return num_apps.status();
  if (*num_apps != per_app_.size()) {
    return util::Status::data_loss("corrupt checkpoint: case_studies tracks " +
                                   std::to_string(per_app_.size()) + " apps, snapshot holds " +
                                   std::to_string(*num_apps));
  }
  const auto read_samples = [&in](Distribution& dist,
                                  std::string_view field) -> util::Status {
    auto samples = in.get_f64_vec(field);
    if (!samples.ok()) return samples.status();
    dist.restore_samples(std::move(*samples));
    return util::Status::ok_status();
  };
  for (PerApp& pa : per_app_) {
    auto joules = in.get_f64_vec("case_studies.joules_by_user");
    if (!joules.ok()) return joules.status();
    pa.joules_by_user = std::move(*joules);
    auto status = in.get_bool_vec(pa.joules_touched, "case_studies.joules_touched");
    if (!status.ok()) return status;
    auto bytes = in.get_varint("case_studies.bytes");
    if (!bytes.ok()) return bytes.status();
    pa.bytes = *bytes;
    auto flows = in.get_varint("case_studies.flows");
    if (!flows.ok()) return flows.status();
    pa.flows = *flows;
    status = in.get_bool_vec(pa.active_day, "case_studies.active_day");
    if (!status.ok()) return status;
    status = read_samples(pa.early_gaps, "case_studies.early_gaps");
    if (!status.ok()) return status;
    status = read_samples(pa.late_gaps, "case_studies.late_gaps");
    if (!status.ok()) return status;
    pa.has_last_flow = false;
  }
  return util::Status::ok_status();
}

void CaseStudyAnalysis::on_flow(const trace::FlowRecord& flow) {
  PerApp* pa = slot(flow.app);
  if (pa == nullptr) return;
  pa->flows += 1;
  if (pa->has_last_flow) {
    const double gap_s = (flow.first_packet - pa->last_flow_start).seconds();
    // Gaps above two days are app-dormancy, not an update period.
    if (gap_s > 0 && gap_s < 2.0 * 86400.0) {
      const std::int64_t day = (flow.first_packet - meta_.study_begin).us / 86'400'000'000LL;
      if (day < era_split_lo_) {
        pa->early_gaps.add(gap_s);
      } else if (day >= era_split_hi_) {
        pa->late_gaps.add(gap_s);
      }
    }
  }
  pa->last_flow_start = flow.first_packet;
  pa->has_last_flow = true;
}

CaseStudyResult CaseStudyAnalysis::result(trace::AppId app) {
  CaseStudyResult out;
  out.app = app;
  PerApp* pa = slot(app);
  if (pa == nullptr) return out;
  hydrate();
  // Folded prefix first, then the resident remainder in the same ascending
  // user order — the identical floating-point fold either way.
  out.joules_total = pa->folded_joules;
  for (trace::UserId user = 0; user < pa->joules_by_user.size(); ++user) {
    if (pa->joules_touched[user]) out.joules_total += pa->joules_by_user[user];
  }
  for (const auto& [user, part] : pa->staged) out.joules_total += part.joules;
  if (pa->live_touched) out.joules_total += pa->live_joules;
  out.bytes_total = pa->bytes;
  out.flows = pa->flows;
  out.days_active = pa->folded_days_active +
                    static_cast<std::uint64_t>(
                        std::count(pa->active_day.begin(), pa->active_day.end(), true));
  for (const auto& [user, part] : pa->staged) {
    out.days_active +=
        static_cast<std::uint64_t>(std::count(part.days.begin(), part.days.end(), true));
  }
  out.days_active += static_cast<std::uint64_t>(
      std::count(pa->live_days.begin(), pa->live_days.end(), true));
  // Period estimation sorts the gap samples, so replaying the spilled prefix
  // before the resident tail yields the exact multiset a resident run holds.
  Distribution early = pa->spill_early;
  early.merge_from(pa->early_gaps);
  Distribution late = pa->spill_late;
  late.merge_from(pa->late_gaps);
  out.early_period_s = estimate_period_from_gaps(early.sorted_samples()).period_s;
  out.late_period_s = estimate_period_from_gaps(late.sorted_samples()).period_s;
  return out;
}

obs::MemoryUse CaseStudyAnalysis::memory_use() const {
  std::uint64_t total = tracked_index_.capacity() * sizeof(std::uint32_t);
  for (const PerApp& pa : per_app_) {
    total += pa.joules_by_user.capacity() * sizeof(double) +
             (pa.joules_touched.capacity() + 7) / 8 + (pa.active_day.capacity() + 7) / 8 +
             (pa.early_gaps.count() + pa.late_gaps.count()) * sizeof(double) +
             (pa.live_days.capacity() + 7) / 8 +
             (pa.spill_early.count() + pa.spill_late.count()) * sizeof(double);
    for (const auto& [user, part] : pa.staged) {
      total += sizeof(user) + sizeof(part) + (part.days.capacity() + 7) / 8;
    }
  }
  return {.resident_bytes = total, .spilled_bytes = spilled_self_};
}

}  // namespace wildenergy::analysis
