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
  pending_.clear();
  cur_row_ = nullptr;
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
  cur_row_ = nullptr;
}

void CaseStudyAnalysis::on_user_begin(trace::UserId user) {
  switch_user(user);
  assembler_.begin_user();
}

void CaseStudyAnalysis::on_packet(const trace::PacketRecord& p) {
  if (trace::is_foreground(p.state)) return;  // Table 1 is about background transfers
  PerApp* pa = slot(p.app);
  if (pa == nullptr) return;
  if (p.user != cur_user_) switch_user(p.user);
  if (cur_row_ == nullptr) {
    cur_row_ = &pending_[p.user];
    if (cur_row_->empty()) cur_row_->resize(per_app_.size());
  }
  UserPart& up = (*cur_row_)[static_cast<std::size_t>(pa - per_app_.data())];
  up.joules += p.joules;
  up.touched = true;
  pa->bytes += p.bytes;
  if (up.days.size() != num_days_) up.days.assign(num_days_, false);
  const auto day = static_cast<std::size_t>(
      std::clamp<std::int64_t>((p.time - meta_.study_begin).us / 86'400'000'000LL, 0,
                               static_cast<std::int64_t>(num_days_) - 1));
  up.days[day] = true;
  assembler_.add(p);
}

void CaseStudyAnalysis::on_user_end(trace::UserId /*user*/) {
  assembler_.end_user();
  for (PerApp& pa : per_app_) pa.has_last_flow = false;
  cur_user_ = kNoUser;
  cur_row_ = nullptr;
}

void CaseStudyAnalysis::on_study_end() {}

std::unique_ptr<trace::TraceSink> CaseStudyAnalysis::clone_shard() const {
  return std::make_unique<CaseStudyAnalysis>(apps_);
}

void CaseStudyAnalysis::merge_from(trace::TraceSink& shard) {
  auto& other = dynamic_cast<CaseStudyAnalysis&>(shard);
  for (std::size_t i = 0; i < per_app_.size() && i < other.per_app_.size(); ++i) {
    PerApp& mine = per_app_[i];
    PerApp& theirs = other.per_app_[i];
    mine.bytes += theirs.bytes;
    mine.flows += theirs.flows;
    mine.early_gaps.merge_from(theirs.early_gaps);
    mine.late_gaps.merge_from(theirs.late_gaps);
  }
  pending_.merge(other.pending_);  // steals the shard's one row
  other.cur_row_ = nullptr;
}

void CaseStudyAnalysis::set_account_spill(energy::AccountSpill* spill) {
  spill_ = energy::share_spill(spill);
}

void CaseStudyAnalysis::fold_user(trace::UserId user) {
  if (spill_ == nullptr || hydrated_) return;  // unarmed: the row stays pending
  const auto it = pending_.find(user);
  const Row* row = it != pending_.end() ? &it->second : nullptr;
  const auto touched = [row](std::size_t i) { return row != nullptr && (*row)[i].touched; };
  std::size_t with_data = 0;
  for (std::size_t i = 0; i < per_app_.size(); ++i) {
    const PerApp& pa = per_app_[i];
    if (touched(i) || pa.early_gaps.count() > 0 || pa.late_gaps.count() > 0) ++with_data;
  }
  if (with_data > 0) {
    ckpt::ByteWriter out;
    out.put_varint(with_data);
    std::size_t prev_slot = 0;
    static const std::vector<bool> kNoDays;
    for (std::size_t i = 0; i < per_app_.size(); ++i) {
      PerApp& pa = per_app_[i];
      if (!touched(i) && pa.early_gaps.count() == 0 && pa.late_gaps.count() == 0) continue;
      const UserPart* up = touched(i) ? &(*row)[i] : nullptr;
      out.put_varint(i - prev_slot);  // slot-ascending delta; the first is absolute
      prev_slot = i;
      out.put_f64(up != nullptr ? up->joules : 0.0);
      out.put_bool_vec(up != nullptr ? up->days : kNoDays);
      out.put_f64_span(pa.early_gaps.samples());
      out.put_f64_span(pa.late_gaps.samples());
      if (up != nullptr) {
        // Folds run in ascending user order, so the running joules sum
        // reproduces every query-time fold bit for bit; day counts are
        // integers either way.
        pa.folded_joules += up->joules;
        pa.folded_days_active +=
            static_cast<std::uint64_t>(std::count(up->days.begin(), up->days.end(), true));
      }
      pa.early_gaps.restore_samples({});
      pa.late_gaps.restore_samples({});
    }
    spilled_self_ += spill_->add_section(kCaseSection, out.bytes());
  }
  if (row != nullptr) {
    if (cur_row_ == &it->second) cur_row_ = nullptr;
    pending_.erase(it);
  }
}

void CaseStudyAnalysis::hydrate() {
  if (hydrated_) return;
  hydrated_ = true;
  energy::AccountReader reader;
  util::Status st = reader.open(spill_.get());
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
  out.put_varint(per_app_.size());
  for (const PerApp& pa : per_app_) {
    out.put_varint(pa.bytes);
    out.put_varint(pa.flows);
    out.put_f64(pa.folded_joules);
    out.put_varint(pa.folded_days_active);
    out.put_f64_span(pa.early_gaps.samples());
    out.put_f64_span(pa.late_gaps.samples());
  }
  out.put_varint(spilled_self_);
  out.put_varint(pending_.size());
  trace::UserId prev = 0;
  for (const auto& [user, row] : pending_) {
    out.put_varint(user - prev);
    prev = user;
    for (const UserPart& up : row) {
      out.put_u8(up.touched ? 1 : 0);
      if (!up.touched) continue;
      out.put_f64(up.joules);
      out.put_bool_vec(up.days);
    }
  }
}

util::Status CaseStudyAnalysis::restore_state(ckpt::ByteReader& in) {
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
    auto bytes = in.get_varint("case_studies.bytes");
    if (!bytes.ok()) return bytes.status();
    pa.bytes = *bytes;
    auto flows = in.get_varint("case_studies.flows");
    if (!flows.ok()) return flows.status();
    pa.flows = *flows;
    auto joules = in.get_f64("case_studies.folded_joules");
    if (!joules.ok()) return joules.status();
    pa.folded_joules = *joules;
    auto days = in.get_varint("case_studies.folded_days_active");
    if (!days.ok()) return days.status();
    pa.folded_days_active = *days;
    util::Status status = read_samples(pa.early_gaps, "case_studies.early_gaps");
    if (!status.ok()) return status;
    status = read_samples(pa.late_gaps, "case_studies.late_gaps");
    if (!status.ok()) return status;
    pa.spill_early.restore_samples({});
    pa.spill_late.restore_samples({});
    pa.has_last_flow = false;
  }
  auto spilled = in.get_varint("case_studies.spilled_bytes");
  if (!spilled.ok()) return spilled.status();
  spilled_self_ = *spilled;
  auto num_pending = in.get_varint("case_studies.pending");
  if (!num_pending.ok()) return num_pending.status();
  pending_.clear();
  cur_row_ = nullptr;
  std::uint64_t user = 0;
  for (std::uint64_t i = 0; i < *num_pending; ++i) {
    auto delta = in.get_varint("case_studies.pending.user");
    if (!delta.ok()) return delta.status();
    user += *delta;
    if (user >= kNoUser) {
      return util::Status::data_loss("corrupt checkpoint: case_studies user id out of range");
    }
    Row& row = pending_[static_cast<trace::UserId>(user)];
    row.resize(per_app_.size());
    for (UserPart& up : row) {
      auto touched = in.get_u8("case_studies.part_touched");
      if (!touched.ok()) return touched.status();
      if (*touched == 0) continue;
      up.touched = true;
      auto joules = in.get_f64("case_studies.part_joules");
      if (!joules.ok()) return joules.status();
      up.joules = *joules;
      util::Status status = in.get_bool_vec(up.days, "case_studies.part_days");
      if (!status.ok()) return status;
    }
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
  // Folded prefix first, then the pending rows in the same ascending user
  // order — the identical floating-point fold however far folds got.
  const auto index = static_cast<std::size_t>(pa - per_app_.data());
  out.joules_total = pa->folded_joules;
  out.days_active = pa->folded_days_active;
  for (const auto& [user, row] : pending_) {
    const UserPart& up = row[index];
    if (!up.touched) continue;
    out.joules_total += up.joules;
    out.days_active += static_cast<std::uint64_t>(std::count(up.days.begin(), up.days.end(), true));
  }
  out.bytes_total = pa->bytes;
  out.flows = pa->flows;
  // Period estimation sorts the gap samples, so replaying the spilled prefix
  // before the unfolded tail yields the exact multiset of the whole stream.
  Distribution early = pa->spill_early;
  early.merge_from(pa->early_gaps);
  Distribution late = pa->spill_late;
  late.merge_from(pa->late_gaps);
  out.early_period_s = estimate_period_from_gaps(early.sorted_samples()).period_s;
  out.late_period_s = estimate_period_from_gaps(late.sorted_samples()).period_s;
  return out;
}

obs::MemoryUse CaseStudyAnalysis::memory_use() const {
  std::uint64_t total = tracked_index_.capacity() * sizeof(std::uint32_t) +
                        per_app_.capacity() * sizeof(PerApp);
  for (const PerApp& pa : per_app_) {
    total += (pa.early_gaps.count() + pa.late_gaps.count() + pa.spill_early.count() +
              pa.spill_late.count()) *
             sizeof(double);
  }
  for (const auto& [user, row] : pending_) {
    total += sizeof(user) + sizeof(row) + row.capacity() * sizeof(UserPart);
    for (const UserPart& up : row) total += (up.days.capacity() + 7) / 8;
  }
  return {.resident_bytes = total, .spilled_bytes = spilled_self_};
}

}  // namespace wildenergy::analysis
