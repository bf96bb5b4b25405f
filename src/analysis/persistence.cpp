#include "analysis/persistence.h"

#include <algorithm>
#include <string>
#include <utility>

#include "energy/account_file.h"

namespace wildenergy::analysis {

PersistenceAnalysis::PersistenceAnalysis(Duration quiet_gap) : quiet_gap_(quiet_gap) {}

void PersistenceAnalysis::on_study_begin(const trace::StudyMeta& meta) {
  cur_user_ = kNoUser;
  episodes_.assign(meta.num_apps, Episode{});
  durations_.clear();
  durations_.resize(meta.num_apps);
  known_.assign(meta.num_apps, false);
  spilled_self_ = 0;
  hydrated_ = false;
  hydrate_status_ = util::Status::ok_status();
}

PersistenceAnalysis::Episode& PersistenceAnalysis::episode(trace::UserId user,
                                                           trace::AppId app) {
  if (user != cur_user_) {
    // A new user bracket (or an unbracketed stream switching users): open
    // episodes of the previous user are dropped, matching the pre-dense
    // behaviour of clearing the episode map at every user end.
    episodes_.assign(episodes_.size(), Episode{});
    cur_user_ = user;
  }
  if (app >= episodes_.size()) episodes_.resize(app + 1);
  return episodes_[app];
}

void PersistenceAnalysis::close(Episode& episode, trace::AppId app) {
  if (!episode.open) return;
  const double duration_s =
      episode.saw_traffic ? std::max(0.0, (episode.last_packet - episode.transition).seconds())
                          : 0.0;
  dist_slot(app).add(duration_s);
  episode.open = false;
}

void PersistenceAnalysis::flush_user() {
  for (std::size_t app = 0; app < episodes_.size(); ++app) {
    close(episodes_[app], static_cast<trace::AppId>(app));
  }
  episodes_.assign(episodes_.size(), Episode{});
  cur_user_ = kNoUser;
}

void PersistenceAnalysis::on_user_begin(trace::UserId user) { cur_user_ = user; }

void PersistenceAnalysis::on_transition(const trace::StateTransition& t) {
  Episode& ep = episode(t.user, t.app);
  if (t.is_fg_to_bg()) {
    close(ep, t.app);  // back-to-back fg->bg (e.g. fg->perceptible->bg)
    ep.transition = t.time;
    ep.last_packet = t.time;
    ep.open = true;
    ep.saw_traffic = false;
  } else if (t.is_bg_to_fg()) {
    close(ep, t.app);
  }
}

void PersistenceAnalysis::on_packet(const trace::PacketRecord& p) {
  if (trace::is_foreground(p.state)) return;
  if (p.user != cur_user_ || p.app >= episodes_.size()) return;
  Episode& ep = episodes_[p.app];
  if (!ep.open) return;
  const TimePoint reference = ep.saw_traffic ? ep.last_packet : ep.transition;
  if (p.time - reference > quiet_gap_) {
    // Quiet period ended the episode; later traffic (e.g. a periodic timer
    // hours later) is not "persisting foreground traffic".
    close(ep, p.app);
    return;
  }
  ep.last_packet = p.time;
  ep.saw_traffic = true;
}

std::unique_ptr<trace::TraceSink> PersistenceAnalysis::clone_shard() const {
  return std::make_unique<PersistenceAnalysis>(quiet_gap_);
}

void PersistenceAnalysis::merge_from(trace::TraceSink& shard) {
  auto& other = dynamic_cast<PersistenceAnalysis&>(shard);
  for (std::size_t app = 0; app < other.durations_.size(); ++app) {
    if (!other.known_[app]) continue;
    dist_slot(static_cast<trace::AppId>(app)).merge_from(other.durations_[app]);
  }
}

void PersistenceAnalysis::set_account_spill(energy::AccountSpill* spill) {
  spill_ = energy::share_spill(spill);
}

void PersistenceAnalysis::fold_user(trace::UserId /*user*/) {
  if (spill_ == nullptr || hydrated_) return;
  // durations_ holds only the samples recorded since the last fold, in
  // merge order; they travel under this user's row group.
  std::size_t with_samples = 0;
  for (const Distribution& dist : durations_) with_samples += dist.count() > 0 ? 1 : 0;
  if (with_samples == 0) return;
  ckpt::ByteWriter row;
  row.put_varint(with_samples);
  std::size_t prev_app = 0;
  for (std::size_t app = 0; app < durations_.size(); ++app) {
    if (durations_[app].count() == 0) continue;
    row.put_varint(app - prev_app);  // app-ascending delta; the first is absolute
    prev_app = app;
    row.put_f64_span(durations_[app].samples());
    durations_[app].restore_samples({});
  }
  spilled_self_ += spill_->add_section(kPersistSection, row.bytes());
}

void PersistenceAnalysis::hydrate() {
  if (hydrated_) return;
  hydrated_ = true;
  energy::AccountReader reader;
  util::Status st = reader.open(spill_.get());
  if (!st.ok()) {
    hydrate_status_ = std::move(st);
    return;
  }
  // Spilled samples land first (they are the merge-order prefix); the
  // unfolded tail is appended after.
  std::vector<std::vector<double>> rebuilt(durations_.size());
  reader.for_each_section(
      kPersistSection, [&](trace::UserId user, std::string_view payload) {
        if (!hydrate_status_.ok()) return;
        ckpt::ByteReader in{payload};
        const auto count = in.get_varint("persist app count");
        if (!count.ok()) {
          hydrate_status_ = count.status();
          return;
        }
        if (*count > payload.size()) {
          hydrate_status_ = util::Status::data_loss(
              "persist row for user " + std::to_string(user) + ": implausible app count " +
              std::to_string(*count));
          return;
        }
        std::size_t app = 0;
        for (std::uint64_t i = 0; i < *count; ++i) {
          const auto delta = in.get_varint("persist app delta");
          if (!delta.ok()) {
            hydrate_status_ = delta.status();
            return;
          }
          app += static_cast<std::size_t>(*delta);
          auto samples = in.get_f64_vec("persist samples");
          if (!samples.ok()) {
            hydrate_status_ = samples.status();
            return;
          }
          if (app >= rebuilt.size()) rebuilt.resize(app + 1);
          rebuilt[app].insert(rebuilt[app].end(), samples->begin(), samples->end());
        }
        if (!in.at_end()) {
          hydrate_status_ = util::Status::data_loss(
              "persist row for user " + std::to_string(user) + ": trailing bytes at offset " +
              std::to_string(in.offset()));
        }
      });
  if (!hydrate_status_.ok()) return;
  for (std::size_t app = 0; app < rebuilt.size(); ++app) {
    if (rebuilt[app].empty()) continue;
    Distribution& dist = dist_slot(static_cast<trace::AppId>(app));
    const auto resident = dist.samples();
    rebuilt[app].insert(rebuilt[app].end(), resident.begin(), resident.end());
    dist.restore_samples(std::move(rebuilt[app]));
  }
}

void PersistenceAnalysis::on_user_end(trace::UserId /*user*/) { flush_user(); }

void PersistenceAnalysis::save_state(ckpt::ByteWriter& out) const {
  out.put_varint(spilled_self_);
  out.put_varint(durations_.size());
  out.put_bool_vec(known_);
  for (std::size_t app = 0; app < durations_.size(); ++app) {
    if (!known_[app]) continue;
    out.put_f64_span(durations_[app].samples());
  }
}

util::Status PersistenceAnalysis::restore_state(ckpt::ByteReader& in) {
  auto spilled = in.get_varint("persistence.spilled_bytes");
  if (!spilled.ok()) return spilled.status();
  spilled_self_ = *spilled;
  auto num_apps = in.get_varint("persistence.apps");
  if (!num_apps.ok()) return num_apps.status();
  auto status = in.get_bool_vec(known_, "persistence.known");
  if (!status.ok()) return status;
  if (known_.size() != *num_apps) {
    return util::Status::data_loss("corrupt checkpoint: persistence known flags mismatch");
  }
  durations_.clear();
  durations_.resize(*num_apps);
  for (std::size_t app = 0; app < durations_.size(); ++app) {
    if (!known_[app]) continue;
    auto samples = in.get_f64_vec("persistence.samples");
    if (!samples.ok()) return samples.status();
    durations_[app].restore_samples(std::move(*samples));
  }
  return util::Status::ok_status();
}

Distribution& PersistenceAnalysis::dist_slot(trace::AppId app) {
  if (app >= durations_.size()) {
    durations_.resize(app + 1);
    known_.resize(app + 1, false);
  }
  known_[app] = true;
  return durations_[app];
}

Distribution& PersistenceAnalysis::durations(trace::AppId app) {
  hydrate();
  return dist_slot(app);
}

std::vector<trace::AppId> PersistenceAnalysis::tracked_apps() const {
  std::vector<trace::AppId> out;
  for (std::size_t app = 0; app < known_.size(); ++app) {
    if (known_[app]) out.push_back(static_cast<trace::AppId>(app));
  }
  return out;
}

double PersistenceAnalysis::fraction_persisting_longer_than(trace::AppId app, Duration d) {
  hydrate();
  if (app >= durations_.size() || durations_[app].count() == 0) return 0.0;
  return 1.0 - durations_[app].cdf_at(d.seconds());
}

obs::MemoryUse PersistenceAnalysis::memory_use() const {
  std::uint64_t total = episodes_.capacity() * sizeof(Episode) +
                        durations_.capacity() * sizeof(Distribution) +
                        (known_.capacity() + 7) / 8;
  for (const auto& dist : durations_) total += dist.count() * sizeof(double);
  return {.resident_bytes = total, .spilled_bytes = spilled_self_};
}

}  // namespace wildenergy::analysis
