#include "radio/burst_machine.h"

namespace wildenergy::radio {

BurstMachine::BurstMachine(BurstMachineParams params) : params_(std::move(params)) {
  assert(!params_.tail_phases.empty());
  phase_drx_.reserve(params_.tail_phases.size());
  for (const auto& phase : params_.tail_phases) {
    phase_drx_.push_back(phase.state_name.find("DRX") != std::string_view::npos);
  }
  auto& registry = obs::MetricsRegistry::current();
  ctr_bursts_ = &registry.counter("radio.bursts");
  ctr_bursts_queued_ = &registry.counter("radio.bursts_queued");
  ctr_promotions_ = &registry.counter("radio.promotions");
  ctr_repromotions_ = &registry.counter("radio.repromotions");
}

double BurstMachine::isolated_burst_energy(std::uint64_t bytes, Direction dir) const {
  double joules = 0.0;
  if (params_.idle_promotion.enabled()) {
    joules += params_.idle_promotion.power_w * params_.idle_promotion.duration.seconds();
  }
  const Duration dur = transfer_duration(bytes, dir);
  const double per_byte =
      dir == Direction::kUplink ? params_.joules_per_byte_up : params_.joules_per_byte_down;
  joules += params_.active_power_w * dur.seconds() + per_byte * static_cast<double>(bytes);
  for (const auto& phase : params_.tail_phases) {
    joules += phase.power_w * phase.duration.seconds();
  }
  return joules;
}

bool BurstMachine::is_powered_at(TimePoint t) const {
  if (!started_) return false;
  return t < active_until_ + params_.total_tail();
}

void BurstMachine::reset() {
  started_ = false;
  cursor_ = {};
  active_until_ = {};
}

std::unique_ptr<BurstMachine> make_lte_model() {
  return std::make_unique<BurstMachine>(lte_params());
}
std::unique_ptr<BurstMachine> make_lte_fast_dormancy_model() {
  return std::make_unique<BurstMachine>(lte_fast_dormancy_params());
}
std::unique_ptr<BurstMachine> make_umts_model() {
  return std::make_unique<BurstMachine>(umts_params());
}
std::unique_ptr<BurstMachine> make_wifi_model() {
  return std::make_unique<BurstMachine>(wifi_params());
}

}  // namespace wildenergy::radio
