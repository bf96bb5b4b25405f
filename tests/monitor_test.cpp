// Tests for the Monsoon-style power monitor emulation (power/monitor.h):
// sampled energy must agree with the analytic model — the calibration loop
// the paper ran against real hardware.
#include <gtest/gtest.h>

#include "power/monitor.h"
#include "radio/burst_machine.h"

namespace wildenergy::power {
namespace {

radio::RadioTimeline make_timeline(int bursts, double gap_s) {
  radio::BurstMachine lte{radio::lte_params()};
  radio::RadioTimeline tl;
  TimePoint t{0};
  for (int i = 0; i < bursts; ++i) {
    lte.on_transfer({t, 20'000, radio::Direction::kDownlink}, tl.sink());
    t += sec(gap_s);
  }
  lte.finish(t + minutes(1.0), tl.sink());
  return tl;
}

TEST(PowerMonitor, SampledEnergyMatchesAnalytic) {
  const auto tl = make_timeline(5, 30.0);
  ASSERT_TRUE(tl.is_contiguous());
  const double err = calibration_error(tl, {.sample_rate_hz = 5000.0});
  EXPECT_LT(err, 0.01);  // < 1% at Monsoon's 5 kHz
}

TEST(PowerMonitor, ErrorShrinksWithSampleRate) {
  const auto tl = make_timeline(3, 20.0);
  const double coarse = calibration_error(tl, {.sample_rate_hz = 20.0});
  const double fine = calibration_error(tl, {.sample_rate_hz = 5000.0});
  EXPECT_LT(fine, coarse + 1e-12);
}

TEST(PowerMonitor, SampleCountMatchesRateAndSpan) {
  const auto tl = make_timeline(1, 0.0);
  PowerMonitor monitor{{.sample_rate_hz = 1000.0}};
  const auto samples = monitor.sample(tl);
  const double span_s = (tl.end_time() - tl.begin_time()).seconds();
  EXPECT_NEAR(static_cast<double>(samples.size()), span_s * 1000.0, 2.0);
}

TEST(PowerMonitor, NoiseIsZeroMeanish) {
  const auto tl = make_timeline(4, 40.0);
  const PowerMonitor clean{{.sample_rate_hz = 1000.0}};
  const PowerMonitor noisy{{.sample_rate_hz = 1000.0, .noise_stddev_w = 0.05, .seed = 9}};
  const double e_clean = integrate_joules(clean.sample(tl));
  const double e_noisy = integrate_joules(noisy.sample(tl));
  EXPECT_NEAR(e_noisy, e_clean, e_clean * 0.02);
}

TEST(PowerMonitor, CurrentReadoutUsesVoltage) {
  PowerMonitor monitor{{.voltage = 4.2}};
  EXPECT_NEAR(monitor.amps({TimePoint{0}, 2.1}), 0.5, 1e-12);
}

TEST(PowerMonitor, EmptyTimeline) {
  radio::RadioTimeline tl;
  PowerMonitor monitor;
  EXPECT_TRUE(monitor.sample(tl).empty());
  EXPECT_EQ(calibration_error(tl), 0.0);
}

// Property sweep: calibration holds across radio technologies.
class MonitorAcrossModels : public ::testing::TestWithParam<const char*> {};

TEST_P(MonitorAcrossModels, CalibrationUnder2Percent) {
  std::unique_ptr<radio::BurstMachine> model;
  const std::string_view which = GetParam();
  if (which == "lte") model = radio::make_lte_model();
  if (which == "lte_fd") model = radio::make_lte_fast_dormancy_model();
  if (which == "umts") model = radio::make_umts_model();
  if (which == "wifi") model = radio::make_wifi_model();
  ASSERT_NE(model, nullptr);

  radio::RadioTimeline tl;
  TimePoint t{0};
  for (int i = 0; i < 8; ++i) {
    model->on_transfer({t, 50'000, radio::Direction::kUplink}, tl.sink());
    t += sec(i % 2 ? 3.0 : 25.0);
  }
  model->finish(t + minutes(1.0), tl.sink());
  EXPECT_LT(calibration_error(tl, {.sample_rate_hz = 5000.0}), 0.02) << which;
}

INSTANTIATE_TEST_SUITE_P(AllModels, MonitorAcrossModels,
                         ::testing::Values("lte", "lte_fd", "umts", "wifi"));

}  // namespace
}  // namespace wildenergy::power
