// Determinism guard: the whole study — generation, radio modelling, and
// energy attribution — is a pure function of StudyConfig. Running the small
// study twice must produce bit-identical ledgers, independent of process
// state, run count, and instrumentation. This is what makes the figure
// benches reproducible and lets tests assert exact joules.
#include <gtest/gtest.h>

#include <cstdint>

#include "ledger_compare.h"
#include "core/pipeline.h"
#include "sim/generator.h"
#include "sim/study_config.h"

namespace wildenergy {
namespace {

TEST(Determinism, TwoFreshPipelinesProduceIdenticalLedgers) {
  sim::StudyGenerator first_gen{sim::small_study(/*seed=*/7)};
  core::StudyPipeline first{&first_gen};
  first.run();
  sim::StudyGenerator second_gen{sim::small_study(/*seed=*/7)};
  core::StudyPipeline second{&second_gen};
  second.run();
  EXPECT_GT(first.ledger().total_joules(), 0.0);
  expect_identical_ledgers(first.ledger(), second.ledger());
  EXPECT_EQ(first.attributor().device_joules(), second.attributor().device_joules());
}

TEST(Determinism, RerunningOnePipelineIsIdempotent) {
  sim::StudyGenerator generator{sim::small_study(/*seed=*/7)};
  core::StudyPipeline pipeline{&generator};
  pipeline.run();
  const double joules = pipeline.ledger().total_joules();
  const std::uint64_t bytes = pipeline.ledger().total_bytes();
  pipeline.run();
  EXPECT_EQ(pipeline.ledger().total_joules(), joules);
  EXPECT_EQ(pipeline.ledger().total_bytes(), bytes);
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity check that the guard above is not vacuous: the seed actually
  // steers the generator.
  sim::StudyGenerator a_gen{sim::small_study(/*seed=*/7)};
  core::StudyPipeline a{&a_gen};
  a.run();
  sim::StudyGenerator b_gen{sim::small_study(/*seed=*/8)};
  core::StudyPipeline b{&b_gen};
  b.run();
  EXPECT_NE(a.ledger().total_joules(), b.ledger().total_joules());
}

}  // namespace
}  // namespace wildenergy
