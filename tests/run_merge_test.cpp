// Tests for sim::merge_time_runs (src/sim/run_merge.h): on every input shape
// the generator's day buckets can take, the run merge must give exactly what
// std::stable_sort gives, element by element, ties in input order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/run_merge.h"
#include "trace/record.h"
#include "util/rng.h"
#include "util/time.h"

namespace wildenergy::sim {
namespace {

/// A packet-like record: a time and a payload that tells equal times apart.
struct Stamped {
  TimePoint time;
  std::uint64_t id = 0;
};

std::uint64_t tag(const Stamped& e) { return e.id; }
std::uint64_t tag(const trace::StateTransition& e) { return e.app; }

/// Events with the given times; each carries its input position as its tag.
template <typename Event>
std::vector<Event> events_at(const std::vector<std::int64_t>& times) {
  std::vector<Event> out(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    out[i].time = TimePoint{times[i]};
    if constexpr (std::is_same_v<Event, Stamped>) {
      out[i].id = i;
    } else {
      out[i].app = static_cast<trace::AppId>(i);
    }
  }
  return out;
}

/// `scratch` is shared across calls, as the generator shares it across a
/// user's days: a stale, larger scratch from a busier input must not leak
/// into a result.
template <typename Event>
void expect_matches_stable_sort(const std::vector<std::int64_t>& times, const std::string& what,
                                std::vector<Event>& scratch) {
  SCOPED_TRACE(what);
  std::vector<Event> expected = events_at<Event>(times);
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Event& a, const Event& b) { return a.time < b.time; });
  std::vector<Event> merged = events_at<Event>(times);
  merge_time_runs(merged, scratch);
  ASSERT_EQ(merged.size(), expected.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].time, expected[i].time) << "position " << i;
    EXPECT_EQ(tag(merged[i]), tag(expected[i])) << "tie order at position " << i;
  }
}

/// `runs` non-decreasing runs of random lengths, concatenated, with times
/// drawn from `distinct` values so runs share many equal timestamps.
std::vector<std::int64_t> random_runs(std::uint64_t seed, int runs, std::uint64_t distinct) {
  Rng rng{seed};
  std::vector<std::int64_t> times;
  for (int r = 0; r < runs; ++r) {
    std::vector<std::int64_t> run(rng.uniform_int(40));
    for (auto& t : run) t = static_cast<std::int64_t>(rng.uniform_int(distinct));
    std::sort(run.begin(), run.end());
    times.insert(times.end(), run.begin(), run.end());
  }
  return times;
}

template <typename Event>
void check_every_shape() {
  std::vector<Event> scratch;
  std::vector<std::int64_t> descending;
  for (std::int64_t t = 300; t > 0; --t) descending.push_back(t);
  expect_matches_stable_sort<Event>(descending, "strictly descending: one run per element",
                                    scratch);
  expect_matches_stable_sort<Event>({}, "empty", scratch);
  expect_matches_stable_sort<Event>({7}, "one element", scratch);
  expect_matches_stable_sort<Event>({1, 2, 2, 5, 9, 9, 9, 40}, "one run", scratch);
  expect_matches_stable_sort<Event>({4, 4, 4, 4, 4, 4}, "all equal: one run", scratch);
  expect_matches_stable_sort<Event>({5, 5, 5, 3, 3, 5, 5, 1, 5, 3, 3}, "equal times across runs",
                                    scratch);
  std::vector<std::int64_t> giant_middle{9, 8, 7};
  for (std::int64_t t = 0; t < 200; ++t) giant_middle.push_back(t / 3);
  giant_middle.insert(giant_middle.end(), {50, 2, 1});
  expect_matches_stable_sort<Event>(giant_middle, "one giant run between small ones", scratch);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const int runs = static_cast<int>(1 + seed % 23);
    expect_matches_stable_sort<Event>(random_runs(seed, runs, 1 + seed % 6),
                                      "random runs, seed " + std::to_string(seed), scratch);
  }
}

// The scratch holds the larger side of the split, not a second copy of the
// input: two equal runs need half of it, like std::stable_sort's buffer.
TEST(RunMerge, ScratchHoldsTheLargerPartOnly) {
  std::vector<std::int64_t> times;
  for (std::int64_t t = 0; t < 500; ++t) times.push_back(2 * t);
  for (std::int64_t t = 0; t < 500; ++t) times.push_back(2 * t + 1);
  std::vector<Stamped> events = events_at<Stamped>(times);
  std::vector<Stamped> scratch;
  merge_time_runs(events, scratch);
  EXPECT_EQ(scratch.size(), 500u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time, TimePoint{static_cast<std::int64_t>(i)});
  }

  std::vector<Stamped> sorted = events_at<Stamped>({1, 2, 3});
  std::vector<Stamped> untouched;
  merge_time_runs(sorted, untouched);
  EXPECT_TRUE(untouched.empty());  // one run: no scratch at all
}

TEST(RunMerge, PacketRecordsMatchStableSortOnEveryShape) { check_every_shape<Stamped>(); }

TEST(RunMerge, TransitionsMatchStableSortOnEveryShape) {
  check_every_shape<trace::StateTransition>();
}

}  // namespace
}  // namespace wildenergy::sim
