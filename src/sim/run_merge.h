// Stable time sort for buffers built from a few time-ordered runs.
//
// The generator buffers a study day's events emitter by emitter, and every
// emitter writes in time order, so a day bucket is a concatenation of
// non-decreasing runs (DESIGN.md §16). Merging those runs costs a few passes
// where a general sort costs log2(n).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace wildenergy::sim {

namespace run_merge_detail {

/// Merges the adjacent runs [bounds[r], bounds[r + 1]) of `from` pairwise,
/// ties taken from the earlier run, pass after pass until one run is left.
/// Passes alternate between `from` and `to`, which both hold at least
/// bounds.back() events; returns the one holding the result.
template <typename Event>
Event* merge_passes(std::vector<std::size_t> bounds, Event* from, Event* to) {
  const std::size_t n = bounds.back();
  const auto earlier = [](const Event& a, const Event& b) { return a.time < b.time; };
  while (bounds.size() > 2) {
    std::size_t kept = 0;
    std::size_t r = 0;
    for (; r + 2 < bounds.size(); r += 2) {
      std::merge(from + bounds[r], from + bounds[r + 1], from + bounds[r + 1],
                 from + bounds[r + 2], to + bounds[r], earlier);
      bounds[kept++] = bounds[r];
    }
    if (r + 1 < bounds.size()) {  // an odd run out: carried to the next pass
      std::copy(from + bounds[r], from + bounds[r + 1], to + bounds[r]);
      bounds[kept++] = bounds[r];
    }
    bounds[kept++] = n;
    bounds.resize(kept);
    std::swap(from, to);
  }
  return from;
}

}  // namespace run_merge_detail

/// Sorts `events` by `.time`, stably: equal times keep their input order, so
/// the result is element for element what std::stable_sort gives.
///
/// Finds the maximal non-decreasing runs and splits them at the run boundary
/// that needs the least scratch. The left part's runs are merged pairwise into
/// `scratch`, the right part's in place (through `scratch` too, when it holds
/// more than one run), and one last merge writes both parts into `events`.
/// Every merge takes ties from the earlier run, so it keeps ties in input
/// order, and so does the whole sort. `scratch` is grown to the larger part
/// (about half of `events` for a generator day bucket, like the temporary
/// buffer of std::stable_sort) and never shrunk, so one scratch serves many
/// calls; its contents afterwards are unspecified.
template <typename Event>
void merge_time_runs(std::vector<Event>& events, std::vector<Event>& scratch) {
  const std::size_t n = events.size();
  std::vector<std::size_t> bounds{0};  // run r is [bounds[r], bounds[r + 1])
  for (std::size_t i = 1; i < n; ++i) {
    if (events[i].time < events[i - 1].time) bounds.push_back(i);
  }
  bounds.push_back(n);
  const std::size_t runs = bounds.size() - 1;
  if (runs <= 1) return;  // already sorted

  // Split before run `split`: the left part needs scratch for all its events,
  // the right part only when it has runs to merge.
  std::size_t split = 1;
  std::size_t need = n;
  for (std::size_t s = 1; s < runs; ++s) {
    const std::size_t at_s = std::max(bounds[s], runs - s > 1 ? n - bounds[s] : 0);
    if (at_s < need) {
      need = at_s;
      split = s;
    }
  }
  if (scratch.size() < need) scratch.resize(need);
  Event* const out = events.data();
  Event* const buf = scratch.data();
  const std::size_t m = bounds[split];

  std::vector<std::size_t> right(bounds.begin() + static_cast<std::ptrdiff_t>(split), bounds.end());
  for (std::size_t& b : right) b -= m;
  if (run_merge_detail::merge_passes(std::move(right), out + m, buf) == buf) {
    std::copy(buf, buf + (n - m), out + m);
  }
  bounds.resize(split + 1);
  if (run_merge_detail::merge_passes(std::move(bounds), out, buf) == out) {
    std::copy(out, out + m, buf);
  }

  // The last merge runs in place: while left events remain, the write
  // position i + (j - m) trails the right part's read position j, so no
  // unread right event is overwritten; once the left part runs out, the rest
  // of the right part is already where it belongs.
  std::size_t i = 0;
  std::size_t j = m;
  std::size_t w = 0;
  while (i < m && j < n) out[w++] = out[j].time < buf[i].time ? out[j++] : buf[i++];
  std::copy(buf + i, buf + m, out + w);
}

}  // namespace wildenergy::sim
