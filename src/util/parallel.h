// The one worker pool: the scenario sweep, the fleet's device pool and
// the contract checker all fan independent items out through it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace ehdnn {

// Calls fn(i) once for every i in [0, n). Up to `jobs` threads (clamped
// to n) claim indices off one atomic cursor; with jobs <= 1 (or a single
// item) the loop runs inline on the calling thread, in index order. fn
// must make each item's result independent of which thread ran it and
// when — write into a fixed slot per index, or lock inside fn.
template <class Fn>
void parallel_for(std::size_t n, int jobs, Fn&& fn) {
  const std::size_t workers = std::min(static_cast<std::size_t>(std::max(jobs, 1)), n);
  std::atomic<std::size_t> cursor{0};
  auto worker = [&] {
    for (std::size_t i = cursor.fetch_add(1); i < n; i = cursor.fetch_add(1)) fn(i);
  };
  if (workers <= 1) {
    worker();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
}

}  // namespace ehdnn
