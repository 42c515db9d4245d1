#include "sim/schedule.hpp"

#include <algorithm>
#include <queue>

#include "support/macros.hpp"
#include "support/rng.hpp"

namespace triolet::sim {

namespace {

/// Earliest-free-worker list scheduling over tasks in the given order.
double list_schedule(const std::vector<double>& tasks, int workers) {
  TRIOLET_CHECK(workers >= 1, "need at least one worker");
  // Min-heap of worker finish times.
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (int w = 0; w < workers; ++w) free_at.push(0.0);
  double makespan = 0.0;
  for (double d : tasks) {
    double start = free_at.top();
    free_at.pop();
    double finish = start + d;
    makespan = std::max(makespan, finish);
    free_at.push(finish);
  }
  return makespan;
}

}  // namespace

double makespan_dynamic(const std::vector<double>& tasks, int workers) {
  return list_schedule(tasks, workers);
}

double makespan_static_block(const std::vector<double>& tasks, int workers) {
  TRIOLET_CHECK(workers >= 1, "need at least one worker");
  const std::size_t n = tasks.size();
  double makespan = 0.0;
  for (int w = 0; w < workers; ++w) {
    const std::size_t lo = n * static_cast<std::size_t>(w) /
                           static_cast<std::size_t>(workers);
    const std::size_t hi = n * (static_cast<std::size_t>(w) + 1) /
                           static_cast<std::size_t>(workers);
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += tasks[i];
    makespan = std::max(makespan, sum);
  }
  return makespan;
}

double makespan_static_cyclic(const std::vector<double>& tasks, int workers) {
  TRIOLET_CHECK(workers >= 1, "need at least one worker");
  std::vector<double> load(static_cast<std::size_t>(workers), 0.0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    load[i % static_cast<std::size_t>(workers)] += tasks[i];
  }
  double makespan = 0.0;
  for (double l : load) makespan = std::max(makespan, l);
  return makespan;
}

double makespan_lpt(std::vector<double> tasks, int workers) {
  std::sort(tasks.begin(), tasks.end(), std::greater<>());
  return list_schedule(tasks, workers);
}

double makespan_demand(const std::vector<double>& chunks, int workers,
                       double overhead) {
  TRIOLET_CHECK(workers >= 1, "need at least one worker");
  TRIOLET_CHECK(overhead >= 0.0, "overhead must be non-negative");
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (int w = 0; w < workers; ++w) free_at.push(0.0);
  double makespan = 0.0;
  for (double d : chunks) {
    double start = free_at.top();
    free_at.pop();
    double finish = start + overhead + d;
    makespan = std::max(makespan, finish);
    free_at.push(finish);
  }
  return makespan;
}

double makespan_overlap(const std::vector<double>& chunks, int workers,
                        double overhead) {
  TRIOLET_CHECK(workers >= 1, "need at least one worker");
  TRIOLET_CHECK(overhead >= 0.0, "overhead must be non-negative");
  // Heap entries are the time each worker can *start* its next chunk: the
  // first claim waits for the initial request round trip; afterwards the
  // prefetched grant for chunk k+1 arrives at claim_k + overhead, in
  // parallel with chunk k executing until finish_k.
  std::priority_queue<double, std::vector<double>, std::greater<>> ready_at;
  for (int w = 0; w < workers; ++w) ready_at.push(overhead);
  double makespan = 0.0;
  for (double d : chunks) {
    double start = ready_at.top();
    ready_at.pop();
    double finish = start + d;
    makespan = std::max(makespan, finish);
    ready_at.push(std::max(finish, start + overhead));
  }
  return makespan;
}

double total_work(const std::vector<double>& tasks) {
  double sum = 0.0;
  for (double d : tasks) sum += d;
  return sum;
}

std::vector<double> StragglerModel::apply(std::vector<double> tasks,
                                          std::uint64_t salt) const {
  if (probability <= 0.0 || slowdown <= 1.0) return tasks;
  Xoshiro256 rng(seed ^ (salt * 0x9e3779b97f4a7c15ull));
  for (double& d : tasks) {
    if (rng.uniform() < probability) d *= slowdown;
  }
  return tasks;
}

}  // namespace triolet::sim
