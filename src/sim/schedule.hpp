#pragma once

// Intra-node schedulers for the cluster simulator.
//
// A simulated node runs a bag of measured task durations on
// `cores_per_node` cores. The makespan depends on the scheduling policy the
// modelled system uses:
//
//   makespan_dynamic      tasks claimed in order by the earliest-free core —
//                         models Triolet's work stealing and OpenMP dynamic
//                         scheduling (fine-grained, even distribution)
//   makespan_static_block contiguous blocks of tasks pre-assigned to cores —
//                         models OpenMP default static scheduling and Eden's
//                         pre-split process farms
//   makespan_static_cyclic round-robin pre-assignment — OpenMP
//                         schedule(static,1), the tuned choice for skewed
//                         (e.g. triangular) loops
//   makespan_lpt          longest-processing-time greedy — an offline bound
//                         used by tests as a sanity reference
//
// StragglerModel perturbs task durations deterministically, reproducing the
// paper's observation that Eden tasks "occasionally run significantly slower
// than normal" (§4.2).

#include <cstdint>
#include <vector>

namespace triolet::sim {

double makespan_dynamic(const std::vector<double>& tasks, int workers);
double makespan_static_block(const std::vector<double>& tasks, int workers);
/// Round-robin pre-assignment (OpenMP schedule(static,1)): task i goes to
/// core i mod workers. Balances monotone ramps like triangular loops.
double makespan_static_cyclic(const std::vector<double>& tasks, int workers);
double makespan_lpt(std::vector<double> tasks, int workers);

/// Demand-driven (request/grant) makespan, modelling the src/sched/
/// protocol: chunks are claimed in order by the earliest-free worker, and
/// every claim first pays `overhead` seconds of control round trip
/// (request up, grant down — see grant_overhead in network_model.hpp)
/// before the chunk executes. With overhead == 0 this degenerates to
/// makespan_dynamic; with large overheads it exposes the cost of
/// fine-grained (kDynamic) scheduling that guided grant-size decay
/// amortizes.
double makespan_demand(const std::vector<double>& chunks, int workers,
                       double overhead);

/// Demand-driven makespan with request prefetch (SchedOptions::prefetch):
/// a worker posts the request for chunk k+1 before executing chunk k, so
/// the control round trip overlaps the current chunk's compute. The next
/// chunk starts at max(finish_k, claim_k + overhead) — the round trip is
/// fully hidden whenever a chunk runs at least `overhead` seconds; only
/// each worker's first claim pays it unconditionally. With overhead == 0
/// this degenerates to makespan_dynamic, and it is never worse than
/// makespan_demand on the same inputs.
double makespan_overlap(const std::vector<double>& chunks, int workers,
                        double overhead);

/// Sum of task durations (the 1-worker makespan).
double total_work(const std::vector<double>& tasks);

struct StragglerModel {
  double probability = 0.0;  // chance a task is delayed
  double slowdown = 1.0;     // delayed tasks run this factor slower
  std::uint64_t seed = 0;

  /// Returns a perturbed copy of `tasks`; `salt` decorrelates different
  /// uses (e.g. different node counts) while staying deterministic.
  std::vector<double> apply(std::vector<double> tasks,
                            std::uint64_t salt) const;
};

}  // namespace triolet::sim
