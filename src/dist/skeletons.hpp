#pragma once

// Two-level distributed skeletons (paper §2, §3.4, §3.5).
//
// These run SPMD under a net::Cluster with one rank per cluster node:
//
//   1. The root splits the iterator's domain into contiguous node chunks,
//      slices the iterator per chunk — each slice's data source holds only
//      the sub-arrays that chunk touches — serializes the sliced iterator
//      (fused loop body + data) and sends it to the owning node.
//   2. Every node re-hints its chunk to `localpar` and runs the threaded
//      consumer from core/consume.hpp: work-stealing threads with private
//      per-thread accumulators.
//   3. Per-node partial results are combined along net::Comm's binomial
//      reduce tree: each interior node merges two contiguous-rank partials,
//      so the root's combine work and received bytes are O(log P) instead
//      of O(P) (deterministic fixed-tree order; see docs/INTERNALS.md
//      "Collective algorithms").
//
// Iterator construction happens only at the root: callers pass a `make`
// callable invoked on rank 0, so non-root ranks never need the input data —
// they receive their slice over the wire. (All ranks share the closure
// *type*, which is how the same binary can deserialize the task; see
// DESIGN.md on the closure-serialization substitution.)

#include <optional>

#include "core/consume.hpp"
#include "core/skeletons.hpp"
#include "dist/dist_array.hpp"
#include "net/comm.hpp"
#include "net/residency.hpp"
#include "sched/scheduler.hpp"

namespace triolet::dist {

using core::index_t;

inline constexpr int kTagTask = 100;
/// Tag base for the overlapped partial-result combine tree (one tag per
/// tree round, user band).
inline constexpr int kTagPartial = 101;

/// Per-node threaded runtime. Each SPMD rank constructs one of these at the
/// top of its body: the rank gets a private work-stealing pool (its "cores")
/// and a PoolScope that routes this thread's localpar consumers onto it.
/// Keeping pools per node prevents one node's idle threads from executing
/// another node's tasks, which both matches real cluster semantics and keeps
/// per-thread private accumulators disjoint between nodes.
struct NodeRuntime {
  explicit NodeRuntime(int threads_per_node)
      : pool(threads_per_node), scope(pool) {}

  runtime::ThreadPool pool;
  runtime::PoolScope scope;
};

namespace detail {

/// Root slices + scatters; every rank returns its own localpar-hinted chunk.
/// Each send completes in the call (the transport copies or takes over the
/// payload), so the root sends every remote slice and then starts on its
/// own chunk; a send error throws at the root right here.
template <typename MakeIter>
auto scatter_chunks(net::Comm& comm, MakeIter&& make) {
  using It = decltype(make());
  // Residency-aware path: iterators over resident sources (DistArray /
  // DistContext) consult the per-destination cache model while serializing,
  // so a slice the receiver already holds shrinks to a checksum token.
  constexpr bool kResident = core::iter_uses_residency_v<It>;
  if (comm.rank() == 0) {
    It it = make();
    auto chunks = core::split_blocks(it.domain(), comm.size());
    bool resident = false;
    if constexpr (kResident) resident = comm.residency_enabled();
    if (resident) net::install_residency_fetch_service(comm);
    for (int r = 1; r < comm.size(); ++r) {
      std::optional<net::ResidencyEncodeScope> scope;
      if (resident) {
        scope.emplace(comm, r,
                      core::iter_is_fused_view_v<It> ? &comm.view_stats()
                                                     : nullptr);
      }
      comm.send(r, kTagTask, it.slice(chunks[static_cast<std::size_t>(r)]));
    }
    return core::localpar(it.slice(chunks[0]));
  }
  if constexpr (kResident) {
    if (comm.residency_enabled()) {
      net::ResidencyDecodeScope scope(comm, /*owner=*/0);
      return core::localpar(comm.recv<It>(0, kTagTask));
    }
  }
  return core::localpar(comm.recv<It>(0, kTagTask));
}

/// Binomial-tree combine of per-node partials to rank 0 with the *same*
/// fixed parenthesization as Comm::reduce rooted at 0 (bitwise identical
/// results), but overlapped: every child's receive is posted before the
/// local fold runs, so child partials queue while this node still computes,
/// and each interior node folds them in fixed mask order as they complete.
/// `fold` computes this node's own partial (the threaded local reduction);
/// non-root ranks return a default T.
template <typename Fold, typename Op>
auto combine_tree(net::Comm& comm, Fold&& fold, Op op) {
  using T = std::remove_cvref_t<decltype(fold())>;
  const int p = comm.size();
  const int r = comm.rank();
  // Children of r are r + 2^k for each k below r's lowest set bit; the
  // parent link is r - lowest_set_bit(r).
  std::vector<net::PendingRecv> children;
  int parent = -1, parent_round = 0;
  int round = 0;
  for (int mask = 1; mask < p; mask <<= 1, ++round) {
    if (r & mask) {
      parent = r - mask;
      parent_round = round;
      break;
    }
    if (r + mask < p) {
      children.push_back(comm.irecv(r + mask, kTagPartial + round));
    }
  }
  T acc = fold();
  // Fixed fold order (ascending mask = ascending contiguous rank block),
  // the determinism contract shared with Comm::reduce.
  for (auto& child : children) {
    acc = op(std::move(acc), child.get<T>());
  }
  if (parent >= 0) {
    comm.send(parent, kTagPartial + parent_round, acc);
    return T{};
  }
  return acc;
}

}  // namespace detail

/// Distributed reduction. `init` must be an identity of `op`. Returns the
/// result on rank 0; other ranks get a default-constructed T.
template <typename MakeIter, typename T, typename Op>
T reduce(net::Comm& comm, MakeIter&& make, T init, Op op) {
  auto local = detail::scatter_chunks(comm, make);
  // Overlapped combine: child partials are claimed while the local threaded
  // fold runs; parenthesization matches Comm::reduce bit for bit.
  return detail::combine_tree(
      comm, [&] { return core::reduce(local, std::move(init), op); }, op);
}

/// Distributed sum (rank 0 gets the result).
template <typename MakeIter>
auto sum(net::Comm& comm, MakeIter&& make) {
  using T = typename decltype(make())::value_type;
  return reduce(comm, make, T{}, [](T a, const T& b) { return a + b; });
}

/// Distributed minimum (rank 0 gets the result; iterator must be non-empty
/// on at least the root's own chunk for the fold seed to exist on every
/// node — use reduce with an explicit bound for sparse cases).
template <typename MakeIter>
auto minimum(net::Comm& comm, MakeIter&& make) {
  using T = typename decltype(make())::value_type;
  auto local = detail::scatter_chunks(comm, make);
  // Per-node threaded minimum over a possibly-empty chunk: the optional
  // carries "no elements" through both the thread pool and the reduce tree.
  std::optional<T> part = core::minimum_partial(local);
  auto combined = comm.reduce(
      part,
      [](std::optional<T> a, std::optional<T> b) {
        if (!a) return b;
        if (!b) return a;
        return *b < *a ? b : a;
      },
      0);
  if (comm.rank() != 0) return T{};
  TRIOLET_CHECK(combined.has_value(), "minimum of an empty iterator");
  return *combined;
}

/// Distributed maximum (rank 0 gets the result).
template <typename MakeIter>
auto maximum(net::Comm& comm, MakeIter&& make) {
  using T = typename decltype(make())::value_type;
  auto local = detail::scatter_chunks(comm, make);
  std::optional<T> part = core::maximum_partial(local);
  auto combined = comm.reduce(
      part,
      [](std::optional<T> a, std::optional<T> b) {
        if (!a) return b;
        if (!b) return a;
        return *a < *b ? b : a;
      },
      0);
  if (comm.rank() != 0) return T{};
  TRIOLET_CHECK(combined.has_value(), "maximum of an empty iterator");
  return *combined;
}

/// Distributed arithmetic mean (rank 0 gets the result; 0.0 when empty).
template <typename MakeIter>
double average(net::Comm& comm, MakeIter&& make) {
  auto local = detail::scatter_chunks(comm, make);
  auto part = core::average_partial(local);
  auto combined = comm.reduce(
      part,
      [](std::pair<double, index_t> a, std::pair<double, index_t> b) {
        return std::pair<double, index_t>{a.first + b.first,
                                          a.second + b.second};
      },
      0);
  if (comm.rank() != 0) return 0.0;
  return combined.second == 0
             ? 0.0
             : combined.first / static_cast<double>(combined.second);
}

/// Distributed element count.
template <typename MakeIter>
index_t count(net::Comm& comm, MakeIter&& make) {
  auto local = detail::scatter_chunks(comm, make);
  index_t partial = core::count(local);
  return comm.reduce(partial, [](index_t a, index_t b) { return a + b; }, 0);
}

namespace detail {

/// Elementwise-sum combiner for partial histograms/grids. Applied at each
/// interior node of the reduce tree, so partial arrays merge pairwise down
/// log2(P) levels instead of all P accumulating at the root.
template <typename A>
A sum_arrays(A a, const A& b) {
  TRIOLET_CHECK(a.size() == b.size(), "partial histogram size mismatch");
  auto* pa = a.data();
  const auto* pb = b.data();
  const index_t n = a.size();
  for (index_t i = 0; i < n; ++i) pa[i] += pb[i];
  return a;
}

}  // namespace detail

/// Distributed integer histogram: one threaded histogram per node, partial
/// histograms combined along the reduce tree ("a distributed reduction,
/// which performs one threaded reduction per node, which sequentially
/// builds one histogram per thread", §3.4).
template <typename MakeIter>
Array1<std::int64_t> histogram(net::Comm& comm, index_t nbins,
                               MakeIter&& make) {
  auto local = detail::scatter_chunks(comm, make);
  return detail::combine_tree(
      comm, [&] { return core::histogram(nbins, local); },
      detail::sum_arrays<Array1<std::int64_t>>);
}

/// Distributed floating-point histogram (cutcp's pattern). The output-grid
/// summation dominates cutcp's scaling (paper §4.5); combining partial
/// grids pairwise along the binomial reduce tree caps the root's share at
/// ceil(log2 P) grid receives + sums instead of P-1.
template <typename F, typename MakeIter>
Array1<F> float_histogram(net::Comm& comm, index_t ncells, MakeIter&& make) {
  auto local = detail::scatter_chunks(comm, make);
  return detail::combine_tree(
      comm, [&] { return core::float_histogram<F>(ncells, local); },
      detail::sum_arrays<Array1<F>>);
}

/// Distributed materialization of a 1D indexer: node chunks are built with
/// threads, gathered along the binomial tree, and block-copied into place
/// at the root. Each part is a contiguous base-offset-tagged range, so
/// assembly is one std::copy per part (the serializer already moves the
/// payload as one block for trivially copyable V).
template <typename MakeIter>
auto build_array1(net::Comm& comm, MakeIter&& make) {
  auto local = detail::scatter_chunks(comm, make);
  using V = typename decltype(local)::value_type;
  Array1<V> part = core::build_array1(local);
  std::vector<Array1<V>> parts = comm.gather(part, 0);
  if (comm.rank() != 0) return Array1<V>{};
  index_t lo = parts.front().lo(), hi = parts.front().hi();
  for (const auto& p : parts) {
    lo = std::min(lo, p.lo());
    hi = std::max(hi, p.hi());
  }
  Array1<V> out(lo, std::vector<V>(static_cast<std::size_t>(hi - lo)));
  for (const auto& p : parts) {
    std::copy_n(p.data(), static_cast<std::size_t>(p.size()),
                out.data() + (p.lo() - lo));
  }
  return out;
}

/// Distributed materialization of a 2D indexer via block decomposition:
/// each node computes one rectangular block (threads fill it in place) and
/// the root assembles the full matrix. With an outerproduct iterator this
/// is the paper's 2D block-distributed sgemm.
template <typename MakeIter>
auto build_array2(net::Comm& comm, MakeIter&& make) {
  // scatter_chunks dispatches on the domain type: a Dim2 domain splits into
  // the near-square block grid of core::split_blocks(Dim2, nodes).
  auto local = detail::scatter_chunks(comm, make);
  using V = typename decltype(local)::value_type;
  core::Block2<V> block = core::build_block2(local);
  std::vector<core::Block2<V>> blocks = comm.gather(block, 0);
  if (comm.rank() != 0) return Array2<V>{};
  core::Dim2 full{};
  bool first = true;
  for (const auto& b : blocks) {
    if (first) {
      full = b.dom;
      first = false;
    } else {
      full.y0 = std::min(full.y0, b.dom.y0);
      full.y1 = std::max(full.y1, b.dom.y1);
      full.x0 = std::min(full.x0, b.dom.x0);
      full.x1 = std::max(full.x1, b.dom.x1);
    }
  }
  TRIOLET_CHECK(full.x0 == 0, "build_array2 needs a full-width 2D domain");
  Array2<V> out(full.y0, full.rows(), full.cols(), std::vector<V>(
      static_cast<std::size_t>(full.size())));
  // Blocks are row-major over their own domain: copy one contiguous row
  // segment at a time instead of indexing element by element.
  for (const auto& b : blocks) {
    const index_t bw = b.dom.cols();
    if (bw == 0) continue;
    for (index_t y = b.dom.y0; y < b.dom.y1; ++y) {
      const V* src = b.data.data() +
                     static_cast<std::size_t>((y - b.dom.y0) * bw);
      std::copy_n(src, static_cast<std::size_t>(bw), &out(y, b.dom.x0));
    }
  }
  return out;
}

// -- scheduled variants -------------------------------------------------------
//
// Every consumer above also accepts a sched::SchedOptions to choose how
// chunks map to ranks (src/sched/): kStatic pushes one pre-assigned run per
// rank, kGuided/kDynamic run the demand-driven request/grant protocol.
// These overloads delegate to the scheduler for *all* policies — including
// kStatic — so the decomposition is identical across policies (outer-axis
// atoms; for 2D domains that means row bands rather than the near-square
// block grid of the no-options overloads above).
//
// With opts.streaming (kGuided/kDynamic), each granted chunk executes on
// the rank's node pool via core::StreamingConsumer instead of inline on
// the rank thread, so chunk k computes while grant k+1 is on the wire.
// Streaming changes where a chunk runs, never what is folded: kOrdered
// results stay bitwise identical with it on or off.

/// Options for the measuring scheduler (SchedulePolicy::kAuto,
/// src/sched/tuner.hpp): the first three rounds of the keyed job audit
/// kStatic, kGuided and kDynamic, and every later round runs whichever
/// measured fastest — zero per-workload flags. Skeletons that pass the same
/// `tune_key` on the same Comm share one tuner, so the several reductions
/// of one iterative job share one audit; DistArray::tune_key() /
/// DistContext::tune_key() are the natural keys for resident-data loops.
inline sched::SchedOptions auto_options(std::uint64_t tune_key = 0) {
  sched::SchedOptions opts;
  opts.policy = sched::SchedulePolicy::kAuto;
  opts.tune_key = tune_key;
  return opts;
}

/// Distributed reduction under an explicit schedule policy.
template <typename MakeIter, typename T, typename Op>
T reduce(net::Comm& comm, MakeIter&& make, T init, Op op,
         const sched::SchedOptions& opts) {
  return sched::map_reduce(comm, std::forward<MakeIter>(make),
                           std::move(init), op, opts);
}

/// Distributed sum under an explicit schedule policy.
template <typename MakeIter>
auto sum(net::Comm& comm, MakeIter&& make, const sched::SchedOptions& opts) {
  return sched::sum(comm, std::forward<MakeIter>(make), opts);
}

/// Distributed element count under an explicit schedule policy.
template <typename MakeIter>
index_t count(net::Comm& comm, MakeIter&& make,
              const sched::SchedOptions& opts) {
  return sched::count(comm, std::forward<MakeIter>(make), opts);
}

/// Distributed integer histogram under an explicit schedule policy.
template <typename MakeIter>
Array1<std::int64_t> histogram(net::Comm& comm, index_t nbins,
                               MakeIter&& make,
                               const sched::SchedOptions& opts) {
  return sched::histogram(comm, nbins, std::forward<MakeIter>(make), opts);
}

/// Distributed floating-point histogram under an explicit schedule policy.
template <typename F, typename MakeIter>
Array1<F> float_histogram(net::Comm& comm, index_t ncells, MakeIter&& make,
                          const sched::SchedOptions& opts) {
  return sched::float_histogram<F>(comm, ncells, std::forward<MakeIter>(make),
                                   opts);
}

/// Distributed 1D materialization under an explicit schedule policy.
template <typename MakeIter>
auto build_array1(net::Comm& comm, MakeIter&& make,
                  const sched::SchedOptions& opts) {
  return sched::build_array1(comm, std::forward<MakeIter>(make), opts);
}

/// Distributed 2D materialization under an explicit schedule policy
/// (row-band decomposition; the domain must still be full-width).
template <typename MakeIter>
auto build_array2(net::Comm& comm, MakeIter&& make,
                  const sched::SchedOptions& opts) {
  return sched::build_array2(comm, std::forward<MakeIter>(make), opts);
}

}  // namespace triolet::dist
