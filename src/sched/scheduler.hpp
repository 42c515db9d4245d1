#pragma once

// Demand-driven distributed chunk scheduler (the "sched" subsystem).
//
// The static split of dist/skeletons.hpp assigns one contiguous block per
// rank up front — ideal when iterations cost the same, idle-heavy when the
// iteration space is skewed (tpacf's triangular loops, filtered domains).
// This layer replaces the *mapping* of work to ranks with a request/grant
// protocol while reusing every other piece of the two-level machinery:
//
//   1. The root subdivides the iterator's domain into a fixed sequence of
//      atomic chunks ("atoms": `grain` outer-axis units, core::outer_slice).
//   2. Worker ranks ask for work by sending a request on the invocation
//      epoch's request tag (net::sched_request_tag; the pair of protocol
//      tags rotates per run_chunks call so back-to-back scheduled skeletons
//      cannot alias across rounds); the root's service loop receives requests
//      with kAnySource and answers each with a Grant: a run of consecutive
//      atoms, sliced and serialized exactly as scatter_chunks slices static
//      chunks (sub-arrays only). Run length is the policy knob — everything
//      per rank (kStatic), geometrically decaying runs (kGuided), or one
//      atom (kDynamic).
//   3. The root interleaves serving with its own execution: while requests
//      are pending it serves; otherwise it self-issues one atom at a time,
//      staying responsive (a grant is never delayed by more than one atom
//      of root compute).
//   4. When the queue drains, each worker's next request is answered with a
//      `done` grant; workers then enter the combine step. Partial results
//      combine along the existing binomial reduce tree (CombineMode::kTree)
//      or by an atom-ordered gather + left fold (CombineMode::kOrdered,
//      bitwise reproducible across policies — see policy.hpp).
//
// Protocol traffic, grant counts, and per-rank busy/idle time are recorded
// in CommStats::sched so benchmarks can report imbalance and control
// overhead (docs/INTERNALS.md "Distributed scheduling").

#include <algorithm>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/consume.hpp"
#include "core/skeletons.hpp"
#include "net/comm.hpp"
#include "net/residency.hpp"
#include "runtime/parallel.hpp"
#include "sched/policy.hpp"
#include "sched/tuner.hpp"
#include "support/timing.hpp"

namespace triolet::sched {

/// One scheduler message from root to a worker: either a run of atoms
/// [atom_lo, atom_lo + atom_n) with the matching iterator slice, or the
/// `done` dismissal that ends the worker's request loop. `grain` ships with
/// every grant because only the root resolves it (workers never see the
/// global extent).
template <typename It>
struct Grant {
  std::uint8_t done = 0;
  index_t atom_lo = 0;
  index_t atom_n = 0;
  index_t grain = 0;
  It task{};
};

namespace detail {

/// Executes `run` bookkeeping: calls on_chunk and charges busy time /
/// chunk / item counters to this rank's scheduler stats.
template <typename It, typename OnChunk>
void execute_run(net::Comm& comm, const It& run, index_t atom_lo,
                 index_t atom_n, index_t grain, OnChunk&& on_chunk) {
  if (atom_n <= 0) return;
  Stopwatch sw;
  on_chunk(run, atom_lo, atom_n, grain);
  auto& s = comm.sched_stats();
  s.busy_seconds += sw.seconds();
  s.chunks_executed += 1;
  s.items_executed += core::outer_extent(run.domain());
}

/// Streamed counterpart of execute_run: hands the grant to the pool via
/// `stream` and returns immediately (the receiving thread goes back to the
/// protocol). Chunk/item counters are charged here; busy time is folded in
/// from the stream once it drains.
template <typename It, typename OnChunk>
void stream_run(net::Comm& comm, core::StreamingConsumer& stream, Grant<It> g,
                const OnChunk& on_chunk) {
  if (g.atom_n <= 0) return;
  auto& s = comm.sched_stats();
  s.chunks_executed += 1;
  s.items_executed += core::outer_extent(g.task.domain());
  s.streamed_grants += 1;
  stream.submit([g = std::move(g), &on_chunk] {
    on_chunk(g.task, g.atom_lo, g.atom_n, g.grain);
  });
}

/// Charges the delta of the current pool's counters across one run_chunks
/// call to CommStats::pool, surfacing intra-node steal/park/wake behavior
/// next to the protocol traffic it served.
class PoolDeltaScope {
 public:
  explicit PoolDeltaScope(net::Comm& comm)
      : comm_(comm), pool_(runtime::current_pool()), before_(pool_.stats()) {}
  ~PoolDeltaScope() {
    const runtime::PoolStats after = pool_.stats();
    auto& p = comm_.pool_stats();
    p.tasks_executed += after.tasks_executed - before_.tasks_executed;
    p.tasks_stolen += after.tasks_stolen - before_.tasks_stolen;
    p.splits += after.splits - before_.splits;
    p.steal_attempts += after.steal_attempts - before_.steal_attempts;
    p.parks += after.parks - before_.parks;
    p.wakes += after.wakes - before_.wakes;
  }
  PoolDeltaScope(const PoolDeltaScope&) = delete;
  PoolDeltaScope& operator=(const PoolDeltaScope&) = delete;

 private:
  net::Comm& comm_;
  runtime::ThreadPool& pool_;
  runtime::PoolStats before_;
};

}  // namespace detail

namespace detail {

/// The scheduler body for one concrete policy (kStatic/kGuided/kDynamic).
/// Factored out of run_chunks so the kAuto wrapper can re-enter with its
/// extent-recording `make` without run_chunks calling *itself*: the wrapper
/// closure is a fresh template type, so a self-call would instantiate
/// run_chunks without bound.
template <typename MakeIter, typename OnChunk>
void run_chunks_concrete(net::Comm& comm, MakeIter&& make,
                         const SchedOptions& opts, OnChunk&& on_chunk) {
  using It = std::remove_cvref_t<decltype(make())>;
  const int p = comm.size();
  auto& sched = comm.sched_stats();
  detail::PoolDeltaScope pool_delta(comm);

  // Streamed grant execution: created only for the demand-driven policies
  // (kStatic pushes one grant per rank up front — nothing to pipeline).
  std::optional<core::StreamingConsumer> stream;
  if (opts.streaming && opts.policy != SchedulePolicy::kStatic) {
    stream.emplace(runtime::current_pool());
  }
  // Backpressure: stop requesting (worker) / self-issuing (root) while more
  // than ~2 tasks per worker are already in flight; the receiving thread
  // helps execute instead. Bounds queue growth without ever idling the
  // pool.
  const std::int64_t throttle =
      stream ? 2 * static_cast<std::int64_t>(stream->pool().size()) : 0;

  // This invocation's epoch-rotated protocol tags. Without the rotation a
  // fast worker's next-round request reaching the root's drain loop would be
  // answered with this round's `done`, starving a slow worker (see
  // tags.hpp). Claimed on every rank: run_chunks is collective.
  const int epoch = comm.next_sched_epoch();
  const int tag_request = net::sched_request_tag(epoch);
  const int tag_grant = net::sched_grant_tag(epoch);

  // Grant-payload residency (see SchedOptions::residency): identical on
  // every rank — the iterator type, the option, and the process-global
  // budget are all SPMD-uniform — so sender and receivers agree on whether
  // the protocol is in play without negotiating.
  const bool resident = core::iter_uses_residency_v<It> && opts.residency &&
                        comm.residency_enabled();

  if (comm.rank() != 0) {
    // Decode grants under this rank's slice cache for the whole loop: an
    // inline slice is stored for future rounds, a token resolves from the
    // cache (fetching from the root on miss/corruption).
    std::optional<net::ResidencyDecodeScope> rscope;
    if (resident) rscope.emplace(comm, /*owner=*/0);
    if (opts.policy == SchedulePolicy::kStatic) {
      // Static: exactly one pre-assigned grant, no requests. Received
      // through a handle so the serialized payload size is observable in
      // grant_payload_bytes.
      net::PendingRecv pending = comm.irecv(0, tag_grant);
      Grant<It> g = pending.get<Grant<It>>();
      sched.grants_received += 1;
      sched.grant_payload_bytes +=
          static_cast<std::int64_t>(pending.message().payload.size());
      sched.granted_items += core::outer_extent(g.task.domain());
      detail::execute_run(comm, g.task, g.atom_lo, g.atom_n, g.grain,
                          on_chunk);
      return;
    }
    // Demand-driven: request until dismissed. At most one request is ever
    // outstanding (the termination invariant the root's done-counting
    // relies on); prefetch only moves *when* it is posted.
    auto post_request = [&] {
      comm.send(0, tag_request, std::uint8_t{0});
      sched.requests_sent += 1;
      sched.control_messages += 1;
      sched.control_bytes += 1;
      return comm.irecv(0, tag_grant);
    };
    net::PendingRecv next_grant = post_request();
    while (true) {
      // Sampled before the wait: was the pool still chewing on earlier
      // chunks when this rank went back to receiving? That wait time is
      // overlap, even if the chunks finish mid-wait.
      const bool busy_while_receiving = stream && stream->pending() > 0;
      Stopwatch wait;
      Grant<It> g = next_grant.get<Grant<It>>();
      const double waited = wait.seconds();
      sched.idle_seconds += waited;
      if (busy_while_receiving) sched.overlap_seconds += waited;
      sched.steal_waits += 1;
      if (g.done) break;
      sched.grants_received += 1;
      // Receiver-side payload accounting: serialized bytes over granted
      // units is the measured bytes per item (residency tokens show up
      // here as genuinely small payloads).
      sched.grant_payload_bytes +=
          static_cast<std::int64_t>(next_grant.message().payload.size());
      sched.granted_items += core::outer_extent(g.task.domain());
      if (stream) {
        // Hand the grant to the pool and immediately request the next one;
        // when too much is queued, help execute before requesting (the
        // request is the throttle: at most one is ever outstanding).
        detail::stream_run(comm, *stream, std::move(g), on_chunk);
        while (stream->pending() > throttle) {
          if (!stream->help()) std::this_thread::yield();
        }
        next_grant = post_request();
      } else if (opts.prefetch) {
        // Double-buffered grants: the request for run k+1 is already in
        // flight while run k executes, hiding the service round trip
        // behind compute.
        next_grant = post_request();
        detail::execute_run(comm, g.task, g.atom_lo, g.atom_n, g.grain,
                            on_chunk);
      } else {
        detail::execute_run(comm, g.task, g.atom_lo, g.atom_n, g.grain,
                            on_chunk);
        next_grant = post_request();
      }
    }
    if (stream) {
      stream->drain();
      sched.busy_seconds += stream->busy_seconds();
    }
    return;
  }

  // -- root -------------------------------------------------------------------
  It it = make();
  const auto dom = it.domain();
  const index_t extent = core::outer_extent(dom);
  // The cost-variance hint is a pure function of the domain (per-unit value
  // weights for segmented sources, 0 for dense ones), so the resolved grain
  // — and with it the kOrdered atom decomposition — stays policy-independent.
  const index_t grain =
      resolve_grain(extent, p, opts.grain, core::outer_cost_cv(dom));
  const index_t natoms = atom_count(extent, grain);

  // Atoms [a, b) as a sliced sub-iterator (contiguous outer units, last
  // atom clamped to the extent).
  auto slice_run = [&](index_t a, index_t b) {
    const index_t u0 = std::min(a * grain, extent);
    const index_t u1 = std::min(b * grain, extent);
    return it.slice(core::outer_slice(dom, u0, u1));
  };
  // Outer-domain items atoms [a, b) cover (the fair-share currency).
  auto units_of = [&](index_t a, index_t b) {
    return std::min(b * grain, extent) - std::min(a * grain, extent);
  };
  // Fair-share gate (SchedOptions::gate): called before every grant and
  // every root self-issue, root thread only. Under the service layer this
  // blocks until the job's deficit-round-robin turn, so a large job's grant
  // stream cannot starve concurrent small jobs.
  auto gate_items = [&](index_t a, index_t b) {
    if (opts.gate) opts.gate->before_grant(units_of(a, b));
  };

  // Grant transport: the send completes in the call (the transport copies
  // or takes over the payload), so the root goes straight back to serving
  // or computing. Resident grants serialize under the per-destination
  // encode scope — token substitution must see grants in send order to
  // mirror the worker's cache.
  if (resident) net::install_residency_fetch_service(comm);
  auto send_grant = [&](int r, const Grant<It>& g) {
    std::optional<net::ResidencyEncodeScope> scope;
    if (resident) {
      scope.emplace(comm, r,
                    core::iter_is_fused_view_v<It> ? &comm.view_stats()
                                                   : nullptr);
    }
    comm.send(r, tag_grant, g);
  };

  if (opts.policy == SchedulePolicy::kStatic) {
    // The split_blocks schedule expressed in atoms: rank r gets atoms
    // [natoms*r/p, natoms*(r+1)/p), pushed without any request traffic.
    for (int r = 1; r < p; ++r) {
      const index_t a = natoms * r / p;
      const index_t b = natoms * (r + 1) / p;
      gate_items(a, b);
      send_grant(r, Grant<It>{0, a, b - a, grain, slice_run(a, b)});
      sched.grants_served += 1;
      sched.control_messages += 1;
      sched.control_bytes += kGrantHeaderBytes;
    }
    const index_t b0 = natoms * 1 / p;
    gate_items(0, b0);
    detail::execute_run(comm, slice_run(0, b0), 0, b0, grain, on_chunk);
    return;
  }

  // Demand-driven service loop. `next` is the queue head; the root serves
  // every pending request before self-issuing one atom, so worker wait time
  // is bounded by one atom of root compute.
  index_t next = 0;
  int done_sent = 0;
  auto serve = [&](int requester) {
    const index_t remaining = natoms - next;
    if (remaining <= 0) {
      send_grant(requester, Grant<It>{1, 0, 0, grain, {}});
      done_sent += 1;
    } else {
      const index_t n = opts.policy == SchedulePolicy::kDynamic
                            ? 1
                            : std::min(remaining, guided_run_atoms(remaining, p));
      gate_items(next, next + n);
      send_grant(requester, Grant<It>{0, next, n, grain, slice_run(next, next + n)});
      next += n;
      sched.grants_served += 1;
    }
    sched.control_messages += 1;
    sched.control_bytes += kGrantHeaderBytes;
  };

  while (next < natoms || done_sent < p - 1) {
    // Serve any pending residency fetches (cache miss / checksum repair on
    // a worker) so a fetch is never stuck behind a full atom of compute.
    comm.poll_services();
    if (next < natoms) {
      bool served = false;
      while (auto req = comm.try_recv_message(net::kAnySource,
                                              tag_request)) {
        serve(req->src);
        served = true;
      }
      if (served) continue;
      if (stream) {
        // Streamed self-issue: the root's own atoms execute on its pool,
        // so the service loop stays responsive the whole time — a grant is
        // never delayed by even one atom of root compute. Self-issue pauses
        // (and the root helps its pool) while enough is queued.
        if (stream->pending() > throttle) {
          if (!stream->help()) std::this_thread::yield();
          continue;
        }
        gate_items(next, next + 1);
        detail::stream_run(
            comm, *stream,
            Grant<It>{0, next, 1, grain, slice_run(next, next + 1)},
            on_chunk);
        next += 1;
      } else {
        // No demand right now: run one atom locally, then poll again.
        gate_items(next, next + 1);
        detail::execute_run(comm, slice_run(next, next + 1), next, 1, grain,
                            on_chunk);
        next += 1;
      }
    } else {
      // Queue drained: block for the stragglers' final requests. Streamed
      // root atoms keep computing on the pool underneath this blocking
      // receive — that compute is exactly the overlap the stream buys.
      const bool busy_while_receiving = stream && stream->pending() > 0;
      Stopwatch wait;
      net::Message req =
          comm.recv_message(net::kAnySource, tag_request);
      if (busy_while_receiving) {
        sched.overlap_seconds += wait.seconds();
      }
      serve(req.src);
    }
  }
  if (stream) {
    stream->drain();
    sched.busy_seconds += stream->busy_seconds();
  }
}

}  // namespace detail

/// The scheduler core: runs `make()`'s iterator across all ranks under
/// `opts`, invoking `on_chunk(run_iter, atom_lo, atom_n, grain)` on the
/// rank that executes each granted run. `make` is called on rank 0 only
/// (same contract as dist::scatter_chunks); `on_chunk` runs on every rank
/// for its own grants. Collective: every rank must call it.
///
/// With opts.streaming (kGuided/kDynamic), grants are handed to the rank's
/// current_pool() through a core::StreamingConsumer as they arrive, so
/// on_chunk may run on pool workers, *concurrently* with itself — callers
/// that pass streaming options must make on_chunk thread-safe. The stream
/// is drained before run_chunks returns, so results are complete either
/// way. SchedulePolicy::kAuto keeps the caller's streaming flag, so the same
/// rule holds under kAuto.
template <typename MakeIter, typename OnChunk>
void run_chunks(net::Comm& comm, MakeIter&& make, const SchedOptions& opts,
                OnChunk&& on_chunk) {
  if (opts.policy == SchedulePolicy::kAuto) {
    // Audit-only mode (sched/tuner.hpp): run the tuner's policy for this
    // round, then hand it the round's wall and the root's extent.
    AutoTuner& tuner = detail::tuner_for(comm, opts);
    index_t root_extent = -1;
    Stopwatch wall;
    detail::run_chunks_concrete(
        comm,
        [&] {
          auto it = make();
          root_extent = core::outer_extent(it.domain());
          return it;
        },
        tuner.begin_round(opts), on_chunk);
    tuner.finish_round(comm, wall.seconds(), root_extent);
    return;
  }
  detail::run_chunks_concrete(comm, make, opts, on_chunk);
}

namespace detail {

/// Elementwise-sum combine for partial histograms (mirrors
/// dist::detail::sum_arrays; duplicated to keep sched free of a dist
/// dependency — dist layers on sched, not the reverse).
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

/// Demand-scheduled distributed reduction. `init` must be an identity of
/// `op`. Rank 0 gets the result; other ranks a default T.
///
/// kTree: each rank folds its grants in arrival order, per-rank partials
/// combine along the binomial reduce tree (exact for associative +
/// commutative ops; FP parenthesization follows the chunk assignment).
/// kOrdered: one partial per atom, gathered and left-folded in atom order —
/// bitwise identical for all three policies and run-to-run (for a fixed
/// per-node thread count), the scheduler analogue of reduce_ordered.
template <typename MakeIter, typename T, typename Op>
T map_reduce(net::Comm& comm, MakeIter&& make, T init, Op op,
             const SchedOptions& opts) {
  // Every on_chunk below computes its partial outside the lock and only
  // merges under it: with opts.streaming, chunks run concurrently on pool
  // workers (the lock is uncontended on the non-streaming path).
  std::mutex mu;
  if (opts.combine == CombineMode::kOrdered) {
    std::vector<std::pair<index_t, T>> mine;
    run_chunks(comm, make, opts,
               [&](const auto& run, index_t atom_lo, index_t atom_n,
                   index_t grain) {
                 const auto rdom = run.domain();
                 const index_t run_extent = core::outer_extent(rdom);
                 std::vector<std::pair<index_t, T>> local;
                 local.reserve(static_cast<std::size_t>(atom_n));
                 for (index_t j = 0; j < atom_n; ++j) {
                   const index_t u0 = std::min(j * grain, run_extent);
                   const index_t u1 = std::min((j + 1) * grain, run_extent);
                   auto atom = core::localpar(
                       run.slice(core::outer_slice(rdom, u0, u1)));
                   local.emplace_back(atom_lo + j,
                                      core::reduce(atom, init, op));
                 }
                 std::lock_guard<std::mutex> lock(mu);
                 mine.insert(mine.end(),
                             std::make_move_iterator(local.begin()),
                             std::make_move_iterator(local.end()));
               });
    auto parts = comm.gather(mine, 0);
    if (comm.rank() != 0) return T{};
    std::vector<std::pair<index_t, T>> pieces;
    for (auto& part : parts) {
      pieces.insert(pieces.end(), std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
    }
    std::sort(pieces.begin(), pieces.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    T acc = std::move(init);
    for (auto& [idx, partial] : pieces) {
      acc = op(std::move(acc), std::move(partial));
    }
    return acc;
  }
  // kTree: per-grant partials keyed by first atom, folded in atom order
  // before entering the reduce tree. A rank's grants always carry ascending
  // atom_lo (the root issues atoms monotonically), so the sorted fold is
  // exactly the old arrival-order fold — and makes the local combine
  // independent of the completion order streaming introduces.
  std::vector<std::pair<index_t, T>> partials;
  run_chunks(comm, make, opts,
             [&](const auto& run, index_t atom_lo, index_t, index_t) {
               T part = core::reduce(core::localpar(run), init, op);
               std::lock_guard<std::mutex> lock(mu);
               partials.emplace_back(atom_lo, std::move(part));
             });
  std::sort(partials.begin(), partials.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  T acc = init;
  for (auto& [lo, partial] : partials) {
    acc = op(std::move(acc), std::move(partial));
  }
  return comm.reduce(acc, op, 0);
}

/// Demand-scheduled distributed sum (rank 0 gets the result).
template <typename MakeIter>
auto sum(net::Comm& comm, MakeIter&& make, const SchedOptions& opts) {
  using T = typename std::remove_cvref_t<decltype(make())>::value_type;
  return map_reduce(comm, make, T{},
                    [](T a, const T& b) { return a + b; }, opts);
}

/// Demand-scheduled element count (after filtering / nesting).
template <typename MakeIter>
index_t count(net::Comm& comm, MakeIter&& make, const SchedOptions& opts) {
  // Integer addition commutes exactly, so streamed chunks may merge in any
  // completion order; the atomic makes the concurrent adds safe.
  std::atomic<index_t> acc{0};
  run_chunks(comm, make, opts,
             [&](const auto& run, index_t, index_t, index_t) {
               acc.fetch_add(core::count(core::localpar(run)),
                             std::memory_order_relaxed);
             });
  return comm.reduce(acc.load(), [](index_t a, index_t b) { return a + b; },
                     0);
}

/// Demand-scheduled integer histogram: per-grant threaded partials
/// accumulate into one per-rank histogram, combined along the reduce tree.
/// Integer addition commutes exactly, so every policy returns the same
/// histogram bit for bit.
template <typename MakeIter>
Array1<std::int64_t> histogram(net::Comm& comm, index_t nbins,
                               MakeIter&& make, const SchedOptions& opts) {
  // Each chunk's histogram is built outside the lock; only the elementwise
  // merge (exact: integer adds commute) is serialized, so streamed chunks
  // can accumulate in any completion order.
  std::mutex mu;
  Array1<std::int64_t> acc(nbins, 0);
  run_chunks(comm, make, opts,
             [&](const auto& run, index_t, index_t, index_t) {
               auto part = core::histogram(nbins, core::localpar(run));
               std::lock_guard<std::mutex> lock(mu);
               acc = detail::sum_arrays(std::move(acc), part);
             });
  return comm.reduce(acc, detail::sum_arrays<Array1<std::int64_t>>, 0);
}

/// Demand-scheduled floating-point histogram (cutcp's grid pattern).
/// Accumulation order follows the chunk assignment, so results match the
/// static path to rounding, not bitwise.
template <typename F, typename MakeIter>
Array1<F> float_histogram(net::Comm& comm, index_t ncells, MakeIter&& make,
                          const SchedOptions& opts) {
  // Merge order under streaming follows chunk completion, which adds one
  // more source of rounding-level variation to the already order-dependent
  // accumulation documented above.
  std::mutex mu;
  Array1<F> acc(ncells, F{0});
  run_chunks(comm, make, opts,
             [&](const auto& run, index_t, index_t, index_t) {
               auto part = core::float_histogram<F>(ncells,
                                                    core::localpar(run));
               std::lock_guard<std::mutex> lock(mu);
               acc = detail::sum_arrays(std::move(acc), part);
             });
  return comm.reduce(acc, detail::sum_arrays<Array1<F>>, 0);
}

/// Demand-scheduled 1D materialization: every grant builds one contiguous
/// base-offset-tagged part; the root block-copies all parts into place
/// (same assembly as dist::build_array1, just many small parts instead of
/// one per rank). Elementwise output, so results are identical under every
/// policy.
template <typename MakeIter>
auto build_array1(net::Comm& comm, MakeIter&& make, const SchedOptions& opts) {
  using It = std::remove_cvref_t<decltype(make())>;
  using V = typename It::value_type;
  // Part placement is positional (each part carries its base offset), so
  // streamed completion order is irrelevant; the lock only guards the
  // vector growth.
  std::mutex mu;
  std::vector<Array1<V>> mine;
  run_chunks(comm, make, opts,
             [&](const auto& run, index_t, index_t, index_t) {
               auto part = core::build_array1(core::localpar(run));
               std::lock_guard<std::mutex> lock(mu);
               mine.push_back(std::move(part));
             });
  auto gathered = comm.gather(mine, 0);
  if (comm.rank() != 0) return Array1<V>{};
  std::vector<Array1<V>> parts;
  for (auto& g : gathered) {
    parts.insert(parts.end(), std::make_move_iterator(g.begin()),
                 std::make_move_iterator(g.end()));
  }
  if (parts.empty()) return Array1<V>{};
  index_t lo = parts.front().lo(), hi = parts.front().hi();
  for (const auto& part : parts) {
    lo = std::min(lo, part.lo());
    hi = std::max(hi, part.hi());
  }
  Array1<V> out(lo, std::vector<V>(static_cast<std::size_t>(hi - lo)));
  for (const auto& part : parts) {
    std::copy_n(part.data(), static_cast<std::size_t>(part.size()),
                out.data() + (part.lo() - lo));
  }
  return out;
}

/// Demand-scheduled 2D materialization. Grants are full-width row bands
/// (outer_slice on Dim2), so every part is a rectangular Block2 the
/// existing row-major assembly handles; unlike the static path's
/// near-square split_blocks grid, the scheduler's decomposition is 1D over
/// rows — the price of keeping the chunk queue a single sequence.
template <typename MakeIter>
auto build_array2(net::Comm& comm, MakeIter&& make, const SchedOptions& opts) {
  using It = std::remove_cvref_t<decltype(make())>;
  using V = typename It::value_type;
  // Positional assembly again: blocks carry their own rectangles.
  std::mutex mu;
  std::vector<core::Block2<V>> mine;
  run_chunks(comm, make, opts,
             [&](const auto& run, index_t, index_t, index_t) {
               auto part = core::build_block2(core::localpar(run));
               std::lock_guard<std::mutex> lock(mu);
               mine.push_back(std::move(part));
             });
  auto gathered = comm.gather(mine, 0);
  if (comm.rank() != 0) return Array2<V>{};
  std::vector<core::Block2<V>> blocks;
  for (auto& g : gathered) {
    blocks.insert(blocks.end(), std::make_move_iterator(g.begin()),
                  std::make_move_iterator(g.end()));
  }
  if (blocks.empty()) return Array2<V>{};
  core::Dim2 full = blocks.front().dom;
  for (const auto& b : blocks) {
    full.y0 = std::min(full.y0, b.dom.y0);
    full.y1 = std::max(full.y1, b.dom.y1);
    full.x0 = std::min(full.x0, b.dom.x0);
    full.x1 = std::max(full.x1, b.dom.x1);
  }
  TRIOLET_CHECK(full.x0 == 0, "build_array2 needs a full-width 2D domain");
  Array2<V> out(full.y0, full.rows(), full.cols(),
                std::vector<V>(static_cast<std::size_t>(full.size())));
  for (const auto& b : blocks) {
    const index_t bw = b.dom.cols();
    if (bw == 0) continue;
    for (index_t y = b.dom.y0; y < b.dom.y1; ++y) {
      const V* src =
          b.data.data() + static_cast<std::size_t>((y - b.dom.y0) * bw);
      std::copy_n(src, static_cast<std::size_t>(bw), &out(y, b.dom.x0));
    }
  }
  return out;
}

}  // namespace triolet::sched

namespace triolet::serial {

template <typename It>
struct use_custom_codec<triolet::sched::Grant<It>> : std::true_type {};

template <typename It>
struct Codec<triolet::sched::Grant<It>> {
  using G = triolet::sched::Grant<It>;
  static void write(ByteWriter& w, const G& g) {
    w.write_pod(g.done);
    w.write_pod(g.atom_lo);
    w.write_pod(g.atom_n);
    w.write_pod(g.grain);
    // `done` dismissals carry no task: a default-constructed iterator may
    // hold sources that should not travel (and has nothing to say anyway).
    if (!g.done) serial::write(w, g.task);
  }
  static void read(ByteReader& r, G& g) {
    g.done = r.read_pod<std::uint8_t>();
    g.atom_lo = r.read_pod<triolet::sched::index_t>();
    g.atom_n = r.read_pod<triolet::sched::index_t>();
    g.grain = r.read_pod<triolet::sched::index_t>();
    if (!g.done) serial::read(r, g.task);
  }
};

}  // namespace triolet::serial
