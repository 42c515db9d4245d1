#pragma once

// Weighted deficit-round-robin arbitration of demand-scheduler grants.
//
// Without arbitration, the root's grant-service loop issues work in request
// arrival order: a large kmeans whose workers request back-to-back can
// monopolize the service loop while a stream of small histogram jobs sits
// queued — exactly the latency profile a multi-tenant service cannot have.
// The GrantArbiter sits behind sched::GrantGate: every active job's root
// calls acquire(job, items) immediately before issuing a grant of `items`
// outer-domain units, and the arbiter blocks the caller until the job's
// deficit-round-robin turn.
//
// Classic DRR, adapted to unsplittable grants: the ring's head job is
// replenished quantum x weight credit when the rotation reaches it with
// work pending (and reset to zero credit when idle — no hoarding); a grant
// is issued whenever the head is the requester and its deficit is positive.
// A grant larger than the remaining deficit still issues — grants are not
// splittable here — driving the deficit negative, so the job "borrows" and
// then sits out rotations until replenishment pays the debt back: weighted
// fairness holds over a window of a few quanta even for coarse grants.
// Rotation skips idle jobs, so a lone active job never blocks
// (work-conserving), and a job not registered at all passes through — the
// single-job fast path costs one mutex acquisition.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "sched/policy.hpp"
#include "support/timing.hpp"

namespace triolet::svc {

/// Per-job arbitration counters (retained after the job unregisters so
/// results can be reported with the job).
struct FairShareStats {
  std::int64_t acquires = 0;        // before_grant calls that went through
  std::int64_t acquired_items = 0;  // outer-domain units those covered
  std::int64_t waits = 0;           // acquires that had to block
  double wait_seconds = 0.0;        // total time blocked in acquire
};

class GrantArbiter {
 public:
  /// `quantum_items` is the credit one rotation grants a weight-1 job, in
  /// outer-domain units.
  explicit GrantArbiter(std::int64_t quantum_items = 1 << 12);

  /// Registers `job` with the given weight (credit per rotation scales
  /// linearly with it). One registration per job id.
  void add_job(std::uint64_t job, int weight);

  /// Unregisters `job`; its stats remain readable. Wakes waiters so the
  /// rotation can move past the vacated slot.
  void remove_job(std::uint64_t job);

  /// Blocks until it is `job`'s turn to issue a grant of `items` units.
  /// Called on the job root's rank thread (at most one caller per job).
  /// Unregistered jobs pass straight through. Returns the grant's ordinal
  /// among every grant this arbiter has issued, so callers can recover the
  /// exact issue order across jobs.
  std::int64_t acquire(std::uint64_t job, std::int64_t items);

  /// True while `job`'s root is blocked in acquire, i.e. while the job
  /// counts as backlogged for the rotation.
  bool waiting(std::uint64_t job) const;

  FairShareStats job_stats(std::uint64_t job) const;
  int active_jobs() const;
  std::int64_t quantum_items() const { return quantum_; }

 private:
  struct Entry {
    std::uint64_t id = 0;
    int weight = 1;
    std::int64_t deficit = 0;
    std::int64_t pending = 0;  // >0 while the job's root waits in acquire
  };

  Entry* find_locked(std::uint64_t job);
  /// Advances head to the next entry, applying the DRR credit rule to the
  /// entry the head lands on. Notifies waiters: the thread whose turn
  /// arrived may be blocked while another thread rotates.
  void rotate_locked();

  const std::int64_t quantum_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Entry> ring_;
  std::size_t head_ = 0;
  std::int64_t issued_ = 0;  // grants issued so far, across all jobs
  std::unordered_map<std::uint64_t, FairShareStats> stats_;
};

/// The sched::GrantGate adapter binding one job id to an arbiter; install
/// via SchedOptions::gate (svc::JobContext::sched_options does it).
class JobGate final : public sched::GrantGate {
 public:
  JobGate() = default;
  JobGate(GrantArbiter* arbiter, std::uint64_t job)
      : arbiter_(arbiter), job_(job) {}

  void before_grant(sched::index_t items) override {
    if (arbiter_) arbiter_->acquire(job_, items);
  }

 private:
  GrantArbiter* arbiter_ = nullptr;
  std::uint64_t job_ = 0;
};

}  // namespace triolet::svc
