#pragma once

// Measurement-driven autotuning for the demand scheduler
// (SchedulePolicy::kAuto).
//
// kAuto picks the scheduling policy of an iterative job by the clock, not by
// a model:
//
//   audit    the first three rounds of a tuned job run kStatic, kGuided and
//            kDynamic, in that order, each with the caller's grain, combine,
//            prefetch and streaming. Every audit round ends in one small
//            allreduce that agrees on the round's max-over-ranks wall time
//            and the root's extent.
//   commit   after the third audit round the tuner commits to the policy
//            whose audit round was fastest. Committed rounds run no
//            collective, so the steady state pays nothing for the tuner.
//
// A change of extent while auditing (a different job shape under the same
// key) discards the audit and restarts it from kStatic. Committed is
// terminal for the tuner's lifetime: recreate the tuner, or use a fresh
// tune_key, to re-tune a changed job.
//
// Determinism: every decision is a pure function of allreduced values, so
// all ranks commit to the same policy without a broadcast.
//
// kOrdered safety: the tuner never touches the grain, and resolve_grain does
// not depend on the policy, so the atom decomposition — and therefore every
// kOrdered result — is bitwise identical to every manual configuration.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "net/comm.hpp"
#include "sched/policy.hpp"

namespace triolet::sched {

class AutoTuner;

/// The implicit registry run_chunks keeps in Comm::sched_state() when
/// SchedOptions::tuner is null: one AutoTuner per tune_key, living as long
/// as the Comm, so iterative jobs accumulate rounds with zero caller state.
/// `mu` guards the map itself: under the service layer several batched jobs
/// can share one Comm, and a Comm's streamed pool tasks may race the rank
/// thread on first-touch creation. Entries are stable (std::map), so the
/// returned references stay valid without holding the lock.
struct TunerRegistry {
  std::mutex mu;
  std::map<std::uint64_t, AutoTuner> jobs;
};

/// Per-rank autotuner state for one logical job. Rank-local, but every
/// decision is a pure function of allreduced round walls, so all ranks'
/// tuners stay in lockstep (see header comment). Used by run_chunks via
/// SchedulePolicy::kAuto; usable directly for inspection in tests/benches.
class AutoTuner {
 public:
  /// The policies the audit rounds run, in order.
  static constexpr std::array<SchedulePolicy, 3> kAuditOrder{
      SchedulePolicy::kStatic, SchedulePolicy::kGuided,
      SchedulePolicy::kDynamic};

  /// Auditing (the next round measures a policy) or committed (terminal).
  enum class PickMode { kAudit, kCommitted };

  /// Completed rounds (finish_round calls).
  int rounds() const { return rounds_; }
  /// The configuration the next round will run (valid after one round).
  const SchedOptions& pick() const { return pick_; }
  bool have_pick() const { return have_pick_; }
  PickMode pick_mode() const { return mode_; }
  /// Wall seconds of the last round: max over ranks while auditing, this
  /// rank's own clock once committed (committed rounds agree on nothing).
  double last_measured_seconds() const { return measured_; }
  /// What the configuration that ran the last round measured in its own
  /// audit round; 0 while auditing. Against last_measured_seconds() this
  /// reads as drift of the committed policy.
  double last_predicted_seconds() const { return predicted_; }
  /// Outer extent of the job as seen by the root (after one audit round).
  index_t extent() const { return extent_; }

  /// Resolves this round's concrete options from the user's kAuto options:
  /// the next audit policy, or the committed one, with every other knob the
  /// caller's. Never returns kAuto.
  SchedOptions begin_round(const SchedOptions& user);

  /// Round finish. While auditing this is collective: the ranks allreduce
  /// (max wall, root extent) and every rank records the identical figure.
  /// `root_extent` is the job's outer extent on rank 0, -1 elsewhere.
  void finish_round(net::Comm& comm, double wall_seconds,
                    index_t root_extent);

 private:
  SchedOptions next_options() const;

  int rounds_ = 0;
  std::size_t next_ = 0;  // kAuditOrder index of the next audit round
  std::size_t best_ = 0;  // kAuditOrder index of the committed policy
  index_t extent_ = -1;
  bool have_pick_ = false;
  PickMode mode_ = PickMode::kAudit;
  SchedOptions user_{};  // the kAuto options begin_round saw
  SchedOptions pick_{};
  std::array<double, 3> audit_{};  // max-over-ranks wall per audited policy
  double measured_ = 0.0;
  double predicted_ = 0.0;
};

namespace detail {

/// Resolves the tuner for one run_chunks call: the caller-owned one when
/// SchedOptions::tuner is set, else the Comm-registry entry for tune_key
/// (created on first use).
inline AutoTuner& tuner_for(net::Comm& comm, const SchedOptions& opts) {
  if (opts.tuner != nullptr) return *opts.tuner;
  auto& slot = comm.sched_state();
  if (!slot) slot = std::make_shared<TunerRegistry>();
  auto* reg = static_cast<TunerRegistry*>(slot.get());
  // Fold the Comm's job identity (its tag-lease base; 0 outside the service
  // layer) into the registry key so two service jobs that happen to share a
  // Comm and a tune_key (e.g. both defaulted to 0) still get separate
  // tuners — one job's measurements must never steer another's picks. The
  // fold is a pure function of SPMD-uniform state, so all ranks agree.
  const std::uint64_t key =
      opts.tune_key ^ (comm.job_key() * 0x9E3779B97F4A7C15ull);
  std::lock_guard<std::mutex> lock(reg->mu);
  return reg->jobs[key];
}

}  // namespace detail

}  // namespace triolet::sched
