#include "sched/tuner.hpp"

#include <algorithm>
#include <utility>

#include "support/macros.hpp"

namespace triolet::sched {

SchedOptions AutoTuner::next_options() const {
  SchedOptions out = user_;
  out.tuner = nullptr;  // the returned options are concrete, not re-tuned
  out.policy = kAuditOrder[mode_ == PickMode::kCommitted ? best_ : next_];
  return out;
}

SchedOptions AutoTuner::begin_round(const SchedOptions& user) {
  TRIOLET_CHECK(user.policy == SchedulePolicy::kAuto,
                "AutoTuner::begin_round expects kAuto options");
  user_ = user;
  return next_options();
}

void AutoTuner::finish_round(net::Comm& comm, double wall_seconds,
                             index_t root_extent) {
  rounds_ += 1;
  if (mode_ == PickMode::kCommitted) {
    // No decision is left to make, so no collective: mode_ moves in
    // lockstep on every rank, which keeps skipping it globally consistent.
    measured_ = wall_seconds;
    predicted_ = audit_[best_];
    return;
  }
  // The one collective of an audit round. Non-root ranks report extent -1,
  // so the max is the root's extent.
  const auto agreed = comm.allreduce(
      std::pair<double, index_t>{wall_seconds, root_extent},
      [](const std::pair<double, index_t>& a,
         const std::pair<double, index_t>& b) {
        return std::pair<double, index_t>{std::max(a.first, b.first),
                                          std::max(a.second, b.second)};
      });
  measured_ = agreed.first;
  predicted_ = 0.0;
  const index_t extent = agreed.second;
  if (extent > 0) {  // an empty job measures nothing
    if (extent_ >= 0 && extent != extent_) {
      // A different job shape under the same key: the walls audited so far
      // priced another job. Start over from kStatic.
      audit_ = {};
      next_ = 0;
    } else {
      audit_[next_] = measured_;
      next_ += 1;
    }
    extent_ = extent;
    if (next_ == kAuditOrder.size()) {
      // Ties go to the earlier, simpler policy.
      best_ = static_cast<std::size_t>(
          std::min_element(audit_.begin(), audit_.end()) - audit_.begin());
      mode_ = PickMode::kCommitted;
    }
  }
  pick_ = next_options();
  have_pick_ = true;
}

}  // namespace triolet::sched
