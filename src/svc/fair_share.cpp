#include "svc/fair_share.hpp"

#include "support/macros.hpp"

namespace triolet::svc {

GrantArbiter::GrantArbiter(std::int64_t quantum_items)
    : quantum_(quantum_items) {
  TRIOLET_CHECK(quantum_ >= 1, "fair-share quantum must be positive");
}

GrantArbiter::Entry* GrantArbiter::find_locked(std::uint64_t job) {
  for (auto& e : ring_) {
    if (e.id == job) return &e;
  }
  return nullptr;
}

void GrantArbiter::add_job(std::uint64_t job, int weight) {
  TRIOLET_CHECK(weight >= 1, "fair-share weight must be positive");
  std::lock_guard<std::mutex> lock(mu_);
  TRIOLET_CHECK(find_locked(job) == nullptr,
                "job already registered with the grant arbiter");
  ring_.push_back(Entry{job, weight, 0, 0});
  stats_.try_emplace(job);
}

void GrantArbiter::remove_job(std::uint64_t job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      if (ring_[i].id != job) continue;
      ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(i));
      if (i < head_) {
        head_ -= 1;
      } else if (head_ >= ring_.size()) {
        head_ = 0;
      }
      break;
    }
  }
  cv_.notify_all();
}

void GrantArbiter::rotate_locked() {
  head_ = (head_ + 1) % ring_.size();
  Entry& h = ring_[head_];
  if (h.pending > 0) {
    // Backlogged head: replenish its turn's credit (weighted).
    h.deficit += quantum_ * h.weight;
  } else {
    // Idle head: reset — an idle job must not hoard credit (classic DRR).
    h.deficit = 0;
  }
  // The thread whose turn just arrived may be blocked in acquire while WE
  // rotate (rotation runs in whichever waiter holds the lock).
  cv_.notify_all();
}

std::int64_t GrantArbiter::acquire(std::uint64_t job, std::int64_t items) {
  std::unique_lock<std::mutex> lock(mu_);
  Entry* me = find_locked(job);
  if (me == nullptr || ring_.size() == 1) {
    // Unregistered (single-job fast path) or alone in the ring: no one to
    // be fair to.
    auto& st = stats_[job];
    st.acquires += 1;
    st.acquired_items += items;
    return issued_++;
  }
  me->pending = items;
  bool counted_wait = false;
  Stopwatch waited;
  while (true) {
    // `me` may have been re-seated by an insert/erase while unlocked.
    me = find_locked(job);
    TRIOLET_CHECK(me != nullptr, "job unregistered while acquiring a grant");
    Entry& h = ring_[head_];
    if (&h == me && h.deficit > 0) {
      // Our turn with credit: issue. Oversized grants drive the deficit
      // negative — the debt is paid back by sitting out rotations.
      me->deficit -= items;
      me->pending = 0;
      auto& st = stats_[job];
      st.acquires += 1;
      st.acquired_items += items;
      if (counted_wait) st.wait_seconds += waited.seconds();
      cv_.notify_all();
      return issued_++;
    }
    if (h.pending == 0 || h.deficit <= 0) {
      // Idle head, or a head that spent its credit: move on. Progress is
      // bounded — every full pass replenishes each backlogged job once, so
      // a waiter with arbitrarily negative deficit becomes eligible after
      // finitely many passes.
      rotate_locked();
      continue;
    }
    // The head is another backlogged job with credit: its own thread will
    // issue and rotate; wait for the ring to move.
    if (!counted_wait) {
      counted_wait = true;
      stats_[job].waits += 1;
    }
    cv_.wait(lock);
  }
}

bool GrantArbiter::waiting(std::uint64_t job) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : ring_) {
    if (e.id == job) return e.pending > 0;
  }
  return false;
}

FairShareStats GrantArbiter::job_stats(std::uint64_t job) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(job);
  return it == stats_.end() ? FairShareStats{} : it->second;
}

int GrantArbiter::active_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(ring_.size());
}

}  // namespace triolet::svc
