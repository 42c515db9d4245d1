// service: an open-loop stream into one resident svc::JobManager.
//
// One client thread submits at a fixed rate (arrival i is due at
// t0 + i / rate). Small kOrdered reduce jobs form the latency class and
// share a batch key, so the manager coalesces them; every kLargeEvery-th
// arrival is a large scan of a resident dataset, kGuided and fair-share
// gated through JobContext::sched_options(). No cluster is spawned per job.
// Each small job is timed from when it was due to when its last rank
// finished, so a stall also charges the jobs queued behind it.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <thread>

#include "core/triolet.hpp"
#include "dist/dist_array.hpp"
#include "dist/skeletons.hpp"
#include "harness.hpp"
#include "net/cluster.hpp"
#include "support/rng.hpp"
#include "svc/job_manager.hpp"

namespace perfbench {
namespace {

using namespace triolet;
using core::index_t;

constexpr int kLargeEvery = 10;
constexpr int kSmallInputs = 32;
constexpr index_t kSmallGrain = 256;

/// One submitted job as the client sees it.
struct Slot {
  bool large = false;
  int input = 0;
  std::uint64_t job = 0;
  double due = 0;
  double result = 0;                   // written by rank 0
  std::atomic<double> end{0.0};        // latest rank finish
  std::optional<svc::JobHandle> handle;

  void finish(double t) {
    double cur = end.load();
    while (t > cur && !end.compare_exchange_weak(cur, t)) {
    }
  }
};

class Service final : public Workload {
 public:
  explicit Service(const RunConfig& cfg) : cfg_(cfg) {
    small_n_ = cfg.tiny ? 512 : 4096;
    large_n_ = cfg.tiny ? (1 << 12) : (1 << 18);
  }

  void setup() override {
    mgr_.reset();  // joins the previous set-up's service before its inputs go
    Xoshiro256 rng(cfg_.seed * 0x94D049BB133111EBull + 1000);
    // Mixed-magnitude values: any change in fold order flips low bits.
    small_.clear();
    for (int i = 0; i < kSmallInputs; ++i) {
      Array1<double> a(small_n_);
      for (index_t j = 0; j < small_n_; ++j) {
        a[j] = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-9.0, 9.0));
      }
      small_.push_back(std::move(a));
    }
    Array1<double> data(large_n_);
    for (index_t j = 0; j < large_n_; ++j) data[j] = rng.uniform(0.0, 1e-3);
    dataset_.emplace(std::move(data));

    svc::ServiceOptions so;
    so.nranks = kRanks;
    so.threads_per_rank = kWorkers;
    so.max_concurrent = kMaxConcurrent;
    mgr_.emplace(so);
    // The first large job makes the dataset resident in the manager-owned
    // per-rank caches; later scans tokenize against it.
    Slot warm;
    warm.large = true;
    svc::JobOptions jo;
    jo.name = "warm";
    mgr_->submit(jo, body(&warm, 0)).wait();
  }

  void prepare_references() override {
    // Solo references: each job alone on a fresh cluster of the same size.
    solo_small_.assign(small_.size(), 0.0);
    for (std::size_t i = 0; i < small_.size(); ++i) {
      auto res = net::Cluster::run(kRanks, [&](net::Comm& comm) {
        dist::NodeRuntime node(kWorkers);
        const double r = small_sum(comm, small_[i], {});
        if (comm.rank() == 0) solo_small_[i] = r;
      });
      if (!res.ok) std::fprintf(stderr, "solo run failed: %s\n", res.error.c_str());
    }
    auto res = net::Cluster::run(kRanks, [&](net::Comm& comm) {
      dist::NodeRuntime node(kWorkers);
      const double r = large_scan(comm, {});
      if (comm.rank() == 0) solo_large_ = r;
    });
    if (!res.ok) std::fprintf(stderr, "solo run failed: %s\n", res.error.c_str());
  }

  void run_window(double seconds, Phase& out) override {
    const svc::ServiceStats before = mgr_->stats();
    const auto arrivals = static_cast<std::size_t>(
        std::max(1.0, std::floor(seconds * cfg_.service_rate)));
    Xoshiro256 rng(cfg_.seed * 0xBF58476D1CE4E5B9ull + windows_++);

    // Completed jobs are reaped while the client waits for the next due
    // time, so bookkeeping stays bounded and never delays a submission.
    std::deque<std::unique_ptr<Slot>> pending;
    double last_end = now_s();
    auto reap = [&](Slot& s) {
      svc::JobResult r;
      {
        Span sp("svc", "wait", s.job);
        r = s.handle->wait();
      }
      const double want = s.large ? solo_large_ : solo_small_[s.input];
      const bool ok = r.ok && std::memcmp(&s.result, &want, sizeof want) == 0;
      if (!r.ok) std::fprintf(stderr, "job failed: %s\n", r.error.c_str());
      out.failed += ok ? 0 : 1;
      out.completed += ok ? 1 : 0;
      last_end = std::max(last_end, s.end.load());
      add_comm(out.counters, r.stats);
      add_pool(out.counters, r.stats.pool);
      out.jobs += 1;
      if (!s.large) {
        out.latency_s.push_back(s.end.load() - s.due);
        out.queued_s.push_back(r.queued_seconds);
        out.run_s.push_back(r.run_seconds);
      }
    };

    using clock = std::chrono::steady_clock;
    const clock::time_point base = clock::now();
    const double t0 = now_s();
    // Peak RSS per half-second slice of the stream.
    bool rss = reset_peak_rss();
    double slice_end = t0 + 0.5;
    for (std::size_t i = 0; i < arrivals; ++i) {
      if (rss && now_s() >= slice_end) {
        out.rss_peak_mb.push_back(peak_rss_mb());
        rss = reset_peak_rss();
        slice_end += 0.5;
      }
      auto s = std::make_unique<Slot>();
      s->large = (i % kLargeEvery) == kLargeEvery - 1;
      s->input = static_cast<int>(rng.below(kSmallInputs));
      s->job = next_job_id();
      const double offset = static_cast<double>(i) / cfg_.service_rate;
      s->due = t0 + offset;
      while (!pending.empty() && pending.front()->handle->done() &&
             now_s() < s->due - 100e-6) {
        reap(*pending.front());
        pending.pop_front();
      }
      // Plain C reference samples, interleaved through the stream where
      // the client has slack before the next arrival.
      if (i % 25 == 0 && now_s() < s->due - 300e-6) {
        out.seq_s.push_back(seq_small());
      }
      std::this_thread::sleep_until(
          base + std::chrono::duration_cast<clock::duration>(
                     std::chrono::duration<double>(offset)));
      out.late_s.push_back(now_s() - s->due);
      svc::JobOptions jo;
      jo.name = s->large ? "scan" : "small";
      jo.batch_key = s->large ? 0 : 1;
      {
        Span sp("svc", "submit", s->job);
        s->handle = mgr_->try_submit(jo, body(s.get(), sp.id()));
      }
      out.attempted += 1;
      if (s->handle) {
        pending.push_back(std::move(s));
      } else {
        out.failed += 1;  // refused at admission
      }
    }
    for (auto& s : pending) reap(*s);
    pending.clear();

    out.busy_s += last_end - t0;
    const svc::ServiceStats after = mgr_->stats();
    const auto done = after.completed - before.completed;
    out.counters["svc.batched_frac"] =
        done > 0 ? static_cast<double>(after.batched_jobs - before.batched_jobs) /
                       static_cast<double>(done)
                 : 0.0;
    out.counters["svc.rejected"] =
        static_cast<double>(after.rejected - before.rejected);

    for (int k = 0; k < 16; ++k) out.seq_s.push_back(seq_small());
  }

  void probes(std::map<std::string, double>& layer,
              const std::vector<SpanRecord>&) override {
    std::optional<Span> sp;
    sp.emplace("core", "probe", 0);
    std::vector<double> tf, tc;
    for (int i = 0; i < 64; ++i) {
      const Array1<double>& a = small_[static_cast<std::size_t>(i) % small_.size()];
      sink_ += core::sum(core::from_array(a));
      const double t0 = now_s();
      for (int k = 0; k < 8; ++k) sink_ += core::sum(core::from_array(a));
      tf.push_back((now_s() - t0) / 8.0);
      tc.push_back(seq_small());
    }
    layer["core.kernel_s"] = median(tf);
    layer["core.kernel_vs_c"] = median(tf) / median(tc);
    sp.emplace("serial", "probe", 0);
    Throughput enc, dec;
    probe_serial(small_[0], 0.03, enc, dec);
    probe_serial(dataset_->array(), 0.03, enc, dec);
    layer["serial.encode_GBps"] = enc.gbps();
    layer["serial.decode_GBps"] = dec.gbps();
  }

  std::string describe() const override {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "small reduce %lld doubles (grain %lld), large scan %lld "
                  "doubles every %d arrivals, %.0f arrivals/s",
                  static_cast<long long>(small_n_),
                  static_cast<long long>(kSmallGrain),
                  static_cast<long long>(large_n_), kLargeEvery,
                  cfg_.service_rate);
    return buf;
  }

 private:
  static double small_sum(net::Comm& comm, const Array1<double>& xs,
                          sched::SchedOptions opts) {
    opts.combine = sched::CombineMode::kOrdered;
    opts.grain = kSmallGrain;
    return dist::reduce(comm, [&] { return core::from_array(xs); }, 0.0,
                        [](double a, double b) { return a + b; }, opts);
  }

  double large_scan(net::Comm& comm, sched::SchedOptions opts) const {
    opts.policy = sched::SchedulePolicy::kGuided;
    opts.combine = sched::CombineMode::kOrdered;
    const dist::DistArray<double>& d = *dataset_;
    double r = 0;
    for (int pass = 0; pass < 2; ++pass) {
      r += dist::reduce(comm, [&] {
        return core::map(dist::from_resident(d),
                         [pass](double x) { return x * x + pass; });
      }, 0.0, [](double a, double b) { return a + b; }, opts);
    }
    return r;
  }

  svc::JobBody body(Slot* s, std::uint64_t parent) {
    return [this, s, parent](svc::JobContext& ctx) {
      Span sp("dist", "rank_body", s->job, parent);
      double r = 0;
      {
        std::optional<Span> rc;
        if (ctx.rank() == 0) rc.emplace("dist", "root_call", s->job);
        r = s->large ? large_scan(ctx.comm(), ctx.sched_options())
                     : small_sum(ctx.comm(), small_[static_cast<std::size_t>(s->input)],
                                 ctx.sched_options());
      }
      if (ctx.rank() == 0) s->result = r;
      s->finish(now_s());
    };
  }

  /// Plain C time of one small job's sum: one input summed 8 times after
  /// a warm-up pass, per sum. Inputs rotate across calls.
  double seq_small() {
    const Array1<double>& a = small_[seq_next_++ % small_.size()];
    auto sum = [&a] {
      double acc = 0.0;
      for (index_t j = 0; j < a.size(); ++j) acc += a[j];
      return acc;
    };
    sink_ += sum();
    const double t0 = now_s();
    for (int k = 0; k < 8; ++k) sink_ += sum();
    return (now_s() - t0) / 8.0;
  }

  RunConfig cfg_;
  index_t small_n_ = 0, large_n_ = 0;
  std::vector<Array1<double>> small_;
  std::optional<dist::DistArray<double>> dataset_;
  std::optional<svc::JobManager> mgr_;
  std::vector<double> solo_small_;
  double solo_large_ = 0.0;
  std::uint64_t windows_ = 0;
  std::size_t seq_next_ = 0;
  double sink_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_service(const RunConfig& cfg) {
  return std::make_unique<Service>(cfg);
}

}  // namespace perfbench
