// kmeans: dense resident points under SchedulePolicy::kAuto.
//
// One job is a fresh cluster running R rounds; each round is three
// scheduled dist::histogram / float_histogram calls over the resident
// points and a DistContext update of the centroids (a version bump, so the
// context re-ships while the points stay resident). A caller-owned
// sched::AutoTuner per rank makes the tuner's picks and predictions
// observable from outside. Closed loop, one client.

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>

#include "core/triolet.hpp"
#include "dist/dist_array.hpp"
#include "dist/skeletons.hpp"
#include "harness.hpp"
#include "net/cluster.hpp"
#include "sched/tuner.hpp"
#include "support/rng.hpp"

namespace perfbench {

struct Pt2 {
  float x = 0, y = 0;
};

struct Centroids {
  std::vector<Pt2> c;
  bool operator==(const Centroids&) const = default;
};
TRIOLET_SERIALIZE_FIELDS(Centroids, c)

namespace {

using namespace triolet;
using core::index_t;

constexpr int kClusters = 4;

index_t nearest(const Centroids& ks, Pt2 p) {
  index_t best = 0;
  float best_d = 1e30f;
  for (std::size_t k = 0; k < ks.c.size(); ++k) {
    const float dx = ks.c[k].x - p.x, dy = ks.c[k].y - p.y;
    const float d = dx * dx + dy * dy;
    if (d < best_d) {
      best_d = d;
      best = static_cast<index_t>(k);
    }
  }
  return best;
}

bool same_pick(const sched::SchedOptions& a, const sched::SchedOptions& b) {
  return a.policy == b.policy && a.grain == b.grain &&
         a.prefetch == b.prefetch && a.streaming == b.streaming;
}

class Kmeans final : public Workload {
 public:
  explicit Kmeans(const RunConfig& cfg) : cfg_(cfg) {
    n_ = cfg.tiny ? 4000 : 200000;
    rounds_ = cfg.tiny ? 3 : 8;
  }

  void setup() override {
    Xoshiro256 rng(cfg_.seed * 0xD1B54A32D192ED03ull + 12);
    const double phase = rng.uniform(0.0, 6.283185307179586);
    truth_.c.clear();
    init_.c.clear();
    for (int k = 0; k < kClusters; ++k) {
      const double a = phase + 6.283185307179586 * k / kClusters;
      const Pt2 t{static_cast<float>(8.0 * std::cos(a)),
                  static_cast<float>(8.0 * std::sin(a))};
      truth_.c.push_back(t);
      init_.c.push_back({t.x + 1.5f, t.y - 1.0f});  // poor first guesses
    }
    Array1<Pt2> pts(n_);
    for (index_t i = 0; i < n_; ++i) {
      const Pt2 c = truth_.c[rng.below(kClusters)];
      pts[i] = {c.x + static_cast<float>(rng.normal()),
                c.y + static_cast<float>(rng.normal())};
    }
    points_.emplace(std::move(pts));
  }

  void prepare_references() override {
    ref_ = seq_kmeans();
    Phase scratch;
    (void)run_job(next_job_id(), scratch);
  }

  void run_window(double seconds, Phase& out) override {
    closed_loop(
        seconds, 8, out, [&](std::uint64_t job) { return run_job(job, out); },
        [&] {
          const double t0 = now_s();
          const Centroids c = seq_kmeans();
          sink_ += c.c[0].x;
          return now_s() - t0;
        });
  }

  void probes(std::map<std::string, double>& layer,
              const std::vector<SpanRecord>&) override {
    // core: one round's counts histogram through the fused pipeline vs C.
    std::optional<Span> sp;
    sp.emplace("core", "probe", 0);
    const Array1<Pt2>& pts = points_->array();
    auto fused = core::map(
        core::map_with(core::from_array(pts), init_,
                       [](const Centroids& cs, Pt2 p) { return nearest(cs, p); }),
        [](index_t k) { return k; });
    std::vector<double> tf, tc;
    for (int i = 0; i < 5; ++i) {
      double t0 = now_s();
      auto h = core::histogram(kClusters, fused);
      tf.push_back(now_s() - t0);
      sink_ += static_cast<double>(h[0]);
      t0 = now_s();
      std::vector<std::int64_t> counts(kClusters, 0);
      for (index_t j = 0; j < n_; ++j) {
        counts[static_cast<std::size_t>(nearest(init_, pts[j]))] += 1;
      }
      tc.push_back(now_s() - t0);
      sink_ += static_cast<double>(counts[0]);
    }
    layer["core.kernel_s"] = median(tf);
    layer["core.kernel_vs_c"] = median(tf) / median(tc);
    // serial: one atom of points (what a cold grant carries) and the
    // centroid context (what every round re-ships).
    sp.emplace("serial", "probe", 0);
    Throughput enc, dec;
    const index_t atom = std::max<index_t>(1, n_ / (8 * kRanks));
    Array1<Pt2> slice(atom);
    for (index_t j = 0; j < atom; ++j) slice[j] = pts[j];
    probe_serial(slice, 0.05, enc, dec);
    probe_serial(init_, 0.02, enc, dec);
    layer["serial.encode_GBps"] = enc.gbps();
    layer["serial.decode_GBps"] = dec.gbps();
  }

  std::string describe() const override {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%lld points, %d clusters, %d rounds, kAuto",
                  static_cast<long long>(n_), kClusters, rounds_);
    return buf;
  }

 private:
  /// Plain single-thread C k-means from the same first guesses.
  Centroids seq_kmeans() const {
    const Array1<Pt2>& pts = points_->array();
    Centroids ks = init_;
    for (int r = 0; r < rounds_; ++r) {
      double sx[kClusters] = {}, sy[kClusters] = {};
      std::int64_t cnt[kClusters] = {};
      for (index_t i = 0; i < n_; ++i) {
        const Pt2 p = pts[i];
        const auto k = static_cast<std::size_t>(nearest(ks, p));
        sx[k] += p.x;
        sy[k] += p.y;
        cnt[k] += 1;
      }
      for (int k = 0; k < kClusters; ++k) {
        if (cnt[k] > 0) {
          ks.c[static_cast<std::size_t>(k)] = {
              static_cast<float>(sx[k] / static_cast<double>(cnt[k])),
              static_cast<float>(sy[k] / static_cast<double>(cnt[k]))};
        }
      }
    }
    return ks;
  }

  JobOutcome run_job(std::uint64_t job, Phase& phase) {
    Span js("bench", "job", job);
    dist::DistContext<Centroids> dks{init_};
    std::vector<runtime::PoolStats> pools(kRanks);
    std::int64_t count_sum = 0;
    double err_sum = 0;
    std::int64_t pred_rounds = 0, audits = 0, changes = 0;
    const dist::DistArray<Pt2>& dpoints = *points_;
    const double t0 = now_s();
    net::ClusterResult res;
    {
      Span cs("net", "cluster_run", job);
      const std::uint64_t parent = cs.id();
      res = net::Cluster::run(kRanks, [&](net::Comm& comm) {
        Span body("dist", "rank_body", job, parent);
        std::optional<dist::NodeRuntime> node;
        {
          Span ns("runtime", "node_start", job);
          node.emplace(kWorkers);
        }
        sched::AutoTuner tuner;
        sched::SchedOptions opts = dist::auto_options(dpoints.tune_key());
        opts.tuner = &tuner;
        sched::SchedOptions last_pick{};
        bool have_last = false;
        auto assign = [&] {
          return core::par(dist::map_with(
              dist::from_resident(dpoints), dks.ctx(),
              [](const Centroids& cs, Pt2 p) {
                return std::pair<index_t, Pt2>(nearest(cs, p), p);
              }));
        };
        // Tuner bookkeeping after each scheduled call (rank 0).
        auto observe = [&] {
          if (comm.rank() != 0) return;
          if (tuner.last_predicted_seconds() > 0 &&
              tuner.last_measured_seconds() > 0) {
            err_sum += std::abs(tuner.last_predicted_seconds() /
                                    tuner.last_measured_seconds() -
                                1.0);
            ++pred_rounds;
          }
          if (tuner.pick_mode() == sched::AutoTuner::PickMode::kAudit) ++audits;
          if (tuner.have_pick()) {
            if (have_last && !same_pick(last_pick, tuner.pick())) ++changes;
            last_pick = tuner.pick();
            have_last = true;
          }
        };
        for (int round = 0; round < rounds_; ++round) {
          std::optional<Span> rc;
          if (comm.rank() == 0) rc.emplace("dist", "root_call", job);
          auto sum_x = dist::float_histogram<double>(comm, kClusters, [&] {
            return core::map(assign(), [](const auto& ap) {
              return std::pair<index_t, float>(ap.first, ap.second.x);
            });
          }, opts);
          observe();
          auto sum_y = dist::float_histogram<double>(comm, kClusters, [&] {
            return core::map(assign(), [](const auto& ap) {
              return std::pair<index_t, float>(ap.first, ap.second.y);
            });
          }, opts);
          observe();
          auto counts = dist::histogram(comm, kClusters, [&] {
            return core::map(assign(), [](const auto& ap) { return ap.first; });
          }, opts);
          observe();
          rc.reset();
          if (comm.rank() == 0) {
            Centroids next = dks.value();
            for (index_t k = 0; k < kClusters; ++k) {
              if (counts[k] > 0) {
                next.c[static_cast<std::size_t>(k)] = {
                    static_cast<float>(sum_x[k] / static_cast<double>(counts[k])),
                    static_cast<float>(sum_y[k] / static_cast<double>(counts[k]))};
              }
            }
            dks.update(std::move(next));
            if (round == rounds_ - 1) {
              for (index_t k = 0; k < kClusters; ++k) count_sum += counts[k];
            }
          }
        }
        pools[static_cast<std::size_t>(comm.rank())] = node->pool.stats();
      });
    }
    JobOutcome o;
    o.seconds = now_s() - t0;
    add_comm(phase.counters, res.total_stats);
    for (const auto& p : pools) add_pool(phase.counters, p);
    phase.counters["tuner.pred_err_sum"] += err_sum;
    phase.counters["tuner.pred_rounds"] += static_cast<double>(pred_rounds);
    phase.counters["tuner.audit_rounds"] += static_cast<double>(audits);
    phase.counters["tuner.pick_changes"] += static_cast<double>(changes);
    if (!res.ok) {
      std::fprintf(stderr, "kmeans job failed: %s\n", res.error.c_str());
      return o;
    }
    // Correctness gate: counts cover every point, and every centroid sits
    // on its true center and on the plain C answer.
    bool ok = count_sum == n_;
    const Centroids& got = dks.value();
    for (int k = 0; k < kClusters; ++k) {
      const Pt2 g = got.c[static_cast<std::size_t>(k)];
      const Pt2 t = truth_.c[static_cast<std::size_t>(k)];
      const Pt2 r = ref_.c[static_cast<std::size_t>(k)];
      ok = ok && std::hypot(g.x - t.x, g.y - t.y) < 0.1f &&
           std::hypot(g.x - r.x, g.y - r.y) < 1e-3f;
    }
    o.ok = ok;
    return o;
  }

  RunConfig cfg_;
  index_t n_ = 0;
  int rounds_ = 0;
  Centroids truth_, init_, ref_;
  std::optional<dist::DistArray<Pt2>> points_;
  double sink_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_kmeans(const RunConfig& cfg) {
  return std::make_unique<Kmeans>(cfg);
}

}  // namespace perfbench
