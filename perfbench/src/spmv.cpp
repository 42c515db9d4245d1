// spmv: power-law CSR y = A x over a resident SegmentedDistArray.
//
// One job is a fresh cluster running a cold round (the matrix ships) plus
// warm rounds (its slices travel as residency tokens) of a kDynamic,
// kOrdered scalar surrogate sum_r (A x)_r. The hub rows cluster at the
// front, so static blocks would strand them on one rank: the demand
// scheduler has to rebalance the skew with many small control messages.
// Closed loop, one client.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "core/triolet.hpp"
#include "dist/segmented.hpp"
#include "dist/skeletons.hpp"
#include "dist/views.hpp"
#include "harness.hpp"
#include "net/cluster.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using namespace triolet;
using core::index_t;

constexpr index_t kGrain = 4;  // pinned: the atom decomposition is fixed

/// One CSR row's dot product with x; rows are (column, value) pairs.
struct SegmentDot {
  const std::vector<double>* x;
  double operator()(const dist::Segment<double>& s) const {
    double dot = 0.0;
    const auto nnz = static_cast<std::size_t>(s.size()) / 2;
    for (std::size_t k = 0; k < nnz; ++k) {
      dot += s[2 * k + 1] * (*x)[static_cast<std::size_t>(s[2 * k])];
    }
    return dot;
  }
};

class Spmv final : public Workload {
 public:
  explicit Spmv(const RunConfig& cfg) : cfg_(cfg) {
    nrows_ = cfg.tiny ? 1024 : 32768;
    ncols_ = cfg.tiny ? 256 : 2048;
    warm_rounds_ = cfg.tiny ? 2 : 8;
  }

  void setup() override {
    // Power-law rows: nrows/64 hub rows of ncols/2 nonzeros up front
    // (sorted degree order), then a tail of 2..7 nonzeros per row. Each
    // row is (column, value) pairs interleaved in one values leaf.
    Xoshiro256 rng(cfg_.seed * 0x2545F4914F6CDD1Dull + 71);
    std::vector<index_t> offsets{0};
    std::vector<double> packed;
    const index_t hubs = std::max<index_t>(1, nrows_ / 64);
    for (index_t r = 0; r < nrows_; ++r) {
      const index_t len =
          r < hubs ? ncols_ / 2 : 2 + static_cast<index_t>(rng.below(6));
      for (index_t k = 0; k < len; ++k) {
        packed.push_back(static_cast<double>(rng.below(
            static_cast<std::uint64_t>(ncols_))));
        packed.push_back(rng.uniform(-1.0, 1.0));
      }
      offsets.push_back(static_cast<index_t>(packed.size()));
    }
    x_.resize(static_cast<std::size_t>(ncols_));
    for (auto& v : x_) v = rng.uniform(-1.0, 1.0);
    offsets_ = offsets;
    packed_ = packed;
    a_.emplace(std::move(offsets), std::move(packed));
  }

  void prepare_references() override {
    // Solo reference: one rank, static policy. kOrdered folds per-atom
    // partials in atom order, so every policy and rank count must agree
    // bitwise with it.
    solo_ = run_rounds(1, sched::SchedulePolicy::kStatic, 0, nullptr).second;
    // The solo run itself must agree with the plain C loop up to summation
    // order, or every job fails the gate.
    const double c = seq_round();
    solo_matches_c_ = std::abs(c - solo_) <= 1e-9 * std::max(1.0, std::abs(c));
    if (!solo_matches_c_) {
      std::printf("spmv: solo reference %.17g off the C loop %.17g\n", solo_, c);
    }
    Phase scratch;
    (void)run_job(next_job_id(), scratch);
  }

  void run_window(double seconds, Phase& out) override {
    closed_loop(
        seconds, 8, out, [&](std::uint64_t job) { return run_job(job, out); },
        [&] {
          const double t0 = now_s();
          for (int r = 0; r <= warm_rounds_; ++r) sink_ += seq_round();
          return now_s() - t0;
        });
  }

  void probes(std::map<std::string, double>& layer,
              const std::vector<SpanRecord>&) override {
    // core: the fused segment pipeline run sequentially against the loop.
    std::optional<Span> sp;
    sp.emplace("core", "probe", 0);
    auto fused = dist::transform(dist::from_segmented(*a_), dot_fn());
    std::vector<double> tf, tc;
    for (int i = 0; i < 5; ++i) {
      double t0 = now_s();
      sink_ += core::sum(fused);
      tf.push_back(now_s() - t0);
      t0 = now_s();
      sink_ += seq_round();
      tc.push_back(now_s() - t0);
    }
    layer["core.kernel_s"] = median(tf);
    layer["core.kernel_vs_c"] = median(tf) / median(tc);
    // serial: one granted atom of the segmented source, the grant payload.
    sp.emplace("serial", "probe", 0);
    Throughput enc, dec;
    const auto dom = a_->domain();
    const index_t mid = core::outer_extent(dom) / 2;
    auto grant = dist::from_segmented(*a_).slice(
        core::outer_slice(dom, mid, mid + kGrain));
    probe_serial(grant, 0.05, enc, dec);
    layer["serial.encode_GBps"] = enc.gbps();
    layer["serial.decode_GBps"] = dec.gbps();
  }

  std::string describe() const override {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%lld x %lld power-law CSR, %zu nonzeros, 1 cold + %d warm "
                  "rounds, grain %lld",
                  static_cast<long long>(nrows_), static_cast<long long>(ncols_),
                  packed_.size() / 2, warm_rounds_,
                  static_cast<long long>(kGrain));
    return buf;
  }

 private:
  SegmentDot dot_fn() const { return SegmentDot{&x_}; }

  /// One round of the plain single-thread C loop over the same CSR.
  double seq_round() const {
    double acc = 0.0;
    for (index_t r = 0; r < nrows_; ++r) {
      double dot = 0.0;
      for (index_t o = offsets_[static_cast<std::size_t>(r)] / 2;
           o < offsets_[static_cast<std::size_t>(r) + 1] / 2; ++o) {
        dot += packed_[static_cast<std::size_t>(2 * o + 1)] *
               x_[static_cast<std::size_t>(
                   packed_[static_cast<std::size_t>(2 * o)])];
      }
      acc += dot;
    }
    return acc;
  }

  /// Runs the cold + warm rounds on a fresh cluster. Returns the cluster
  /// result and rank 0's last round value; `all_equal` reports whether
  /// every round matched the solo reference bitwise.
  std::pair<net::ClusterResult, double> run_rounds(
      int ranks, sched::SchedulePolicy policy, std::uint64_t job,
      Phase* phase, bool* all_equal = nullptr) {
    sched::SchedOptions opts;
    opts.policy = policy;
    opts.combine = sched::CombineMode::kOrdered;
    opts.grain = kGrain;
    opts.tune_key = a_->tune_key();
    std::vector<runtime::PoolStats> pools(static_cast<std::size_t>(ranks));
    double last = 0.0;
    bool equal = true;
    net::ClusterResult res;
    {
      Span cs("net", "cluster_run", job);
      const std::uint64_t parent = cs.id();
      res = net::Cluster::run(ranks, [&](net::Comm& comm) {
        Span body("dist", "rank_body", job, parent);
        std::optional<dist::NodeRuntime> node;
        {
          Span ns("runtime", "node_start", job);
          node.emplace(kWorkers);
        }
        auto make = [&] {
          return dist::transform(dist::from_segmented(*a_), dot_fn());
        };
        for (int r = 0; r <= warm_rounds_; ++r) {
          if (comm.rank() == 0) {
            Span rc("dist", "root_call", job);
            const double y = dist::sum(comm, make, opts);
            equal = equal && std::memcmp(&y, &solo_, sizeof y) == 0;
            last = y;
          } else {
            (void)dist::sum(comm, make, opts);
          }
        }
        pools[static_cast<std::size_t>(comm.rank())] = node->pool.stats();
      });
    }
    if (phase != nullptr) {
      add_comm(phase->counters, res.total_stats);
      for (const auto& p : pools) add_pool(phase->counters, p);
    }
    if (all_equal != nullptr) *all_equal = equal;
    return {res, last};
  }

  JobOutcome run_job(std::uint64_t job, Phase& phase) {
    Span js("bench", "job", job);
    JobOutcome o;
    bool equal = false;
    const double t0 = now_s();
    auto [res, y] = run_rounds(kRanks, sched::SchedulePolicy::kDynamic,
                               job, &phase, &equal);
    o.seconds = now_s() - t0;
    if (!res.ok) std::fprintf(stderr, "spmv job failed: %s\n", res.error.c_str());
    o.ok = res.ok && equal && solo_matches_c_;
    return o;
  }

  RunConfig cfg_;
  index_t nrows_ = 0, ncols_ = 0;
  int warm_rounds_ = 0;
  std::vector<index_t> offsets_;
  std::vector<double> packed_;
  std::vector<double> x_;
  std::optional<dist::SegmentedDistArray<double>> a_;
  double solo_ = 0.0;
  bool solo_matches_c_ = false;
  double sink_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_spmv(const RunConfig& cfg) {
  return std::make_unique<Spmv>(cfg);
}

}  // namespace perfbench
