// parboil: the paper's four applications, each in its own Cluster::run.
//
// One job is one pass over mri-q, sgemm, tpacf and cutcp through
// apps::*_triolet_dist on a fresh cluster (the no-options path: static
// scatter, bulk rendezvous slices, block-copy assembly, cluster spawn on
// every application). Closed loop, one client.

#include <array>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>

#include "apps/cutcp.hpp"
#include "apps/driver.hpp"
#include "apps/mriq.hpp"
#include "apps/sgemm.hpp"
#include "apps/tpacf.hpp"
#include "dist/skeletons.hpp"
#include "harness.hpp"
#include "net/cluster.hpp"

namespace perfbench {
namespace {

using namespace triolet;
using apps::index_t;

constexpr double kTol = 2e-4;  // float kernels, different summation orders
constexpr std::array<const char*, 4> kApps = {"mriq", "sgemm", "tpacf",
                                              "cutcp"};

struct Sizes {
  index_t mriq_pixels, mriq_samples;
  index_t sgemm_n;
  index_t tpacf_points, tpacf_sets;
  index_t cutcp_atoms, cutcp_grid;
};

class Parboil final : public Workload {
 public:
  explicit Parboil(const RunConfig& cfg) : cfg_(cfg) {
    sz_ = cfg.tiny ? Sizes{512, 64, 64, 128, 2, 800, 12}
                   : Sizes{8192, 384, 480, 1024, 4, 24000, 40};
  }

  void setup() override {
    const std::uint64_t s = cfg_.seed * 0x9E3779B97F4A7C15ull;
    mriq_ = apps::make_mriq(sz_.mriq_pixels, sz_.mriq_samples, s ^ 0xA1);
    sgemm_ = apps::make_sgemm(sz_.sgemm_n, sz_.sgemm_n, sz_.sgemm_n, s ^ 0xA2);
    tpacf_ = apps::make_tpacf(sz_.tpacf_points, sz_.tpacf_sets, 32, s ^ 0xA3);
    cutcp_ = apps::make_cutcp(sz_.cutcp_atoms, sz_.cutcp_grid, sz_.cutcp_grid,
                              sz_.cutcp_grid, 2.5f, s ^ 0xA4);
  }

  void prepare_references() override {
    ref_mriq_ = apps::mriq_seq_c(mriq_);
    ref_sgemm_ = apps::sgemm_seq_c(sgemm_);
    ref_tpacf_ = apps::tpacf_seq_c(tpacf_);
    ref_cutcp_ = apps::cutcp_seq_c(cutcp_);
    Phase scratch;
    (void)run_job(next_job_id(), scratch);
  }

  void run_window(double seconds, Phase& out) override {
    closed_loop(
        seconds, 3, out, [&](std::uint64_t job) { return run_job(job, out); },
        [&] { return seq_reference(); });
  }

  void probes(std::map<std::string, double>& layer,
              const std::vector<SpanRecord>& spans) override {
    // Measured 2x1 time of each application: the rank-0 skeleton call.
    std::map<std::string, std::vector<double>> root;
    for (const auto& s : spans) {
      if (std::string(s.name) == "root_call") root[s.arg].push_back(s.t1 - s.t0);
    }
    for (const char* a : kApps) {
      layer[std::string("app.") + a + "_s"] = median(root[a]);
    }

    // One measure_* per application yields the core probe (Triolet kSeq
    // against plain C, Figure 3) and the measured profile the sim model
    // replays at the benchmark's own ranks x workers.
    double seq_c = 0, seq_triolet = 0, err = 0;
    auto account = [&](const char* app, double c, double t,
                       const apps::MeasuredSystem& ms) {
      seq_c += c;
      seq_triolet += t;
      const double predicted =
          apps::simulate_point(ms, kRanks, kWorkers).seconds;
      const double measured = median(root[app]);
      const double e = measured > 0 ? std::abs(predicted / measured - 1.0) : 0;
      std::printf("  sim %-6s predicted %.4f s  measured %.4f s  err %.3f\n",
                  app, predicted, measured, e);
      err += e / static_cast<double>(kApps.size());
    };
    {
      Span sp("sim", "measure", 0, kInheritParent, "mriq");
      auto m = apps::measure_mriq(mriq_, 512);
      account("mriq", m.seq_c, m.seq_triolet, m.triolet);
    }
    {
      Span sp("sim", "measure", 0, kInheritParent, "sgemm");
      auto m = apps::measure_sgemm(sgemm_, 192);
      account("sgemm", m.seq_c, m.seq_triolet, m.triolet);
    }
    {
      Span sp("sim", "measure", 0, kInheritParent, "tpacf");
      auto m = apps::measure_tpacf(tpacf_, 2048);
      account("tpacf", m.seq_c, m.seq_triolet, m.triolet);
    }
    {
      Span sp("sim", "measure", 0, kInheritParent, "cutcp");
      auto m = apps::measure_cutcp(cutcp_, 500);
      account("cutcp", m.seq_c, m.seq_triolet, m.triolet);
    }
    layer["core.kernel_s"] = seq_triolet;
    layer["core.kernel_vs_c"] = seq_c > 0 ? seq_triolet / seq_c : 0;
    layer["sim.makespan_err"] = err;

    // Serial probe on the payload types the four programs ship.
    Throughput enc, dec;
    {
      Span sp("serial", "probe", 0);
      probe_serial(mriq_.ks, 0.03, enc, dec);
      probe_serial(sgemm_.a, 0.03, enc, dec);
      probe_serial(tpacf_, 0.03, enc, dec);
      probe_serial(cutcp_.atoms, 0.03, enc, dec);
    }
    layer["serial.encode_GBps"] = enc.gbps();
    layer["serial.decode_GBps"] = dec.gbps();
  }

  std::string describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "mriq %lldpx x %lld samples; sgemm %lld^3; tpacf %lld pts x "
                  "%lld sets; cutcp %lld atoms on %lld^3",
                  static_cast<long long>(sz_.mriq_pixels),
                  static_cast<long long>(sz_.mriq_samples),
                  static_cast<long long>(sz_.sgemm_n),
                  static_cast<long long>(sz_.tpacf_points),
                  static_cast<long long>(sz_.tpacf_sets),
                  static_cast<long long>(sz_.cutcp_atoms),
                  static_cast<long long>(sz_.cutcp_grid));
    return buf;
  }

 private:
  /// Runs `call` on a fresh cluster; rank 0's result lands in `out`.
  template <typename R, typename Call>
  bool run_app(const char* app, std::uint64_t job, R& out, Call&& call,
               double& seconds, Phase& phase) {
    std::vector<runtime::PoolStats> pools(kRanks);
    const double t0 = now_s();
    net::ClusterResult res;
    {
      Span cs("net", "cluster_run", job, kInheritParent, app);
      const std::uint64_t parent = cs.id();
      res = net::Cluster::run(kRanks, [&](net::Comm& comm) {
        Span body("dist", "rank_body", job, parent, app);
        std::optional<dist::NodeRuntime> node;
        {
          Span ns("runtime", "node_start", job);
          node.emplace(kWorkers);
        }
        if (comm.rank() == 0) {
          Span rc("dist", "root_call", job, kInheritParent, app);
          out = call(comm);
        } else {
          (void)call(comm);
        }
        pools[static_cast<std::size_t>(comm.rank())] = node->pool.stats();
      });
    }
    seconds += now_s() - t0;
    add_comm(phase.counters, res.total_stats);
    for (const auto& p : pools) add_pool(phase.counters, p);
    traffic_.first += res.total_stats.messages_sent;
    traffic_.second += res.total_stats.bytes_sent;
    if (!res.ok) std::fprintf(stderr, "%s failed: %s\n", app, res.error.c_str());
    return res.ok;
  }

  JobOutcome run_job(std::uint64_t job, Phase& phase) {
    Span js("bench", "job", job);
    JobOutcome o;
    traffic_ = {0, 0};
    apps::MriqResult mq;
    Array2<float> sg;
    apps::TpacfHist tp;
    apps::CutcpGrid cc;
    bool ok = run_app("mriq", job, mq,
                      [&](net::Comm& c) { return apps::mriq_triolet_dist(c, mriq_); },
                      o.seconds, phase);
    ok = run_app("sgemm", job, sg,
                 [&](net::Comm& c) { return apps::sgemm_triolet_dist(c, sgemm_); },
                 o.seconds, phase) && ok;
    ok = run_app("tpacf", job, tp,
                 [&](net::Comm& c) { return apps::tpacf_triolet_dist(c, tpacf_); },
                 o.seconds, phase) && ok;
    ok = run_app("cutcp", job, cc,
                 [&](net::Comm& c) { return apps::cutcp_triolet_dist(c, cutcp_); },
                 o.seconds, phase) && ok;
    phase.job_traffic.push_back(traffic_);
    // Correctness gate: float kernels within kTol of plain C, tpacf exact.
    ok = ok && apps::mriq_rel_error(ref_mriq_, mq) < kTol &&
         apps::sgemm_rel_error(ref_sgemm_, sg) < kTol && tp == ref_tpacf_ &&
         apps::cutcp_rel_error(ref_cutcp_, cc) < kTol;
    o.ok = ok;
    return o;
  }

  /// Single-thread plain C time of the same four problems.
  double seq_reference() {
    const double t0 = now_s();
    (void)apps::mriq_seq_c(mriq_);
    (void)apps::sgemm_seq_c(sgemm_);
    (void)apps::tpacf_seq_c(tpacf_);
    (void)apps::cutcp_seq_c(cutcp_);
    return now_s() - t0;
  }

  RunConfig cfg_;
  Sizes sz_{};
  apps::MriqProblem mriq_;
  apps::SgemmProblem sgemm_;
  apps::TpacfProblem tpacf_;
  apps::CutcpProblem cutcp_;
  apps::MriqResult ref_mriq_;
  Array2<float> ref_sgemm_;
  apps::TpacfHist ref_tpacf_;
  apps::CutcpGrid ref_cutcp_;
  std::pair<std::int64_t, std::int64_t> traffic_{0, 0};
};

}  // namespace

std::unique_ptr<Workload> make_parboil(const RunConfig& cfg) {
  return std::make_unique<Parboil>(cfg);
}

}  // namespace perfbench
