// Measured autotuning: hand-tuned schedules vs SchedulePolicy::kAuto on an
// iterative skewed workload at 8 ranks.
//
// Every manual configuration — policy x prefetch x streaming, the knobs the
// scheduler exposes — runs the same triangular tpacf-style loop for several
// rounds on the real in-process cluster. kAuto runs the identical loop with
// zero per-workload flags: rounds 0-2 audit static, guided and dynamic, and
// every later round runs whichever measured fastest (src/sched/tuner.hpp).
// The headline number is the steady-state ratio of kAuto to the best manual
// configuration — the price of not hand-tuning.
//
// Methodology notes: per-round wall time is rank 0's clock between cluster
// barriers; round 0 is excluded from steady-state means for every variant
// (cold page faults). kAuto's audit rounds 1 and 2 stay in its steady mean:
// they are the price of the audit. Results are checked against a
// sequential reduction each round — the tuner must never trade correctness
// for speed.
//
// Flags: --ranks=N --rounds=N --check (CI smoke mode: small problem, no
// timing thresholds, exit 1 unless kAuto commits after exactly three audit
// rounds, every round's result is correct, and the steady-state ratio stays
// under a generous bound).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/driver.hpp"
#include "bench_problems.hpp"
#include "core/triolet.hpp"
#include "dist/skeletons.hpp"
#include "net/cluster.hpp"
#include "sched/tuner.hpp"
#include "support/table.hpp"
#include "support/timing.hpp"

using namespace triolet;
using core::index_t;

namespace {

int g_work_per_unit = 6;  // transcendental ops per triangular unit

/// cost[i] = i: the tpacf shape (item i correlates against all earlier
/// points). Captureless lambda, so the iterator serializes for free.
auto make_workload(const Array1<double>& costs) {
  const int wpu = g_work_per_unit;
  return core::map(core::from_array(costs), [wpu](double c) {
    double v = 0.0;
    const int n = static_cast<int>(c) * wpu;
    for (int k = 0; k < n; ++k) v += std::sin(v + 1e-3 * k);
    return v;
  });
}

Array1<double> make_costs(index_t items) {
  Array1<double> costs(items);
  for (index_t i = 0; i < items; ++i) costs[i] = static_cast<double>(i);
  return costs;
}

double mean_tail(const std::vector<double>& xs) {
  // Steady-state mean: skip round 0 (cold caches).
  if (xs.size() <= 1) return xs.empty() ? 0.0 : xs[0];
  double s = 0.0;
  for (std::size_t i = 1; i < xs.size(); ++i) s += xs[i];
  return s / static_cast<double>(xs.size() - 1);
}

struct LoopResult {
  std::vector<double> round_seconds;  // rank-0 wall per round
  std::vector<double> round_results;
  std::vector<sched::SchedulePolicy> ran;  // kAuto only: policy of round r
  int commit_round = -1;  // kAuto only: round after which it committed
};

LoopResult run_loop(const sched::SchedOptions& base, int ranks, int rounds,
                    const Array1<double>& costs) {
  LoopResult out;
  auto res = net::Cluster::run(ranks, [&](net::Comm& comm) {
    dist::NodeRuntime node(2);
    sched::AutoTuner tuner;
    sched::SchedOptions opts = base;
    const bool is_auto = base.policy == sched::SchedulePolicy::kAuto;
    if (is_auto) opts.tuner = &tuner;
    auto make = [&] { return make_workload(costs); };
    for (int r = 0; r < rounds; ++r) {
      // Round r of kAuto runs the first audit policy (r == 0) or the pick
      // installed at the end of round r-1; snapshot it before running.
      const sched::SchedulePolicy ran =
          tuner.have_pick() ? tuner.pick().policy
                            : sched::AutoTuner::kAuditOrder[0];
      comm.barrier();
      Stopwatch sw;
      double v = dist::reduce(comm, make, 0.0,
                              [](double a, double b) { return a + b; }, opts);
      comm.barrier();
      if (comm.rank() == 0) {
        out.round_seconds.push_back(sw.seconds());
        out.round_results.push_back(v);
        if (is_auto) out.ran.push_back(ran);
        if (is_auto && out.commit_round < 0 &&
            tuner.pick_mode() == sched::AutoTuner::PickMode::kCommitted) {
          out.commit_round = r;
        }
      }
    }
  });
  if (!res.ok) {
    std::fprintf(stderr, "cluster failed: %s\n", res.error.c_str());
    std::exit(1);
  }
  return out;
}

std::string config_name(sched::SchedulePolicy p, bool prefetch,
                        bool streaming) {
  std::string s = sched::to_string(p);
  if (p != sched::SchedulePolicy::kStatic) {
    if (!prefetch) s += "-nopf";
    if (streaming) s += "-stream";
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  int ranks = bench::kNodes;
  int rounds = 6;
  bool check_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--ranks=", 0) == 0) {
      ranks = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--rounds=", 0) == 0) {
      rounds = std::atoi(arg.c_str() + 9);
    } else if (arg == "--check") {
      check_only = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  const index_t items = check_only ? 768 : 2048;
  g_work_per_unit = check_only ? 3 : 6;

  std::printf("== bm_autotune: hand-tuned schedules vs kAuto, %d ranks, "
              "%d rounds, %lld triangular items ==\n",
              ranks, rounds, static_cast<long long>(items));

  const auto costs = make_costs(items);

  // Sequential reference for per-round correctness.
  const double reference = [&] {
    auto it = make_workload(costs);
    return core::reduce(it, 0.0, [](double a, double b) { return a + b; });
  }();

  struct Manual {
    sched::SchedulePolicy policy;
    bool prefetch;
    bool streaming;
  };
  const Manual manuals[] = {
      {sched::SchedulePolicy::kStatic, true, false},
      {sched::SchedulePolicy::kGuided, true, false},
      {sched::SchedulePolicy::kGuided, false, false},
      {sched::SchedulePolicy::kGuided, true, true},
      {sched::SchedulePolicy::kDynamic, true, false},
      {sched::SchedulePolicy::kDynamic, true, true},
  };

  bool all_correct = true;
  auto check_results = [&](const LoopResult& r) {
    for (double v : r.round_results) {
      if (std::abs(v - reference) > 1e-9 * std::abs(reference) + 1e-12) {
        all_correct = false;
      }
    }
  };

  std::vector<std::string> manual_names;
  std::vector<LoopResult> manual_runs;
  for (const Manual& m : manuals) {
    sched::SchedOptions opts;
    opts.policy = m.policy;
    opts.prefetch = m.prefetch;
    opts.streaming = m.streaming;
    manual_names.push_back(config_name(m.policy, m.prefetch, m.streaming));
    manual_runs.push_back(run_loop(opts, ranks, rounds, costs));
    check_results(manual_runs.back());
  }

  sched::SchedOptions auto_opts;
  auto_opts.policy = sched::SchedulePolicy::kAuto;
  const LoopResult auto_run = run_loop(auto_opts, ranks, rounds, costs);
  check_results(auto_run);

  double best_manual = 1e300;
  std::string best_name;
  Table t({"configuration", "round 0 (s)", "steady mean (s)", "vs best"});
  std::vector<double> steady;
  for (std::size_t i = 0; i < manual_runs.size(); ++i) {
    steady.push_back(mean_tail(manual_runs[i].round_seconds));
    if (steady.back() < best_manual) {
      best_manual = steady.back();
      best_name = manual_names[i];
    }
  }
  const double auto_steady = mean_tail(auto_run.round_seconds);
  for (std::size_t i = 0; i < manual_runs.size(); ++i) {
    t.add_row({manual_names[i], Table::num(manual_runs[i].round_seconds[0], 4),
               Table::num(steady[i], 4),
               Table::num(steady[i] / best_manual, 2) + "x"});
  }
  t.add_row({"auto (zero flags)", Table::num(auto_run.round_seconds[0], 4),
             Table::num(auto_steady, 4),
             Table::num(auto_steady / best_manual, 2) + "x"});
  t.print("per-round wall time, " + std::to_string(ranks) + " ranks (round 0 "
          "excluded from steady mean; kAuto rounds 0-2 are audit rounds)");

  // What kAuto ran each round.
  auto round_kind = [&](std::size_t r) {
    return auto_run.commit_round >= 0 &&
                   r > static_cast<std::size_t>(auto_run.commit_round)
               ? "committed"
               : "audit";
  };
  Table p({"round", "kind", "ran", "measured (s)"});
  for (std::size_t r = 0; r < auto_run.round_seconds.size(); ++r) {
    p.add_row({Table::num(static_cast<std::int64_t>(r)), round_kind(r),
               sched::to_string(auto_run.ran[r]),
               Table::num(auto_run.round_seconds[r], 4)});
  }
  p.print("kAuto per-round schedule");

  const double ratio = auto_steady / best_manual;
  const double bound = check_only ? 2.5 : 1.5;
  bool ok = true;
  auto check = [&](const std::string& what, bool holds) {
    apps::shape_check(what, holds);
    ok = ok && holds;
  };
  check("every configuration returns the sequential result every round",
        all_correct);
  check("kAuto commits after exactly three audit rounds (static, guided, "
        "dynamic)",
        auto_run.commit_round == 2 && auto_run.ran.size() >= 3 &&
            std::equal(sched::AutoTuner::kAuditOrder.begin(),
                       sched::AutoTuner::kAuditOrder.end(),
                       auto_run.ran.begin()));
  check("steady-state kAuto within " + Table::num(bound, 1) +
            "x of the best hand-tuned configuration",
        ratio <= bound);

  // Machine-readable record (bench/BENCH_autotune.json keeps a checked-in
  // copy).
  std::printf("\n{\n");
  std::printf("  \"workload\": {\"items\": %lld, \"shape\": \"triangular\", "
              "\"rounds\": %d, \"ranks\": %d},\n",
              static_cast<long long>(items), rounds, ranks);
  std::printf("  \"manual\": {\n");
  for (std::size_t i = 0; i < manual_runs.size(); ++i) {
    std::printf("    \"%s\": {\"steady_seconds\": %.4f, \"rounds\": [",
                manual_names[i].c_str(), steady[i]);
    for (std::size_t r = 0; r < manual_runs[i].round_seconds.size(); ++r) {
      std::printf("%s%.4f", r ? ", " : "", manual_runs[i].round_seconds[r]);
    }
    std::printf("]}%s\n", i + 1 < manual_runs.size() ? "," : "");
  }
  std::printf("  },\n");
  std::printf("  \"auto\": {\"steady_seconds\": %.4f, \"rounds\": [\n",
              auto_steady);
  for (std::size_t r = 0; r < auto_run.round_seconds.size(); ++r) {
    std::printf("    {\"round\": %zu, \"kind\": \"%s\", \"ran\": \"%s\", "
                "\"seconds\": %.4f}%s\n",
                r, round_kind(r), sched::to_string(auto_run.ran[r]),
                auto_run.round_seconds[r],
                r + 1 < auto_run.round_seconds.size() ? "," : "");
  }
  std::printf("  ]},\n");
  std::printf("  \"best_manual\": {\"name\": \"%s\", \"steady_seconds\": "
              "%.4f},\n",
              best_name.c_str(), best_manual);
  std::printf("  \"auto_vs_best_manual_ratio\": %.3f,\n", ratio);
  std::printf("  \"commit_round\": %d\n", auto_run.commit_round);
  std::printf("}\n");
  return ok ? 0 : 1;
}
