// Tests for the measuring autotuner (src/sched/tuner.hpp): the audit
// sequence, commits driven by max-over-ranks walls, audit restarts on an
// extent change, SPMD pick determinism, end-to-end kAuto rounds on real
// cluster threads, and the kOrdered bitwise-identity invariant against
// every manual configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/triolet.hpp"
#include "dist/dist_array.hpp"
#include "dist/skeletons.hpp"
#include "net/cluster.hpp"
#include "sched/tuner.hpp"
#include "sim/schedule.hpp"
#include "support/rng.hpp"

namespace triolet::sched {
namespace {

using core::from_array;
using core::index_t;
using core::map;
using dist::NodeRuntime;

Array1<double> random_array(index_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Array1<double> a(n);
  for (index_t i = 0; i < n; ++i) a[i] = rng.uniform(-1.0, 1.0);
  return a;
}

/// What one rank's tuner decided, for cross-rank comparison outside the
/// cluster lambda.
struct PickRecord {
  bool have = false;
  SchedulePolicy policy = SchedulePolicy::kAuto;
  index_t grain = 0;
  bool prefetch = false;
  bool streaming = false;
  bool committed = false;
  int rounds = 0;

  static PickRecord of(const AutoTuner& t) {
    return {t.have_pick(),       t.pick().policy,    t.pick().grain,
            t.pick().prefetch,   t.pick().streaming,
            t.pick_mode() == AutoTuner::PickMode::kCommitted, t.rounds()};
  }
  bool same_config(const PickRecord& o) const {
    return have == o.have && policy == o.policy && grain == o.grain &&
           prefetch == o.prefetch && streaming == o.streaming &&
           committed == o.committed;
  }
};

SchedOptions auto_user() {
  SchedOptions user;
  user.policy = SchedulePolicy::kAuto;
  return user;
}

// -- the audit sequence -------------------------------------------------------

TEST(AutoTunerUnit, FirstThreeRoundsAuditEachPolicyWithTheCallersKnobs) {
  // Rounds 0-2 run static, guided, dynamic in that order; the caller's
  // combine, grain, prefetch and streaming ride along untouched, the tuner
  // pointer is cleared, and kAuto itself never comes back.
  std::vector<SchedOptions> ran;
  auto res = net::Cluster::run(1, [&](net::Comm& comm) {
    AutoTuner t;
    SchedOptions user = auto_user();
    user.combine = CombineMode::kOrdered;
    user.grain = 7;
    user.prefetch = false;
    user.streaming = true;
    user.tuner = &t;
    for (int r = 0; r < 4; ++r) {
      ran.push_back(t.begin_round(user));
      t.finish_round(comm, 1.0 + r, /*root_extent=*/100);
    }
  });
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(ran.size(), 4u);
  const SchedulePolicy expect[] = {SchedulePolicy::kStatic,
                                   SchedulePolicy::kGuided,
                                   SchedulePolicy::kDynamic};
  for (std::size_t r = 0; r < ran.size(); ++r) {
    if (r < 3) {
      EXPECT_EQ(ran[r].policy, expect[r]) << "round " << r;
    }
    EXPECT_EQ(ran[r].combine, CombineMode::kOrdered);
    EXPECT_EQ(ran[r].grain, 7);
    EXPECT_FALSE(ran[r].prefetch);
    EXPECT_TRUE(ran[r].streaming);
    EXPECT_EQ(ran[r].tuner, nullptr);
  }
  // Walls 1, 2, 3: static measured fastest, so round 3 runs it.
  EXPECT_EQ(ran[3].policy, SchedulePolicy::kStatic);
}

TEST(AutoTunerUnit, RegistryKeysSeparateJobsAndCallerOwnedWins) {
  bool same_key_same_tuner = false;
  bool different_key_different_tuner = false;
  bool caller_owned_wins = false;
  auto res = net::Cluster::run(1, [&](net::Comm& comm) {
    SchedOptions a;
    a.tune_key = 1;
    SchedOptions b;
    b.tune_key = 2;
    AutoTuner& ta = detail::tuner_for(comm, a);
    same_key_same_tuner = (&detail::tuner_for(comm, a) == &ta);
    different_key_different_tuner = (&detail::tuner_for(comm, b) != &ta);
    AutoTuner mine;
    SchedOptions c;
    c.tuner = &mine;
    caller_owned_wins = (&detail::tuner_for(comm, c) == &mine);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(same_key_same_tuner);
  EXPECT_TRUE(different_key_different_tuner);
  EXPECT_TRUE(caller_owned_wins);
}

TEST(AutoTunerUnit, ExtentChangeMidAuditRestartsTheAudit) {
  // Static and guided audit extent 100; the third round arrives with extent
  // 200, a different job under the same key. Its wall and the earlier two
  // are discarded, and the audit starts over from static.
  std::vector<SchedulePolicy> ran;
  std::vector<bool> committed_after;
  auto res = net::Cluster::run(2, [&](net::Comm& comm) {
    AutoTuner t;
    const index_t extents[] = {100, 100, 200, 200, 200, 200, 200};
    const double walls[] = {0.1, 0.2, 5.0, 3.0, 2.0, 1.0, 9.0};
    for (std::size_t r = 0; r < std::size(extents); ++r) {
      const SchedOptions o = t.begin_round(auto_user());
      t.finish_round(comm, walls[r], comm.rank() == 0 ? extents[r] : -1);
      if (comm.rank() == 0) {
        ran.push_back(o.policy);
        committed_after.push_back(t.pick_mode() ==
                                  AutoTuner::PickMode::kCommitted);
      }
    }
    EXPECT_EQ(t.extent(), 200);
  });
  ASSERT_TRUE(res.ok) << res.error;
  const std::vector<SchedulePolicy> expect = {
      SchedulePolicy::kStatic, SchedulePolicy::kGuided,
      SchedulePolicy::kDynamic,  // extent changed: discarded
      SchedulePolicy::kStatic,  SchedulePolicy::kGuided,
      SchedulePolicy::kDynamic,
      SchedulePolicy::kDynamic};  // committed: fastest of 3.0, 2.0, 1.0
  EXPECT_EQ(ran, expect);
  EXPECT_EQ(committed_after,
            (std::vector<bool>{false, false, false, false, false, true, true}));
}

// -- commits by the max-over-ranks wall ---------------------------------------

/// Runs three audit rounds plus one committed round on a 4-rank cluster,
/// each rank reporting walls[policy][rank] for its audit rounds. Returns
/// each rank's state after the fourth round.
std::array<PickRecord, 4> injected_audit(
    const std::array<std::array<double, 4>, 3>& walls) {
  std::array<PickRecord, 4> picks{};
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    AutoTuner t;
    const auto rank = static_cast<std::size_t>(comm.rank());
    for (std::size_t r = 0; r < 4; ++r) {
      (void)t.begin_round(auto_user());
      const double wall = r < 3 ? walls[r][rank] : 0.5;
      t.finish_round(comm, wall, comm.rank() == 0 ? index_t{64} : index_t{-1});
    }
    picks[rank] = PickRecord::of(t);
  });
  EXPECT_TRUE(res.ok) << res.error;
  return picks;
}

TEST(AutoTunerPick, CommitsToTheLowestMaxOverRanksWall) {
  // The ranks disagree: on its own clock every rank but rank 3 saw static
  // fastest, and rank 3 saw dynamic fastest. The round's cost is its
  // slowest rank, so the max walls are static 0.9, guided 0.5, dynamic
  // 0.6 — every rank must commit to guided.
  const std::array<std::array<double, 4>, 3> walls = {{
      {0.10, 0.10, 0.10, 0.90},  // static: one straggler
      {0.50, 0.45, 0.40, 0.50},  // guided: even
      {0.20, 0.60, 0.20, 0.05},  // dynamic
  }};
  const auto picks = injected_audit(walls);
  for (const auto& p : picks) {
    ASSERT_TRUE(p.have);
    EXPECT_TRUE(p.committed);
    EXPECT_EQ(p.policy, SchedulePolicy::kGuided) << to_string(p.policy);
    EXPECT_EQ(p.rounds, 4);
  }
}

/// Per-rank audit walls for a 4-rank job whose outer units cost `costs`
/// seconds each and whose every grant pays `round_trip` seconds of control:
/// kStatic hands each rank one contiguous block behind a single grant,
/// kGuided claims chunks of remaining / (2 x ranks) units, and kDynamic
/// claims one unit at a time. The demand policies finish together, so every
/// rank reports the same makespan for them.
std::array<std::array<double, 4>, 3> policy_walls(
    const std::vector<double>& costs, double round_trip) {
  constexpr int kRanks = 4;
  const auto n = static_cast<index_t>(costs.size());
  std::array<std::array<double, 4>, 3> walls{};
  for (int r = 0; r < kRanks; ++r) {
    double block = round_trip;
    for (index_t i = n * r / kRanks; i < n * (r + 1) / kRanks; ++i) {
      block += costs[static_cast<std::size_t>(i)];
    }
    walls[0][static_cast<std::size_t>(r)] = block;
  }
  std::vector<double> guided;
  for (index_t lo = 0; lo < n;) {
    const index_t take = std::max<index_t>(1, (n - lo) / (2 * kRanks));
    double chunk = 0.0;
    for (index_t i = lo; i < lo + take; ++i) {
      chunk += costs[static_cast<std::size_t>(i)];
    }
    guided.push_back(chunk);
    lo += take;
  }
  walls[1].fill(sim::makespan_demand(guided, kRanks, round_trip));
  walls[2].fill(sim::makespan_demand(costs, kRanks, round_trip));
  return walls;
}

TEST(AutoTunerPick, SkewedWorkloadPicksADemandPolicy) {
  // Triangular per-unit costs (the tpacf shape) with a cheap control round
  // trip: static blocks leave the last rank with ~44% of the work, demand
  // claiming balances it, so the audit must not commit to kStatic.
  std::vector<double> tri(64);
  for (std::size_t i = 0; i < tri.size(); ++i) {
    tri[i] = static_cast<double>(i + 1) * 1e-3;
  }
  const auto picks = injected_audit(policy_walls(tri, /*round_trip=*/1e-4));
  for (const auto& p : picks) {
    ASSERT_TRUE(p.have);
    EXPECT_TRUE(p.committed);
    EXPECT_TRUE(p.policy == SchedulePolicy::kGuided ||
                p.policy == SchedulePolicy::kDynamic)
        << to_string(p.policy);
    EXPECT_EQ(p.rounds, 4);
  }
}

TEST(AutoTunerPick, UniformWorkloadWithCostlyControlPicksStatic) {
  // Uniform tiny units behind an expensive round trip: every demand claim
  // pays ~50ms of control for 0.1ms of work, while static pays one grant
  // latency total. The audit must commit to kStatic.
  const std::vector<double> uni(64, 1e-4);
  const auto picks = injected_audit(policy_walls(uni, /*round_trip=*/5e-2));
  for (const auto& p : picks) {
    ASSERT_TRUE(p.have);
    EXPECT_TRUE(p.committed);
    EXPECT_EQ(p.policy, SchedulePolicy::kStatic) << to_string(p.policy);
  }
}

TEST(AutoTunerPick, PowerLawSkewRecordsCostCvAndPicksDemand) {
  // The segmented-source shape: most units are tiny, the jumbo segment
  // groups cluster at the front (sorted degree order). Static blocks strand
  // the jumbo cluster on rank 0, and guided's first chunk swallows it too,
  // so the audit must commit to a demand policy. Every rank must also
  // record the identical skewed cost profile it measured: each audit
  // round's max-over-ranks wall, and on the committed round the committed
  // policy's own audit wall.
  std::vector<double> jumbo(64);
  for (std::size_t i = 0; i < jumbo.size(); ++i) {
    jumbo[i] = (i < 4) ? 20e-3 : 0.5e-3;
  }
  const auto walls = policy_walls(jumbo, /*round_trip=*/1e-4);
  std::array<double, 3> max_wall{};
  for (std::size_t p = 0; p < 3; ++p) {
    max_wall[p] = *std::max_element(walls[p].begin(), walls[p].end());
  }
  std::array<std::array<double, 3>, 4> measured{};
  std::array<double, 4> committed_audit_wall{};
  std::array<PickRecord, 4> picks{};
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    AutoTuner t;
    const auto rank = static_cast<std::size_t>(comm.rank());
    for (std::size_t r = 0; r < 4; ++r) {
      (void)t.begin_round(auto_user());
      const double wall = r < 3 ? walls[r][rank] : 1e-3;
      t.finish_round(comm, wall, comm.rank() == 0 ? index_t{64} : index_t{-1});
      if (r < 3) measured[rank][r] = t.last_measured_seconds();
    }
    committed_audit_wall[rank] = t.last_predicted_seconds();
    picks[rank] = PickRecord::of(t);
  });
  ASSERT_TRUE(res.ok) << res.error;
  // The static round's straggler is rank 0 with the whole jumbo cluster:
  // its wall is several times the demand policies' balanced wall.
  EXPECT_GT(max_wall[0], 2.0 * max_wall[2]);
  for (std::size_t r = 0; r < picks.size(); ++r) {
    for (std::size_t p = 0; p < 3; ++p) {
      EXPECT_EQ(measured[r][p], max_wall[p]) << "rank " << r << " policy " << p;
    }
    ASSERT_TRUE(picks[r].have);
    EXPECT_TRUE(picks[r].committed);
    EXPECT_TRUE(picks[r].policy == SchedulePolicy::kGuided ||
                picks[r].policy == SchedulePolicy::kDynamic)
        << to_string(picks[r].policy);
    const std::size_t chosen =
        picks[r].policy == SchedulePolicy::kGuided ? 1 : 2;
    EXPECT_EQ(committed_audit_wall[r], max_wall[chosen]) << "rank " << r;
    EXPECT_TRUE(picks[0].same_config(picks[r])) << "rank " << r;
  }
}

TEST(AutoTunerPick, AllRanksPickTheIdenticalConfiguration) {
  // The commit is a pure function of allreduced walls: with every rank
  // reporting its own random walls, all ranks land on the same
  // configuration without any broadcast.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::array<std::array<double, 4>, 3> walls{};
    Xoshiro256 rng(seed);
    for (auto& row : walls) {
      for (auto& w : row) w = rng.uniform(1e-3, 1.0);
    }
    const auto picks = injected_audit(walls);
    for (std::size_t r = 0; r < picks.size(); ++r) {
      ASSERT_TRUE(picks[r].committed) << "seed " << seed << " rank " << r;
      EXPECT_TRUE(picks[0].same_config(picks[r]))
          << "seed " << seed << " rank " << r;
    }
  }
}

// -- end-to-end kAuto on real cluster threads ---------------------------------

TEST(AutoSched, StaysCorrectEveryRoundAndConverges) {
  auto xs = random_array(20000, 3);
  double expect = 0;
  for (index_t i = 0; i < xs.size(); ++i) expect += xs[i] * xs[i];

  const int kRounds = 4;
  std::vector<double> results;
  std::array<PickRecord, 4> picks{};
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    NodeRuntime node(2);
    AutoTuner t;
    SchedOptions opts;
    opts.policy = SchedulePolicy::kAuto;
    opts.tuner = &t;
    auto make = [&] {
      return map(from_array(xs), [](double x) { return x * x; });
    };
    for (int r = 0; r < kRounds; ++r) {
      double v = dist::sum(comm, make, opts);
      if (comm.rank() == 0) results.push_back(v);
    }
    const auto rank = static_cast<std::size_t>(comm.rank());
    picks[rank] = PickRecord::of(t);
  });
  ASSERT_TRUE(res.ok) << res.error;

  // Every round — the audit rounds included — returns the right sum.
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kRounds));
  for (double v : results) {
    EXPECT_NEAR(v, expect, 1e-9 * std::abs(expect));
  }
  // Three audit rounds and one committed round later, every rank holds an
  // identical concrete committed pick.
  for (std::size_t r = 0; r < picks.size(); ++r) {
    EXPECT_TRUE(picks[r].committed) << "rank " << r;
    ASSERT_TRUE(picks[r].have) << "rank " << r;
    EXPECT_EQ(picks[r].rounds, kRounds) << "rank " << r;
    EXPECT_NE(picks[r].policy, SchedulePolicy::kAuto);
    EXPECT_TRUE(picks[0].same_config(picks[r])) << "rank " << r;
  }
}

TEST(AutoSched, RegistryCarriesStateAcrossCallsWithSharedKey) {
  // Without a caller-owned tuner, rounds that share a tune_key accumulate
  // in the Comm's registry: the three calls are one audit, so the keyed
  // tuner has committed after them.
  auto xs = random_array(8000, 21);
  double expect = 0;
  for (index_t i = 0; i < xs.size(); ++i) expect += xs[i];

  std::array<int, 4> rounds_after{};
  std::array<bool, 4> committed_after{};
  std::vector<double> results;
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    NodeRuntime node(2);
    const auto opts = dist::auto_options(/*tune_key=*/42);
    auto make = [&] { return from_array(xs); };
    for (int r = 0; r < 3; ++r) {
      double v = dist::reduce(comm, make, 0.0,
                              [](double a, double b) { return a + b; }, opts);
      if (comm.rank() == 0) results.push_back(v);
    }
    SchedOptions probe;
    probe.tune_key = 42;
    const AutoTuner& t = detail::tuner_for(comm, probe);
    rounds_after[static_cast<std::size_t>(comm.rank())] = t.rounds();
    committed_after[static_cast<std::size_t>(comm.rank())] =
        t.pick_mode() == AutoTuner::PickMode::kCommitted;
  });
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(results.size(), 3u);
  for (double v : results) EXPECT_NEAR(v, expect, 1e-9 * xs.size());
  for (int r : rounds_after) EXPECT_EQ(r, 3);
  for (bool c : committed_after) EXPECT_TRUE(c);
}

// -- the kOrdered invariant under autotuning ----------------------------------

TEST(AutoSched, OrderedCombineBitwiseIdenticalToEveryManualConfig) {
  // Mixed-magnitude doubles make any reordering of the fold visible in the
  // low bits. kAuto runs a different policy in each audit round and never
  // touches the grain, so every round's result — and every manual
  // configuration at the same (auto-resolved) grain — must be the same
  // bits.
  Xoshiro256 rng(29);
  Array1<double> xs(4096);
  for (index_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-12.0, 12.0));
  }

  struct Config {
    SchedulePolicy policy;
    bool prefetch;
    bool streaming;
  };
  const Config manual[] = {
      {SchedulePolicy::kStatic, true, false},
      {SchedulePolicy::kGuided, true, false},
      {SchedulePolicy::kGuided, false, false},
      {SchedulePolicy::kGuided, true, true},
      {SchedulePolicy::kDynamic, true, false},
      {SchedulePolicy::kDynamic, false, false},
      {SchedulePolicy::kDynamic, true, true},
  };

  auto run_reduce = [&](const SchedOptions& opts, int rounds) {
    std::vector<double> out;
    auto res = net::Cluster::run(4, [&](net::Comm& comm) {
      NodeRuntime node(2);
      auto make = [&] { return from_array(xs); };
      for (int r = 0; r < rounds; ++r) {
        double v = dist::reduce(comm, make, 0.0,
                                [](double a, double b) { return a + b; },
                                opts);
        if (comm.rank() == 0) out.push_back(v);
      }
    });
    EXPECT_TRUE(res.ok) << res.error;
    return out;
  };

  std::vector<double> reference;
  for (const Config& c : manual) {
    SchedOptions opts;
    opts.policy = c.policy;
    opts.combine = CombineMode::kOrdered;
    opts.prefetch = c.prefetch;
    opts.streaming = c.streaming;
    auto got = run_reduce(opts, 1);
    ASSERT_EQ(got.size(), 1u);
    reference.push_back(got[0]);
  }
  for (std::size_t i = 1; i < reference.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(&reference[0], &reference[i], sizeof(double)))
        << "manual config " << i << " diverged";
  }

  // kAuto over several rounds: whatever it picks each round, the bits
  // must match the manual configurations above.
  SchedOptions opts;
  opts.policy = SchedulePolicy::kAuto;
  opts.combine = CombineMode::kOrdered;
  auto got = run_reduce(opts, 4);
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(0, std::memcmp(&reference[0], &got[r], sizeof(double)))
        << "kAuto round " << r << " diverged: " << reference[0] << " vs "
        << got[r];
  }
}

}  // namespace
}  // namespace triolet::sched
