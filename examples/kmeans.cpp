// k-means clustering built entirely from the public skeleton API — a
// scenario beyond the paper's four benchmarks showing the library carrying
// an iterative algorithm: each round is one fused parallel pipeline
// (assign points to nearest centroid, accumulate per-cluster sums via the
// histogram machinery). The distributed loop at the end runs the same
// rounds over *resident* data: the points live in a dist::DistArray, so
// every scatter after the first ships an 8-byte token instead of the
// payload (docs/INTERNALS.md "Data residency & slice caching"), and the
// centroids travel as a dist::DistContext whose version bump each round
// re-ships only the tiny context.
//
// Build & run:  ./build/examples/kmeans

#include <cmath>
#include <cstdio>

#include "core/triolet.hpp"
#include "dist/dist_array.hpp"
#include "dist/skeletons.hpp"
#include "net/cluster.hpp"
#include "support/rng.hpp"

using namespace triolet;
using namespace triolet::core;

namespace {

struct Pt2 {
  float x = 0, y = 0;
};

struct Centroids {
  std::vector<Pt2> c;
  bool operator==(const Centroids&) const = default;
};
// Field visitor in the same (anonymous) namespace so ADL finds it when the
// centroids cross the wire as broadcast context.
TRIOLET_SERIALIZE_FIELDS(Centroids, c)

index_t nearest(const Centroids& ks, Pt2 p) {
  index_t best = 0;
  float best_d = 1e30f;
  for (std::size_t k = 0; k < ks.c.size(); ++k) {
    float dx = ks.c[k].x - p.x, dy = ks.c[k].y - p.y;
    float d = dx * dx + dy * dy;
    if (d < best_d) {
      best_d = d;
      best = static_cast<index_t>(k);
    }
  }
  return best;
}

/// One k-means round as skeleton pipelines: per-cluster sums and counts are
/// float/integer histograms over the fused assignment loop.
Centroids kmeans_round(const Array1<Pt2>& points, const Centroids& ks,
                       bool threaded) {
  const auto kcount = static_cast<index_t>(ks.c.size());
  auto assign = map_with(from_array(points), ks,
                         [](const Centroids& cs, Pt2 p) {
                           return std::pair<index_t, Pt2>(nearest(cs, p), p);
                         });
  auto hinted = threaded ? localpar(assign) : assign;

  auto sum_x = float_histogram<double>(
      kcount, map(hinted, [](const auto& ap) {
        return std::pair<index_t, float>(ap.first, ap.second.x);
      }));
  auto sum_y = float_histogram<double>(
      kcount, map(hinted, [](const auto& ap) {
        return std::pair<index_t, float>(ap.first, ap.second.y);
      }));
  auto counts = histogram(
      kcount, map(hinted, [](const auto& ap) { return ap.first; }));

  Centroids next = ks;
  for (index_t k = 0; k < kcount; ++k) {
    if (counts[k] > 0) {
      next.c[static_cast<std::size_t>(k)] = {
          static_cast<float>(sum_x[k] / static_cast<double>(counts[k])),
          static_cast<float>(sum_y[k] / static_cast<double>(counts[k]))};
    }
  }
  return next;
}

double inertia(const Array1<Pt2>& points, const Centroids& ks) {
  auto dists = map_with(from_array(points), ks,
                        [](const Centroids& cs, Pt2 p) {
                          index_t k = nearest(cs, p);
                          float dx = cs.c[static_cast<std::size_t>(k)].x - p.x;
                          float dy = cs.c[static_cast<std::size_t>(k)].y - p.y;
                          return static_cast<double>(dx * dx + dy * dy);
                        });
  return sum(localpar(dists));
}

}  // namespace

int main() {
  // Three well-separated Gaussian blobs.
  const index_t n = 150000;
  const Pt2 true_centers[3] = {{-4, -4}, {0, 5}, {6, -1}};
  Xoshiro256 rng(12);
  Array1<Pt2> points(n);
  for (index_t i = 0; i < n; ++i) {
    const Pt2 c = true_centers[rng.below(3)];
    points[i] = {c.x + static_cast<float>(rng.normal()),
                 c.y + static_cast<float>(rng.normal())};
  }

  Centroids ks;
  ks.c = {{-1, -1}, {1, 0}, {0, 1}};  // poor initial guesses

  double prev = inertia(points, ks);
  std::printf("round  inertia\n    0  %.1f\n", prev);
  for (int round = 1; round <= 12; ++round) {
    ks = kmeans_round(points, ks, /*threaded=*/true);
    double cur = inertia(points, ks);
    std::printf("%5d  %.1f\n", round, cur);
    if (prev - cur < 1e-6 * prev) break;
    prev = cur;
  }

  std::printf("\nfinal centroids (true centers: (-4,-4) (0,5) (6,-1)):\n");
  for (const auto& c : ks.c) std::printf("  (%.2f, %.2f)\n", c.x, c.y);

  // Each learned centroid should be within 0.1 of some true center.
  int matched = 0;
  for (const auto& c : ks.c) {
    for (const auto& t : true_centers) {
      float dx = c.x - t.x, dy = c.y - t.y;
      if (std::sqrt(dx * dx + dy * dy) < 0.1f) {
        ++matched;
        break;
      }
    }
  }
  std::printf("centroids matched to true centers: %d/3\n", matched);

  // Distributed k-means from the same poor guesses, over resident data
  // under a 4-node cluster. Only rank 0 touches the handles: `make` runs at
  // the root, and the workers see the data exclusively through their slice
  // caches.
  dist::DistArray<Pt2> dpoints{Array1<Pt2>(points)};
  dist::DistContext<Centroids> dks{Centroids{{{-1, -1}, {1, 0}, {0, 1}}}};
  std::uint64_t tokens_sent = 0;
  std::int64_t final_count_sum = 0;
  int dist_matched = 0;
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    dist::NodeRuntime node(2);
    const index_t kcount = 3;
    auto assign = [&] {
      return core::par(map_with(dist::from_resident(dpoints), dks.ctx(),
                                [](const Centroids& cs, Pt2 p) {
                                  return std::pair<index_t, Pt2>(nearest(cs, p),
                                                                 p);
                                }));
    };
    // The three reductions of each round run under the measuring
    // scheduler: the array's tune_key ties them to one shared AutoTuner on
    // the Comm, so the first three calls audit static, guided and dynamic,
    // and every later call runs the fastest — no per-workload policy flags.
    const auto opts = dist::auto_options(dpoints.tune_key());
    std::printf("%s", comm.rank() == 0 ? "\ndistributed rounds (resident):\n"
                                       : "");
    for (int round = 1; round <= 8; ++round) {
      const net::CommStats before = comm.snapshot_stats();
      auto sum_x = dist::float_histogram<double>(comm, kcount, [&] {
        return map(assign(), [](const auto& ap) {
          return std::pair<index_t, float>(ap.first, ap.second.x);
        });
      }, opts);
      auto sum_y = dist::float_histogram<double>(comm, kcount, [&] {
        return map(assign(), [](const auto& ap) {
          return std::pair<index_t, float>(ap.first, ap.second.y);
        });
      }, opts);
      auto counts = dist::histogram(
          comm, kcount, [&] {
            return map(assign(), [](const auto& ap) { return ap.first; });
          }, opts);
      if (comm.rank() == 0) {
        Centroids next = dks.value();
        for (index_t k = 0; k < kcount; ++k) {
          if (counts[k] > 0) {
            next.c[static_cast<std::size_t>(k)] = {
                static_cast<float>(sum_x[k] / static_cast<double>(counts[k])),
                static_cast<float>(sum_y[k] / static_cast<double>(counts[k]))};
          }
        }
        dks.update(std::move(next));
        const net::CommStats d = comm.snapshot_stats() - before;
        std::printf("  round %d: bytes_avoided +%llu (total %llu, tokens %llu)\n",
                    round,
                    static_cast<unsigned long long>(d.residency.bytes_avoided),
                    static_cast<unsigned long long>(
                        comm.residency_stats().bytes_avoided),
                    static_cast<unsigned long long>(
                        comm.residency_stats().tokens_sent));
        if (round == 8) {
          for (index_t k = 0; k < kcount; ++k) final_count_sum += counts[k];
          tokens_sent = comm.residency_stats().tokens_sent;
        }
      }
    }
    if (comm.rank() == 0) {
      for (const auto& c : dks.value().c) {
        for (const auto& t : true_centers) {
          float dx = c.x - t.x, dy = c.y - t.y;
          if (std::sqrt(dx * dx + dy * dy) < 0.1f) {
            ++dist_matched;
            break;
          }
        }
      }
    }
  });
  if (!res.ok) {
    std::printf("cluster failed: %s\n", res.error.c_str());
    return 1;
  }
  std::printf("distributed: counts sum %lld (expect %lld), "
              "centroids matched %d/3, resident tokens %llu\n",
              static_cast<long long>(final_count_sum),
              static_cast<long long>(n), dist_matched,
              static_cast<unsigned long long>(tokens_sent));
  if (final_count_sum != n || dist_matched != 3 || tokens_sent == 0) return 1;
  return matched == 3 ? 0 : 1;
}
