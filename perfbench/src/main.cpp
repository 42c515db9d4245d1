// perfbench: the repository benchmark binary (run through perfbench/run.py).
//
//   perfbench --workload {parboil,spmv,kmeans,service} --seed N --seconds S
//             --trace {0,1} [--tiny] [--service-rate R] [--trace-dir DIR]
//             [--git-sha SHA --git-dirty {0,1}]
//
// trace 0 prints the end-to-end metrics of one untraced window; trace 1 runs
// an untraced half-window, then a traced half-window plus the layer probes,
// and prints the per-layer metrics. The last stdout line is the JSON result.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "net/slice_cache.hpp"
#include "net/transport.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kMmapThreshold = 32 * 1024 * 1024;

struct Metric {
  double value;
  const char* unit;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

/// Tail latency: the highest percentile with at least ten samples beyond
/// it (the 11th-largest sample). Runs with many samples are cut into
/// consecutive blocks of at least 100; the tail is the median of the
/// blocks' tails, so one stalled stretch does not set a run's tail.
/// Returns (value, percentile).
std::pair<double, double> tail_of(const std::vector<double>& v) {
  if (v.empty()) return {0.0, 0.0};
  const std::size_t n = v.size();
  const std::size_t blocks = std::max<std::size_t>(n / 100, 1);
  std::vector<double> tails, pcts;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<double> s(v.begin() + static_cast<std::ptrdiff_t>(b * n / blocks),
                          v.begin() + static_cast<std::ptrdiff_t>((b + 1) * n / blocks));
    std::sort(s.begin(), s.end());
    const std::size_t m = s.size();
    tails.push_back(m <= 10 ? s.back() : s[m - 11]);
    pcts.push_back(m <= 10 ? 100.0
                           : 100.0 * static_cast<double>(m - 10) /
                                 static_cast<double>(m));
  }
  return {median(tails), median(pcts)};
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

double per_job(const Counters& c, const char* key, std::int64_t jobs) {
  auto it = c.find(key);
  if (it == c.end() || jobs <= 0) return 0.0;
  return it->second / static_cast<double>(jobs);
}

double ratio(const Counters& c, const char* num, double den) {
  auto it = c.find(num);
  return (it == c.end() || den <= 0) ? 0.0 : it->second / den;
}

double get(const Counters& c, const char* key) {
  auto it = c.find(key);
  return it == c.end() ? 0.0 : it->second;
}

/// Per-layer metrics that come from benchmark-side spans.
void span_metrics(const std::vector<SpanRecord>& spans, std::int64_t jobs,
                  std::map<std::string, double>& layer) {
  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const auto& s : spans) by_id[s.id] = &s;
  // Rank bodies grouped by the span that launched them.
  std::map<std::uint64_t, std::vector<double>> bodies;
  double root_call = 0;
  for (const auto& s : spans) {
    const std::string name = s.name;
    if (name == "rank_body") bodies[s.parent].push_back(s.t1 - s.t0);
    if (name == "root_call") root_call += s.t1 - s.t0;
  }
  double spawn = 0, skew_sum = 0;
  int skew_n = 0;
  for (const auto& [parent, durs] : bodies) {
    const double mx = *std::max_element(durs.begin(), durs.end());
    const double mn = *std::min_element(durs.begin(), durs.end());
    if (mx > 0 && durs.size() > 1) {
      skew_sum += (mx - mn) / mx;
      ++skew_n;
    }
    auto p = by_id.find(parent);
    if (p != by_id.end() && std::string(p->second->name) == "cluster_run") {
      spawn += (p->second->t1 - p->second->t0) - mx;
    }
  }
  const double j = jobs > 0 ? static_cast<double>(jobs) : 1.0;
  layer["net.spawn_s"] = spawn / j;
  layer["dist.root_call_s"] = root_call / j;
  layer["dist.rank_skew"] = skew_n > 0 ? skew_sum / skew_n : 0.0;
}

void counter_metrics(const Phase& ph, std::map<std::string, double>& layer) {
  const Counters& c = ph.counters;
  const std::int64_t jobs = ph.jobs;
  layer["runtime.tasks"] = per_job(c, "runtime.tasks", jobs);
  layer["runtime.steal_success"] =
      ratio(c, "runtime.stolen", get(c, "runtime.steal_attempts"));
  layer["runtime.parks"] = per_job(c, "runtime.parks", jobs);
  layer["runtime.wakes"] = per_job(c, "runtime.wakes", jobs);
  layer["serial.bytes_copied"] = per_job(c, "serial.bytes_copied", jobs);
  layer["net.msgs"] = per_job(c, "net.msgs", jobs);
  layer["net.bytes"] = per_job(c, "net.bytes", jobs);
  layer["net.coll_msgs"] = per_job(c, "net.coll_msgs", jobs);
  layer["net.zero_copy_frac"] =
      ratio(c, "net.bytes_zero_copy", get(c, "net.bytes"));
  layer["net.eager_frac"] =
      ratio(c, "msg.eager", get(c, "msg.eager") + get(c, "msg.rendezvous"));
  layer["net.ring_stall_frac"] =
      ratio(c, "msg.ring_full_stalls", get(c, "net.msgs"));
  layer["net.pool_miss_frac"] =
      ratio(c, "msg.pool_misses",
            get(c, "msg.pool_hits") + get(c, "msg.pool_misses"));
  layer["residency.hit_ratio"] =
      ratio(c, "residency.cache_hits",
            get(c, "residency.cache_hits") + get(c, "residency.cache_misses"));
  layer["residency.bytes_avoided"] = per_job(c, "residency.bytes_avoided", jobs);
  layer["residency.fetches"] = per_job(c, "residency.fetches", jobs);
  layer["residency.checksum_failures"] =
      per_job(c, "residency.checksum_failures", jobs);
  layer["residency.evictions"] = per_job(c, "residency.evictions", jobs);
  layer["views.tokens"] = per_job(c, "views.tokens", jobs);
  layer["views.bytes_avoided"] = per_job(c, "views.bytes_avoided", jobs);
  layer["sched.grants"] = per_job(c, "sched.grants", jobs);
  layer["sched.control_msgs"] = per_job(c, "sched.control_msgs", jobs);
  layer["sched.busy_s"] = per_job(c, "sched.busy_s", jobs);
  layer["sched.idle_s"] = per_job(c, "sched.idle_s", jobs);
  layer["sched.idle_frac"] =
      ratio(c, "sched.idle_s", get(c, "sched.busy_s") + get(c, "sched.idle_s"));
  layer["sched.grant_bytes_per_item"] = ratio(
      c, "sched.grant_payload_bytes", get(c, "sched.granted_items"));
  layer["tuner.pred_err"] = ratio(c, "tuner.pred_err_sum", get(c, "tuner.pred_rounds"));
  layer["tuner.audit_rounds"] = per_job(c, "tuner.audit_rounds", jobs);
  layer["tuner.pick_changes"] = per_job(c, "tuner.pick_changes", jobs);
  layer["svc.queued_p50_s"] = median(ph.queued_s);
  layer["svc.run_p50_s"] = median(ph.run_s);
  layer["svc.batched_frac"] = get(c, "svc.batched_frac");
  layer["svc.rejected"] = get(c, "svc.rejected");
  layer["gen.late_tail_s"] = tail_of(ph.late_s).first;
}

/// Every per-layer metric BENCHMARK.json names, with its unit.
const std::vector<std::pair<const char*, const char*>>& layer_units() {
  static const std::vector<std::pair<const char*, const char*>> u = {
      {"core.kernel_s", "s"},
      {"core.kernel_vs_c", "ratio"},
      {"runtime.tasks", "count"},
      {"runtime.steal_success", "ratio"},
      {"runtime.parks", "count"},
      {"runtime.wakes", "count"},
      {"serial.bytes_copied", "bytes"},
      {"serial.encode_GBps", "GB/s"},
      {"serial.decode_GBps", "GB/s"},
      {"net.msgs", "count"},
      {"net.bytes", "bytes"},
      {"net.coll_msgs", "count"},
      {"net.zero_copy_frac", "ratio"},
      {"net.eager_frac", "ratio"},
      {"net.ring_stall_frac", "ratio"},
      {"net.pool_miss_frac", "ratio"},
      {"net.spawn_s", "s"},
      {"residency.hit_ratio", "ratio"},
      {"residency.bytes_avoided", "bytes"},
      {"residency.fetches", "count"},
      {"residency.checksum_failures", "count"},
      {"residency.evictions", "count"},
      {"views.tokens", "count"},
      {"views.bytes_avoided", "bytes"},
      {"sched.grants", "count"},
      {"sched.control_msgs", "count"},
      {"sched.busy_s", "s"},
      {"sched.idle_s", "s"},
      {"sched.idle_frac", "ratio"},
      {"sched.grant_bytes_per_item", "bytes"},
      {"tuner.pred_err", "ratio"},
      {"tuner.audit_rounds", "count"},
      {"tuner.pick_changes", "count"},
      {"dist.root_call_s", "s"},
      {"dist.rank_skew", "ratio"},
      {"svc.queued_p50_s", "s"},
      {"svc.run_p50_s", "s"},
      {"svc.batched_frac", "ratio"},
      {"svc.rejected", "count"},
      {"gen.late_tail_s", "s"},
      {"app.mriq_s", "s"},
      {"app.sgemm_s", "s"},
      {"app.tpacf_s", "s"},
      {"app.cutcp_s", "s"},
      {"sim.makespan_err", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return u;
}

void print_context(const RunConfig& cfg, const Workload& w,
                   const std::string& git_sha, const std::string& git_dirty) {
  std::string env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TRIOLET_", 8) == 0) {
      env += std::string(env.empty() ? "" : ",") + "\"" + json_escape(*e) + "\"";
    }
  }
  std::printf(
      "context: {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"nproc\":%u,\"build_type\":\"%s\",\"compiler\":\"%s\","
      "\"git_sha\":\"%s\",\"git_dirty\":\"%s\",\"transport\":\"%s\","
      "\"eager_bytes\":%zu,\"slice_cache_bytes\":%zu,\"ranks\":%d,"
      "\"workers_per_rank\":%d,\"compute_threads\":%d,\"max_concurrent\":%d,"
      "\"service_rate\":%g,\"malloc_mmap_threshold\":%d,\"sizes\":\"%s\","
      "\"env\":[%s]}\n",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.seconds, cfg.trace ? 1 : 0, std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE, json_escape(__VERSION__).c_str(),
      json_escape(git_sha).c_str(), json_escape(git_dirty).c_str(),
      triolet::net::resolve_transport_backend("").c_str(),
      triolet::net::resolve_eager_bytes(-1),
      triolet::net::slice_cache_budget(), kRanks, kWorkers,
      kRanks * (1 + kWorkers), kMaxConcurrent, cfg.service_rate,
      kMmapThreshold, json_escape(w.describe()).c_str(), env.c_str());
}

int run(int argc, char** argv) {
  RunConfig cfg;
  int trace = -1;
  std::string git_sha = "unknown", git_dirty = "unknown";
  std::string trace_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = val();
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(val().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(val().c_str(), nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(val().c_str());
    } else if (a == "--tiny") {
      cfg.tiny = true;
    } else if (a == "--service-rate") {
      cfg.service_rate = std::strtod(val().c_str(), nullptr);
    } else if (a == "--trace-dir") {
      trace_dir = val();
    } else if (a == "--git-sha") {
      git_sha = val();
    } else if (a == "--git-dirty") {
      git_dirty = val();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  cfg.trace = trace == 1;
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");

  // glibc raises its mmap threshold as large blocks are freed, so which
  // allocations stay resident depends on the order threads free them and
  // the peak RSS of identical runs differs by a fifth. Pin the threshold
  // at the ceiling the dynamic one climbs to (32 MiB on 64-bit hosts).
  mallopt(M_MMAP_THRESHOLD, kMmapThreshold);

#if !defined(NDEBUG) || PERFBENCH_SANITIZED || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  std::fprintf(stderr,
               "perfbench: refusing to report numbers from a debug or "
               "sanitizer build (build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif

  std::unique_ptr<Workload> w;
  if (cfg.workload == "parboil") {
    w = make_parboil(cfg);
  } else if (cfg.workload == "spmv") {
    w = make_spmv(cfg);
  } else if (cfg.workload == "kmeans") {
    w = make_kmeans(cfg);
  } else if (cfg.workload == "service") {
    if (!(cfg.service_rate > 0)) usage("service needs --service-rate > 0");
    w = make_service(cfg);
  } else {
    usage("unknown workload");
  }
  if (kRanks * (1 + kWorkers) >
      static_cast<int>(std::thread::hardware_concurrency())) {
    std::printf("warning: %d compute threads on %u cores\n",
                kRanks * (1 + kWorkers),
                std::thread::hardware_concurrency());
  }

  // Set-up, several times; the median is setup_s and the last one is kept.
  const int setups = cfg.tiny ? 3 : 21;
  std::vector<double> setup_s;
  for (int k = 0; k < setups; ++k) {
    const double t0 = now_s();
    w->setup();
    setup_s.push_back(now_s() - t0);
  }
  w->prepare_references();
  print_context(cfg, *w, git_sha, git_dirty);

  Phase untraced, traced;
  std::vector<SpanRecord> spans;
  std::map<std::string, double> layer;
  for (const auto& [name, unit] : layer_units()) layer[name] = 0.0;
  if (!cfg.trace) {
    w->run_window(cfg.seconds, untraced);
  } else {
    w->run_window(cfg.seconds / 2, untraced);
    Tracer::enable(true);
    w->run_window(cfg.seconds / 2, traced);
    spans = Tracer::take();
    w->probes(layer, spans);
    Tracer::enable(false);
    std::vector<SpanRecord> probe_spans = Tracer::take();
    spans.insert(spans.end(), probe_spans.begin(), probe_spans.end());
  }

  bool correct = true;
  const std::int64_t attempted = untraced.attempted + traced.attempted;
  const std::int64_t failed = untraced.failed + traced.failed;
  if (failed > 0) correct = false;
  std::map<std::string, Metric> metrics;
  std::printf("jobs: %lld attempted, %lld failed (failed_frac %.4f)\n",
              static_cast<long long>(attempted), static_cast<long long>(failed),
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0);

  if (!cfg.trace) {
    const double p50 = median(untraced.latency_s);
    const auto [tail, tail_pct] = tail_of(untraced.latency_s);
    metrics["job_p50_s"] = {p50, "s"};
    metrics["job_tail_s"] = {tail, "s"};
    metrics["jobs_per_s"] = {untraced.busy_s > 0
                                 ? static_cast<double>(untraced.completed) /
                                       untraced.busy_s
                                 : 0.0,
                             "1/s"};
    const double seq_best =
        untraced.seq_s.empty()
            ? 0.0
            : *std::min_element(untraced.seq_s.begin(), untraced.seq_s.end());
    metrics["speedup_vs_seq"] = {p50 > 0 ? seq_best / p50 : 0.0, "x"};
    metrics["setup_s"] = {median(setup_s), "s"};
    metrics["peak_rss_mb"] = {untraced.rss_peak_mb.empty()
                                  ? peak_rss_mb()
                                  : median(untraced.rss_peak_mb),
                              "MB"};
    std::printf("latency samples %zu, tail = p%.2f; seq samples %zu\n",
                untraced.latency_s.size(), tail_pct, untraced.seq_s.size());
    std::sort(setup_s.begin(), setup_s.end());
    std::printf("setup: %zu set-ups, min %.6f median %.6f max %.6f s; peak "
                "RSS %s\n",
                setup_s.size(), setup_s.front(), median(setup_s),
                setup_s.back(),
                untraced.rss_peak_mb.empty() ? "of the whole process"
                                             : "median over slices");
  } else {
    counter_metrics(traced, layer);
    span_metrics(spans, traced.jobs, layer);
    const double p_untraced = median(untraced.latency_s);
    layer["trace.overhead_frac"] =
        p_untraced > 0 ? median(traced.latency_s) / p_untraced - 1.0 : 0.0;

    // Job spans carry their job id; probe spans (job 0) are reported whole.
    std::vector<SpanRecord> job_spans, probe_spans;
    for (const auto& sp : spans) {
      (sp.job != 0 ? job_spans : probe_spans).push_back(sp);
    }
    std::printf("layer self time per job (traced window, %lld jobs):\n",
                static_cast<long long>(traced.jobs));
    for (const auto& [l, s] : self_time_by_layer(job_spans)) {
      std::printf("  %-8s %12.6f s\n", l.c_str(),
                  traced.jobs > 0 ? s / static_cast<double>(traced.jobs) : s);
    }
    std::printf("probe self time (once per run):\n");
    for (const auto& [l, s] : self_time_by_layer(probe_spans)) {
      std::printf("  %-8s %12.6f s\n", l.c_str(), s);
    }
    const std::string trace_path = trace_dir + "/perfbench-" + cfg.workload +
                                   "-seed" + std::to_string(cfg.seed) +
                                   ".trace.json";
    if (write_chrome_trace(trace_path, spans)) {
      std::printf("trace: %zu spans written to %s\n", spans.size(),
                  trace_path.c_str());
    } else {
      std::printf("trace: could not write %s\n", trace_path.c_str());
      correct = false;
    }
    // Deterministic traffic must not depend on tracing: every parboil job
    // moves the same messages and bytes, traced or not.
    if (cfg.workload == "parboil") {
      std::set<std::pair<std::int64_t, std::int64_t>> seen;
      for (const auto& t : untraced.job_traffic) seen.insert(t);
      for (const auto& t : traced.job_traffic) seen.insert(t);
      const bool equal = seen.size() == 1;
      std::printf("count check: net.msgs/net.bytes %s across %zu untraced "
                  "and %zu traced jobs\n",
                  equal ? "equal" : "DIFFER", untraced.job_traffic.size(),
                  traced.job_traffic.size());
      if (!equal) correct = false;
    }
    for (const auto& [name, unit] : layer_units()) {
      metrics[name] = {layer[name], unit};
    }
  }

  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("metric %s is not finite\n", name.c_str());
      correct = false;
    }
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
