#pragma once

// Shared pieces of the repository benchmark: run configuration, the
// benchmark-side span tracer, counter accumulation from the library's own
// exported stats, and the closed-loop job loop.
//
// Every number comes from outside the library: spans are recorded by the
// benchmark around its own calls into each layer's public functions, and
// counters are deltas of what the library already exports
// (Comm::snapshot_stats(), ThreadPool::stats(), JobResult, ServiceStats,
// a caller-owned sched::AutoTuner).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/comm.hpp"
#include "runtime/thread_pool.hpp"
#include "serial/serialize.hpp"

namespace perfbench {

/// The cluster shape of every workload. Each rank thread also helps in
/// its pool, so ranks x (1 + workers) compute threads run: 4, the core
/// count of the reference host.
inline constexpr int kRanks = 2;
inline constexpr int kWorkers = 1;         // pool threads per rank
inline constexpr int kMaxConcurrent = 2;   // service: job groups at once

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          // smoke-test problem sizes
  double service_rate = 0.0;  // service workload: arrivals per second
};

/// Steady-clock seconds since the first call in this process.
double now_s();

/// The process's peak resident set (VmHWM) in MB.
double peak_rss_mb();
/// Restarts the peak-RSS counter so the next read covers only what
/// follows. Returns false where the kernel does not support it.
bool reset_peak_rss();

// ---- benchmark-side spans ---------------------------------------------------

inline constexpr std::uint64_t kInheritParent = ~std::uint64_t{0};

struct SpanRecord {
  const char* layer = "";
  const char* name = "";
  std::string arg;
  double t0 = 0, t1 = 0;
  std::uint64_t id = 0, parent = 0, job = 0;
  int tid = 0;
};

/// Process-wide span store. Spans stay in memory until take().
class Tracer {
 public:
  static void enable(bool on);
  static bool enabled();
  static std::vector<SpanRecord> take();
  static void record(SpanRecord r);
};

/// RAII span around one benchmark-side call into a layer. A no-op while
/// tracing is off. The parent defaults to the innermost open span on this
/// thread; spans on rank threads pass their parent explicitly.
class Span {
 public:
  Span(const char* layer, const char* name, std::uint64_t job,
       std::uint64_t parent = kInheritParent, std::string arg = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return rec_.id; }

 private:
  SpanRecord rec_;
  std::uint64_t prev_current_ = 0;
};

/// Per-layer self time: each span's duration minus the union of its
/// children's intervals, summed by layer.
std::map<std::string, double> self_time_by_layer(
    const std::vector<SpanRecord>& spans);

/// Writes spans as Chrome trace-event JSON (viewable in Perfetto).
bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans);

// ---- counters -----------------------------------------------------------------

/// Raw counter sums keyed by name; per-layer metrics are derived from them.
using Counters = std::map<std::string, double>;

/// Adds a (rank-summed) CommStats delta, except the pool counters.
void add_comm(Counters& c, const triolet::net::CommStats& s);
/// Adds intra-node pool counters under the runtime keys. `P` is
/// runtime::PoolStats or its mirror net::NodePoolStats.
template <typename P>
void add_pool(Counters& c, const P& p) {
  c["runtime.tasks"] += static_cast<double>(p.tasks_executed);
  c["runtime.stolen"] += static_cast<double>(p.tasks_stolen);
  c["runtime.steal_attempts"] += static_cast<double>(p.steal_attempts);
  c["runtime.parks"] += static_cast<double>(p.parks);
  c["runtime.wakes"] += static_cast<double>(p.wakes);
}

// ---- measurement windows --------------------------------------------------------

/// What one measurement window observed.
struct Phase {
  std::vector<double> latency_s;  // latency-class jobs
  std::int64_t attempted = 0;
  std::int64_t failed = 0;        // errored, refused or wrong result
  std::int64_t completed = 0;
  double busy_s = 0;              // denominator of jobs_per_s
  std::vector<double> seq_s;      // single-thread C reference samples
  Counters counters;              // raw sums over the window's jobs
  std::int64_t jobs = 0;          // jobs the counters cover
  /// parboil: (messages, bytes) of each job, for the traced-vs-untraced
  /// check.
  std::vector<std::pair<std::int64_t, std::int64_t>> job_traffic;
  std::vector<double> late_s;     // open loop: submit time minus due time
  std::vector<double> rss_peak_mb;  // peak RSS of each job or time slice
  std::vector<double> queued_s;   // service: JobResult queued seconds
  std::vector<double> run_s;      // service: JobResult run seconds
};

std::uint64_t next_job_id();

struct JobOutcome {
  double seconds = 0;
  bool ok = false;
};

/// Closed loop with one client: runs `job` back to back until `seconds`
/// have passed, and one `seq` reference sample before the first job and
/// after every `seq_every` jobs (at least three samples per window).
/// Records each job's peak RSS.
void closed_loop(double seconds, int seq_every, Phase& out,
                 const std::function<JobOutcome(std::uint64_t job)>& job,
                 const std::function<double()>& seq);

/// One workload: inputs, program-side state and its references.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates inputs from the seed and builds program-side state.
  /// Called several times and timed; the last set-up is kept.
  virtual void setup() = 0;
  /// Computes the correctness references for the kept set-up (untimed).
  virtual void prepare_references() = 0;
  /// Runs jobs for `seconds`, appending observations to `out`.
  virtual void run_window(double seconds, Phase& out) = 0;
  /// Layer probes after the traced window; writes named per-layer metrics.
  virtual void probes(std::map<std::string, double>& layer,
                      const std::vector<SpanRecord>& spans) = 0;
  /// Problem sizes, for the run-context line.
  virtual std::string describe() const = 0;
};

std::unique_ptr<Workload> make_parboil(const RunConfig& cfg);
std::unique_ptr<Workload> make_spmv(const RunConfig& cfg);
std::unique_ptr<Workload> make_kmeans(const RunConfig& cfg);
std::unique_ptr<Workload> make_service(const RunConfig& cfg);

// ---- small statistics -------------------------------------------------------------

double median(std::vector<double> v);

/// Aggregate of many probe repetitions: bytes moved and seconds spent.
struct Throughput {
  double bytes = 0, seconds = 0;
  double gbps() const { return seconds > 0 ? bytes / seconds / 1e9 : 0.0; }
};

/// Serial-layer probe on one real payload: encodes and decodes `v` through
/// the public serial API for about `budget_s` each way.
template <typename T>
void probe_serial(const T& v, double budget_s, Throughput& enc,
                  Throughput& dec) {
  namespace serial = triolet::serial;
  std::vector<std::byte> bytes = serial::to_bytes(v);
  double t0 = now_s();
  double t = t0;
  int reps = 0;
  while (t - t0 < budget_s || reps < 3) {
    bytes = serial::to_bytes(v);
    ++reps;
    t = now_s();
  }
  enc.bytes += static_cast<double>(bytes.size()) * reps;
  enc.seconds += t - t0;
  t0 = now_s();
  t = t0;
  reps = 0;
  while (t - t0 < budget_s || reps < 3) {
    T back = serial::from_bytes<T>(bytes);
    (void)back;
    ++reps;
    t = now_s();
  }
  dec.bytes += static_cast<double>(bytes.size()) * reps;
  dec.seconds += t - t0;
}

}  // namespace perfbench
