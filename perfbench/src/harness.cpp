#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point t0 = clock::now();
  return std::chrono::duration<double>(clock::now() - t0).count();
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      mb = std::strtod(line + 6, nullptr) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// ---- spans ------------------------------------------------------------------

namespace {

struct TraceStore {
  std::atomic<bool> on{false};
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<int> next_tid{1};
  std::mutex mu;
  std::vector<SpanRecord> spans;  // guarded by mu
};

TraceStore& store() {
  static TraceStore s;
  return s;
}

thread_local std::uint64_t t_current_span = 0;
thread_local int t_tid = 0;

int thread_tid() {
  if (t_tid == 0) t_tid = store().next_tid.fetch_add(1);
  return t_tid;
}

}  // namespace

void Tracer::enable(bool on) { store().on.store(on); }
bool Tracer::enabled() { return store().on.load(std::memory_order_relaxed); }

std::vector<SpanRecord> Tracer::take() {
  std::lock_guard<std::mutex> lock(store().mu);
  return std::move(store().spans);
}

void Tracer::record(SpanRecord r) {
  std::lock_guard<std::mutex> lock(store().mu);
  store().spans.push_back(std::move(r));
}

Span::Span(const char* layer, const char* name, std::uint64_t job,
           std::uint64_t parent, std::string arg) {
  if (!Tracer::enabled()) return;
  rec_.layer = layer;
  rec_.name = name;
  rec_.arg = std::move(arg);
  rec_.id = store().next_id.fetch_add(1);
  rec_.parent = parent == kInheritParent ? t_current_span : parent;
  rec_.job = job;
  rec_.tid = thread_tid();
  prev_current_ = t_current_span;
  t_current_span = rec_.id;
  rec_.t0 = now_s();
}

Span::~Span() {
  if (rec_.id == 0) return;
  rec_.t1 = now_s();
  t_current_span = prev_current_;
  Tracer::record(std::move(rec_));
}

std::map<std::string, double> self_time_by_layer(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const auto& s : spans) children[s.parent].push_back(&s);
  std::map<std::string, double> self;
  for (const auto& s : spans) {
    std::vector<std::pair<double, double>> iv;
    for (const SpanRecord* c : children[s.id]) {
      const double lo = std::max(c->t0, s.t0), hi = std::min(c->t1, s.t1);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[s.layer] += (s.t1 - s.t0) - covered;
  }
  return self;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (const auto& s : spans) {
    // Names and args are benchmark-chosen identifiers: no escaping needed.
    std::fprintf(f,
                 "%s{\"name\":\"%s.%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"job\":%llu,"
                 "\"arg\":\"%s\"}}",
                 first ? "" : ",\n", s.layer, s.name, s.layer, s.t0 * 1e6,
                 (s.t1 - s.t0) * 1e6, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.job), s.arg.c_str());
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---- counters ---------------------------------------------------------------

void add_comm(Counters& c, const triolet::net::CommStats& s) {
  c["net.msgs"] += static_cast<double>(s.messages_sent);
  c["net.bytes"] += static_cast<double>(s.bytes_sent);
  double coll = 0;
  for (const auto& cs : s.collectives) coll += static_cast<double>(cs.messages_sent);
  c["net.coll_msgs"] += coll;
  c["net.bytes_zero_copy"] += static_cast<double>(s.bytes_zero_copy);
  c["serial.bytes_copied"] += static_cast<double>(s.bytes_copied);
  c["msg.eager"] += static_cast<double>(s.msg.eager_msgs);
  c["msg.rendezvous"] += static_cast<double>(s.msg.rendezvous_msgs);
  c["msg.pool_hits"] += static_cast<double>(s.msg.pool_hits);
  c["msg.pool_misses"] += static_cast<double>(s.msg.pool_misses);
  c["msg.ring_full_stalls"] += static_cast<double>(s.msg.ring_full_stalls);
  const auto& r = s.residency;
  c["residency.tokens_sent"] += static_cast<double>(r.tokens_sent);
  c["residency.bytes_avoided"] += static_cast<double>(r.bytes_avoided);
  c["residency.cache_hits"] += static_cast<double>(r.cache_hits);
  c["residency.cache_misses"] += static_cast<double>(r.cache_misses);
  c["residency.fetches"] += static_cast<double>(r.fetches);
  c["residency.checksum_failures"] += static_cast<double>(r.checksum_failures);
  c["residency.evictions"] += static_cast<double>(r.evictions);
  c["views.tokens"] += static_cast<double>(s.views.view_tokens);
  c["views.bytes_avoided"] += static_cast<double>(s.views.view_bytes_avoided);
  const auto& d = s.sched;
  c["sched.grants"] += static_cast<double>(d.grants_served);
  c["sched.control_msgs"] += static_cast<double>(d.control_messages);
  c["sched.busy_s"] += d.busy_seconds;
  c["sched.idle_s"] += d.idle_seconds;
  c["sched.grant_payload_bytes"] += static_cast<double>(d.grant_payload_bytes);
  c["sched.granted_items"] += static_cast<double>(d.granted_items);
}

// ---- measurement windows --------------------------------------------------------

std::uint64_t next_job_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1);
}

void closed_loop(double seconds, int seq_every, Phase& out,
                 const std::function<JobOutcome(std::uint64_t job)>& job,
                 const std::function<double()>& seq) {
  const double start = now_s();
  out.seq_s.push_back(seq());
  int since_seq = 0;
  int seq_in_window = 1;
  while (now_s() - start < seconds || seq_in_window < 3) {
    const bool rss = reset_peak_rss();
    const JobOutcome o = job(next_job_id());
    if (rss) out.rss_peak_mb.push_back(peak_rss_mb());
    out.attempted += 1;
    out.jobs += 1;
    if (o.ok) {
      out.completed += 1;
    } else {
      out.failed += 1;
    }
    out.latency_s.push_back(o.seconds);
    out.busy_s += o.seconds;
    if (++since_seq == seq_every) {
      out.seq_s.push_back(seq());
      ++seq_in_window;
      since_seq = 0;
    }
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
