#pragma once

// Transport: the seam between Comm and the bytes-moving substrate.
//
// Comm implements the MPI-shaped API (typed sends, collectives, services,
// tag mapping, stats attribution); a Transport moves finished payloads
// between ranks and matches them on the receive side. Carving this seam is
// the first step toward ROADMAP item 3 (pluggable multi-process backends):
// a socket or shared-memory backend is a third implementation of the same
// five virtuals, invisible to every layer above Comm.
//
// Two in-process backends ship today:
//
//   ring      (default) the lock-free data plane: per-(sender, receiver)
//             SPSC descriptor rings drained into a receiver-private
//             tag-indexed match table, slab-pooled eager payloads, and an
//             ownership-passing rendezvous path for large messages
//             (net/ring_transport.hpp).
//   mailbox   the original mutex+condvar Mailbox per rank with O(pending)
//             linear-scan matching. Kept as the baseline bm_msg measures
//             against and as the semantic reference for equivalence tests.
//
// Selection: TransportOptions::backend, else the TRIOLET_TRANSPORT
// environment variable ("ring" | "mailbox"), else ring.
//
// Threading contract (both backends satisfy it; future backends must):
//   - deliver() on an endpoint attached as rank r is called only by r's
//     rank thread, and gathers every borrowed segment before returning.
//   - pop_match / pop_match_any / try_pop_match on an endpoint are called
//     only by the owning rank thread.
//   - purge_tag_range(lo, hi) requires the tag range to be quiescent: no
//     rank thread is sending or receiving traffic in [lo, hi) (the service
//     layer purges a band after joining the band's rank threads).
//   - interrupt_all() and inject() may be called from any thread.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "net/message.hpp"
#include "serial/bytes.hpp"
#include "serial/serialize.hpp"

namespace triolet::net {

/// Default eager threshold when neither TransportOptions::eager_bytes nor
/// TRIOLET_EAGER_BYTES overrides it.
inline constexpr std::size_t kDefaultEagerBytes = 4096;

struct TransportOptions {
  /// "ring", "mailbox", or "" (resolve from TRIOLET_TRANSPORT, default
  /// ring).
  std::string backend{};
  /// 0 = unbounded; nonzero models bounded message buffers (BufferOverflow
  /// thrown at the sender, as Mailbox::push always did).
  std::size_t max_message_bytes = 0;
  /// Payloads <= this many bytes are copied inline into a pooled slab
  /// (eager); larger payloads change hands as owned buffers (rendezvous).
  /// -1 = resolve from TRIOLET_EAGER_BYTES, default kDefaultEagerBytes.
  /// 0 is valid and forces the rendezvous path for every non-empty payload.
  long eager_bytes = -1;
};

/// Messaging data-plane counters a transport increments as it moves
/// traffic: protocol split and buffer-pool behavior. After warmup,
/// pool_misses staying flat is the zero-steady-state-allocation property;
/// ring_full_stalls counts sends that overflowed a full ring into the
/// (ordered, unbounded) overflow lane. Plain fields: only the sending rank
/// thread touches them.
struct MsgStats {
  std::int64_t eager_msgs = 0;        // payloads copied into pooled slabs
  std::int64_t rendezvous_msgs = 0;   // payloads handed off whole
  std::int64_t pool_hits = 0;         // slab allocations served by freelists
  std::int64_t pool_misses = 0;       // slab allocations that hit the heap
  std::int64_t ring_full_stalls = 0;  // sends diverted to the overflow lane
};
TRIOLET_STATS_FIELDS(MsgStats, eager_msgs, rendezvous_msgs, pool_hits,
                     pool_misses, ring_full_stalls)

class Transport {
 public:
  /// One rank's attachment to the transport within one tag band (a leased
  /// job band under the service layer, band 0 otherwise). The endpoint is
  /// owned by the transport and stays valid for the transport's lifetime.
  class Endpoint {
   public:
    virtual ~Endpoint() = default;

    /// Ships `sg` to rank `dst` under (already band-mapped) `tag`, stamped
    /// with sg.stream_checksum(). Borrowed segments in `sg` are copied
    /// before return, so they only need to live for the call. Throws
    /// BufferOverflow when sg.size() exceeds the configured limit.
    virtual void deliver(int dst, int tag, serial::SegmentedBytes sg,
                         MsgStats& counters) = 0;

    /// Blocks until a message matching (src, tag) is available and removes
    /// it. kAnySource / kAnyTag act as wildcards; a kAnyTag pattern only
    /// matches tags in [wild_lo, wild_hi). Throws ClusterAborted when
    /// `aborted` (or the optional `also_aborted`) is raised while waiting.
    virtual Message pop_match(int src, int tag,
                              const std::atomic<bool>& aborted, int wild_lo,
                              int wild_hi,
                              const std::atomic<bool>* also_aborted) = 0;

    /// Blocks until a message matching any of `patterns` is available;
    /// removes and returns it with `which` set to the matching pattern
    /// index. When several patterns could match queued messages, the
    /// earliest-arrived message wins (and ties go to the lowest pattern
    /// index), preserving per-(src, tag) FIFO delivery.
    virtual Message pop_match_any(
        std::span<const std::pair<int, int>> patterns,
        const std::atomic<bool>& aborted, std::size_t& which, int wild_lo,
        int wild_hi, const std::atomic<bool>* also_aborted) = 0;

    /// Non-blocking pop_match; returns false when nothing matches.
    virtual bool try_pop_match(int src, int tag, Message& out, int wild_lo,
                               int wild_hi) = 0;
  };

  virtual ~Transport() = default;

  virtual int nranks() const = 0;
  virtual const char* name() const = 0;

  /// This transport's resolved eager threshold in bytes.
  virtual std::size_t eager_bytes() const = 0;

  /// The endpoint of `rank` in the band starting at `band_base` (0 = the
  /// identity band). Thread-safe; idempotent per (rank, band_base).
  virtual Endpoint& attach(int rank, int band_base) = 0;

  /// Drops every pending message whose tag is in [lo, hi) on every rank —
  /// including descriptors still in flight inside rings — returning their
  /// buffers to the pool. Returns how many messages were dropped. See the
  /// quiescence contract in the file comment.
  virtual std::size_t purge_tag_range(int lo, int hi) = 0;

  /// Wakes every blocked receiver without delivering anything; waiters
  /// re-check their abort flags (cluster-wide and per-job) and either
  /// throw ClusterAborted or go back to sleep.
  virtual void interrupt_all() = 0;

  /// Test hook: deposits `m` at rank `dst` exactly as given — checksum and
  /// src are NOT recomputed, so tests can inject corrupted traffic.
  virtual void inject(int dst, Message m) = 0;
};

/// Resolves TransportOptions::eager_bytes (-1 = TRIOLET_EAGER_BYTES env,
/// default kDefaultEagerBytes).
std::size_t resolve_eager_bytes(long option);

/// Resolves the backend name ("" = TRIOLET_TRANSPORT env, default "ring").
std::string resolve_transport_backend(const std::string& option);

/// Builds the configured transport for an `nranks`-rank cluster.
std::unique_ptr<Transport> make_transport(int nranks,
                                          const TransportOptions& options);

}  // namespace triolet::net
