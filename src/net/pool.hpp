#pragma once

// Slab-pooled buffer allocator for the messaging data plane.
//
// Every eager message payload, rendezvous descriptor node, and match-table
// entry in the ring transport lives in a pooled slab, so steady-state
// messaging performs zero heap allocations: a slab freed by the receiver is
// reused by the next sender. The design is a two-level tcmalloc-style pool:
//
//   thread cache   per-thread intrusive freelists, one per size class; no
//                  locks on the hot path. The free slab's own bytes store
//                  the list link, so the cache itself allocates nothing.
//   central depot  per-class mutex-protected freelist; thread caches refill
//                  from it in batches and flush overflow back, so slabs
//                  migrate between threads (sender allocates, receiver
//                  frees) without unbounded growth in any one cache.
//
// Size classes are powers of two from 64 B to 64 KiB. Requests above the
// largest class fall through to the system allocator (class kHeapClass) and
// are counted as pool misses — by default the eager threshold (4 KiB) keeps
// every eager payload far inside the classed range, and rendezvous payloads
// travel as recycled vectors, not slabs.
//
// The pool is a process-global leaky singleton: thread-cache destructors
// flush into the central depot on thread exit (cluster rank threads come
// and go), and the depot itself is never destroyed, so destruction order
// can never strand a flush.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace triolet::net {

/// Number of power-of-two size classes: 64 << 0 ... 64 << 10 (64 B..64 KiB).
inline constexpr std::uint32_t kPoolNumClasses = 11;
inline constexpr std::size_t kPoolMinSlab = 64;
inline constexpr std::size_t kPoolMaxSlab = kPoolMinSlab
                                            << (kPoolNumClasses - 1);
/// Class id for oversized requests served by the system allocator.
inline constexpr std::uint32_t kHeapClass = 0xFFu;

class BufferPool {
 public:
  struct Alloc {
    std::byte* p = nullptr;
    std::uint32_t cls = kHeapClass;
    bool pool_hit = false;  // served from a freelist (no system allocation)
  };

  /// The process-wide pool (leaky singleton; see file comment).
  static BufferPool& instance();

  /// Smallest class whose slab holds `n` bytes; kHeapClass when n exceeds
  /// the largest class.
  static std::uint32_t class_for(std::size_t n) {
    std::size_t sz = kPoolMinSlab;
    for (std::uint32_t c = 0; c < kPoolNumClasses; ++c, sz <<= 1) {
      if (n <= sz) return c;
    }
    return kHeapClass;
  }

  static std::size_t class_bytes(std::uint32_t cls) {
    return kPoolMinSlab << cls;
  }

  /// Allocates a slab holding at least `n` bytes (n > 0).
  Alloc allocate(std::size_t n);

  /// Returns a slab obtained from allocate(). Safe from any thread — the
  /// slab lands in the *caller's* thread cache, which is exactly how slabs
  /// a sender allocated come back from the receiver.
  void release(std::byte* p, std::uint32_t cls) noexcept;

  /// Slabs currently checked out (allocate minus release), including
  /// heap-class ones. A quiescent cluster must read 0 here; the service
  /// layer's band-reclaim tests assert it to prove a killed job's in-flight
  /// descriptors were swept back into the pool.
  std::int64_t outstanding() const {
    return outstanding_.load(std::memory_order_acquire);
  }

 private:
  BufferPool() = default;

  struct FreeNode {
    FreeNode* next;
  };

  struct Central {
    std::mutex mu;
    FreeNode* head = nullptr;
    std::size_t count = 0;
  };

  friend struct PoolThreadCache;

  Central central_[kPoolNumClasses];
  std::atomic<std::int64_t> outstanding_{0};
};

}  // namespace triolet::net
