// Tests for the point-to-point contract: every send completes in the call
// (typed delivery, caller-buffer reuse, per-(src, tag) FIFO across send
// flavors, send errors thrown at the call), split-phase receives
// (irecv/wait_any/wait_all), abort cancellation, the zero-copy send
// accounting, and the reserved tag-band audit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "net/cluster.hpp"
#include "net/pool.hpp"
#include "net/tags.hpp"

namespace triolet::net {
namespace {

TEST(Async, SendDeliversTypedValues) {
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 5, std::vector<int>{1, 2, 3});
    } else {
      auto v = c.recv<std::vector<int>>(0, 5);
      EXPECT_EQ(v, (std::vector<int>{1, 2, 3}));
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Async, SenderBufferReusableImmediatelyAfterSend) {
  // The transport gathers borrowed segments before the send returns, so
  // overwriting the caller's buffer right after the call must not affect
  // what the receiver sees — for a typed send and a raw segment send alike.
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> buf(2000, 1.0);
      c.send(1, 7, buf);
      std::fill(buf.begin(), buf.end(), -9.0);
      std::vector<double> band(2000, 2.0);
      auto w = serial::ByteWriter::segmented();
      w.write_borrowable(band.data(), band.size() * sizeof(double));
      c.send_segments(1, 8, w.take_segments());
      std::fill(band.begin(), band.end(), -9.0);
    } else {
      auto v = c.recv<std::vector<double>>(0, 7);
      EXPECT_EQ(v.size(), 2000u);
      EXPECT_TRUE(std::all_of(v.begin(), v.end(),
                              [](double x) { return x == 1.0; }));
      Message m = c.recv_message(0, 8);
      ASSERT_EQ(m.payload.size(), 2000 * sizeof(double));
      std::vector<double> band(2000);
      std::memcpy(band.data(), m.payload.data(), m.payload.size());
      EXPECT_TRUE(std::all_of(band.begin(), band.end(),
                              [](double x) { return x == 2.0; }));
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Async, FifoOrderPreservedBetweenIsends) {
  // Back-to-back sends to one (dst, tag) arrive in call order. Sends now
  // complete in the call, so this is the former isend burst without handles.
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 50; ++i) c.send(1, 3, i);
    } else {
      for (int i = 0; i < 50; ++i) EXPECT_EQ(c.recv<int>(0, 3), i);
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Async, BlockingSendNeverOvertakesQueuedIsends) {
  // A small (eager) typed send posted after a burst of large (rendezvous)
  // segment sends arrives strictly after every one of them.
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 20; ++i) {
        c.send_segments(1, 3,
                        serial::to_segments(std::vector<int>(4000, i)));
      }
      c.send(1, 3, std::vector<int>{99});
    } else {
      for (int i = 0; i < 20; ++i) {
        auto v = c.recv<std::vector<int>>(0, 3);
        ASSERT_EQ(v.size(), 4000u);
        EXPECT_EQ(v.front(), i);
      }
      EXPECT_EQ(c.recv<std::vector<int>>(0, 3), std::vector<int>{99});
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Async, FifoOrderPreservedAcrossSendFlavors) {
  // Typed sends, raw-byte sends and pre-built segment sends to one
  // (dst, tag) arrive in call order, small (eager) and large (rendezvous)
  // payloads interleaved.
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 60; ++i) {
        const std::vector<int> v(i % 3 == 0 ? 4000 : 1, i);
        switch (i % 3) {
          case 0: c.send(1, 3, v); break;
          case 1: c.send_bytes(1, 3, serial::to_bytes(v)); break;
          default: c.send_segments(1, 3, serial::to_segments(v)); break;
        }
      }
      c.send(1, 3, std::vector<int>{99});
    } else {
      for (int i = 0; i < 60; ++i) {
        auto v = c.recv<std::vector<int>>(0, 3);
        ASSERT_FALSE(v.empty());
        EXPECT_EQ(v.front(), i);
        EXPECT_EQ(v.size(), i % 3 == 0 ? 4000u : 1u);
      }
      EXPECT_EQ(c.recv<std::vector<int>>(0, 3), std::vector<int>{99});
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Async, IrecvWaitAndTest) {
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 11, 42);
    } else {
      PendingRecv r = c.irecv(0, 11);
      EXPECT_EQ(r.get<int>(), 42);
      EXPECT_TRUE(r.completed());
      // Completion is sticky.
      EXPECT_TRUE(r.test());
      EXPECT_EQ(r.message().src, 0);
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Async, WaitAnyReturnsWhicheverArrives) {
  auto res = Cluster::run(3, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<PendingRecv> recvs;
      recvs.push_back(c.irecv(1, 21));
      recvs.push_back(c.irecv(2, 22));
      const std::size_t first = wait_any(recvs);
      ASSERT_LT(first, 2u);
      EXPECT_TRUE(recvs[first].completed());
      EXPECT_EQ(serial::from_bytes<int>(recvs[first].message().payload),
                first == 0 ? 100 : 200);
      // An already-completed handle wins immediately on the next call.
      EXPECT_EQ(wait_any(recvs), first);
      // The loser is still pending and completes normally.
      const std::size_t other = 1 - first;
      EXPECT_FALSE(recvs[other].completed());
      EXPECT_EQ(serial::from_bytes<int>(recvs[other].wait().payload),
                other == 0 ? 100 : 200);
    } else {
      c.send(0, 20 + c.rank(), c.rank() * 100);
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Async, WaitAllCompletesEveryHandle) {
  auto res = Cluster::run(4, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<PendingRecv> recvs;
      for (int r = 1; r < 4; ++r) recvs.push_back(c.irecv(r, 9));
      wait_all(recvs);
      int sum = 0;
      for (auto& r : recvs) {
        sum += serial::from_bytes<int>(r.message().payload);
      }
      EXPECT_EQ(sum, 1 + 2 + 3);
    } else {
      c.send(0, 9, c.rank());
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Async, LargeArraysTravelZeroCopy) {
  // A send dominated by one large trivially-copyable array should be
  // accounted almost entirely as zero-copy bytes.
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 4, std::vector<double>(100000, 0.5));
    } else {
      auto v = c.recv<std::vector<double>>(0, 4);
      EXPECT_EQ(v.size(), 100000u);
    }
  });
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.total_stats.bytes_zero_copy, 800000);
  EXPECT_EQ(res.total_stats.bytes_zero_copy + res.total_stats.bytes_copied,
            res.total_stats.bytes_sent);
}

TEST(Async, SmallMessagesStayOnTheCopiedPath) {
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 4, std::vector<int>{1, 2, 3});
    } else {
      (void)c.recv<std::vector<int>>(0, 4);
    }
  });
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.total_stats.bytes_zero_copy, 0);
  EXPECT_EQ(res.total_stats.bytes_copied, res.total_stats.bytes_sent);
}

TEST(Async, UncaughtSendOverflowFailsTheRank) {
  // A send into a bounded buffer throws at the call; left uncaught it
  // fails the rank and Cluster::run reports it.
  ClusterOptions opts;
  opts.max_message_bytes = 64;
  auto res = Cluster::run(
      2,
      [](Comm& c) {
        if (c.rank() == 0) {
          c.send(1, 1, std::vector<double>(1000, 1.0));
        } else {
          // Do not block on the oversized message; it never arrives.
          (void)c.try_recv<std::vector<double>>(0, 1);
        }
      },
      opts);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("buffer"), std::string::npos);
}

TEST(Async, SendOverflowIsCatchableAtTheCall) {
  ClusterOptions opts;
  opts.max_message_bytes = 64;
  std::atomic<bool> threw{false};
  auto res = Cluster::run(
      2,
      [&](Comm& c) {
        if (c.rank() == 0) {
          try {
            c.send(1, 1, std::vector<double>(1000, 1.0));
          } catch (const BufferOverflow&) {
            threw.store(true);
          }
          // The Comm stays usable after the refused send.
          c.send(1, 2, 7);
        } else {
          EXPECT_EQ(c.recv<int>(0, 2), 7);
        }
      },
      opts);
  EXPECT_TRUE(res.ok);  // the error was caught and handled by the rank body
  EXPECT_TRUE(threw.load());
}

TEST(Async, AbortCancelsQueuedOperations) {
  // Rank 1 dies; rank 0's posted receives are cancelled with
  // ClusterAborted, its later sends to the dead rank strand in the
  // transport, and the cluster reports the root cause. Teardown returns
  // every stranded buffer to the pool.
  const std::int64_t pool_before = BufferPool::instance().outstanding();
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<PendingRecv> recvs;
      recvs.push_back(c.irecv(1, 1));
      recvs.push_back(c.irecv(1, 2));
      try {
        (void)wait_any(recvs);  // the peer never sends
      } catch (const ClusterAborted&) {
        for (int i = 0; i < 4; ++i) c.send(1, 2, std::vector<int>(i * 600, i));
        throw;
      }
    } else {
      throw std::runtime_error("rank 1 exploded");
    }
  });
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error, "rank 1 exploded");
  EXPECT_EQ(BufferPool::instance().outstanding(), pool_before);
}

TEST(Async, IrecvUnblocksOnPeerFailure) {
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      PendingRecv r = c.irecv(1, 1);
      EXPECT_THROW((void)r.wait(), ClusterAborted);
    } else {
      throw std::runtime_error("peer died");
    }
  });
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error, "peer died");
}

// -- tag band audit -----------------------------------------------------------

TEST(TagBands, ReservedBandsAreDisjoint) {
  std::string why;
  EXPECT_TRUE(tag_bands_disjoint(reserved_tag_bands(), &why)) << why;
}

TEST(TagBands, OverlapIsDetected) {
  const TagBand bands[] = {
      {"a", 0, 100},
      {"b", 50, 150},
  };
  std::string why;
  EXPECT_FALSE(tag_bands_disjoint(bands, &why));
  EXPECT_NE(why.find("overlap"), std::string::npos);
  EXPECT_NE(why.find("'a'"), std::string::npos);
  EXPECT_NE(why.find("'b'"), std::string::npos);
}

TEST(TagBands, EmptyBandIsRejected) {
  const TagBand bands[] = {{"empty", 10, 10}};
  std::string why;
  EXPECT_FALSE(tag_bands_disjoint(bands, &why));
  EXPECT_NE(why.find("empty"), std::string::npos);
}

TEST(TagBands, ReservedBandsSitAboveUserSpace) {
  EXPECT_GE(kTagSchedBand, kUserTagLimit);
  EXPECT_GE(kTagResidencyBand, kUserTagLimit);
  EXPECT_GE(kTagGroupBand, kUserTagLimit);
  EXPECT_GE(kFirstReservedTag, kUserTagLimit);
}

}  // namespace
}  // namespace triolet::net
