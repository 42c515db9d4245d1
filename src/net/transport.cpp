#include "net/transport.hpp"

#include <cstdlib>
#include <vector>

#include "net/mailbox.hpp"
#include "net/ring_transport.hpp"
#include "support/macros.hpp"

namespace triolet::net {

std::size_t resolve_eager_bytes(long option) {
  if (option >= 0) return static_cast<std::size_t>(option);
  if (const char* env = std::getenv("TRIOLET_EAGER_BYTES")) {
    const long v = std::atol(env);
    if (v >= 0) return static_cast<std::size_t>(v);
  }
  return kDefaultEagerBytes;
}

std::string resolve_transport_backend(const std::string& option) {
  std::string backend = option;
  if (backend.empty()) {
    if (const char* env = std::getenv("TRIOLET_TRANSPORT")) backend = env;
  }
  if (backend.empty()) backend = "ring";
  return backend;
}

namespace {

/// The baseline backend: one mutex+condvar Mailbox per rank, exactly the
/// pre-Transport data path. Endpoints are thin stateless adapters (the
/// Mailbox is already multi-producer/multi-consumer safe), shared by every
/// band — all bands' traffic interleaves in one queue per rank, which is
/// the O(pending) behavior bm_msg measures the ring plane against.
class MailboxTransport final : public Transport {
 public:
  MailboxTransport(int nranks, std::size_t max_message_bytes,
                   std::size_t eager)
      : eager_bytes_(eager) {
    inboxes_.reserve(static_cast<std::size_t>(nranks));
    endpoints_.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      inboxes_.push_back(std::make_unique<Mailbox>(max_message_bytes));
      endpoints_.push_back(
          std::make_unique<MailboxEndpoint>(this, r));
    }
  }

  int nranks() const override { return static_cast<int>(inboxes_.size()); }
  const char* name() const override { return "mailbox"; }
  std::size_t eager_bytes() const override { return eager_bytes_; }

  Endpoint& attach(int rank, int /*band_base*/) override {
    TRIOLET_CHECK(rank >= 0 && rank < nranks(),
                  "attach: rank outside the cluster");
    return *endpoints_[static_cast<std::size_t>(rank)];
  }

  std::size_t purge_tag_range(int lo, int hi) override {
    std::size_t dropped = 0;
    for (auto& inbox : inboxes_) dropped += inbox->purge_tag_range(lo, hi);
    return dropped;
  }

  void interrupt_all() override {
    for (auto& inbox : inboxes_) inbox->interrupt();
  }

  void inject(int dst, Message m) override {
    inboxes_[static_cast<std::size_t>(dst)]->push(std::move(m));
  }

 private:
  class MailboxEndpoint final : public Endpoint {
   public:
    MailboxEndpoint(MailboxTransport* t, int rank) : t_(t), rank_(rank) {}

    void deliver(int dst, int tag, serial::SegmentedBytes sg,
                 MsgStats& /*counters*/) override {
      Message m;
      m.src = rank_;
      m.tag = tag;
      m.checksum = sg.stream_checksum();
      std::vector<std::byte> flat;
      if (!sg.take_flat(flat)) {
        flat.resize(sg.size());
        sg.gather_into(flat.data());
      }
      m.payload = std::move(flat);
      t_->inboxes_[static_cast<std::size_t>(dst)]->push(std::move(m));
    }

    Message pop_match(int src, int tag, const std::atomic<bool>& aborted,
                      int wild_lo, int wild_hi,
                      const std::atomic<bool>* also_aborted) override {
      return t_->inboxes_[static_cast<std::size_t>(rank_)]->pop_match(
          src, tag, aborted, wild_lo, wild_hi, also_aborted);
    }

    Message pop_match_any(std::span<const std::pair<int, int>> patterns,
                          const std::atomic<bool>& aborted,
                          std::size_t& which, int wild_lo, int wild_hi,
                          const std::atomic<bool>* also_aborted) override {
      return t_->inboxes_[static_cast<std::size_t>(rank_)]->pop_match_any(
          patterns, aborted, which, wild_lo, wild_hi, also_aborted);
    }

    bool try_pop_match(int src, int tag, Message& out, int wild_lo,
                       int wild_hi) override {
      return t_->inboxes_[static_cast<std::size_t>(rank_)]->try_pop_match(
          src, tag, out, wild_lo, wild_hi);
    }

   private:
    MailboxTransport* t_;
    const int rank_;
  };

  const std::size_t eager_bytes_;
  std::vector<std::unique_ptr<Mailbox>> inboxes_;
  std::vector<std::unique_ptr<MailboxEndpoint>> endpoints_;
};

}  // namespace

std::unique_ptr<Transport> make_transport(int nranks,
                                          const TransportOptions& options) {
  TRIOLET_CHECK(nranks >= 1, "cluster needs at least one rank");
  const std::string backend = resolve_transport_backend(options.backend);
  const std::size_t eager = resolve_eager_bytes(options.eager_bytes);
  if (backend == "mailbox") {
    return std::make_unique<MailboxTransport>(
        nranks, options.max_message_bytes, eager);
  }
  TRIOLET_CHECK(backend == "ring",
                "TRIOLET_TRANSPORT / TransportOptions::backend must be "
                "'ring' or 'mailbox'");
  return make_ring_transport(nranks, options.max_message_bytes, eager);
}

}  // namespace triolet::net
