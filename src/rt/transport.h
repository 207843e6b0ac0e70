// Real-time transports for rt::ThreadHost.
//
//  * ChannelTransport — in-process loopback: send() invokes the delivery
//    callback synchronously on the sender's thread; the host then enqueues
//    onto the receiver's mailbox.  Zero-copy handoff, no sockets.
//  * SocketTransport — length-prefixed TCP for multi-process runs.  One
//    listening socket per transport serves all of the process's local
//    nodes; remote node ids are routed by a peer table.  Frame format
//    (little-endian): u32 payload_len | u32 from | u32 to | payload.
//
//    Internally an EPOLL EVENT LOOP, not thread-per-connection: each of the
//    `io_threads` loops multiplexes its share of the connections through one
//    epoll fd with nonblocking accept/read/write, so thousands of inbound
//    connections cost one thread, not one thread each.  Cross-thread sends
//    are handed to the owning loop via a task queue + eventfd wakeup;
//    per-connection write queues toggle EPOLLOUT interest for backpressure.
//
// Transports are dumb pipes: no retries, no ordering guarantees beyond TCP
// per-connection FIFO, no authentication (the protocol layer MACs every
// message; see bft/envelope.h).  Failures are never silent, though: every
// dropped send is counted in "net.rt.send_errors" (see bind_metrics), broken
// fds are closed and forgotten, and reconnects back off exponentially with
// deterministic jitter so a dead peer cannot make every send() eat a
// connect() timeout.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "host/time.h"
#include "obs/metrics.h"

namespace scab::rt {

using host::NodeId;

class Transport {
 public:
  /// Called for every arriving message; may run on any transport thread.
  using DeliverFn = std::function<void(NodeId from, NodeId to, Bytes msg)>;

  virtual ~Transport() = default;

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  virtual void send(NodeId from, NodeId to, Bytes msg) = 0;
  /// Starts background machinery (accept loops); no-op by default.
  virtual void start() {}
  /// Stops background machinery and joins its threads; idempotent.
  virtual void stop() {}

 protected:
  DeliverFn deliver_;
};

/// In-process loopback: every node lives in this process.
class ChannelTransport final : public Transport {
 public:
  void send(NodeId from, NodeId to, Bytes msg) override {
    if (deliver_) deliver_(from, to, std::move(msg));
  }
};

/// Length-prefixed TCP transport for multi-process deployments.
///
/// Destinations found in the peer table go over TCP (connections are opened
/// lazily and cached); everything else is assumed local and short-circuits
/// to the delivery callback, so a process can host several nodes.
class SocketTransport final : public Transport {
 public:
  struct Peer {
    std::string ip;  // dotted quad
    uint16_t port = 0;
  };

  /// Binds and listens on `bind_ip`:`listen_port` (0 = ephemeral; see
  /// port()).  Check ok() before use — binding can fail in sandboxed
  /// environments.  `jitter_seed` feeds the deterministic
  /// reconnect-backoff jitter.  The default bind address stays loopback
  /// (tests, single-host clusters); the daemon passes "0.0.0.0" for real
  /// deployments.  `io_threads` is the number of epoll event loops
  /// (clamped to >= 1); connections are spread across them.
  explicit SocketTransport(uint16_t listen_port,
                           std::map<NodeId, Peer> peers = {},
                           uint64_t jitter_seed = 0,
                           const std::string& bind_ip = "127.0.0.1",
                           std::size_t io_threads = 1);
  ~SocketTransport() override;

  /// How accept(2) errors are handled (classification is a pure function
  /// so the retry policy is unit-testable): transient conditions retry —
  /// a signal mid-accept (EINTR) or a peer that reset before we picked the
  /// connection up (ECONNABORTED, EPROTO) immediately; resource
  /// exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) after a short sleep so the
  /// process can shed load.  Everything else also sleeps briefly and
  /// retries — the accept loop only exits when stop() closes the listen
  /// socket.  Exiting on a transient error (the old behaviour) killed the
  /// accept thread forever and silently partitioned the node.
  enum class AcceptAction : uint8_t { kRetry, kRetrySleep };
  static AcceptAction classify_accept_error(int err);

  bool ok() const { return listen_fd_ >= 0; }
  uint16_t port() const { return port_; }
  std::size_t io_threads() const { return loops_.size(); }

  /// Adds/replaces a remote route (before start(); not thread-safe after).
  void add_peer(NodeId id, Peer peer) { peers_[id] = std::move(peer); }

  /// Publishes "net.rt.send_errors" and "net.rt.accept_errors" into `m`
  /// (before start(); not thread-safe after).  Without this, errors still
  /// count locally.
  void bind_metrics(obs::MetricsRegistry* m) {
    if (m) {
      send_errors_counter_ = &m->counter("net.rt.send_errors");
      accept_errors_counter_ = &m->counter("net.rt.accept_errors");
    }
  }
  /// Sends dropped on this transport: connect failures, mid-frame write
  /// failures, and sends suppressed while a peer's backoff gate is closed.
  uint64_t send_errors() const {
    return send_errors_.load(std::memory_order_relaxed);
  }
  /// accept(2) failures survived by the accept loop (EINTR, aborted
  /// handshakes, fd exhaustion, ...); each was retried, never fatal.
  uint64_t accept_errors() const {
    return accept_errors_.load(std::memory_order_relaxed);
  }

  void start() override;
  void stop() override;
  void send(NodeId from, NodeId to, Bytes msg) override;

 private:
  /// One connection's state, owned exclusively by the event loop it is
  /// registered with — no lock needed on any per-connection field.
  struct Conn {
    int fd = -1;
    bool outbound = false;    // we opened it (has a dest); else accepted
    bool connecting = false;  // nonblocking connect awaiting EPOLLOUT
    bool want_write = false;  // EPOLLOUT currently armed
    NodeId dest = 0;          // valid when outbound
    // Inbound ring: bytes appended on read, frames consumed from in_off
    // (compacted periodically instead of erasing per frame).
    Bytes inbuf;
    std::size_t in_off = 0;
    // Outbound queue of fully framed messages; out_off is the write cursor
    // into the front frame.  Bounded by kMaxOutqBytes (backpressure: excess
    // sends are dropped and counted, never buffered unboundedly).
    std::deque<Bytes> outq;
    std::size_t out_off = 0;
    std::size_t outq_bytes = 0;
  };

  /// Outbound reconnect gate for one peer (loop-thread-only state).
  /// fd < 0 means disconnected; after a failure, reconnect attempts are
  /// gated by next_attempt with capped exponential backoff (plus jitter)
  /// keyed on consecutive failures.
  struct OutState {
    int fd = -1;
    uint32_t failures = 0;
    std::chrono::steady_clock::time_point next_attempt{};
  };

  /// One epoll event loop.  Everything except the cross-thread handoff
  /// (`tasks`, `wake_armed`, `closed`, and writes to `wake_fd`, all under
  /// `mu`) is touched only by the loop's own thread.
  struct Loop {
    std::size_t idx = 0;
    int epfd = -1;
    int wake_fd = -1;  // eventfd: cross-thread task handoff
    std::thread thread;
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
    bool wake_armed = false;
    bool closed = false;  // wake_fd is closed: posts are dropped
    std::unordered_map<int, std::unique_ptr<Conn>> conns;  // by fd
    std::unordered_map<NodeId, OutState> outs;             // by dest
    uint64_t jitter_state = 0;
  };

  Loop& loop_for(NodeId to) { return *loops_[to % loops_.size()]; }
  void loop_run(Loop& loop);
  /// Queues `task` on the loop and wakes it; false (task dropped) once
  /// stop() has closed the loop.
  bool loop_post(Loop& loop, std::function<void()> task);
  void loop_send(Loop& loop, NodeId to, Bytes frame);
  void adopt_inbound(Loop& loop, int fd);
  void handle_accept(Loop& loop);
  void handle_wake(Loop& loop);
  /// Returns false if the connection was killed.
  bool handle_read(Loop& loop, int fd);
  bool flush_writes(Loop& loop, int fd);
  void kill_conn(Loop& loop, int fd);
  void set_write_interest(Loop& loop, Conn& c, bool on);
  void note_send_error(uint64_t n = 1);
  void note_accept_error();
  void arm_backoff(Loop& loop, OutState& out);

  std::map<NodeId, Peer> peers_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::size_t accept_rr_ = 0;  // round-robin for accepted fds; loop 0 only
  std::mutex lifecycle_mu_;    // guards started_/stop_done_ transitions
  bool started_ = false;
  bool stop_done_ = false;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> send_errors_{0};
  std::atomic<uint64_t> accept_errors_{0};
  obs::Counter* send_errors_counter_ = nullptr;
  obs::Counter* accept_errors_counter_ = nullptr;
};

}  // namespace scab::rt
