// rt::SocketTransport hardening regressions:
//
//  * classify_accept_error — the accept-loop retry policy as a pure
//    function (the errnos themselves are hard to force deterministically);
//  * a connection storm of aborted handshakes (RST before accept) must
//    not kill the accept loop: later well-behaved peers still connect —
//    the old loop returned on ANY accept(2) failure and silently
//    partitioned the node forever;
//  * shutdown with a still-alive remote peer: stop() must unblock reader
//    threads parked in recv on accepted connections (a hang here was
//    exactly how the first multi-process scab-client run died);
//  * stop() racing senders on other threads: no post may write its wakeup
//    into the loop's eventfd after stop() closed it;
//  * loopback round-trip latency stays in the no-Nagle regime: with
//    TCP_NODELAY on both accepted and outbound sockets the median RTT is
//    far below the ~40 ms delayed-ACK interaction the option avoids.
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "rt/transport.h"

namespace scab::rt {
namespace {

using AcceptAction = SocketTransport::AcceptAction;

TEST(AcceptErrorPolicy, TransientErrorsRetryImmediately) {
  EXPECT_EQ(SocketTransport::classify_accept_error(EINTR),
            AcceptAction::kRetry);
  EXPECT_EQ(SocketTransport::classify_accept_error(ECONNABORTED),
            AcceptAction::kRetry);
#ifdef EPROTO
  EXPECT_EQ(SocketTransport::classify_accept_error(EPROTO),
            AcceptAction::kRetry);
#endif
}

TEST(AcceptErrorPolicy, ResourceExhaustionAndUnknownErrorsSleepFirst) {
  EXPECT_EQ(SocketTransport::classify_accept_error(EMFILE),
            AcceptAction::kRetrySleep);
  EXPECT_EQ(SocketTransport::classify_accept_error(ENFILE),
            AcceptAction::kRetrySleep);
  EXPECT_EQ(SocketTransport::classify_accept_error(ENOBUFS),
            AcceptAction::kRetrySleep);
  EXPECT_EQ(SocketTransport::classify_accept_error(ENOMEM),
            AcceptAction::kRetrySleep);
  // Anything unexpected must also retry (after the sleep) — only stop()
  // may end the accept loop.
  EXPECT_EQ(SocketTransport::classify_accept_error(EINVAL),
            AcceptAction::kRetrySleep);
}

// Connects to `port` and immediately resets (SO_LINGER{1,0} -> RST on
// close).  Races accept(2) on purpose: connections reset while queued in
// the backlog surface as ECONNABORTED from accept on Linux.
void connect_and_reset(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    linger lg{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  }
  ::close(fd);
}

TEST(SocketTransportStorm, AcceptLoopSurvivesAbortedHandshakes) {
  SocketTransport server(0);
  if (!server.ok()) {
    GTEST_SKIP() << "cannot bind loopback sockets in this environment";
  }
  std::mutex mu;
  std::condition_variable cv;
  Bytes got;
  server.set_deliver([&](host::NodeId, host::NodeId, Bytes msg) {
    std::lock_guard<std::mutex> lk(mu);
    got = std::move(msg);
    cv.notify_one();
  });
  server.start();

  // Storm of handshakes reset before (or just after) accept picks them up.
  for (int i = 0; i < 64; ++i) connect_and_reset(server.port());

  // A well-behaved peer connecting afterwards must still get through.
  SocketTransport client(0);
  ASSERT_TRUE(client.ok());
  client.add_peer(1, {"127.0.0.1", server.port()});
  client.start();
  const Bytes payload = to_bytes("still-accepting");
  client.send(7, 1, payload);

  std::unique_lock<std::mutex> lk(mu);
  const bool delivered = cv.wait_for(lk, std::chrono::seconds(5),
                                     [&] { return !got.empty(); });
  ASSERT_TRUE(delivered)
      << "accept loop died during the storm; accept_errors = "
      << server.accept_errors();
  EXPECT_EQ(got, payload);
}

// stop() with a LIVE remote peer: the server's reader threads sit in recv
// on accepted connections the client keeps open.  Before inbound fds were
// tracked and shutdown(2), this join hung forever.
TEST(SocketTransportStop, UnblocksReadersWithLivePeer) {
  SocketTransport server(0);
  SocketTransport client(0);
  if (!server.ok() || !client.ok()) {
    GTEST_SKIP() << "cannot bind loopback sockets in this environment";
  }
  std::mutex mu;
  std::condition_variable cv;
  int received = 0;
  server.set_deliver([&](host::NodeId, host::NodeId, Bytes) {
    std::lock_guard<std::mutex> lk(mu);
    ++received;
    cv.notify_one();
  });
  server.start();
  client.start();
  client.add_peer(1, {"127.0.0.1", server.port()});
  client.send(7, 1, to_bytes("hold the connection open"));
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(5),
                            [&] { return received == 1; }));
  }
  // The client still holds its side open; stop() must return regardless.
  // (A regression hangs the test into its global timeout.)
  server.stop();
  client.stop();
}

// rt::ThreadHost::stop() stops the transport while node workers may still
// be inside send().  A post that read the eventfd number before stop()
// closed it used to write its 8-byte wakeup into whatever that number had
// become (ThreadSanitizer flagged the unsynchronized read).  Each round
// rebuilds the transport, as a replica restart does, and reopens the freed
// descriptor numbers as a pipe that must stay empty.
TEST(SocketTransportStop, SendersRacingStopInRestartLoop) {
  SocketTransport server(0);
  if (!server.ok()) {
    GTEST_SKIP() << "cannot bind loopback sockets in this environment";
  }
  server.start();
  for (int round = 0; round < 30; ++round) {
    SocketTransport client(0);
    ASSERT_TRUE(client.ok());
    client.add_peer(1, {"127.0.0.1", server.port()});
    client.start();
    std::atomic<bool> sending{true};
    std::vector<std::thread> senders;
    for (NodeId t = 0; t < 4; ++t) {
      senders.emplace_back([&client, &sending, t] {
        while (sending.load(std::memory_order_relaxed)) {
          client.send(10 + t, 1, Bytes(64, static_cast<uint8_t>(t)));
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    client.stop();
    int reused[2];
    const bool piped = ::pipe(reused) == 0;
    sending.store(false, std::memory_order_relaxed);
    for (auto& s : senders) s.join();
    ASSERT_TRUE(piped);
    // A send after stop() is a counted drop, never a write.
    const uint64_t dropped = client.send_errors();
    client.send(10, 1, Bytes(8, 0));
    EXPECT_EQ(client.send_errors(), dropped + 1);
    ::close(reused[1]);
    uint8_t stray = 0;
    EXPECT_EQ(::read(reused[0], &stray, 1), 0) << "a wakeup hit a reused fd";
    ::close(reused[0]);
  }
  server.stop();
}

TEST(SocketTransportLatency, LoopbackRoundTripStaysSubDelayedAck) {
  SocketTransport a(0);
  SocketTransport b(0);
  if (!a.ok() || !b.ok()) {
    GTEST_SKIP() << "cannot bind loopback sockets in this environment";
  }
  a.add_peer(2, {"127.0.0.1", b.port()});
  b.add_peer(1, {"127.0.0.1", a.port()});
  std::mutex mu;
  std::condition_variable cv;
  int pongs = 0;
  b.set_deliver([&](host::NodeId from, host::NodeId to, Bytes msg) {
    b.send(to, from, std::move(msg));  // echo
  });
  a.set_deliver([&](host::NodeId, host::NodeId, Bytes) {
    std::lock_guard<std::mutex> lk(mu);
    ++pongs;
    cv.notify_one();
  });
  a.start();
  b.start();

  const Bytes ping(64, 0x42);
  std::vector<double> rtt_ms;
  for (int i = 0; i < 50; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    a.send(1, 2, ping);
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(5),
                            [&] { return pongs == i + 1; }))
        << "lost ping " << i;
    rtt_ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
  }
  std::sort(rtt_ms.begin(), rtt_ms.end());
  const double median = rtt_ms[rtt_ms.size() / 2];
  // Delayed-ACK + Nagle interaction steps RTT to ~40 ms; with TCP_NODELAY
  // on both directions loopback stays well under a generous CI bound.
  EXPECT_LT(median, 20.0) << "median RTT suggests Nagle is back";
}

// Raises the soft RLIMIT_NOFILE toward `want` (capped by the hard limit);
// returns the resulting soft limit, or 0 if it cannot even be read.
std::size_t raise_nofile(rlim_t want) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 0;
  if (rl.rlim_cur < want) {
    rlimit raised = rl;
    raised.rlim_cur = std::min<rlim_t>(want, rl.rlim_max);
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) rl = raised;
  }
  return static_cast<std::size_t>(rl.rlim_cur);
}

// Blocking loopback connect; returns the fd or -1.
int connect_loopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// The event-loop claim, tested at the scale thread-per-connection cannot
// reach: ~1000 concurrent inbound connections served by ONE io thread,
// every connection's frame delivered while all of them stay open.  The
// connection count shrinks to the process's fd budget when the rlimit is
// tight (this binary holds both ends of every connection).
TEST(EpollSoak, ThousandConnectionsOnOneIoThread) {
  const std::size_t nofile = raise_nofile(4096);
  // Both ends live here: 2 fds per connection, plus generous headroom for
  // the transport's own fds, gtest, and stdio.
  const std::size_t budget = nofile > 256 ? (nofile - 256) / 2 : 0;
  const std::size_t conns = std::min<std::size_t>(1000, budget);
  if (conns < 64) {
    GTEST_SKIP() << "fd limit " << nofile << " leaves no room for a soak";
  }

  SocketTransport server(0, {}, 0, "127.0.0.1", /*io_threads=*/1);
  if (!server.ok()) {
    GTEST_SKIP() << "cannot bind loopback sockets in this environment";
  }
  ASSERT_EQ(server.io_threads(), 1u);
  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> payload_sum{0};
  server.set_deliver([&](host::NodeId from, host::NodeId to, Bytes msg) {
    if (to == 1 && msg.size() == 16) {
      payload_sum.fetch_add(from, std::memory_order_relaxed);
      delivered.fetch_add(1, std::memory_order_relaxed);
    }
  });
  server.start();

  // Phase 1: open every connection before sending anything, so the epoll
  // loop really multiplexes `conns` live fds at once.
  std::vector<int> fds;
  fds.reserve(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    const int fd = connect_loopback(server.port());
    if (fd < 0) break;  // fd budget mis-estimated: soak what we got
    fds.push_back(fd);
  }
  ASSERT_GE(fds.size(), 64u) << "could not open enough connections";

  // Phase 2: one frame per connection (u32 len | u32 from | u32 to | 16B).
  uint64_t expect_sum = 0;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    const uint32_t from = static_cast<uint32_t>(100 + i);
    expect_sum += from;
    uint8_t frame[12 + 16] = {};
    const uint32_t len = 16, to = 1;
    std::memcpy(frame, &len, 4);
    std::memcpy(frame + 4, &from, 4);
    std::memcpy(frame + 8, &to, 4);
    std::memset(frame + 12, 0x5d, 16);
    ASSERT_EQ(::send(fds[i], frame, sizeof(frame), 0),
              static_cast<ssize_t>(sizeof(frame)));
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (delivered.load(std::memory_order_relaxed) < fds.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(delivered.load(), fds.size())
      << "epoll loop lost frames; accept_errors = " << server.accept_errors();
  EXPECT_EQ(payload_sum.load(), expect_sum) << "from-ids corrupted in flight";

  for (int fd : fds) ::close(fd);
  server.stop();  // must unwind ~1000 registered conns promptly
}

// Same soak sharded over several io threads: accepted connections are
// spread round-robin, and every loop's share must deliver.
TEST(EpollSoak, ConnectionsSpreadAcrossIoThreads) {
  const std::size_t nofile = raise_nofile(2048);
  const std::size_t budget = nofile > 256 ? (nofile - 256) / 2 : 0;
  const std::size_t conns = std::min<std::size_t>(256, budget);
  if (conns < 32) {
    GTEST_SKIP() << "fd limit " << nofile << " leaves no room for a soak";
  }
  SocketTransport server(0, {}, 0, "127.0.0.1", /*io_threads=*/4);
  if (!server.ok()) {
    GTEST_SKIP() << "cannot bind loopback sockets in this environment";
  }
  ASSERT_EQ(server.io_threads(), 4u);
  std::atomic<uint64_t> delivered{0};
  server.set_deliver([&](host::NodeId, host::NodeId, Bytes) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  server.start();

  std::vector<int> fds;
  for (std::size_t i = 0; i < conns; ++i) {
    const int fd = connect_loopback(server.port());
    if (fd < 0) break;
    fds.push_back(fd);
    const uint32_t len = 4, from = static_cast<uint32_t>(i), to = 1;
    uint8_t frame[16] = {};
    std::memcpy(frame, &len, 4);
    std::memcpy(frame + 4, &from, 4);
    std::memcpy(frame + 8, &to, 4);
    ASSERT_EQ(::send(fd, frame, sizeof(frame), 0),
              static_cast<ssize_t>(sizeof(frame)));
  }
  ASSERT_GE(fds.size(), 32u);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (delivered.load() < fds.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(delivered.load(), fds.size());
  for (int fd : fds) ::close(fd);
  server.stop();
}

}  // namespace
}  // namespace scab::rt
