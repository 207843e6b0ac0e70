#include "rt/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

namespace scab::rt {

namespace {

// Reconnect backoff: base << min(failures, kMaxBackoffShift), plus jitter.
constexpr auto kReconnectBase = std::chrono::milliseconds(10);
constexpr uint32_t kMaxBackoffShift = 6;  // caps at 640 ms

// Hard ceiling on a frame's payload; anything bigger is a protocol error
// (or an attack) and kills the connection.
constexpr uint32_t kMaxFrame = 64u << 20;

// Per-connection write-queue byte cap: a dest that stops draining cannot
// buffer the sender to death — overflowing sends are dropped and counted.
constexpr std::size_t kMaxOutqBytes = std::size_t{1} << 28;  // 256 MB

// Compact the inbound ring once the consumed prefix crosses this.
constexpr std::size_t kInbufCompactAt = std::size_t{1} << 20;  // 1 MB

void put_u32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

uint32_t get_u32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// One framed message: u32 payload_len | u32 from | u32 to | payload.
Bytes make_frame(NodeId from, NodeId to, BytesView payload) {
  Bytes frame(12 + payload.size());
  put_u32(frame.data(), static_cast<uint32_t>(payload.size()));
  put_u32(frame.data() + 4, from);
  put_u32(frame.data() + 8, to);
  std::memcpy(frame.data() + 12, payload.data(), payload.size());
  return frame;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / lifecycle

SocketTransport::SocketTransport(uint16_t listen_port,
                                 std::map<NodeId, Peer> peers,
                                 uint64_t jitter_seed,
                                 const std::string& bind_ip,
                                 std::size_t io_threads)
    : peers_(std::move(peers)) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listen_port);
  if (::inet_pton(AF_INET, bind_ip.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    ::close(fd);
    return;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return;
  }
  port_ = ntohs(bound.sin_port);

  const std::size_t nloops = std::max<std::size_t>(1, io_threads);
  for (std::size_t i = 0; i < nloops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->idx = i;
    loop->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    // Distinct deterministic jitter stream per loop.
    loop->jitter_state =
        (jitter_seed ^ (0x9e3779b97f4a7c15ULL * (i + 1))) | 1;
    if (loop->epfd < 0 || loop->wake_fd < 0) {
      if (loop->epfd >= 0) ::close(loop->epfd);
      if (loop->wake_fd >= 0) ::close(loop->wake_fd);
      for (auto& l : loops_) {
        ::close(l->epfd);
        ::close(l->wake_fd);
      }
      loops_.clear();
      ::close(fd);
      return;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wake_fd;
    ::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    loops_.push_back(std::move(loop));
  }
  // Loop 0 owns the listening socket.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  ::epoll_ctl(loops_[0]->epfd, EPOLL_CTL_ADD, fd, &ev);
  listen_fd_ = fd;
}

SocketTransport::~SocketTransport() { stop(); }

void SocketTransport::start() {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (started_ || stop_done_ || listen_fd_ < 0) return;
  started_ = true;
  for (auto& loop : loops_) {
    Loop* l = loop.get();
    l->thread = std::thread([this, l] { loop_run(*l); });
  }
}

void SocketTransport::stop() {
  {
    std::lock_guard<std::mutex> lk(lifecycle_mu_);
    if (stop_done_) return;
    stop_done_ = true;
  }
  stopping_.store(true, std::memory_order_release);
  for (auto& loop : loops_) loop_post(*loop, [] {});  // wake every loop
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Threads are gone: tear down every fd without races.  Senders may still
  // be posting (ThreadHost::stop() stops the transport before the node
  // workers), so the eventfd closes under the loop's lock, behind the
  // closed flag every post checks before its wake write.
  for (auto& loop : loops_) {
    for (auto& [fd, conn] : loop->conns) ::close(fd);
    loop->conns.clear();
    loop->outs.clear();
    if (loop->epfd >= 0) ::close(loop->epfd);
    loop->epfd = -1;
    std::lock_guard<std::mutex> lk(loop->mu);
    loop->closed = true;
    loop->tasks.clear();
    if (loop->wake_fd >= 0) ::close(loop->wake_fd);
    loop->wake_fd = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// Error accounting / policy

SocketTransport::AcceptAction SocketTransport::classify_accept_error(int err) {
  switch (err) {
    case EINTR:
    case ECONNABORTED:
#ifdef EPROTO
    case EPROTO:
#endif
      return AcceptAction::kRetry;
    default:
      // EMFILE/ENFILE/ENOBUFS/ENOMEM and anything unexpected: shed load
      // briefly, then keep accepting — only stop() ends the loop.
      return AcceptAction::kRetrySleep;
  }
}

void SocketTransport::note_send_error(uint64_t n) {
  send_errors_.fetch_add(n, std::memory_order_relaxed);
  if (send_errors_counter_ != nullptr) send_errors_counter_->inc(n);
}

void SocketTransport::note_accept_error() {
  accept_errors_.fetch_add(1, std::memory_order_relaxed);
  if (accept_errors_counter_ != nullptr) accept_errors_counter_->inc();
}

void SocketTransport::arm_backoff(Loop& loop, OutState& out) {
  out.failures++;
  const auto backoff = kReconnectBase * (int64_t{1} << std::min(
                                            out.failures - 1, kMaxBackoffShift));
  // xorshift64: deterministic per-loop jitter in [0, backoff/2).
  uint64_t x = loop.jitter_state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  loop.jitter_state = x;
  const auto jitter = backoff.count() > 1
                          ? std::chrono::milliseconds(
                                x % static_cast<uint64_t>(backoff.count() / 2))
                          : std::chrono::milliseconds(0);
  out.next_attempt = std::chrono::steady_clock::now() + backoff + jitter;
}

// ---------------------------------------------------------------------------
// Event loop

void SocketTransport::loop_run(Loop& loop) {
  std::vector<epoll_event> events(256);
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(loop.epfd, events.data(),
                     static_cast<int>(events.size()), /*timeout_ms=*/500);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epfd broken: only stop() does this
    }
    for (int i = 0; i < n; ++i) {
      if (stopping_.load(std::memory_order_acquire)) return;
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == loop.wake_fd) {
        handle_wake(loop);
        continue;
      }
      if (loop.idx == 0 && fd == listen_fd_) {
        handle_accept(loop);
        continue;
      }
      auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;  // killed earlier this batch
      Conn& c = *it->second;
      if (c.connecting && (ev & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) {
        int err = 0;
        socklen_t errlen = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &errlen);
        if (err != 0) {
          kill_conn(loop, fd);
          continue;
        }
        c.connecting = false;
        loop.outs[c.dest].failures = 0;
        if (!flush_writes(loop, fd)) continue;
        if ((ev & EPOLLIN) != 0 && !handle_read(loop, fd)) continue;
        continue;
      }
      if ((ev & EPOLLIN) != 0 && !handle_read(loop, fd)) continue;
      if ((ev & EPOLLOUT) != 0 && !flush_writes(loop, fd)) continue;
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0) kill_conn(loop, fd);
    }
  }
}

bool SocketTransport::loop_post(Loop& loop, std::function<void()> task) {
  // The wake write stays under the lock: stop() closes the eventfd under
  // the same lock, so a post never writes into a closed (or, worse,
  // reused) descriptor.  The write to a nonblocking eventfd never waits.
  std::lock_guard<std::mutex> lk(loop.mu);
  if (loop.closed) return false;
  loop.tasks.push_back(std::move(task));
  if (!loop.wake_armed) {
    loop.wake_armed = true;
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t rc =
        ::write(loop.wake_fd, &one, sizeof(one));
  }
  return true;
}

void SocketTransport::handle_wake(Loop& loop) {
  uint64_t drain = 0;
  [[maybe_unused]] const ssize_t rc =
      ::read(loop.wake_fd, &drain, sizeof(drain));
  std::deque<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lk(loop.mu);
    tasks.swap(loop.tasks);
    loop.wake_armed = false;
  }
  for (auto& t : tasks) t();
}

void SocketTransport::handle_accept(Loop& loop) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      set_nodelay(fd);
      Loop& target = *loops_[accept_rr_++ % loops_.size()];
      if (&target == &loop) {
        adopt_inbound(loop, fd);
      } else if (!loop_post(target, [this, &target, fd] {
                   adopt_inbound(target, fd);
                 })) {
        ::close(fd);
      }
      continue;
    }
    const int err = errno;
    // Drained the backlog: the normal exit for nonblocking accept, NOT an
    // error (counting it would swamp accept_errors with noise).
    if (err == EAGAIN || err == EWOULDBLOCK) return;
    if (stopping_.load(std::memory_order_acquire)) return;
    note_accept_error();
    if (classify_accept_error(err) == AcceptAction::kRetry) continue;
    // Resource exhaustion (EMFILE & co.): shed load briefly.  The socket is
    // level-triggered, so pending connections re-arm the event.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return;
  }
}

void SocketTransport::adopt_inbound(Loop& loop, int fd) {
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(loop.epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  loop.conns.emplace(fd, std::move(conn));
}

void SocketTransport::set_write_interest(Loop& loop, Conn& c, bool on) {
  if (c.want_write == on) return;
  c.want_write = on;
  epoll_event ev{};
  ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
  ev.data.fd = c.fd;
  ::epoll_ctl(loop.epfd, EPOLL_CTL_MOD, c.fd, &ev);
}

void SocketTransport::kill_conn(Loop& loop, int fd) {
  auto it = loop.conns.find(fd);
  if (it == loop.conns.end()) return;
  Conn& c = *it->second;
  if (c.outbound) {
    // Every queued frame is one send() that will never reach the wire.
    if (!c.outq.empty()) note_send_error(c.outq.size());
    auto oit = loop.outs.find(c.dest);
    if (oit != loop.outs.end()) {
      oit->second.fd = -1;
      arm_backoff(loop, oit->second);
    }
  }
  ::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  loop.conns.erase(it);
}

bool SocketTransport::flush_writes(Loop& loop, int fd) {
  auto it = loop.conns.find(fd);
  if (it == loop.conns.end()) return false;
  Conn& c = *it->second;
  if (c.connecting) return true;  // wait for the connect to resolve
  while (!c.outq.empty()) {
    const Bytes& front = c.outq.front();
    const ssize_t n = ::send(c.fd, front.data() + c.out_off,
                             front.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      if (c.out_off == front.size()) {
        c.outq_bytes -= front.size();
        c.outq.pop_front();
        c.out_off = 0;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      set_write_interest(loop, c, true);  // kernel buffer full: backpressure
      return true;
    }
    kill_conn(loop, fd);
    return false;
  }
  set_write_interest(loop, c, false);
  return true;
}

bool SocketTransport::handle_read(Loop& loop, int fd) {
  auto it = loop.conns.find(fd);
  if (it == loop.conns.end()) return false;
  Conn& c = *it->second;
  uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.inbuf.insert(c.inbuf.end(), buf, buf + static_cast<std::size_t>(n));
      // Parse every complete frame in the buffer.
      while (c.inbuf.size() - c.in_off >= 12) {
        const uint8_t* p = c.inbuf.data() + c.in_off;
        const uint32_t len = get_u32(p);
        if (len > kMaxFrame) {  // corrupt or hostile: drop the connection
          kill_conn(loop, fd);
          return false;
        }
        if (c.inbuf.size() - c.in_off < 12 + static_cast<std::size_t>(len)) {
          break;
        }
        const NodeId from = get_u32(p + 4);
        const NodeId to = get_u32(p + 8);
        if (deliver_) {
          deliver_(from, to, Bytes(p + 12, p + 12 + len));
        }
        c.in_off += 12 + static_cast<std::size_t>(len);
      }
      if (c.in_off == c.inbuf.size()) {
        c.inbuf.clear();
        c.in_off = 0;
      } else if (c.in_off >= kInbufCompactAt) {
        c.inbuf.erase(c.inbuf.begin(),
                      c.inbuf.begin() + static_cast<std::ptrdiff_t>(c.in_off));
        c.in_off = 0;
      }
      if (static_cast<std::size_t>(n) < sizeof(buf)) return true;
      continue;  // might be more: keep draining (level-triggered is safe
                 // either way, but this saves an epoll_wait round)
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    kill_conn(loop, fd);  // EOF or hard error
    return false;
  }
}

// ---------------------------------------------------------------------------
// Send path

void SocketTransport::send(NodeId from, NodeId to, Bytes msg) {
  auto pit = peers_.find(to);
  if (pit == peers_.end()) {
    // Local destination: short-circuit to delivery on the caller's thread.
    if (deliver_) deliver_(from, to, std::move(msg));
    return;
  }
  if (msg.size() > kMaxFrame) {
    note_send_error();
    return;
  }
  if (stopping_.load(std::memory_order_acquire) || loops_.empty()) {
    note_send_error();
    return;
  }
  // Frame on the caller's thread (one copy), then hand to the owning loop.
  Bytes frame = make_frame(from, to, msg);
  Loop& loop = loop_for(to);
  if (!loop_post(loop, [this, &loop, to, frame = std::move(frame)]() mutable {
        loop_send(loop, to, std::move(frame));
      })) {
    note_send_error();  // raced stop(): dropped and counted like any other
  }
}

void SocketTransport::loop_send(Loop& loop, NodeId to, Bytes frame) {
  OutState& out = loop.outs[to];
  if (out.fd >= 0) {
    auto it = loop.conns.find(out.fd);
    if (it != loop.conns.end()) {
      Conn& c = *it->second;
      if (c.outq_bytes + frame.size() > kMaxOutqBytes) {
        note_send_error();  // dest not draining: drop, do not buffer forever
        return;
      }
      c.outq_bytes += frame.size();
      c.outq.push_back(std::move(frame));
      if (!c.connecting) flush_writes(loop, out.fd);
      return;
    }
    out.fd = -1;  // stale (connection died); fall through to reconnect
  }
  if (std::chrono::steady_clock::now() < out.next_attempt) {
    note_send_error();  // backoff gate closed: drop instead of connect-spam
    return;
  }
  const Peer& peer = peers_.find(to)->second;
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    note_send_error();
    arm_backoff(loop, out);
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peer.port);
  if (::inet_pton(AF_INET, peer.ip.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    note_send_error();
    arm_backoff(loop, out);
    return;
  }
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    note_send_error();
    arm_backoff(loop, out);
    return;
  }
  set_nodelay(fd);
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->outbound = true;
  conn->dest = to;
  conn->connecting = (rc != 0);  // EINPROGRESS: resolved by EPOLLOUT
  conn->outq_bytes = frame.size();
  conn->outq.push_back(std::move(frame));
  conn->want_write = conn->connecting;
  epoll_event ev{};
  ev.events = EPOLLIN | (conn->connecting ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  if (::epoll_ctl(loop.epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    note_send_error();
    arm_backoff(loop, out);
    return;
  }
  const bool connected = !conn->connecting;
  out.fd = fd;
  loop.conns.emplace(fd, std::move(conn));
  if (connected) {
    out.failures = 0;
    flush_writes(loop, fd);
  }
}

}  // namespace scab::rt
