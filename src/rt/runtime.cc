#include "rt/runtime.h"

namespace scab::rt {

// ---------------------------------------------------------------------------
// Worker

void ThreadHost::Worker::loop() {
  std::unique_lock<std::mutex> lk(mu);
  for (;;) {
    if (stopping) return;
    if (!tasks.empty()) {
      auto fn = std::move(tasks.front());
      tasks.pop_front();
      lk.unlock();
      fn();
      lk.lock();
      continue;
    }
    const auto now = SteadyClock::now();
    if (!timers.empty() && timers.begin()->first <= now) {
      auto node = timers.extract(timers.begin());
      auto fn = std::move(node.mapped());
      lk.unlock();
      fn();
      lk.lock();
      continue;
    }
    if (timers.empty()) {
      cv.wait(lk);
    } else {
      cv.wait_until(lk, timers.begin()->first);
    }
  }
}

void ThreadHost::Worker::push_task(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(mu);
    if (stopping) return;
    tasks.push_back(std::move(fn));
  }
  cv.notify_one();
}

void ThreadHost::Worker::push_timer(SteadyClock::time_point at,
                                    std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(mu);
    if (stopping) return;
    timers.emplace(at, std::move(fn));
  }
  cv.notify_one();
}

void ThreadHost::Worker::stop_and_join() {
  {
    std::lock_guard<std::mutex> lk(mu);
    stopping = true;
  }
  cv.notify_one();
  if (thread.joinable()) thread.join();
}

// ---------------------------------------------------------------------------
// ThreadHost

ThreadHost::ThreadHost(std::unique_ptr<rt::Transport> transport,
                       obs::MetricsRegistry* metrics, std::size_t pool_threads)
    : epoch_(SteadyClock::now()),
      transport_(transport ? std::move(transport)
                           : std::make_unique<ChannelTransport>()),
      faults_(metrics) {
  pool_workers_.reserve(pool_threads);
  for (std::size_t i = 0; i < pool_threads; ++i) {
    pool_workers_.emplace_back([this] { pool_loop(); });
  }
  transport_->set_deliver([this](host::NodeId from, host::NodeId to,
                                 Bytes msg) { deliver(from, to, std::move(msg)); });
  transport_->start();
}

ThreadHost::~ThreadHost() { stop(); }

host::Time ThreadHost::now() const {
  return static_cast<host::Time>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() -
                                                           epoch_)
          .count());
}

void ThreadHost::bind(host::NodeId id, host::Node* endpoint) {
  // Rebind under a live id (restart): retire the old worker first.  Its
  // queued tasks/timers die with it; in-flight lookups still hold a
  // shared_ptr and their push_* calls no-op once stopping is set.  The join
  // happens OUTSIDE mu_ — the dying worker may be mid-send, and deliver()
  // takes mu_ to look up the destination.
  std::shared_ptr<Worker> old;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return;  // a rebind after stop() would leak a live thread
    if (auto it = workers_.find(id); it != workers_.end()) {
      old = std::move(it->second);
      workers_.erase(it);
    }
  }
  if (old) old->stop_and_join();

  std::lock_guard<std::mutex> lk(mu_);
  if (stopped_) return;
  ++generations_[id];  // pool completions for the old incarnation are stale
  auto w = std::make_shared<Worker>(endpoint);
  Worker* raw = w.get();
  raw->thread = std::thread([raw] { raw->loop(); });
  workers_[id] = std::move(w);
}

void ThreadHost::unbind(host::NodeId id) {
  std::shared_ptr<Worker> w;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = workers_.find(id);
    if (it == workers_.end()) return;
    ++generations_[id];  // in-flight pool jobs for this node must not land
    w = std::move(it->second);
    workers_.erase(it);
  }
  w->stop_and_join();
}

void ThreadHost::attach_storage(host::NodeId id,
                                std::unique_ptr<host::Storage> storage) {
  std::lock_guard<std::mutex> lk(mu_);
  storage_[id] = std::move(storage);
}

host::Storage* ThreadHost::storage(host::NodeId node) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = storage_.find(node);
  return it == storage_.end() ? nullptr : it->second.get();
}

std::shared_ptr<ThreadHost::Worker> ThreadHost::worker(host::NodeId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = workers_.find(id);
  return it == workers_.end() ? nullptr : it->second;
}

void ThreadHost::schedule(host::NodeId node, host::Time delay,
                          std::function<void()> fn) {
  auto w = worker(node);
  if (!w) return;
  w->push_timer(SteadyClock::now() + std::chrono::nanoseconds(delay),
                std::move(fn));
}

void ThreadHost::post(host::NodeId node, std::function<void()> fn) {
  auto w = worker(node);
  if (!w) return;
  w->push_task(std::move(fn));
}

void ThreadHost::send(host::NodeId from, host::NodeId to, Bytes msg) {
  transport_->send(from, to, std::move(msg));
}

void ThreadHost::submit(host::NodeId owner, host::PoolJob job) {
  if (!job) return;
  if (pool_workers_.empty()) {
    // No pool: the pool contract degenerates to inline execution on
    // the caller (which IS the owner's executor — see host/worker_pool.h).
    if (auto cont = job()) cont();
    return;
  }
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return;
    generation = generations_[owner];
  }
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    if (pool_stopping_) return;
    pool_tasks_.push_back(PoolTask{owner, generation, std::move(job)});
  }
  pool_cv_.notify_one();
}

void ThreadHost::pool_loop() {
  for (;;) {
    PoolTask task;
    {
      std::unique_lock<std::mutex> lk(pool_mu_);
      pool_cv_.wait(lk, [this] { return pool_stopping_ || !pool_tasks_.empty(); });
      if (pool_stopping_) return;  // remaining jobs are dropped by stop()
      task = std::move(pool_tasks_.front());
      pool_tasks_.pop_front();
    }
    // Stale check BEFORE running: if the owner was unbound (crash/restart)
    // since submit, the work is for a dead incarnation — skip it entirely.
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopped_ || generations_[task.owner] != task.generation) continue;
    }
    auto cont = task.job();
    if (!cont) continue;
    // Post the continuation back to the owner's mailbox, re-checking the
    // generation under mu_ so a completion cannot land on a node that
    // crashed (or was replaced) while the job ran.  push_task on a stopping
    // worker no-ops, closing the remaining race.
    std::shared_ptr<Worker> w;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopped_ || generations_[task.owner] != task.generation) continue;
      auto it = workers_.find(task.owner);
      if (it == workers_.end()) continue;
      w = it->second;
    }
    w->push_task(std::move(cont));
  }
}

void ThreadHost::deliver(host::NodeId from, host::NodeId to, Bytes msg) {
  // The one chokepoint every inbound message funnels through, regardless of
  // transport (channel, socket loopback, socket peer) — so the fault check
  // here covers what the simulator's Network checks at send.
  host::Time extra = 0;
  if (!faults_.admit(from, to, msg, &extra)) return;
  auto w = worker(to);
  if (!w) return;  // unknown destination: drop (mirrors the sim's Network)
  host::Node* ep = w->endpoint;
  auto task = [ep, from, m = std::move(msg)] { ep->on_message(from, m); };
  if (extra > 0) {
    // Delayed link: defer onto the receiver's own timer queue so ordering
    // against undelayed traffic matches the sim (late messages arrive late).
    w->push_timer(SteadyClock::now() + std::chrono::nanoseconds(extra),
                  std::move(task));
  } else {
    w->push_task(std::move(task));
  }
}

void ThreadHost::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  transport_->stop();  // no new inbound deliveries
  // Pool next: queued jobs are dropped, running jobs finish (their
  // completions no-op against stopped_), threads join before the per-node
  // workers so no pool thread can touch a dead Worker.
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    pool_stopping_ = true;
    pool_tasks_.clear();
  }
  pool_cv_.notify_all();
  for (auto& t : pool_workers_) {
    if (t.joinable()) t.join();
  }
  std::vector<std::shared_ptr<Worker>> ws;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ws.reserve(workers_.size());
    for (auto& [id, w] : workers_) ws.push_back(w);
  }
  for (auto& w : ws) w->stop_and_join();
}

}  // namespace scab::rt
