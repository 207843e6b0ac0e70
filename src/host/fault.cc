#include "host/fault.h"

namespace scab::host {

namespace {
obs::MetricsRegistry& registry(obs::MetricsRegistry* metrics) {
  return metrics ? *metrics : obs::MetricsRegistry::inert();
}
}  // namespace

FaultInjector::FaultInjector(obs::MetricsRegistry* metrics)
    : drops_crash_(registry(metrics).counter("net.drops.crash")),
      drops_cut_(registry(metrics).counter("net.drops.cut")),
      drops_tamper_(registry(metrics).counter("net.drops.tamper")) {}

void FaultInjector::crash(NodeId node) {
  std::lock_guard<std::mutex> lk(mu_);
  crashed_.insert(node);
}

void FaultInjector::restart(NodeId node) {
  std::lock_guard<std::mutex> lk(mu_);
  crashed_.erase(node);
}

bool FaultInjector::is_crashed(NodeId node) const {
  std::lock_guard<std::mutex> lk(mu_);
  return crashed_.contains(node);
}

void FaultInjector::cut(NodeId from, NodeId to) {
  std::lock_guard<std::mutex> lk(mu_);
  cut_.insert(key(from, to));
}

void FaultInjector::heal(NodeId from, NodeId to) {
  std::lock_guard<std::mutex> lk(mu_);
  cut_.erase(key(from, to));
}

void FaultInjector::heal_all() {
  std::lock_guard<std::mutex> lk(mu_);
  cut_.clear();
  delays_.clear();
}

void FaultInjector::delay(NodeId from, NodeId to, Time extra) {
  std::lock_guard<std::mutex> lk(mu_);
  if (extra == 0) {
    delays_.erase(key(from, to));
  } else {
    delays_[key(from, to)] = extra;
  }
}

void FaultInjector::clear_delays() {
  std::lock_guard<std::mutex> lk(mu_);
  delays_.clear();
}

void FaultInjector::set_tamper(Tamper t) {
  auto hook = t ? std::make_shared<const Tamper>(std::move(t)) : nullptr;
  std::lock_guard<std::mutex> lk(mu_);
  tamper_ = std::move(hook);
}

void FaultInjector::clear_tamper() {
  std::lock_guard<std::mutex> lk(mu_);
  tamper_ = nullptr;
}

bool FaultInjector::admit(NodeId from, NodeId to, Bytes& msg, Time* extra) {
  *extra = 0;
  std::shared_ptr<const Tamper> tamper;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (crashed_.contains(from) || crashed_.contains(to)) {
      drops_crash_.inc();
      return false;
    }
    if (cut_.contains(key(from, to))) {
      drops_cut_.inc();
      return false;
    }
    if (auto it = delays_.find(key(from, to)); it != delays_.end()) {
      *extra = it->second;
    }
    tamper = tamper_;
  }
  if (tamper) {
    auto out = (*tamper)(from, to, msg);
    if (!out) {
      drops_tamper_.inc();
      return false;
    }
    msg = std::move(*out);
  }
  return true;
}

bool FaultInjector::reachable(NodeId to) {
  if (!is_crashed(to)) return true;
  drops_crash_.inc();
  return false;
}

}  // namespace scab::host
