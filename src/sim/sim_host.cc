#include "sim/sim_host.h"

namespace scab::sim {

void SimHost::bind(host::NodeId id, host::Node* endpoint) {
  net_.attach(id, endpoint);
  ++bind_epochs_[id];
}

void SimHost::unbind(host::NodeId id) {
  net_.detach(id);
  ++bind_epochs_[id];  // kill timers armed by the departing endpoint
}

void SimHost::charge(host::NodeId node, host::Time cost) {
  net_.charge(node, cost);
}

}  // namespace scab::sim
