// The crypto worker-pool seam (DESIGN.md §12): protocol nodes stay
// single-threaded state machines and hand CPU-heavy verification to the
// host's pool via submit(); the pool runs the job on any thread and posts
// the returned continuation back to the owning node's sequential executor.
//
// Contract:
//
//   * A PoolJob must be self-contained: it may not touch the owning node's
//     protocol state (that state is being mutated concurrently on the
//     node's executor).  Everything the job reads is copied in (or shared
//     immutable data); everything it produces travels out through the
//     continuation it returns.
//   * The continuation runs on the owner's executor, so it may freely
//     mutate protocol state — it is just another sequential handler.
//   * If the owner is unbound (node crash) before the job completes, the
//     completion is dropped, exactly like an in-flight message to a crashed
//     node.  Jobs never outlive the host.
//   * submit() is called from the owner's own executor (a node offloading
//     its own work), never cross-node.
//
// Host::submit's default runs the job and its continuation inline, which
// trivially satisfies the contract and — because the caller IS the owner's
// executor — is bit-identical to not offloading at all.  The deterministic
// simulator keeps this default: a sim run with threads=8 replays exactly
// like threads=1.  rt::ThreadHost overrides it with a real N-thread pool.
#pragma once

#include <functional>

namespace scab::host {

/// A unit of offloadable work: runs on a pool thread, returns the
/// continuation to run on the owning node's executor (empty = nothing to
/// post back).
using PoolJob = std::function<std::function<void()>()>;

}  // namespace scab::host
