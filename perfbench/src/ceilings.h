#pragma once

#include <string>
#include <vector>

#include "cluster.h"

namespace perfbench {

struct Ceiling {
  const char* name;
  double per_s;  // operations per second, single thread
};

/// WAL append + sync through rt::FileStorage with and without the device
/// flush (files under `scratch_dir`), 4 KB frames between two
/// rt::SocketTransports, TDH2 share verification and ARSS2 reconstruction.
std::vector<Ceiling> measure_ceilings(const std::string& scratch_dir);

}  // namespace perfbench
