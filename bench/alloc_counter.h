// Process-wide heap allocation counter for benchmark binaries.
//
// alloc_counter.cc replaces the global `operator new`/`operator delete`
// family with malloc/free wrappers that count every `operator new` call
// and the bytes it asked for. It is linked into a bench executable on
// purpose (bench/CMakeLists.txt), never into the libraries under src/:
// the simulator runs on one thread in a fixed event order, so the number
// of allocations inside a simulated window is a deterministic cost, as
// exact as an event count. Read it around that window only — printing
// wall-clock figures allocates too.

#pragma once

#include <cstdint>

namespace aurora::bench {

struct AllocCount {
  uint64_t calls = 0;  // operator new calls (every form)
  uint64_t bytes = 0;  // bytes requested by those calls

  AllocCount operator-(const AllocCount& earlier) const {
    return {calls - earlier.calls, bytes - earlier.bytes};
  }
};

/// Allocations since process start.
AllocCount AllocsSoFar();

}  // namespace aurora::bench
