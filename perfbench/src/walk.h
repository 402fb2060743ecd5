#pragma once

/// \file walk.h
/// The traced stage walk: runs a compiled circuit's plan stage by stage
/// through the library's public calls — initial state, remap, skeleton
/// cache + bind, per-kernel replay across shards on the cluster pool —
/// with a span around each call. Its final state must be bit-identical
/// to Session::run() for the same op; the workloads check that.

#include <array>
#include <cstdint>

#include "core/session.h"
#include "harness.h"

namespace perfbench {

/// Per-path replay counters: index = ApplyPath, then Shm.
struct ReplayCounters {
  static constexpr int kPaths = 7;
  std::array<std::int64_t, kPaths> busy_ns{};
  std::array<std::int64_t, kPaths> calls{};
  /// Computed bytes: every call reads and writes the whole shard once.
  std::array<double, kPaths> bytes{};

  ReplayCounters& operator+=(const ReplayCounters& o);
};

struct WalkTotals {
  ReplayCounters replay;
  atlas::device::CommStats remap;
  /// Wall time of the replay regions and the summed shard busy time.
  std::int64_t replay_wall_ns = 0;
  std::int64_t replay_busy_ns = 0;
  int pool_threads = 1;
};

/// Walks `compiled` under `slots` from |0...0>, recording spans under
/// `parent`. Returns the final state.
atlas::exec::DistState traced_walk(const atlas::Session& session,
                                   const atlas::CompiledCircuit& compiled,
                                   const atlas::SlotValues& slots,
                                   SpanLog& log, int parent, int op,
                                   WalkTotals& totals);

/// 64-bit digest of a distributed state: layout and every amplitude's
/// bits. Equal digests stand for bit-identical states.
std::uint64_t state_digest(const atlas::exec::DistState& state);

}  // namespace perfbench
