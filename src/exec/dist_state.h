#pragma once

/// \file dist_state.h
/// The distributed state vector: 2^(R+G) shards of 2^L amplitudes,
/// each conceptually resident on one (virtual) GPU or in node DRAM,
/// together with the current qubit layout.

#include <vector>

#include "common/thread_pool.h"
#include "common/types.h"
#include "exec/layout.h"
#include "sim/state_vector.h"

namespace atlas::exec {

class DistState {
 public:
  /// |0...0> distributed over 2^(num_qubits - layout.num_local) shards.
  /// The shards are zero-filled in parallel on `pool`, so their pages
  /// are first touched by the pool's workers.
  static DistState zero_state(const Layout& layout, ThreadPool& pool);

  /// Distributes a full state vector according to `layout`.
  static DistState scatter(const StateVector& sv, const Layout& layout);

  /// Reassembles the full state vector (tests and small examples).
  StateVector gather() const;

  int num_qubits() const { return layout_.num_qubits(); }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  Index shard_size() const { return Index{1} << layout_.num_local; }

  Layout& layout() { return layout_; }
  const Layout& layout() const { return layout_; }

  std::vector<Amp>& shard(int s) { return shards_[s]; }
  const std::vector<Amp>& shard(int s) const { return shards_[s]; }

  std::vector<std::vector<Amp>>& shards() { return shards_; }

 private:
  Layout layout_;
  std::vector<std::vector<Amp>> shards_;
};

}  // namespace atlas::exec
