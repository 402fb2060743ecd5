#pragma once

/// \file layout.h
/// Qubit layout: the mapping between logical circuit qubits and
/// physical bit positions of the distributed state (Definition 1).
/// Physical positions [0, L) index within a shard; [L, L+R) select the
/// GPU within a node; [L+R, n) select the node.
///
/// The layout additionally carries `shard_xor`: anti-diagonal insular
/// gates (X/Y) on non-local qubits are executed *for free* by flipping
/// the mapping between shard ids and physical high-bit values instead
/// of exchanging whole shards (the paper's insular-qubit trick).

#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/types.h"
#include "staging/stage.h"

namespace atlas::exec {

struct Layout {
  int num_local = 0;  // L
  /// phys_of_logical[q] = physical position of logical qubit q.
  std::vector<int> phys_of_logical;
  /// logical_of_phys[p] = logical qubit at physical position p.
  std::vector<Qubit> logical_of_phys;
  /// XOR correction on the physical high bits: shard s stores
  /// amplitudes whose physical high bits equal s ^ shard_xor.
  Index shard_xor = 0;

  int num_qubits() const { return static_cast<int>(phys_of_logical.size()); }
  bool is_local(Qubit q) const { return phys_of_logical[q] < num_local; }

  /// Logical basis index -> (shard, offset) of its amplitude.
  std::pair<int, Index> locate(Index logical_index) const;

  /// Logical basis index of the amplitude stored at (shard, offset);
  /// the inverse of locate().
  Index logical_of(int shard, Index offset) const;

  /// The physical-high-bit value of qubit q in shard `shard`
  /// (q must be non-local).
  bool nonlocal_bit(Qubit q, int shard) const {
    const int p = phys_of_logical[q];
    return test_bit((static_cast<Index>(shard) ^ shard_xor),
                    p - num_local);
  }

  /// Identity layout for a machine shape (logical q at physical q).
  static Layout identity(int num_qubits, int num_local);

  /// Layout realizing a stage's qubit partition while moving as few
  /// qubits as possible from `previous`: qubits already in their
  /// target region keep their physical position.
  static Layout for_partition(const staging::QubitPartition& partition,
                              int num_local, int num_regional,
                              const Layout& previous);
};

}  // namespace atlas::exec
