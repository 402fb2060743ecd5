#pragma once

/// \file reference.h
/// The trusted oracle simulator: applies each gate of a circuit to a
/// full state vector, one at a time, with no partitioning or fusion.
/// Every other execution path in Atlas is validated against it.

#include <vector>

#include "ir/circuit.h"
#include "sim/apply.h"
#include "sim/state_vector.h"

namespace atlas {

/// Simulates `circuit` starting from |0...0>.
StateVector simulate_reference(const Circuit& circuit);

/// Simulates `circuit` starting from `initial` (copied).
StateVector simulate_reference(const Circuit& circuit,
                               const StateVector& initial);

/// A shared-memory kernel as the replay before the split re/im layout
/// ran it: active bits (the members' bits plus 0-2), gather map, and
/// the members prepared at scratch positions. It is built from the
/// members alone, not from a ShmProgram, so it is the oracle that
/// run_shm_program is held to bit for bit (tests/test_apply_fastpath,
/// bench/bench_exec_hotpath).
struct InterleavedShm {
  std::vector<int> active;
  std::vector<Index> offset;
  std::vector<PreparedGate> gates;
};

/// Builds the interleaved kernel for `ops` (buffer bit positions).
InterleavedShm prepare_interleaved_shm(const std::vector<MatrixOp>& ops);

/// Replays `k` over `data`: each batch is gathered as interleaved
/// complex values into `scratch`, every member runs through
/// apply_prepared(), and the batch is scattered back.
void run_interleaved_shm(Amp* data, Index size, const InterleavedShm& k,
                         std::vector<Amp>& scratch);

}  // namespace atlas
