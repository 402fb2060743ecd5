#pragma once

/// \file shm_executor.h
/// Shared-memory kernel execution (the paper's second kernel type,
/// mirroring HyQuas' SHM-GROUPING): amplitudes are loaded into a small
/// scratch buffer ("GPU shared memory") in micro-batches indexed by the
/// kernel's *active qubits*, every gate of the kernel is applied inside
/// the scratch buffer, and the batch is stored back. Per the paper
/// (footnote 3), the three least significant buffer bits are always
/// active so each load moves at least 2^3 contiguous amplitudes.
///
/// The kernel is compiled once into a ShmProgram — active-bit set,
/// gather/scatter offset table, and the member gates lowered into
/// in-buffer ops — and replayed per shard / per stage without
/// rebuilding any of it (compile_shm_program / run_shm_program).
/// run_shared_memory_kernel is the one-shot wrapper.
///
/// Split layout: a micro-batch of 2^a amplitudes is gathered into two
/// arrays of 2^a doubles (all real parts, then all imaginary parts)
/// held in the caller's scratch vector. Gather and scatter move runs of
/// 8 amplitudes (bits 0-2 are always active). Each member gate is
/// lowered once (bind_shm_program) into a ShmOp with its own stride
/// loop over the split arrays:
///   - Dense1q: dense 2x2, with or without scratch-space controls;
///   - Diag1q:  diagonal 2x2, with or without controls;
///   - Perm1q:  anti-diagonal 2x2 (X, CX, CCX, Y...), with or without
///              controls;
///   - Perm2q:  4x4 permutation (SWAP), with or without controls;
///   - General: a run of consecutive DiagK/Dense2q/DenseK members and
///              permutations of 3+ targets, replayed by
///              apply_prepared() on an interleaved copy.
///
/// Bit-identity: every in-buffer op evaluates each amplitude with the
/// same floating-point expression, in the same operand order, as the
/// apply_prepared() path of its class in apply.cpp — including the
/// `0.0 +` start of the controlled (blocked) dense 1q path — and the
/// members run in gate order. So a ShmProgram's result is bit-identical
/// to the interleaved per-gate replay (gather the batch as complex
/// values, apply_prepared() per member, scatter) under the same
/// compiler flags.

#include <vector>

#include "common/types.h"
#include "ir/gate.h"
#include "sim/apply.h"

namespace atlas {

/// Number of amplitudes the emulated shared memory holds (2^10 complex
/// doubles = 16 KiB, matching an A100 SM's usable shared memory
/// budget per block at double precision).
inline constexpr int kShmQubits = 10;

/// One member gate (or General run of members) of a ShmProgram,
/// lowered for the split re/im micro-batch. Bit positions are scratch
/// positions (indices into ShmProgram::active).
struct ShmOp {
  enum class Kind { Dense1q, Diag1q, Perm1q, Perm2q, General };
  Kind kind = Kind::General;
  /// OR of the scratch control bits; the op fires where all are set.
  Index ctrl_mask = 0;
  /// Scratch bits above the lowest op bit that are neither targets nor
  /// controls: the group walk enumerates their subsets.
  Index free_hi = 0;
  /// 2^(lowest op bit): the contiguous run of groups per subset.
  Index run = 1;
  /// Scratch stride of targets[0] and (Perm2q) targets[1].
  Index stride[2] = {0, 0};
  /// Dense1q: row-major u00,u01,u10,u11; Diag1q: d0,d1; Perm*: the
  /// nonzero of row r.
  double re[4] = {0, 0, 0, 0};
  double im[4] = {0, 0, 0, 0};
  /// Perm2q: column of row r's nonzero.
  int perm[4] = {0, 1, 2, 3};
  /// General: the members, replayed in order by apply_prepared().
  std::vector<PreparedGate> general;
};

/// A compiled shared-memory kernel: everything invariant across
/// micro-batches, shards, and bindings of the same localized gate list.
struct ShmProgram {
  std::vector<int> active;    ///< active buffer bit positions, ascending
  std::vector<Index> offset;  ///< gather/scatter map, size 2^|active|
  std::vector<ShmOp> ops;     ///< member gates, in gate order
};

/// The bit-structure half of a ShmProgram — everything except matrix
/// values: active bits, the gather/scatter offset table, and each op's
/// scratch-space target/control positions. Binding-independent, so
/// sweeps and trajectory batches compile it once and only re-fill the
/// matrices per point (bind_shm_program).
struct ShmSkeleton {
  std::vector<int> active;    ///< active buffer bit positions, ascending
  std::vector<Index> offset;  ///< gather/scatter map, size 2^|active|
  struct OpSlots {
    std::vector<int> targets, controls;  ///< scratch bit positions
  };
  std::vector<OpSlots> ops;
};

/// Compiles the bit-structure of `ops` (matrices ignored). Throws if
/// more than kShmQubits bits would be active.
ShmSkeleton compile_shm_skeleton(const std::vector<MatrixOp>& ops);

/// Fills a skeleton with matrix values (positionally aligned with the
/// ops the skeleton was compiled from) into a runnable ShmProgram.
ShmProgram bind_shm_program(const ShmSkeleton& skeleton,
                            const std::vector<const Matrix*>& matrices);

/// Compiles buffer-bit-space ops into a ShmProgram. Throws if more than
/// kShmQubits bits would be active.
ShmProgram compile_shm_program(const std::vector<MatrixOp>& ops);

/// Replays a compiled program over the buffer. `scratch` is caller-
/// provided storage reused across invocations (resized as needed): the
/// split batch, plus an interleaved copy when the program has General
/// ops.
/// \returns the number of micro-batches processed (used by cost-model
///          calibration).
Index run_shm_program(Amp* data, Index size, const ShmProgram& prog,
                      std::vector<Amp>& scratch);

/// One-shot wrapper: compiles `gates` under `bit_of_qubit` and runs the
/// program once.
///
/// \param bit_of_qubit  maps each logical qubit to its buffer bit
///                      position; gates must only touch qubits whose
///                      bit position is < log2(size).
Index run_shared_memory_kernel(Amp* data, Index size,
                               const std::vector<Gate>& gates,
                               const std::vector<int>& bit_of_qubit);

/// The active bit positions a shared-memory kernel would use for
/// `gates` under the given layout: the union of the gates' bit
/// positions plus bits {0,1,2}, ascending. Throws if more than
/// kShmQubits bits would be active.
std::vector<int> active_bits(const std::vector<Gate>& gates,
                             const std::vector<int>& bit_of_qubit);

}  // namespace atlas
