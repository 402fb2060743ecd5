#include "sim/shm_executor.h"

#include <algorithm>

#include "common/bits.h"
#include "common/error.h"
#include "sim/fusion.h"

namespace atlas {
namespace {

/// Sorted, deduplicated union of the ops' bit positions plus the three
/// always-active low bits.
std::vector<int> active_bits_of(const std::vector<MatrixOp>& ops) {
  std::vector<int> bits = bit_union(ops);
  bits.insert(bits.end(), {0, 1, 2});
  std::sort(bits.begin(), bits.end());
  bits.erase(std::unique(bits.begin(), bits.end()), bits.end());
  ATLAS_CHECK(static_cast<int>(bits.size()) <= kShmQubits,
              "shared-memory kernel with " << bits.size()
                                           << " active qubits exceeds "
                                           << kShmQubits);
  return bits;
}

}  // namespace

std::vector<int> active_bits(const std::vector<Gate>& gates,
                             const std::vector<int>& bit_of_qubit) {
  std::vector<MatrixOp> ops;
  ops.reserve(gates.size());
  for (const Gate& g : gates) {
    MatrixOp op;
    for (Qubit q : g.qubits()) op.targets.push_back(bit_of_qubit[q]);
    ops.push_back(std::move(op));
  }
  return active_bits_of(ops);
}

ShmSkeleton compile_shm_skeleton(const std::vector<MatrixOp>& ops) {
  ShmSkeleton skel;
  skel.active = active_bits_of(ops);
  const int a = static_cast<int>(skel.active.size());
  const Index batch = Index{1} << a;

  // Scratch-space position of each buffer bit: a direct inverse-index
  // fill (O(bits)) instead of a per-qubit linear scan of `active`.
  const std::vector<int> pos_of_bit = inverse_index(skel.active);

  // Buffer offset of each scratch index (the gather/scatter map).
  skel.offset.resize(batch);
  for (Index v = 0; v < batch; ++v)
    skel.offset[v] = spread_bits(v, skel.active);

  skel.ops.reserve(ops.size());
  for (const MatrixOp& op : ops) {
    ShmSkeleton::OpSlots slots;
    slots.targets.reserve(op.targets.size());
    for (int b : op.targets)
      slots.targets.push_back(pos_of_bit[static_cast<std::size_t>(b)]);
    slots.controls.reserve(op.controls.size());
    for (int b : op.controls)
      slots.controls.push_back(pos_of_bit[static_cast<std::size_t>(b)]);
    skel.ops.push_back(std::move(slots));
  }
  return skel;
}

namespace {

/// Lowers one prepared member (scratch bit positions) into an in-buffer
/// op, or returns false when it takes the General path.
bool lower_in_buffer(const PreparedGate& g, Index batch, ShmOp& op) {
  switch (g.path) {
    case ApplyPath::Dense1q:
      op.kind = ShmOp::Kind::Dense1q;
      break;
    case ApplyPath::Diag1q:
      op.kind = ShmOp::Kind::Diag1q;
      break;
    case ApplyPath::PermK:
      // A 1q permutation is anti-diagonal: the diagonal one is Diag1q.
      if (g.targets.size() > 2) return false;
      op.kind = g.targets.size() == 1 ? ShmOp::Kind::Perm1q
                                      : ShmOp::Kind::Perm2q;
      break;
    default:
      return false;
  }
  op.ctrl_mask = g.ctrl_mask;
  Index op_bits = g.ctrl_mask;
  for (std::size_t i = 0; i < g.targets.size(); ++i) {
    op.stride[i] = bit(g.targets[i]);
    op_bits |= op.stride[i];
  }
  op.run = bit(g.sorted_bits.front());
  op.free_hi = (batch - 1) & ~op_bits & ~(op.run - 1);
  if (g.path == ApplyPath::PermK) {
    for (std::size_t i = 0; i < g.phase.size(); ++i) {
      op.re[i] = g.phase[i].real();
      op.im[i] = g.phase[i].imag();
      op.perm[i] = g.perm[i];
    }
  } else {
    std::copy(g.m_re.begin(), g.m_re.end(), op.re);
    std::copy(g.m_im.begin(), g.m_im.end(), op.im);
  }
  return true;
}

}  // namespace

ShmProgram bind_shm_program(const ShmSkeleton& skeleton,
                            const std::vector<const Matrix*>& matrices) {
  ATLAS_CHECK(matrices.size() == skeleton.ops.size(),
              "shm bind: " << matrices.size() << " matrices for "
                           << skeleton.ops.size() << " ops");
  ShmProgram prog;
  prog.active = skeleton.active;
  prog.offset = skeleton.offset;
  const Index batch = Index{1} << skeleton.active.size();
  prog.ops.reserve(skeleton.ops.size());
  for (std::size_t i = 0; i < skeleton.ops.size(); ++i) {
    MatrixOp remapped;
    remapped.m = *matrices[i];
    remapped.targets = skeleton.ops[i].targets;
    remapped.controls = skeleton.ops[i].controls;
    PreparedGate g = prepare_gate(remapped);
    ShmOp op;
    if (lower_in_buffer(g, batch, op)) {
      prog.ops.push_back(std::move(op));
    } else if (!prog.ops.empty() &&
               prog.ops.back().kind == ShmOp::Kind::General) {
      prog.ops.back().general.push_back(std::move(g));
    } else {
      op.general.push_back(std::move(g));
      prog.ops.push_back(std::move(op));
    }
  }
  return prog;
}

ShmProgram compile_shm_program(const std::vector<MatrixOp>& ops) {
  std::vector<const Matrix*> matrices;
  matrices.reserve(ops.size());
  for (const MatrixOp& op : ops) matrices.push_back(&op.m);
  return bind_shm_program(compile_shm_skeleton(ops), matrices);
}

namespace {

/// The group walk of an in-buffer op: `body(i, n)` handles the groups
/// whose all-targets-zero scratch index lies in [i, i + n). Subsets of
/// the free high bits are enumerated in ascending order.
template <class Body>
inline void for_each_run(const ShmOp& op, Body&& body) {
  Index sub = 0;
  do {
    body(sub | op.ctrl_mask, op.run);
    sub = (sub - op.free_hi) & op.free_hi;
  } while (sub != 0);
}

// The per-run loops below spell out, term for term, the expressions of
// the matching apply_prepared() path in apply.cpp (see the file comment
// of shm_executor.h): x0/x1 are the target-bit-0/1 halves of a group.

/// Dense 1q. Uncontrolled: apply_dense_1q_direct. Controlled:
/// apply_dense_blocked<2>, whose accumulators start at 0.0.
template <bool kControlled>
inline void dense_1q_run(double* __restrict r0, double* __restrict i0,
                         double* __restrict r1, double* __restrict i1,
                         Index n, const double* ure, const double* uim) {
  const double u00r = ure[0], u00i = uim[0];
  const double u01r = ure[1], u01i = uim[1];
  const double u10r = ure[2], u10i = uim[2];
  const double u11r = ure[3], u11i = uim[3];
  for (Index j = 0; j < n; ++j) {
    const double a0r = r0[j], a0i = i0[j];
    const double a1r = r1[j], a1i = i1[j];
    if constexpr (kControlled) {
      r0[j] = (0.0 + (u00r * a0r - u00i * a0i)) + (u01r * a1r - u01i * a1i);
      i0[j] = (0.0 + (u00r * a0i + u00i * a0r)) + (u01r * a1i + u01i * a1r);
      r1[j] = (0.0 + (u10r * a0r - u10i * a0i)) + (u11r * a1r - u11i * a1i);
      i1[j] = (0.0 + (u10r * a0i + u10i * a0r)) + (u11r * a1i + u11i * a1r);
    } else {
      r0[j] = (u00r * a0r - u00i * a0i) + (u01r * a1r - u01i * a1i);
      i0[j] = (u00r * a0i + u00i * a0r) + (u01r * a1i + u01i * a1r);
      r1[j] = (u10r * a0r - u10i * a0i) + (u11r * a1r - u11i * a1i);
      i1[j] = (u10r * a0i + u10i * a0r) + (u11r * a1i + u11i * a1r);
    }
  }
}

/// Diagonal 1q (apply_diag_1q_direct and the controlled Diag1q walk
/// share one expression).
inline void diag_1q_run(double* __restrict r0, double* __restrict i0,
                        double* __restrict r1, double* __restrict i1,
                        Index n, const double* dre, const double* dim) {
  const double d0r = dre[0], d0i = dim[0];
  const double d1r = dre[1], d1i = dim[1];
  for (Index j = 0; j < n; ++j) {
    const double a0r = r0[j], a0i = i0[j];
    r0[j] = a0r * d0r - a0i * d0i;
    i0[j] = a0r * d0i + a0i * d0r;
    const double a1r = r1[j], a1i = i1[j];
    r1[j] = a1r * d1r - a1i * d1i;
    i1[j] = a1r * d1i + a1i * d1r;
  }
}

/// Anti-diagonal 1q (apply_perm_k with perm = {1, 0}): row r takes
/// column 1 - r times the row's nonzero.
inline void perm_1q_run(double* __restrict r0, double* __restrict i0,
                        double* __restrict r1, double* __restrict i1,
                        Index n, const double* pre, const double* pim) {
  const double p0r = pre[0], p0i = pim[0];
  const double p1r = pre[1], p1i = pim[1];
  for (Index j = 0; j < n; ++j) {
    const double a0r = r0[j], a0i = i0[j];
    const double a1r = r1[j], a1i = i1[j];
    r0[j] = p0r * a1r - p0i * a1i;
    i0[j] = p0r * a1i + p0i * a1r;
    r1[j] = p1r * a0r - p1i * a0i;
    i1[j] = p1r * a0i + p1i * a0r;
  }
}

/// Runs a two-half op (Dense1q / Diag1q / Perm1q) over the batch.
template <auto kRun>
inline void pair_op(double* re, double* im, const ShmOp& op) {
  const Index s = op.stride[0];
  for_each_run(op, [&](Index i, Index n) {
    kRun(re + i, im + i, re + i + s, im + i + s, n, op.re, op.im);
  });
}

/// 2q permutation (apply_perm_k): gathers the four amplitudes of each
/// group, then writes row r from column perm[r] times the row's
/// nonzero.
void perm_2q(double* re, double* im, const ShmOp& op) {
  Index off[4];
  for (Index v = 0; v < 4; ++v)
    off[v] = ((v & 1) ? op.stride[0] : 0) | ((v & 2) ? op.stride[1] : 0);
  for_each_run(op, [&](Index i, Index n) {
    for (Index j = i; j < i + n; ++j) {
      double in_r[4], in_i[4];
      for (Index v = 0; v < 4; ++v) {
        in_r[v] = re[j + off[v]];
        in_i[v] = im[j + off[v]];
      }
      for (Index r = 0; r < 4; ++r) {
        const double pr = op.re[r], pi = op.im[r];
        const double ir = in_r[op.perm[r]], ii = in_i[op.perm[r]];
        re[j + off[r]] = pr * ir - pi * ii;
        im[j + off[r]] = pr * ii + pi * ir;
      }
    }
  });
}

/// General members: interleave the split batch into `tmp`, replay the
/// members with apply_prepared(), split it back.
void general_ops(double* re, double* im, Amp* tmp, Index batch,
                 const ShmOp& op) {
  for (Index v = 0; v < batch; ++v) tmp[v] = Amp(re[v], im[v]);
  for (const PreparedGate& g : op.general) apply_prepared(tmp, batch, g);
  for (Index v = 0; v < batch; ++v) {
    re[v] = tmp[v].real();
    im[v] = tmp[v].imag();
  }
}

}  // namespace

Index run_shm_program(Amp* data, Index size, const ShmProgram& prog,
                      std::vector<Amp>& scratch) {
  const int a = static_cast<int>(prog.active.size());
  const Index batch = Index{1} << a;
  // The gather/scatter below copies 8-amplitude runs; without bits 0-2
  // active it would run past the `batch`-Amp scratch.
  ATLAS_CHECK(a >= 3 && prog.active[0] == 0 && prog.active[1] == 1 &&
                  prog.active[2] == 2 &&
                  prog.offset.size() == static_cast<std::size_t>(batch),
              "shm program: active bits must start with 0-2 and the "
              "offset table must hold 2^" << a << " entries");
  const Index num_batches = size >> a;
  const bool has_general =
      std::any_of(prog.ops.begin(), prog.ops.end(), [](const ShmOp& op) {
        return op.kind == ShmOp::Kind::General;
      });
  // `batch` Amps hold the split re/im arrays (2 * batch doubles); the
  // General path's interleaved copy follows them.
  scratch.resize(has_general ? 2 * batch : batch);
  double* const re = reinterpret_cast<double*>(scratch.data());
  double* const im = re + batch;
  Amp* const tmp = scratch.data() + batch;
  double* const d = reinterpret_cast<double*>(data);
  const Index* offset = prog.offset.data();
  for (Index b = 0; b < num_batches; ++b) {
    const Index base = insert_zero_bits(b, prog.active);
    // Bits 0-2 are active: offset[v + l] == offset[v] + l for l < 8.
    for (Index v = 0; v < batch; v += 8) {
      const double* src = d + 2 * (base | offset[v]);
      for (Index l = 0; l < 8; ++l) {
        re[v + l] = src[2 * l];
        im[v + l] = src[2 * l + 1];
      }
    }
    for (const ShmOp& op : prog.ops) {
      switch (op.kind) {
        case ShmOp::Kind::Dense1q:
          if (op.ctrl_mask == 0) {
            pair_op<dense_1q_run<false>>(re, im, op);
          } else {
            pair_op<dense_1q_run<true>>(re, im, op);
          }
          break;
        case ShmOp::Kind::Diag1q:
          pair_op<diag_1q_run>(re, im, op);
          break;
        case ShmOp::Kind::Perm1q:
          pair_op<perm_1q_run>(re, im, op);
          break;
        case ShmOp::Kind::Perm2q:
          perm_2q(re, im, op);
          break;
        case ShmOp::Kind::General:
          general_ops(re, im, tmp, batch, op);
          break;
      }
    }
    for (Index v = 0; v < batch; v += 8) {
      double* dst = d + 2 * (base | offset[v]);
      for (Index l = 0; l < 8; ++l) {
        dst[2 * l] = re[v + l];
        dst[2 * l + 1] = im[v + l];
      }
    }
  }
  return num_batches;
}

Index run_shared_memory_kernel(Amp* data, Index size,
                               const std::vector<Gate>& gates,
                               const std::vector<int>& bit_of_qubit) {
  std::vector<MatrixOp> ops;
  ops.reserve(gates.size());
  for (const Gate& g : gates) {
    MatrixOp op;
    op.m = g.target_matrix();
    for (Qubit q : g.targets()) op.targets.push_back(bit_of_qubit[q]);
    for (Qubit q : g.controls()) op.controls.push_back(bit_of_qubit[q]);
    ops.push_back(std::move(op));
  }
  std::vector<Amp> scratch;
  return run_shm_program(data, size, compile_shm_program(ops), scratch);
}

}  // namespace atlas
