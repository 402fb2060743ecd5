#include "sim/reference.h"

#include <algorithm>

#include "common/bits.h"
#include "common/error.h"

namespace atlas {

StateVector simulate_reference(const Circuit& circuit) {
  ATLAS_CHECK(!circuit.is_parameterized(),
              "reference simulator needs a fully bound circuit; call "
              "Circuit::bind with values for its symbols first");
  StateVector sv(circuit.num_qubits());
  for (const Gate& g : circuit.gates()) apply_gate(sv, g);
  return sv;
}

StateVector simulate_reference(const Circuit& circuit,
                               const StateVector& initial) {
  ATLAS_CHECK(initial.num_qubits() == circuit.num_qubits(),
              "initial state has " << initial.num_qubits()
                                   << " qubits, circuit needs "
                                   << circuit.num_qubits());
  StateVector sv = initial;
  for (const Gate& g : circuit.gates()) apply_gate(sv, g);
  return sv;
}

InterleavedShm prepare_interleaved_shm(const std::vector<MatrixOp>& ops) {
  InterleavedShm k;
  k.active = {0, 1, 2};
  for (const MatrixOp& op : ops) {
    k.active.insert(k.active.end(), op.targets.begin(), op.targets.end());
    k.active.insert(k.active.end(), op.controls.begin(), op.controls.end());
  }
  std::sort(k.active.begin(), k.active.end());
  k.active.erase(std::unique(k.active.begin(), k.active.end()),
                 k.active.end());
  const Index batch = Index{1} << k.active.size();
  for (Index v = 0; v < batch; ++v)
    k.offset.push_back(spread_bits(v, k.active));
  const std::vector<int> pos = inverse_index(k.active);
  for (const MatrixOp& op : ops) {
    MatrixOp local{op.m, {}, {}};
    for (int b : op.targets) local.targets.push_back(pos[b]);
    for (int b : op.controls) local.controls.push_back(pos[b]);
    k.gates.push_back(prepare_gate(local));
  }
  return k;
}

void run_interleaved_shm(Amp* data, Index size, const InterleavedShm& k,
                         std::vector<Amp>& scratch) {
  const Index batch = Index{1} << k.active.size();
  scratch.resize(batch);
  Amp* shm = scratch.data();
  for (Index b = 0; b < (size >> k.active.size()); ++b) {
    const Index base = insert_zero_bits(b, k.active);
    for (Index v = 0; v < batch; ++v) shm[v] = data[base | k.offset[v]];
    for (const PreparedGate& g : k.gates) apply_prepared(shm, batch, g);
    for (Index v = 0; v < batch; ++v) data[base | k.offset[v]] = shm[v];
  }
}

}  // namespace atlas
