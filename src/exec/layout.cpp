#include "exec/layout.h"

#include <algorithm>

#include "common/error.h"

namespace atlas::exec {

Layout Layout::identity(int num_qubits, int num_local) {
  Layout l;
  l.num_local = num_local;
  l.phys_of_logical.resize(num_qubits);
  l.logical_of_phys.resize(num_qubits);
  for (int q = 0; q < num_qubits; ++q) {
    l.phys_of_logical[q] = q;
    l.logical_of_phys[q] = q;
  }
  return l;
}

std::pair<int, Index> Layout::locate(Index logical_index) const {
  Index phys = 0;
  for (int q = 0; q < num_qubits(); ++q)
    if (test_bit(logical_index, q)) phys |= bit(phys_of_logical[q]);
  const Index offset = phys & (bit(num_local) - 1);
  return {static_cast<int>((phys >> num_local) ^ shard_xor), offset};
}

Index Layout::logical_of(int shard, Index offset) const {
  const Index phys =
      ((static_cast<Index>(shard) ^ shard_xor) << num_local) | offset;
  Index logical = 0;
  for (int p = 0; p < num_qubits(); ++p)
    if (test_bit(phys, p)) logical |= bit(logical_of_phys[p]);
  return logical;
}

Layout Layout::for_partition(const staging::QubitPartition& partition,
                             int num_local, int num_regional,
                             const Layout& previous) {
  const int n = previous.num_qubits();
  ATLAS_CHECK(static_cast<int>(partition.local.size()) == num_local,
              "partition local size mismatch");
  Layout l;
  l.num_local = num_local;
  l.phys_of_logical.assign(n, -1);
  l.logical_of_phys.assign(n, -1);
  l.shard_xor = 0;  // remapping resets the anti-diagonal correction

  struct Region {
    const std::vector<Qubit>* qubits;
    int begin, end;
  };
  const Region regions[3] = {
      {&partition.local, 0, num_local},
      {&partition.regional, num_local, num_local + num_regional},
      {&partition.global, num_local + num_regional, n},
  };
  // First pass: keep qubits already inside their target region.
  for (const Region& r : regions) {
    for (Qubit q : *r.qubits) {
      const int p = previous.phys_of_logical[q];
      if (p >= r.begin && p < r.end && l.logical_of_phys[p] < 0) {
        l.phys_of_logical[q] = p;
        l.logical_of_phys[p] = q;
      }
    }
  }
  // Second pass: place the remaining qubits at free positions.
  for (const Region& r : regions) {
    int cursor = r.begin;
    for (Qubit q : *r.qubits) {
      if (l.phys_of_logical[q] >= 0) continue;
      while (cursor < r.end && l.logical_of_phys[cursor] >= 0) ++cursor;
      ATLAS_CHECK(cursor < r.end, "region overflow placing qubit " << q);
      l.phys_of_logical[q] = cursor;
      l.logical_of_phys[cursor] = q;
    }
  }
  for (int p = 0; p < n; ++p)
    ATLAS_CHECK(l.logical_of_phys[p] >= 0, "unassigned physical position " << p);
  return l;
}

}  // namespace atlas::exec
