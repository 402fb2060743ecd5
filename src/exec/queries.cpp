#include "exec/queries.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "common/error.h"

namespace atlas::exec {
Amp amplitude(const DistState& state, Index logical_index) {
  ATLAS_CHECK(logical_index < (Index{1} << state.num_qubits()),
              "basis state out of range");
  const auto [s, o] = state.layout().locate(logical_index);
  return state.shard(s)[o];
}

double probability(const DistState& state, Index logical_index) {
  return std::norm(amplitude(state, logical_index));
}

double norm_sq(const DistState& state) {
  double total = 0;
  for (int s = 0; s < state.num_shards(); ++s)
    for (const Amp& a : state.shard(s)) total += std::norm(a);
  return total;
}

std::vector<double> marginal_distribution(const DistState& state,
                                          const std::vector<Qubit>& qubits) {
  const Layout& l = state.layout();
  for (Qubit q : qubits)
    ATLAS_CHECK(q >= 0 && q < state.num_qubits(), "qubit out of range");
  std::vector<double> dist(Index{1} << qubits.size(), 0.0);
  // Split the queried qubits into local (vary inside the shard) and
  // non-local (fixed per shard) so the inner loop touches each
  // amplitude once with cheap index arithmetic.
  std::vector<int> local_pos, nonlocal_out;
  std::vector<int> local_out;
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    if (l.is_local(qubits[i])) {
      local_pos.push_back(l.phys_of_logical[qubits[i]]);
      local_out.push_back(static_cast<int>(i));
    } else {
      nonlocal_out.push_back(static_cast<int>(i));
    }
  }
  for (int s = 0; s < state.num_shards(); ++s) {
    Index base_out = 0;
    for (std::size_t j = 0; j < nonlocal_out.size(); ++j) {
      const Qubit q = qubits[nonlocal_out[j]];
      if (l.nonlocal_bit(q, s)) base_out |= bit(nonlocal_out[j]);
    }
    const auto& shard = state.shard(s);
    for (Index o = 0; o < state.shard_size(); ++o) {
      const double p = std::norm(shard[o]);
      if (p == 0.0) continue;
      Index out = base_out;
      for (std::size_t j = 0; j < local_pos.size(); ++j)
        if (test_bit(o, local_pos[j])) out |= bit(local_out[j]);
      dist[out] += p;
    }
  }
  return dist;
}

double expectation_z(const DistState& state, Qubit q) {
  const auto dist = marginal_distribution(state, {q});
  return dist[0] - dist[1];
}

StateMoments state_moments(const DistState& state) {
  const Layout& l = state.layout();
  const int n = state.num_qubits();
  StateMoments m;
  m.z.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<int> local_pos(static_cast<std::size_t>(n), -1);
  for (Qubit q = 0; q < n; ++q)
    if (l.is_local(q)) local_pos[static_cast<std::size_t>(q)] =
        l.phys_of_logical[q];
  for (int s = 0; s < state.num_shards(); ++s) {
    // Non-local qubits are fixed per shard: accumulate their sign
    // against the shard's total weight instead of per amplitude.
    double shard_norm = 0;
    std::vector<double> local_z(static_cast<std::size_t>(n), 0.0);
    const auto& shard = state.shard(s);
    for (Index o = 0; o < state.shard_size(); ++o) {
      const double p = std::norm(shard[o]);
      if (p == 0.0) continue;
      shard_norm += p;
      for (Qubit q = 0; q < n; ++q) {
        const int pos = local_pos[static_cast<std::size_t>(q)];
        if (pos >= 0)
          local_z[static_cast<std::size_t>(q)] += test_bit(o, pos) ? -p : p;
      }
    }
    m.norm_sq += shard_norm;
    for (Qubit q = 0; q < n; ++q) {
      const int pos = local_pos[static_cast<std::size_t>(q)];
      if (pos >= 0)
        m.z[static_cast<std::size_t>(q)] += local_z[static_cast<std::size_t>(q)];
      else
        m.z[static_cast<std::size_t>(q)] +=
            l.nonlocal_bit(q, s) ? -shard_norm : shard_norm;
    }
  }
  return m;
}

std::vector<Index> sample(const DistState& state, int shots, Rng& rng) {
  return sample(state, shots, rng, 1.0);
}

std::vector<Index> sample(const DistState& state, int shots, Rng& rng,
                          double total_norm) {
  ATLAS_CHECK_ARG(shots >= 0, "sample shots is negative: " << shots);
  std::vector<double> draws(shots);
  for (auto& d : draws) d = rng.uniform() * total_norm;
  std::sort(draws.begin(), draws.end());
  std::vector<Index> out(shots);
  // One sequential inverse-CDF walk; the logical index is computed only
  // where a draw lands. Draws left over once the walk ends (total_norm
  // above the state's norm) go to the last amplitude.
  const Layout& layout = state.layout();
  const Index size = state.shard_size();
  double cum = 0;
  std::size_t k = 0;
  for (int s = 0; s < state.num_shards() && k < draws.size(); ++s) {
    const Amp* shard = state.shard(s).data();
    for (Index o = 0; o < size && k < draws.size(); ++o) {
      cum += std::norm(shard[o]);
      if (!(draws[k] < cum)) continue;
      const Index logical = layout.logical_of(s, o);
      do out[k++] = logical;
      while (k < draws.size() && draws[k] < cum);
    }
  }
  if (k < draws.size()) {
    const Index last = layout.logical_of(state.num_shards() - 1, size - 1);
    while (k < draws.size()) out[k++] = last;
  }
  std::shuffle(out.begin(), out.end(), rng.engine());
  return out;
}

}  // namespace atlas::exec
