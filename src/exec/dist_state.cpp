#include "exec/dist_state.h"

#include "common/error.h"

namespace atlas::exec {

DistState DistState::zero_state(const Layout& layout, ThreadPool& pool) {
  DistState st;
  st.layout_ = layout;
  const int num_shards = 1 << (layout.num_qubits() - layout.num_local);
  // Allocate here, so the memory comes from (and returns to) the
  // caller's malloc arena like every later state and remap buffer; the
  // workers only zero-fill within capacity, which first-touches it.
  st.shards_.resize(num_shards);
  for (std::vector<Amp>& shard : st.shards_) shard.reserve(st.shard_size());
  pool.parallel_for(st.shards_.size(), [&](std::size_t s) {
    st.shards_[s].resize(st.shard_size());
  });
  const auto [s, o] = layout.locate(0);
  st.shards_[s][o] = Amp(1, 0);
  return st;
}

DistState DistState::scatter(const StateVector& sv, const Layout& layout) {
  ATLAS_CHECK(sv.num_qubits() == layout.num_qubits(),
              "state/layout qubit mismatch");
  DistState st;
  st.layout_ = layout;
  const int num_shards = 1 << (layout.num_qubits() - layout.num_local);
  st.shards_.assign(num_shards,
                    std::vector<Amp>(Index{1} << layout.num_local, Amp{}));
  for (Index i = 0; i < sv.size(); ++i) {
    const auto [s, o] = layout.locate(i);
    st.shards_[s][o] = sv[i];
  }
  return st;
}

StateVector DistState::gather() const {
  StateVector sv(num_qubits());
  sv[0] = Amp{};
  for (Index i = 0; i < sv.size(); ++i) {
    const auto [s, o] = layout_.locate(i);
    sv[i] = shards_[s][o];
  }
  return sv;
}

}  // namespace atlas::exec
