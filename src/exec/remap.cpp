#include "exec/remap.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/error.h"

namespace atlas::exec {

device::CommStats remap(DistState& state, const Layout& new_layout,
                        const device::Cluster& cluster) {
  const Layout& old_layout = state.layout();
  const int n = state.num_qubits();
  const int L = new_layout.num_local;
  ATLAS_CHECK(old_layout.num_local == L,
              "remap cannot change the local qubit count");
  ATLAS_CHECK(new_layout.num_qubits() == n, "layout size mismatch");

  // Composite map: dst storage index -> src storage index.
  //   src = spread_bits(dst, bitmap) ^ xor_const
  // where bitmap[p] = old physical position of the logical qubit that
  // the new layout places at physical position p, and xor_const folds
  // both layouts' shard_xor corrections through the permutation.
  std::vector<int> bitmap(n);
  for (int p = 0; p < n; ++p)
    bitmap[p] = old_layout.phys_of_logical[new_layout.logical_of_phys[p]];
  Index xor_const = old_layout.shard_xor << L;
  {
    const Index a = new_layout.shard_xor << L;  // pre-permutation flips
    for (int p = 0; p < n; ++p)
      if (test_bit(a, p)) xor_const ^= bit(bitmap[p]);
  }

  device::CommStats stats;
  // Identity fast path: nothing moves.
  bool identity = xor_const == 0;
  for (int p = 0; p < n && identity; ++p) identity = bitmap[p] == p;
  if (identity) {
    state.layout() = new_layout;
    return stats;
  }

  // Block size: low bits fixed by the map move as contiguous runs.
  int block_bits = 0;
  while (block_bits < L && bitmap[block_bits] == block_bits &&
         !test_bit(xor_const, block_bits))
    ++block_bits;
  const Index block = Index{1} << block_bits;
  const Index shard_size = state.shard_size();
  const int num_shards = state.num_shards();

  // The map is GF(2)-linear, so the local dst bits above the block
  // ([block_bits, L)) contribute through byte lookup tables: entry v of
  // table t is the XOR of bit(bitmap[p]) over the bits set in v, with
  // p = block_bits + 8t + j. A block's source is then the dst shard's
  // constant part XORed with one entry per table.
  const int moving = L - block_bits;
  const int num_tables = std::max(1, (moving + 7) / 8);
  std::array<std::array<Index, 256>, 5> tables{};  // L < 40
  ATLAS_CHECK(num_tables <= static_cast<int>(tables.size()),
              "too many local qubits for remap tables: " << L);
  for (int t = 0; t < num_tables; ++t) {
    const int width = std::clamp(moving - 8 * t, 0, 8);
    for (Index v = 1; v < bit(width); ++v)
      tables[t][v] = tables[t][v & (v - 1)] ^
                     bit(bitmap[block_bits + 8 * t + std::countr_zero(v)]);
  }
  const Index row_len = bit(std::min(moving, 8));  // entries of table 0
  const Index rows = bit(moving) / row_len;

  // Source-shard bits a dst shard draws on: every local dst bit that
  // the map sends to a shard-selecting position doubles the number of
  // source shards, each feeding an equal share.
  std::vector<int> fanout_bits;
  for (int p = block_bits; p < L; ++p)
    if (bitmap[p] >= L) fanout_bits.push_back(1 << (bitmap[p] - L));
  const Index sources = bit(static_cast<int>(fanout_bits.size()));
  const std::uint64_t bytes_per_source =
      shard_size / sources * sizeof(Amp);

  std::vector<const Amp*> src(num_shards);
  for (int s = 0; s < num_shards; ++s) src[s] = state.shard(s).data();
  // Per-shard byte accounting, merged after the parallel loop.
  std::vector<device::CommStats> shard_stats(num_shards);
  // Allocated here, zero-filled (and first touched) in parallel below.
  std::vector<std::vector<Amp>> dst(num_shards);
  for (auto& d : dst) d.reserve(shard_size);

  cluster.pool().parallel_for(
      static_cast<std::size_t>(num_shards), [&](std::size_t s1) {
        dst[s1].resize(shard_size);  // within capacity: no reallocation
        Amp* out = dst[s1].data();
        Index shard_src = xor_const;
        for (int p = L; p < n; ++p)
          if (test_bit(s1, p - L)) shard_src ^= bit(bitmap[p]);
        for (Index r = 0; r < rows; ++r) {
          Index row_src = shard_src;
          for (int t = 1; t < num_tables; ++t)
            row_src ^= tables[t][(r >> (8 * (t - 1))) & 255];
          const Index* t0 = tables[0].data();
          Amp* row_out = out + ((r * row_len) << block_bits);
          if (block == 1) {
            for (Index v = 0; v < row_len; ++v) {
              const Index from = row_src ^ t0[v];
              row_out[v] = src[from >> L][from & (shard_size - 1)];
            }
          } else {
            for (Index v = 0; v < row_len; ++v) {
              const Index from = row_src ^ t0[v];
              std::memcpy(row_out + (v << block_bits),
                          src[from >> L] + (from & (shard_size - 1)),
                          block * sizeof(Amp));
            }
          }
        }

        // Meter each source shard once: they are shard_src's shard
        // bits XOR every subset of fanout_bits, enumerated in Gray
        // order.
        device::CommStats& st = shard_stats[s1];
        int s0 = static_cast<int>(shard_src >> L);
        for (Index m = 1;; ++m) {
          if (s0 == static_cast<int>(s1)) {
            st.intra_gpu_bytes += bytes_per_source;
          } else if (cluster.node_of_shard(s0) ==
                     cluster.node_of_shard(static_cast<int>(s1))) {
            st.intra_node_bytes += bytes_per_source;
          } else {
            st.inter_node_bytes += bytes_per_source;
          }
          if (m == sources) break;
          s0 ^= fanout_bits[std::countr_zero(m)];
        }
      });

  for (const device::CommStats& st : shard_stats) stats += st;
  if (stats.intra_node_bytes + stats.inter_node_bytes > 0)
    stats.alltoall_rounds = 1;

  state.shards() = std::move(dst);
  state.layout() = new_layout;
  return stats;
}

}  // namespace atlas::exec
