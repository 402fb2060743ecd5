// bench_remap — the SHARD step and the inverse-CDF sampler at memory
// speed, measured against faithful copies of the per-amplitude loops
// they replaced:
//
//   remap  : four layout moves on a 2^n-amplitude state (L = n-3,
//            2 regional + 1 global bit, 4 shard threads):
//              low-bit move  — physical bit 0 swaps with a shard bit
//                              (no contiguous runs, every amplitude
//                              moves on its own);
//              local<->global — the top local bit swaps with the global
//                              bit (half-shard runs);
//              shard_xor only — no permutation, the shard XOR changes
//                              (whole-shard runs);
//              full scramble — a random permutation plus a random XOR.
//            Reported as GB/s of state moved and as a fraction of an
//            in-bench memcpy probe (the same bytes copied shard by
//            shard on the same thread pool).
//   sample : sample(1024) on a random state through a permuted layout.
//
// Every new result is compared with operator== against the reference
// (shards, CommStats byte totals, shot streams), and that identity is
// the only gate: --smoke shrinks the state to 2^20 amplitudes and fewer
// repetitions; --json PATH writes a BENCH_remap.json artifact.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/timer.h"
#include "exec/queries.h"
#include "exec/remap.h"
#include "util.h"

namespace atlas::bench {
namespace {

// --- The replaced loops, reproduced verbatim -----------------------------

/// Per-block remap: rebuilds each block's source index bit by bit and
/// meters every block with a link-class branch.
device::CommStats reference_remap(exec::DistState& state,
                                  const exec::Layout& new_layout,
                                  const device::Cluster& cluster) {
  const exec::Layout& old_layout = state.layout();
  const int n = state.num_qubits();
  const int L = new_layout.num_local;
  std::vector<int> bitmap(n);
  for (int p = 0; p < n; ++p)
    bitmap[p] = old_layout.phys_of_logical[new_layout.logical_of_phys[p]];
  Index xor_const = old_layout.shard_xor << L;
  {
    const Index a = new_layout.shard_xor << L;
    for (int p = 0; p < n; ++p)
      if (test_bit(a, p)) xor_const ^= bit(bitmap[p]);
  }
  device::CommStats stats;
  bool identity = xor_const == 0;
  for (int p = 0; p < n && identity; ++p) identity = bitmap[p] == p;
  if (identity) {
    state.layout() = new_layout;
    return stats;
  }
  int block_bits = 0;
  while (block_bits < L && bitmap[block_bits] == block_bits &&
         !test_bit(xor_const, block_bits))
    ++block_bits;
  const Index block = Index{1} << block_bits;
  const Index shard_size = state.shard_size();
  const int num_shards = state.num_shards();
  std::vector<std::vector<Amp>> dst(num_shards,
                                    std::vector<Amp>(shard_size));
  const auto& src_shards = state.shards();
  std::vector<std::uint64_t> intra_gpu(num_shards, 0),
      intra_node(num_shards, 0), inter_node(num_shards, 0);
  cluster.pool().parallel_for(
      static_cast<std::size_t>(num_shards), [&](std::size_t s1) {
        const Index base = static_cast<Index>(s1) << L;
        for (Index o = 0; o < shard_size; o += block) {
          const Index d = base | o;
          Index src = xor_const;
          for (int p = block_bits; p < n; ++p)
            if (test_bit(d, p)) src ^= bit(bitmap[p]);
          src |= d & (block - 1);
          const int s0 = static_cast<int>(src >> L);
          std::memcpy(dst[s1].data() + o,
                      src_shards[s0].data() + (src & (shard_size - 1)),
                      block * sizeof(Amp));
          const std::uint64_t bytes = block * sizeof(Amp);
          if (s0 == static_cast<int>(s1)) {
            intra_gpu[s1] += bytes;
          } else if (cluster.node_of_shard(s0) ==
                     cluster.node_of_shard(static_cast<int>(s1))) {
            intra_node[s1] += bytes;
          } else {
            inter_node[s1] += bytes;
          }
        }
      });
  for (int s = 0; s < num_shards; ++s) {
    stats.intra_gpu_bytes += intra_gpu[s];
    stats.intra_node_bytes += intra_node[s];
    stats.inter_node_bytes += inter_node[s];
  }
  if (stats.intra_node_bytes + stats.inter_node_bytes > 0)
    stats.alltoall_rounds = 1;
  state.shards() = std::move(dst);
  state.layout() = new_layout;
  return stats;
}

/// Per-amplitude sampler: the logical index of every amplitude walked.
std::vector<Index> reference_sample(const exec::DistState& state, int shots,
                                    Rng& rng) {
  const exec::Layout& l = state.layout();
  const auto logical_of = [&](int shard, Index offset) {
    const Index phys =
        ((static_cast<Index>(shard) ^ l.shard_xor) << l.num_local) | offset;
    Index logical = 0;
    for (int p = 0; p < l.num_qubits(); ++p)
      if (test_bit(phys, p)) logical |= bit(l.logical_of_phys[p]);
    return logical;
  };
  std::vector<double> draws(shots);
  for (auto& d : draws) d = rng.uniform();
  std::sort(draws.begin(), draws.end());
  std::vector<Index> out(shots);
  double cum = 0;
  std::size_t k = 0;
  Index last = 0;
  for (int s = 0; s < state.num_shards() && k < draws.size(); ++s) {
    const auto& shard = state.shard(s);
    for (Index o = 0; o < state.shard_size() && k < draws.size(); ++o) {
      cum += std::norm(shard[o]);
      last = logical_of(s, o);
      while (k < draws.size() && draws[k] < cum) out[k++] = last;
    }
  }
  while (k < draws.size()) out[k++] = last;
  std::shuffle(out.begin(), out.end(), rng.engine());
  return out;
}

// --- Workload -------------------------------------------------------------

exec::Layout with_order(const exec::Layout& base,
                        const std::vector<Qubit>& order) {
  exec::Layout l = base;
  l.logical_of_phys = order;
  for (int p = 0; p < static_cast<int>(order.size()); ++p)
    l.phys_of_logical[order[p]] = p;
  return l;
}

struct Pattern {
  std::string name;
  exec::Layout target;
};

std::vector<Pattern> patterns(const exec::Layout& from, Rng& rng) {
  const int n = from.num_qubits();
  const int L = from.num_local;
  std::vector<Pattern> out;
  {
    std::vector<Qubit> order = from.logical_of_phys;
    std::swap(order[0], order[L]);
    out.push_back({"low-bit move", with_order(from, order)});
  }
  {
    std::vector<Qubit> order = from.logical_of_phys;
    std::swap(order[L - 1], order[n - 1]);
    out.push_back({"local<->global", with_order(from, order)});
  }
  {
    exec::Layout l = from;
    l.shard_xor ^= 0b101;
    out.push_back({"shard_xor only", l});
  }
  {
    std::vector<Qubit> order = from.logical_of_phys;
    std::shuffle(order.begin(), order.end(), rng.engine());
    exec::Layout l = with_order(from, order);
    l.shard_xor = rng.index(Index{1} << (n - L));
    out.push_back({"full scramble", l});
  }
  return out;
}

bool same_bytes(const device::CommStats& a, const device::CommStats& b) {
  return a.intra_gpu_bytes == b.intra_gpu_bytes &&
         a.intra_node_bytes == b.intra_node_bytes &&
         a.inter_node_bytes == b.inter_node_bytes &&
         a.alltoall_rounds == b.alltoall_rounds;
}

struct RemapRow {
  int qubits;
  std::string pattern;
  double ref_ms, new_ms, gbps, memcpy_frac;
  bool identical;
};

struct SampleRow {
  int qubits;
  double ref_ms, new_ms;
  bool identical;
};

/// Best-of-`reps` seconds to copy the state shard by shard on `pool`.
double memcpy_probe_seconds(const exec::DistState& state,
                            const device::Cluster& cluster, int reps) {
  std::vector<std::vector<Amp>> dst(state.num_shards(),
                                    std::vector<Amp>(state.shard_size()));
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    cluster.pool().parallel_for(
        static_cast<std::size_t>(state.num_shards()), [&](std::size_t s) {
          std::memcpy(dst[s].data(), state.shard(static_cast<int>(s)).data(),
                      state.shard_size() * sizeof(Amp));
        });
    best = std::min(best, t.seconds());
  }
  return best;
}

int run(bool smoke, const char* json_path) {
  const std::vector<int> sizes =
      smoke ? std::vector<int>{20} : std::vector<int>{20, 21, 22};
  const int reps = smoke ? 2 : 5;
  print_header("SHARD step and sampler: per-amplitude loops vs table-driven",
               "remap + sample between stages of a 4-GPU state",
               (std::string("2^n amplitudes, n = ") +
                (smoke ? "20" : "20, 21, 22") +
                "; L=n-3 R=2 G=1, 4 shard threads")
                   .c_str());

  std::vector<RemapRow> remaps;
  std::vector<SampleRow> samples;
  bool all_identical = true;
  std::printf("\n%-4s %-16s %10s %10s %9s %8s %6s\n", "n", "pattern",
              "ref [ms]", "new [ms]", "GB/s", "memcpy%", "exact");
  for (const int n : sizes) {
    device::ClusterConfig cc;
    cc.local_qubits = n - 3;
    cc.regional_qubits = 2;
    cc.global_qubits = 1;
    cc.gpus_per_node = 4;
    cc.num_threads = 4;
    const device::Cluster cluster(cc);
    Rng rng(0xB17 + n);

    exec::Layout start = exec::Layout::identity(n, cc.local_qubits);
    start.shard_xor = 0b011;
    const exec::DistState initial =
        exec::DistState::scatter(StateVector::random(n, 77 + n), start);
    const double bytes = static_cast<double>(sizeof(Amp)) *
                         static_cast<double>(Index{1} << n);
    const double memcpy_gbps =
        bytes / memcpy_probe_seconds(initial, cluster, reps) / 1e9;

    for (const Pattern& pat : patterns(start, rng)) {
      exec::DistState ref = initial;
      Timer tr;
      const device::CommStats ref_stats =
          reference_remap(ref, pat.target, cluster);
      const double ref_s = tr.seconds();

      double best = 1e30;
      bool identical = true;
      for (int r = 0; r < reps; ++r) {
        exec::DistState st = initial;
        Timer t;
        const device::CommStats stats = exec::remap(st, pat.target, cluster);
        best = std::min(best, t.seconds());
        for (int s = 0; s < st.num_shards(); ++s)
          identical &= st.shard(s) == ref.shard(s);
        identical &= same_bytes(stats, ref_stats);
      }
      all_identical &= identical;
      const double gbps = bytes / best / 1e9;
      remaps.push_back({n, pat.name, ref_s * 1e3, best * 1e3, gbps,
                        gbps / memcpy_gbps, identical});
      std::printf("%-4d %-16s %10.2f %10.2f %9.2f %7.1f%% %6s\n", n,
                  pat.name.c_str(), ref_s * 1e3, best * 1e3, gbps,
                  100 * gbps / memcpy_gbps, identical ? "yes" : "NO");
    }

    // sample(1024) through a permuted layout with a shard XOR.
    exec::DistState permuted = initial;
    exec::remap(permuted, patterns(start, rng).back().target, cluster);
    Rng ref_rng(n);
    Timer tr;
    const std::vector<Index> ref_shots =
        reference_sample(permuted, 1024, ref_rng);
    const double ref_s = tr.seconds();
    double best = 1e30;
    std::vector<Index> shots;
    for (int r = 0; r < reps; ++r) {
      Rng rr(n);
      Timer t;
      shots = exec::sample(permuted, 1024, rr);
      best = std::min(best, t.seconds());
    }
    const bool identical = shots == ref_shots;
    all_identical &= identical;
    samples.push_back({n, ref_s * 1e3, best * 1e3, identical});
    std::printf("%-4d %-16s %10.2f %10.2f %9s %8s %6s   (memcpy probe %.2f "
                "GB/s)\n",
                n, "sample(1024)", ref_s * 1e3, best * 1e3, "-", "-",
                identical ? "yes" : "NO", memcpy_gbps);
  }

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::printf("FAIL: cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"remap\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(f, "  \"remap\": [\n");
    for (std::size_t i = 0; i < remaps.size(); ++i) {
      const RemapRow& r = remaps[i];
      std::fprintf(f,
                   "    {\"qubits\": %d, \"pattern\": \"%s\", \"ref_ms\": "
                   "%.3f, \"new_ms\": %.3f, \"gbps\": %.3f, "
                   "\"memcpy_frac\": %.4f, \"identical\": %s}%s\n",
                   r.qubits, r.pattern.c_str(), r.ref_ms, r.new_ms, r.gbps,
                   r.memcpy_frac, r.identical ? "true" : "false",
                   i + 1 < remaps.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"sample\": [\n");
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const SampleRow& r = samples[i];
      std::fprintf(f,
                   "    {\"qubits\": %d, \"shots\": 1024, \"ref_ms\": %.3f, "
                   "\"new_ms\": %.3f, \"identical\": %s}%s\n",
                   r.qubits, r.ref_ms, r.new_ms,
                   r.identical ? "true" : "false",
                   i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"bit_identical\": %s\n}\n",
                 all_identical ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }

  if (!all_identical) {
    std::printf("FAIL: remap or sample is not bit-identical to the "
                "per-amplitude reference\n");
    return 1;
  }
  std::printf("check: remap shards, byte meters and shot streams "
              "bit-identical to the reference — %s\n",
              smoke ? "SMOKE PASS" : "PASS");
  return 0;
}

}  // namespace
}  // namespace atlas::bench

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }
  return atlas::bench::run(smoke, json_path);
}
