#pragma once

/// \file remap.h
/// State repartitioning between stages (the SHARD step of Algorithm 1):
/// an all-to-all exchange that realizes a new qubit layout. The move
/// is a bit permutation of storage indices plus the shard_xor
/// corrections, i.e. a GF(2)-affine dst -> src map. Contiguous runs
/// whose low bits the map fixes move as single block copies (plain
/// amplitude assignment when no bit is fixed). The remaining local dst
/// bits are folded into per-call byte lookup tables (at most
/// ceil((L - block_bits) / 8) tables of 256 entries), so a block's
/// source costs one XORed lookup per table on top of a per-shard
/// constant. Bytes are metered by link class once per (dst, src) shard
/// pair: each dst shard draws equal shares from 2^k source shards, k
/// the number of local dst bits the map sends to shard-selecting
/// positions.

#include "device/cluster.h"
#include "exec/dist_state.h"

namespace atlas::exec {

/// Permutes `state` into `new_layout`. Returns the communication
/// metering of the exchange.
device::CommStats remap(DistState& state, const Layout& new_layout,
                        const device::Cluster& cluster);

}  // namespace atlas::exec
