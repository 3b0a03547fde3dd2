// Inter-node ParaPLL (paper §4.5, Algorithm 3).
//
// q cluster nodes run on the in-process message fabric (one thread per
// rank). Roots are partitioned statically round-robin across nodes in
// descending-degree rank order, as in the paper ("the task assignment
// among different nodes is static"). Each node indexes its share with a
// private label store; after every ⌊n/c⌋ globally-ranked roots (c =
// sync_count) all nodes exchange their new labels (Alg. 3's List) with an
// AllGather and merge.
//
// Inside a node, the intra-node level runs as a deterministic
// virtual-time simulation of BuildPlan::threads workers (static or
// dynamic policy), so the whole cluster build is bit-reproducible: labels
// only cross nodes at barrier-aligned syncs. Time is reported in virtual
// units: compute units from the CostModel, communication units from the
// l·q·log q broadcast model of paper §5.4.3.
//
// The build itself is build::Run with BuildMode::kCluster
// (build/pipeline.hpp); this header holds the cost model and the root
// partitioning it uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace parapll::cluster {

// Communication cost of one synchronization: latency + per-entry cost of
// a log-tree exchange, plus the (computation-side) cost of merging
// received entries into the local store.
struct CommModel {
  double latency = 2000.0;      // per-sync fixed overhead (units)
  double per_entry = 0.6;       // broadcast cost per label entry per tree level
  double merge_per_entry = 0.3; // local merge cost per received entry

  // Units for exchanging `entries` total label entries among q nodes.
  [[nodiscard]] double ExchangeUnits(std::size_t entries,
                                     std::size_t q) const;
};

// How roots are partitioned among cluster nodes. The paper's task manager
// hands the degree-ordered queue to nodes round-robin; the alternatives
// exist for the inter-node assignment ablation bench.
enum class OwnershipPolicy {
  kRoundRobin,  // rank k -> node k mod q (paper §4.5)
  kBlock,       // contiguous rank blocks of n/q
  kRandom,      // seeded uniform assignment
};

std::string ToString(OwnershipPolicy policy);

// Epoch boundaries for n roots and c syncs: c blocks of ⌊n/c⌋ roots (the
// last block absorbs the remainder). Returned as c+1 offsets.
std::vector<graph::VertexId> SyncBoundaries(graph::VertexId n,
                                            std::size_t sync_count);

// owner[rank] = node id, for the given ownership policy.
std::vector<std::uint32_t> ComputeOwners(graph::VertexId n, std::size_t q,
                                         OwnershipPolicy policy,
                                         std::uint64_t seed);

}  // namespace parapll::cluster
