// Coded-shuffle exchange planning (docs/CODED.md, after Coded MapReduce).
//
// Pure functions over datacenter indices and byte counts: which
// datacenters hold a map partition's replicas, which datacenter each reduce
// shard consolidates into, and which cross-datacenter segments share one
// XOR multicast. Nothing here reads the simulator, the map-output tracker
// or the block manager; CodedExchange (engine/coded_exchange.h) executes
// the plan against live cluster state (node liveness, surviving replicas).
#pragma once

#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace gs {

// Replica placement: a map partition whose primary executes in datacenter
// p also executes in the next r-1 datacenters of the ring, p+1 .. p+r-1
// (mod num_dcs). The only place that knows this rule.
struct CodedRing {
  int r = 1;
  int num_dcs = 1;

  // Whether datacenter `dc` holds a replica of a map whose primary runs in
  // `primary`. A map with no primary (kNoDc) is held nowhere.
  bool Holds(DcIndex primary, DcIndex dc) const;
  // The j-th replica datacenter, 0 <= j < r; j = 0 is the primary itself.
  DcIndex Replica(DcIndex primary, int j) const;
};

// Home datacenter of every reduce shard. `primary_dc[m]` is map m's primary
// datacenter (kNoDc: m has no registered output) and `bytes[m][k]` the size
// of its segment for shard k. Each home is the argmax of the shard's
// replica-inclusive share, so every byte replicated into the home stays off
// the WAN. When no two homes can anchor an XOR group (under a hash
// partitioner all homes tend to collapse into one datacenter), the single
// shard with the smallest byte regret moves to a datacenter that can.
std::vector<DcIndex> AssignCodedHomes(
    const CodedRing& ring, const std::vector<DcIndex>& primary_dc,
    const std::vector<std::vector<Bytes>>& bytes);

// A segment (map m's output for shard k) that has no replica in its home
// datacenter and must cross the WAN.
struct CodedSegment {
  int m = 0;
  int k = 0;
  DcIndex primary = kNoDc;  // map m's primary datacenter
  DcIndex home = kNoDc;     // shard k's home datacenter
  Bytes bytes = 0;
};

// One transfer of the exchange. A group of one member is a residual
// unicast of the whole segment from its primary. A larger group is one XOR
// multicast of `packet` bytes from `serve`: its members have pairwise
// distinct homes, each member is replicated in every other member's home
// (so each home XORs out its own segment), and every member is replicated
// in `serve`. Members longer than `packet` send their tails unicast.
struct CodedGroup {
  std::vector<int> members;  // indices into the segment list, ascending
  DcIndex serve = kNoDc;     // smallest common replica datacenter (size >= 2)
  Bytes packet = 0;          // shortest member's length
};

// Greedy, deterministic grouping of `wan` (in (shard, map) order) into
// groups of at most ring.r members. Every segment lands in exactly one
// group, and groups come out in the order of their first member.
std::vector<CodedGroup> GroupCodedSegments(const CodedRing& ring,
                                           const std::vector<CodedSegment>& wan);

}  // namespace gs
