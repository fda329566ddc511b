#include "engine/coded_plan.h"

#include <algorithm>
#include <utility>

namespace gs {

bool CodedRing::Holds(DcIndex primary, DcIndex dc) const {
  if (primary == kNoDc) return false;
  return ((dc - primary) % num_dcs + num_dcs) % num_dcs < r;
}

DcIndex CodedRing::Replica(DcIndex primary, int j) const {
  return (primary + j) % num_dcs;
}

namespace {

// Whether distinct homes h and hp can anchor an XOR group: some primaries
// pa, pb exist whose rings make the pair mutually decodable (pa's ring
// reaches hp but not h, pb's reaches h but not hp) with a common serving
// datacenter.
bool Pairable(const CodedRing& ring, DcIndex h, DcIndex hp) {
  for (DcIndex pa = 0; pa < ring.num_dcs; ++pa) {
    if (!ring.Holds(pa, hp) || ring.Holds(pa, h)) continue;
    for (DcIndex pb = 0; pb < ring.num_dcs; ++pb) {
      if (!ring.Holds(pb, h) || ring.Holds(pb, hp)) continue;
      for (DcIndex c = 0; c < ring.num_dcs; ++c) {
        if (ring.Holds(pa, c) && ring.Holds(pb, c)) return true;
      }
    }
  }
  return false;
}

}  // namespace

std::vector<DcIndex> AssignCodedHomes(
    const CodedRing& ring, const std::vector<DcIndex>& primary_dc,
    const std::vector<std::vector<Bytes>>& bytes) {
  const int num_maps = static_cast<int>(primary_dc.size());
  const int num_shards = bytes.empty() ? 0 : static_cast<int>(bytes[0].size());

  // share[k][d]: bytes of shard k with a replica in datacenter d (free for
  // k there).
  std::vector<std::vector<Bytes>> share(num_shards,
                                        std::vector<Bytes>(ring.num_dcs, 0));
  for (int m = 0; m < num_maps; ++m) {
    if (primary_dc[m] == kNoDc) continue;
    for (int k = 0; k < num_shards; ++k) {
      for (int j = 0; j < ring.r; ++j) {
        share[k][ring.Replica(primary_dc[m], j)] += bytes[m][k];
      }
    }
  }

  std::vector<DcIndex> home(num_shards, kNoDc);
  for (int k = 0; k < num_shards; ++k) {
    home[k] = static_cast<DcIndex>(
        std::max_element(share[k].begin(), share[k].end()) - share[k].begin());
  }

  // Minimal diversification: if no two homes can anchor a group, re-home
  // the one shard with the smallest byte regret to a datacenter that pairs
  // with another shard's home.
  bool diverse = false;
  for (int a = 0; a < num_shards && !diverse; ++a) {
    for (int b = a + 1; b < num_shards && !diverse; ++b) {
      diverse = home[a] != home[b] && Pairable(ring, home[a], home[b]);
    }
  }
  if (diverse) return home;
  int best_k = -1;
  DcIndex best_d = kNoDc;
  Bytes best_regret = 0;
  for (int k = 0; k < num_shards; ++k) {
    for (DcIndex d = 0; d < ring.num_dcs; ++d) {
      if (d == home[k]) continue;
      bool anchors = false;
      for (int o = 0; o < num_shards && !anchors; ++o) {
        anchors = o != k && home[o] != d && Pairable(ring, home[o], d);
      }
      if (!anchors) continue;
      const Bytes regret = share[k][home[k]] - share[k][d];
      if (best_k < 0 || regret < best_regret) {
        best_k = k;
        best_d = d;
        best_regret = regret;
      }
    }
  }
  if (best_k >= 0) home[best_k] = best_d;
  return home;
}

std::vector<CodedGroup> GroupCodedSegments(
    const CodedRing& ring, const std::vector<CodedSegment>& wan) {
  const int n = static_cast<int>(wan.size());
  // The smallest datacenter replicating every member of `members`, or kNoDc.
  auto common_replica = [&](const std::vector<int>& members) {
    for (DcIndex c = 0; c < ring.num_dcs; ++c) {
      bool all = true;
      for (int g : members) all = all && ring.Holds(wan[g].primary, c);
      if (all) return c;
    }
    return kNoDc;
  };

  std::vector<CodedGroup> groups;
  std::vector<bool> used(n, false);
  for (int i = 0; i < n; ++i) {
    if (used[i]) continue;
    CodedGroup group;
    group.members = {i};
    for (int j = i + 1; j < n && static_cast<int>(group.members.size()) < ring.r;
         ++j) {
      if (used[j]) continue;
      bool ok = true;
      for (int g : group.members) {
        ok = ok && wan[g].home != wan[j].home &&
             ring.Holds(wan[g].primary, wan[j].home) &&
             ring.Holds(wan[j].primary, wan[g].home);
      }
      if (!ok) continue;
      group.members.push_back(j);
      const DcIndex serve = common_replica(group.members);
      if (serve == kNoDc) {
        group.members.pop_back();
      } else {
        group.serve = serve;
      }
    }
    group.packet = wan[i].bytes;
    for (int g : group.members) {
      used[g] = true;
      group.packet = std::min(group.packet, wan[g].bytes);
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

}  // namespace gs
