// Coded-exchange planner (engine/coded_plan.h): the replica ring, shard
// home assignment and XOR grouping, checked on plain inputs. This binary
// links the planner source alone — no simulator, tracker or cluster.
#include "engine/coded_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

namespace gs {
namespace {

TEST(CodedRingTest, MembershipIsThePrimaryAndTheNextRMinusOne) {
  for (int num_dcs = 1; num_dcs <= 6; ++num_dcs) {
    for (int r = 1; r <= num_dcs; ++r) {
      const CodedRing ring{r, num_dcs};
      for (DcIndex p = 0; p < num_dcs; ++p) {
        std::set<DcIndex> replicas;
        for (int j = 0; j < r; ++j) replicas.insert(ring.Replica(p, j));
        EXPECT_EQ(ring.Replica(p, 0), p);
        EXPECT_EQ(static_cast<int>(replicas.size()), r)
            << "K=" << num_dcs << " r=" << r << " p=" << p;
        for (DcIndex d = 0; d < num_dcs; ++d) {
          EXPECT_EQ(ring.Holds(p, d), replicas.count(d) == 1)
              << "K=" << num_dcs << " r=" << r << " p=" << p << " d=" << d;
        }
      }
      for (DcIndex d = 0; d < num_dcs; ++d) {
        EXPECT_FALSE(ring.Holds(kNoDc, d));
      }
    }
  }
}

TEST(CodedRingTest, WrapsAroundTheLastDatacenter) {
  const CodedRing ring{3, 4};
  EXPECT_EQ(ring.Replica(3, 1), 0);
  EXPECT_EQ(ring.Replica(3, 2), 1);
  EXPECT_TRUE(ring.Holds(3, 1));
  EXPECT_FALSE(ring.Holds(3, 2));
}

TEST(AssignCodedHomesTest, HomeIsTheArgmaxOfTheReplicaInclusiveShare) {
  // K=4, r=2: map m's primary p replicates into p and p+1.
  const CodedRing ring{2, 4};
  const std::vector<DcIndex> primary = {0, 2, kNoDc};
  // Shard 0: share DC0 = 5, DC1 = 5, DC2 = 1, DC3 = 1 -> tie, lowest wins.
  // Shard 1: share DC0 = 1, DC1 = 1, DC2 = 7, DC3 = 7 -> DC2.
  // Map 2 has no primary and counts nowhere.
  const std::vector<std::vector<Bytes>> bytes = {{5, 1}, {1, 7}, {100, 100}};
  EXPECT_EQ(AssignCodedHomes(ring, primary, bytes),
            (std::vector<DcIndex>{0, 2}));
}

TEST(AssignCodedHomesTest, CollapsedHomesReHomeTheLeastRegretShard) {
  // K=3, r=2. Both shards' argmax is DC0 (shares 11/10/1 and 12/10/2), and
  // two homes in one datacenter never anchor a group. Moving shard 0 to
  // DC1 costs 1 byte, the cheapest move to a datacenter that pairs with
  // DC0; nothing else moves.
  const CodedRing ring{2, 3};
  const std::vector<DcIndex> primary = {0, 2};
  const std::vector<std::vector<Bytes>> bytes = {{10, 10}, {1, 2}};
  EXPECT_EQ(AssignCodedHomes(ring, primary, bytes),
            (std::vector<DcIndex>{1, 0}));
}

TEST(AssignCodedHomesTest, SingleShardAndNoReplicationStayAtTheArgmax) {
  const std::vector<DcIndex> primary = {0, 1};
  // One shard has no partner to anchor a group with: shares 4/5/1 -> DC1.
  EXPECT_EQ(AssignCodedHomes(CodedRing{2, 3}, primary, {{4}, {1}}),
            (std::vector<DcIndex>{1}));
  // r = 1: no two distinct homes are ever pairable, so nothing moves.
  EXPECT_EQ(AssignCodedHomes(CodedRing{1, 3}, primary, {{4, 4}, {1, 1}}),
            (std::vector<DcIndex>{0, 0}));
}

TEST(GroupCodedSegmentsTest, PairsMutuallyDecodableSegments) {
  // K=3, r=2. A (primary 0, ring {0,1}) goes home to DC2; B (primary 1,
  // ring {1,2}) to DC0. Each home holds the other member and DC1 holds
  // both, so one 3-byte packet serves the pair; C cannot join (its home
  // DC2 is taken) and goes unicast.
  const CodedRing ring{2, 3};
  const std::vector<CodedSegment> wan = {
      {.m = 0, .k = 0, .primary = 0, .home = 2, .bytes = 5},
      {.m = 1, .k = 1, .primary = 1, .home = 0, .bytes = 3},
      {.m = 2, .k = 0, .primary = 0, .home = 2, .bytes = 4},
  };
  const std::vector<CodedGroup> groups = GroupCodedSegments(ring, wan);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].members, (std::vector<int>{0, 1}));
  EXPECT_EQ(groups[0].serve, 1);
  EXPECT_EQ(groups[0].packet, 3);
  EXPECT_EQ(groups[1].members, (std::vector<int>{2}));
  EXPECT_EQ(groups[1].packet, 4);
}

TEST(GroupCodedSegmentsTest, NoReplicationFormsNoGroups) {
  const CodedRing ring{1, 4};
  std::vector<CodedSegment> wan;
  for (int m = 0; m < 8; ++m) {
    wan.push_back({.m = m, .k = m % 4, .primary = m % 4,
                   .home = (m + 1) % 4, .bytes = 10 + m});
  }
  const std::vector<CodedGroup> groups = GroupCodedSegments(ring, wan);
  ASSERT_EQ(groups.size(), wan.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    EXPECT_EQ(groups[i].members, (std::vector<int>{static_cast<int>(i)}));
  }
}

// Random segment lists on every (K, r): each group obeys the XOR-decoding
// invariants, and the groups partition the list in first-member order.
TEST(GroupCodedSegmentsTest, GroupsSatisfyTheDecodingInvariants) {
  std::mt19937 gen(7);
  int multi_member_groups = 0;
  for (int num_dcs = 2; num_dcs <= 6; ++num_dcs) {
    for (int r = 1; r <= num_dcs; ++r) {
      const CodedRing ring{r, num_dcs};
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<CodedSegment> wan;
        const int n = std::uniform_int_distribution<int>(0, 30)(gen);
        for (int i = 0; i < n; ++i) {
          CodedSegment seg;
          seg.m = i;
          seg.k = i % 5;
          seg.primary =
              std::uniform_int_distribution<DcIndex>(0, num_dcs - 1)(gen);
          seg.home =
              std::uniform_int_distribution<DcIndex>(0, num_dcs - 1)(gen);
          seg.bytes = std::uniform_int_distribution<Bytes>(1, 1000)(gen);
          // A WAN segment has no replica in its home datacenter.
          if (ring.Holds(seg.primary, seg.home)) continue;
          wan.push_back(seg);
        }

        const std::vector<CodedGroup> groups = GroupCodedSegments(ring, wan);
        std::vector<int> seen(wan.size(), 0);
        int prev_first = -1;
        for (const CodedGroup& g : groups) {
          ASSERT_FALSE(g.members.empty());
          ASSERT_LE(static_cast<int>(g.members.size()), r);
          EXPECT_GT(g.members[0], prev_first);
          prev_first = g.members[0];
          Bytes shortest = wan[g.members[0]].bytes;
          for (int a : g.members) {
            ++seen[a];
            shortest = std::min(shortest, wan[a].bytes);
            for (int b : g.members) {
              if (a == b) continue;
              EXPECT_NE(wan[a].home, wan[b].home);
              EXPECT_TRUE(ring.Holds(wan[a].primary, wan[b].home))
                  << "member " << a << " not decodable at " << wan[b].home;
            }
          }
          EXPECT_EQ(g.packet, shortest);
          if (g.members.size() < 2) continue;
          ++multi_member_groups;
          ASSERT_NE(g.serve, kNoDc);
          for (DcIndex c = 0; c <= g.serve; ++c) {
            bool all = true;
            for (int a : g.members) all = all && ring.Holds(wan[a].primary, c);
            EXPECT_EQ(all, c == g.serve)
                << "serve " << g.serve << " is not the smallest common "
                << "replica datacenter";
          }
        }
        for (int count : seen) EXPECT_EQ(count, 1);
        if (r == 1) {
          EXPECT_EQ(groups.size(), wan.size());
        }
      }
    }
  }
  EXPECT_GT(multi_member_groups, 0);
}

}  // namespace
}  // namespace gs
