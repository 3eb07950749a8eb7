// HashRing — the placement properties the router tier depends on:
// determinism (two routers with the same member set route identically),
// insertion-order independence, bounded key movement on join/leave, and
// the no-foreign-movement guarantee (removing a node never shuffles keys
// between survivors).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "circuitgen/suite.h"
#include "router/hash_ring.h"

namespace rebert::router {
namespace {

std::vector<std::string> test_keys(int count) {
  std::vector<std::string> keys;
  keys.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    keys.push_back("b" + std::to_string(i) + "_bench");
  return keys;
}

TEST(HashRingTest, EmptyRingReturnsEmptyOwner) {
  HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.node_for("b03"), "");
}

TEST(HashRingTest, PlacementIsDeterministic) {
  HashRing a;
  HashRing b;
  for (const char* node : {"backend0", "backend1", "backend2"}) {
    a.add(node);
    b.add(node);
  }
  for (const std::string& key : test_keys(200))
    EXPECT_EQ(a.node_for(key), b.node_for(key)) << key;
}

TEST(HashRingTest, PlacementIgnoresInsertionOrder) {
  HashRing forward;
  HashRing backward;
  forward.add("backend0");
  forward.add("backend1");
  forward.add("backend2");
  backward.add("backend2");
  backward.add("backend1");
  backward.add("backend0");
  for (const std::string& key : test_keys(200))
    EXPECT_EQ(forward.node_for(key), backward.node_for(key)) << key;
}

TEST(HashRingTest, AddingTwiceIsANoOp) {
  HashRing ring;
  ring.add("backend0");
  ring.add("backend0");
  EXPECT_EQ(ring.num_nodes(), 1u);
  ring.remove("backend0");
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.node_for("b03"), "");
}

TEST(HashRingTest, SingleNodeOwnsEverything) {
  HashRing ring;
  ring.add("backend0");
  for (const std::string& key : test_keys(50))
    EXPECT_EQ(ring.node_for(key), "backend0");
}

TEST(HashRingTest, EveryNodeGetsAShare) {
  HashRing ring;
  std::map<std::string, int> share;
  for (int n = 0; n < 4; ++n) {
    const std::string name = "backend" + std::to_string(n);
    ring.add(name);
    share[name] = 0;
  }
  for (const std::string& key : test_keys(400)) ++share[ring.node_for(key)];
  for (const auto& [name, count] : share)
    EXPECT_GT(count, 0) << name << " owns no keys";
}

TEST(HashRingTest, JoinMovesAtMostTwoOverNKeys) {
  const int kNodes = 4;  // the post-join member count N
  HashRing ring;
  for (int n = 0; n < kNodes - 1; ++n)
    ring.add("backend" + std::to_string(n));
  const std::vector<std::string> keys = test_keys(1000);
  std::map<std::string, std::string> before;
  for (const std::string& key : keys) before[key] = ring.node_for(key);

  ring.add("backend" + std::to_string(kNodes - 1));
  int moved = 0;
  for (const std::string& key : keys) {
    const std::string after = ring.node_for(key);
    if (after != before[key]) {
      ++moved;
      // A key only ever moves TO the joiner, never between survivors.
      EXPECT_EQ(after, "backend" + std::to_string(kNodes - 1)) << key;
    }
  }
  EXPECT_LE(moved, static_cast<int>(keys.size()) * 2 / kNodes);
  EXPECT_GT(moved, 0);  // the joiner must take some share
}

TEST(HashRingTest, LeaveMovesOnlyTheLeaversKeys) {
  const int kNodes = 4;
  HashRing ring;
  for (int n = 0; n < kNodes; ++n) ring.add("backend" + std::to_string(n));
  const std::vector<std::string> keys = test_keys(1000);
  std::map<std::string, std::string> before;
  for (const std::string& key : keys) before[key] = ring.node_for(key);

  ring.remove("backend2");
  int moved = 0;
  for (const std::string& key : keys) {
    const std::string after = ring.node_for(key);
    if (before[key] == "backend2") {
      EXPECT_NE(after, "backend2") << key;
      ++moved;
    } else {
      // Survivors' keys must not move at all.
      EXPECT_EQ(after, before[key]) << key;
    }
  }
  EXPECT_LE(moved, static_cast<int>(keys.size()) * 2 / kNodes);
}

TEST(HashRingTest, RemoveThenReAddRestoresPlacement) {
  HashRing ring;
  for (int n = 0; n < 3; ++n) ring.add("backend" + std::to_string(n));
  const std::vector<std::string> keys = test_keys(300);
  std::map<std::string, std::string> before;
  for (const std::string& key : keys) before[key] = ring.node_for(key);
  ring.remove("backend1");
  ring.add("backend1");
  for (const std::string& key : keys)
    EXPECT_EQ(ring.node_for(key), before[key]) << key;
}

TEST(HashRingTest, HashIsStable) {
  // Pin the hash function (FNV-1a + murmur3 finalizer): silent changes
  // would silently remap every deployed key range.
  EXPECT_EQ(HashRing::hash(""), 17280346270528514342ULL);
  EXPECT_EQ(HashRing::hash("a"), HashRing::hash("a"));
  EXPECT_NE(HashRing::hash("a"), HashRing::hash("b"));
}

TEST(HashRingTest, SimilarShortKeysDoNotClusterOntoOneNode) {
  // Bench names differ only in their last characters; raw FNV-1a maps
  // them into a sliver of the ring and a 2-node ring then hands every
  // bench to one backend. The avalanche finalizer must spread them.
  HashRing ring;
  ring.add("backend0");
  ring.add("backend1");
  int owned_by_zero = 0;
  const std::vector<std::string> benches = {"b03", "b04", "b05", "b07",
                                            "b08", "b11", "b12", "b13"};
  for (const std::string& bench : benches)
    if (ring.node_for(bench) == "backend0") ++owned_by_zero;
  EXPECT_GT(owned_by_zero, 0);
  EXPECT_LT(owned_by_zero, static_cast<int>(benches.size()));
}

TEST(HashRingOwnersTest, OwnersAreDistinctAndLedByNodeFor) {
  HashRing ring;
  for (int n = 0; n < 5; ++n) ring.add("backend" + std::to_string(n));
  for (const std::string& key : test_keys(300)) {
    const std::vector<std::string> owners = ring.owners(key, 3);
    ASSERT_EQ(owners.size(), 3u) << key;
    EXPECT_EQ(owners[0], ring.node_for(key)) << key;
    EXPECT_NE(owners[0], owners[1]) << key;
    EXPECT_NE(owners[0], owners[2]) << key;
    EXPECT_NE(owners[1], owners[2]) << key;
  }
}

TEST(HashRingOwnersTest, OwnersDegradeToAllMembersWhenRExceedsThem) {
  HashRing ring;
  ring.add("backend0");
  ring.add("backend1");
  const std::vector<std::string> owners = ring.owners("b03", 5);
  ASSERT_EQ(owners.size(), 2u);  // all members, primary first
  EXPECT_EQ(owners[0], ring.node_for("b03"));
  EXPECT_NE(owners[0], owners[1]);
  EXPECT_TRUE(ring.owners("b03", 0).empty());
  EXPECT_TRUE(ring.owners("b03", -1).empty());
  EXPECT_TRUE(HashRing().owners("b03", 2).empty());
}

TEST(HashRingOwnersTest, OwnersAreDeterministic) {
  HashRing a;
  HashRing b;
  for (const char* node : {"backend2", "backend0", "backend1"}) a.add(node);
  for (const char* node : {"backend0", "backend1", "backend2"}) b.add(node);
  for (const std::string& key : test_keys(200))
    EXPECT_EQ(a.owners(key, 2), b.owners(key, 2)) << key;
}

TEST(HashRingOwnersTest, JoinChurnsFewReplicaPairs) {
  // The (primary, secondary) pair of a key only changes when the joiner
  // lands inside the key's first-two-owners walk: the pair churn on an
  // N -> N+1 join must stay a small fraction, like single-owner movement.
  const int kNodes = 5;  // post-join member count
  HashRing ring;
  for (int n = 0; n < kNodes - 1; ++n)
    ring.add("backend" + std::to_string(n));
  const std::vector<std::string> keys = test_keys(1000);
  std::map<std::string, std::vector<std::string>> before;
  for (const std::string& key : keys) before[key] = ring.owners(key, 2);

  const std::string joiner = "backend" + std::to_string(kNodes - 1);
  ring.add(joiner);
  int churned = 0;
  for (const std::string& key : keys) {
    const std::vector<std::string> after = ring.owners(key, 2);
    if (after == before[key]) continue;
    ++churned;
    // A changed pair must involve the joiner — two survivors never swap
    // replica roles among themselves because of someone else's join.
    EXPECT_TRUE(after[0] == joiner || after[1] == joiner ||
                after[0] == before[key][0] || after[0] == before[key][1])
        << key;
  }
  // Each of the two owner slots moves ~1/N of its keys; double it for
  // slack like the single-owner bound.
  EXPECT_LE(churned, static_cast<int>(keys.size()) * 4 / kNodes);
}

TEST(HashRingOwnersTest, LeaverPromotesItsSecondaries) {
  // Removing a member must not disturb pairs it was absent from, and keys
  // it led should be answered by their old secondary (the warm replica) —
  // the property router failover banks on.
  HashRing ring;
  for (int n = 0; n < 4; ++n) ring.add("backend" + std::to_string(n));
  const std::vector<std::string> keys = test_keys(1000);
  std::map<std::string, std::vector<std::string>> before;
  for (const std::string& key : keys) before[key] = ring.owners(key, 2);

  ring.remove("backend2");
  int promoted = 0;
  for (const std::string& key : keys) {
    const std::vector<std::string> after = ring.owners(key, 2);
    ASSERT_EQ(after.size(), 2u);
    if (before[key][0] == "backend2") {
      // Old secondary takes over as primary.
      EXPECT_EQ(after[0], before[key][1]) << key;
      ++promoted;
    } else {
      // Surviving primaries keep their keys.
      EXPECT_EQ(after[0], before[key][0]) << key;
      if (before[key][1] != "backend2")
        EXPECT_EQ(after[1], before[key][1]) << key;
    }
  }
  EXPECT_GT(promoted, 0);
}

TEST(HashRingOwnersTest, SuiteBenchOwnersArePinned) {
  // `route` gives each backend its own snapshot shard
  // (cache.rbpc.backendN), so a key that moves to another owner turns a
  // warm restart cold without any error. Pin the owners of every suite
  // bench on a three-backend ring: a change to the hash, the point count
  // or the walk must show up here.
  HashRing ring;
  for (const char* node : {"backend0", "backend1", "backend2"})
    ring.add(node);
  const std::map<std::string, std::vector<std::string>> pinned = {
      {"b03", {"backend1", "backend0"}}, {"b04", {"backend0", "backend2"}},
      {"b05", {"backend2", "backend1"}}, {"b07", {"backend1", "backend2"}},
      {"b08", {"backend2", "backend0"}}, {"b11", {"backend1", "backend0"}},
      {"b12", {"backend2", "backend0"}}, {"b13", {"backend1", "backend0"}},
      {"b14", {"backend1", "backend2"}}, {"b15", {"backend0", "backend1"}},
      {"b17", {"backend1", "backend2"}}, {"b18", {"backend0", "backend2"}},
  };
  ASSERT_EQ(gen::benchmark_names().size(), pinned.size());
  for (const std::string& bench : gen::benchmark_names()) {
    ASSERT_EQ(pinned.count(bench), 1u) << bench;
    EXPECT_EQ(ring.owners(bench, 2), pinned.at(bench)) << bench;
  }
}

TEST(HashRingTest, NodesAreSorted) {
  HashRing ring;
  ring.add("zeta");
  ring.add("alpha");
  ring.add("mid");
  const std::vector<std::string> nodes = ring.nodes();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0], "alpha");
  EXPECT_EQ(nodes[1], "mid");
  EXPECT_EQ(nodes[2], "zeta");
  EXPECT_TRUE(ring.contains("mid"));
  EXPECT_FALSE(ring.contains("omega"));
}

}  // namespace
}  // namespace rebert::router
