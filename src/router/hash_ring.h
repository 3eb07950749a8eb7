// Consistent-hash ring — the placement function of the router tier.
//
// Each backend is inserted as kVnodes virtual points on a 64-bit ring
// (FNV-1a of "name#k" folded through an avalanche finalizer); a key (a
// bench name) maps to the first virtual point clockwise from its own hash.
// Properties the router and its tests rely on:
//
//   * Deterministic: placement is a pure function of the member set — no
//     randomness, no dependence on insertion order or wall clock — so two
//     router processes with the same backends route identically, and a
//     restart changes nothing.
//   * Minimal movement: removing a backend remaps only the keys that were
//     on it; adding one to an N-member ring moves roughly 1/(N+1) of the
//     keys (bounded well under 2/N), never shuffling keys between two
//     surviving backends.
//
// Replicated placement: owners(key, r) extends the single-owner lookup to
// the first R DISTINCT backends clockwise from the key's point. The walk
// order is a pure function of the member set, so owners(key, r)[0] ==
// node_for(key) always, and the (primary, secondary) pair of a key only
// changes when one of the two leaves or a joiner lands between them —
// the same minimal-movement property, per replica slot.
//
// Not thread-safe by design: the Router serializes mutation and lookup
// behind its own mutex, and tests drive it single-threaded.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rebert::router {

class HashRing {
 public:
  /// Virtual points per member. More points smooth the key distribution
  /// at the cost of a bigger ring map; 64 keeps the largest backend's
  /// share within ~2x of the smallest on realistic member counts. Every
  /// placement (and each backend's snapshot shard) depends on it.
  static constexpr int kVnodes = 64;

  /// Insert a backend with kVnodes virtual points. Adding a member twice
  /// is a no-op.
  void add(const std::string& node);

  /// Remove a backend (no-op when absent). Keys it owned redistribute to
  /// the survivors; nobody else's keys move.
  void remove(const std::string& node);

  bool contains(const std::string& node) const;

  /// The backend owning `key`, or "" when the ring is empty.
  std::string node_for(const std::string& key) const;

  /// The first `r` DISTINCT backends clockwise from `key`'s point —
  /// replica placement in failover order. owners(key, r)[0] ==
  /// node_for(key); fewer than `r` members degrades gracefully to all of
  /// them (an empty ring returns an empty vector). r <= 0 returns empty.
  std::vector<std::string> owners(const std::string& key, int r) const;

  /// Current members, sorted by name.
  std::vector<std::string> nodes() const;

  std::size_t num_nodes() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

  /// FNV-1a 64-bit + murmur3 finalizer — the ring's one hash, exposed for
  /// tests.
  static std::uint64_t hash(const std::string& text);

 private:
  std::map<std::uint64_t, std::string> ring_;  // point -> backend name
  std::set<std::string> members_;
};

}  // namespace rebert::router
