#include "src/runtime/collective.h"

#include <algorithm>

#include "src/util/check.h"

namespace harmony {

CollectiveEngine::CollectiveEngine(Simulator* sim, TransferManager* transfers)
    : sim_(sim), transfers_(transfers) {}

void CollectiveEngine::Arrive(int group, int device_index, Bytes bytes, int expected,
                              std::function<void()> on_done) {
  HCHECK_GT(expected, 0);
  Group& state = groups_[group];
  if (state.devices.empty()) {
    state.expected = expected;
    state.bytes = bytes;
  } else {
    HCHECK_EQ(state.expected, expected) << "collective group " << group << " size mismatch";
    HCHECK_EQ(state.bytes, bytes) << "collective group " << group << " byte mismatch";
  }
  state.devices.push_back(device_index);
  state.callbacks.push_back(std::move(on_done));
  HCHECK_LE(static_cast<int>(state.devices.size()), expected);

  if (static_cast<int>(state.devices.size()) < expected) {
    return;
  }

  Group ready = std::move(state);
  groups_.erase(group);
  std::sort(ready.devices.begin(), ready.devices.end());
  if (ready.expected == 1 || ready.bytes == 0) {
    // Nothing to reduce across devices; complete asynchronously for uniform semantics.
    sim_->ScheduleAfter(0.0, [callbacks = std::move(ready.callbacks)] {
      for (const auto& cb : callbacks) {
        cb();
      }
    });
    return;
  }
  if (TryRunHierarchical(ready)) {
    return;
  }
  RunRound(std::move(ready), 0);
}

bool CollectiveEngine::TryRunHierarchical(Group& group_state) {
  const Topology& topo = transfers_->topology();
  if (topo.num_servers() <= 1) {
    return false;
  }
  // Partition the (sorted) members by server. Node-major device indexing keeps each
  // server's member list sorted, so the whole script is a deterministic function of the
  // group — a requirement for byte-identical runs.
  std::map<int, std::vector<int>> by_node;
  for (int device : group_state.devices) {
    by_node[topo.ServerOfGpu(device)].push_back(device);
  }
  const std::size_t m = by_node.size();
  if (m <= 1) {
    return false;  // single-server replica set: flat ring, legacy path
  }
  const std::size_t k = by_node.begin()->second.size();
  for (const auto& [node, members] : by_node) {
    if (members.size() != k) {
      return false;  // uneven membership: flat ring handles it correctly, if slower
    }
  }
  std::vector<std::vector<int>> nodes;
  nodes.reserve(m);
  for (auto& [node, members] : by_node) {
    nodes.push_back(std::move(members));
  }

  ++hierarchical_groups_run_;
  auto script = std::make_shared<Script>();
  script->callbacks = std::move(group_state.callbacks);
  const Bytes chunk = (group_state.bytes + static_cast<Bytes>(k) - 1) / static_cast<Bytes>(k);

  // Phase 1 — intra-node ring reduce-scatter: after k-1 rounds member j of every node owns
  // its node's partial sum of shard j (size `chunk`).
  const auto intra_ring_rounds = [&] {
    for (std::size_t r = 0; r + 1 < k; ++r) {
      std::vector<Hop> round;
      round.reserve(m * k);
      for (const std::vector<int>& members : nodes) {
        for (std::size_t i = 0; i < k; ++i) {
          round.push_back(Hop{members[i], members[(i + 1) % k], chunk});
        }
      }
      script->rounds.push_back(std::move(round));
    }
  };
  intra_ring_rounds();

  // Phase 2 — inter-node tree: recursive-halving reduce-scatter then recursive-doubling
  // all-gather over the m node representatives of each shard j, all shards in parallel.
  // With m not a power of two, the `rem` extra nodes fold into the first p (pre-round)
  // and unfold at the end (post-round), the classic pof2 reduction.
  std::size_t p = 1;
  while (p * 2 <= m) {
    p *= 2;
  }
  const std::size_t rem = m - p;
  std::size_t levels = 0;
  while ((std::size_t{1} << (levels + 1)) <= p) {
    ++levels;
  }
  const auto rep = [&nodes](std::size_t node, std::size_t j) {
    return nodes[node][j];
  };
  if (rem > 0) {
    std::vector<Hop> round;
    round.reserve(rem * k);
    for (std::size_t e = 0; e < rem; ++e) {
      for (std::size_t j = 0; j < k; ++j) {
        round.push_back(Hop{rep(p + e, j), rep(e, j), chunk});
      }
    }
    script->rounds.push_back(std::move(round));
  }
  // Halving: round t pairs nodes at distance p >> (t+1), exchanging chunk / 2^(t+1) each
  // direction. Doubling mirrors it with the per-round block size growing back to `chunk`.
  for (std::size_t t = 0; t < levels; ++t) {
    const std::size_t distance = p >> (t + 1);
    const Bytes denom = Bytes{1} << (t + 1);
    const Bytes block = (chunk + denom - 1) / denom;
    std::vector<Hop> round;
    round.reserve(p * k);
    for (std::size_t a = 0; a < p; ++a) {
      const std::size_t partner = a ^ distance;
      for (std::size_t j = 0; j < k; ++j) {
        round.push_back(Hop{rep(a, j), rep(partner, j), block});
      }
    }
    script->rounds.push_back(std::move(round));
  }
  for (std::size_t t = 0; t < levels; ++t) {
    const std::size_t distance = std::size_t{1} << t;
    const Bytes denom = Bytes{1} << (levels - t);
    const Bytes block = (chunk + denom - 1) / denom;
    std::vector<Hop> round;
    round.reserve(p * k);
    for (std::size_t a = 0; a < p; ++a) {
      const std::size_t partner = a ^ distance;
      for (std::size_t j = 0; j < k; ++j) {
        round.push_back(Hop{rep(a, j), rep(partner, j), block});
      }
    }
    script->rounds.push_back(std::move(round));
  }
  if (rem > 0) {
    std::vector<Hop> round;
    round.reserve(rem * k);
    for (std::size_t e = 0; e < rem; ++e) {
      for (std::size_t j = 0; j < k; ++j) {
        round.push_back(Hop{rep(e, j), rep(p + e, j), chunk});
      }
    }
    script->rounds.push_back(std::move(round));
  }

  // Phase 3 — intra-node ring all-gather: k-1 more intra rounds spread every node's fully
  // reduced shards back to all of its members.
  intra_ring_rounds();

  RunScriptedRound(std::move(script), 0);
  return true;
}

void CollectiveEngine::RunScriptedRound(std::shared_ptr<Script> script, std::size_t round) {
  if (round == script->rounds.size()) {
    for (const auto& cb : script->callbacks) {
      cb();
    }
    return;
  }
  const Topology& topo = transfers_->topology();
  const std::vector<Hop>& hops = script->rounds[round];
  auto barrier = std::make_shared<CountdownEvent>(sim_, static_cast<int>(hops.size()));
  for (const Hop& hop : hops) {
    total_bytes_moved_ += hop.bytes;
    if (topo.ServerOfGpu(hop.src_device) == topo.ServerOfGpu(hop.dst_device)) {
      intra_node_bytes_moved_ += hop.bytes;
    } else {
      inter_node_bytes_moved_ += hop.bytes;
    }
    auto arrived = [barrier](TransferOutcome) { barrier->Arrive(); };
    static_assert(TransferManager::Continuation::kStoredInline<decltype(arrived)>);
    transfers_->StartTransfer(topo.gpu_node(hop.src_device), topo.gpu_node(hop.dst_device),
                              hop.bytes, TransferKind::kCollective, std::move(arrived));
  }
  barrier->OnFired([this, script = std::move(script), round]() mutable {
    RunScriptedRound(std::move(script), round + 1);
  });
}

void CollectiveEngine::RunRound(Group group_state, int round) {
  const int n = group_state.expected;
  const int total_rounds = 2 * (n - 1);  // reduce-scatter + all-gather
  if (round == total_rounds) {
    for (const auto& cb : group_state.callbacks) {
      cb();
    }
    return;
  }
  const Bytes chunk = (group_state.bytes + n - 1) / n;
  const Topology& topo = transfers_->topology();
  auto barrier = std::make_shared<CountdownEvent>(sim_, n);
  for (int i = 0; i < n; ++i) {
    const NodeId src = topo.gpu_node(group_state.devices[static_cast<std::size_t>(i)]);
    const NodeId dst =
        topo.gpu_node(group_state.devices[static_cast<std::size_t>((i + 1) % n)]);
    total_bytes_moved_ += chunk;
    auto arrived = [barrier](TransferOutcome) { barrier->Arrive(); };
    static_assert(TransferManager::Continuation::kStoredInline<decltype(arrived)>);
    transfers_->StartTransfer(src, dst, chunk, TransferKind::kCollective, std::move(arrived));
  }
  barrier->OnFired([this, group_state = std::move(group_state), round]() mutable {
    RunRound(std::move(group_state), round + 1);
  });
}

}  // namespace harmony
