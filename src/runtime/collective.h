// Ring / hierarchical all-reduce on simulated links.
//
// Gradient reduction for data-parallel training. Participants rendezvous per group; once the
// last member arrives, the engine runs the standard ring algorithm: 2*(n-1) rounds in which
// every device simultaneously sends a 1/n chunk to its ring successor. Chunk transfers are
// real flows through the TransferManager, so all-reduce traffic contends with swap traffic
// on shared PCIe links exactly as NCCL does on the paper's testbed.
//
// When the replica set spans servers (DESIGN.md §12) and every server contributes the same
// member count, the engine switches to the hierarchical algorithm automatically:
//   1. intra-node ring reduce-scatter (k-1 rounds over the p2p/PCIe tier),
//   2. inter-node recursive-halving reduce-scatter + recursive-doubling all-gather across
//      node representatives (one tree per shard owner, crossing the NIC/rack tiers), and
//   3. intra-node ring all-gather (k-1 rounds).
// Uneven node membership falls back to the flat ring, byte-identical to the legacy path.
#ifndef HARMONY_SRC_RUNTIME_COLLECTIVE_H_
#define HARMONY_SRC_RUNTIME_COLLECTIVE_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/hw/transfer_manager.h"
#include "src/sim/simulator.h"

namespace harmony {

class CollectiveEngine {
 public:
  CollectiveEngine(Simulator* sim, TransferManager* transfers);

  // Registers that `device` reached the all-reduce for `group`, contributing `bytes` of
  // gradients, with `expected` total participants. `on_done` runs when the collective
  // completes on every member. All members must agree on `bytes` and `expected`.
  void Arrive(int group, int device_index, Bytes bytes, int expected,
              std::function<void()> on_done);

 private:
  struct Group {
    int expected = 0;
    Bytes bytes = 0;
    std::vector<int> devices;
    std::vector<std::function<void()>> callbacks;
  };
  // One scripted transfer: devices are global GPU indices.
  struct Hop {
    int src_device = -1;
    int dst_device = -1;
    Bytes bytes = 0;
  };
  // A fully pre-planned collective: rounds run in order with a global barrier between them;
  // all hops within a round fly concurrently.
  struct Script {
    std::vector<std::vector<Hop>> rounds;
    std::vector<std::function<void()>> callbacks;
  };

  void RunRound(Group group_state, int round);
  // Builds and launches the two-level script when the group spans servers with equal
  // membership; returns false (leaving `group_state` intact) when not eligible.
  bool TryRunHierarchical(Group& group_state);
  void RunScriptedRound(std::shared_ptr<Script> script, std::size_t round);

  Simulator* sim_;
  TransferManager* transfers_;
  std::map<int, Group> groups_;
};

}  // namespace harmony

#endif  // HARMONY_SRC_RUNTIME_COLLECTIVE_H_
