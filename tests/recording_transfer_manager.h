// A TransferManager that records, for tests, each transfer's outcome and landing time.
//
// TransferManager keeps nothing for a transfer once its continuation has run, so tests that
// inspect transfers after the simulator drains start them through this subclass instead.
// Its four-argument StartTransfer gives every transfer a continuation that records the
// outcome and fires an event owned here: the event's fire_time() is the landing time and
// WasAborted() reports the outcome, both valid for this object's lifetime. Waiters on the
// event run at the landing time, in the order the transfers' continuations ran. The
// manager's own five-argument StartTransfer stays available for contract tests.
#ifndef HARMONY_TESTS_RECORDING_TRANSFER_MANAGER_H_
#define HARMONY_TESTS_RECORDING_TRANSFER_MANAGER_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "src/hw/transfer_manager.h"
#include "src/sim/simulator.h"

namespace harmony {

class RecordingTransferManager : public TransferManager {
 public:
  RecordingTransferManager(Simulator* sim, const Topology* topology)
      : TransferManager(sim, topology), sim_(sim) {}

  using TransferManager::StartTransfer;

  // Starts a transfer; the returned event fires when the transfer lands or aborts.
  OneShotEvent* StartTransfer(NodeId src, NodeId dst, Bytes bytes, TransferKind kind) {
    landings_.push_back(std::make_unique<OneShotEvent>(sim_));
    OneShotEvent* landed = landings_.back().get();
    StartTransfer(src, dst, bytes, kind, [this, landed](TransferOutcome outcome) {
      if (outcome == TransferOutcome::kAborted) {
        aborted_.insert(landed);
      }
      landed->Fire();
    });
    return landed;
  }

  // True when the transfer behind `landed` (a four-argument StartTransfer event) ended
  // aborted rather than completing.
  bool WasAborted(const OneShotEvent* landed) const { return aborted_.count(landed) > 0; }

 private:
  Simulator* sim_;
  std::vector<std::unique_ptr<OneShotEvent>> landings_;
  std::unordered_set<const OneShotEvent*> aborted_;
};

}  // namespace harmony

#endif  // HARMONY_TESTS_RECORDING_TRANSFER_MANAGER_H_
