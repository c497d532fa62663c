// Amortized-O(1) next-use oracle backing store, shared by every device of a plan.
//
// The lookahead eviction policy asks "when does `tensor` next run on `device`?" once per
// candidate considered, so the old map-find + lower_bound lookup (O(log n) with a cold cache
// walk) sat on the hottest path in the system. Both sides of the query are monotone — use
// positions are appended in schedule order at build time, and each device's `next_index`
// only advances — so a cursor that walks each use list forward answers every query in
// O(1) amortized: each list position is consumed at most once over the run's lifetime.
//
// The table is indexed by tensor and holds one use list + cursor per (tensor, device) pair
// that actually touches the tensor — one device in DP, two at a PP stage boundary — so its
// size is O(tensors + uses) however many devices the plan spans. A query scans the
// tensor's few entries for its device; there is no per-query hash lookup.
//
// Contract (checked): AddUse positions are nondecreasing per (tensor, device), and query
// positions are nondecreasing across calls per device. Rewinding a cursor would require
// rebuilding the index.
#ifndef HARMONY_SRC_RUNTIME_NEXT_USE_H_
#define HARMONY_SRC_RUNTIME_NEXT_USE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/mem/tensor.h"
#include "src/util/logging.h"

namespace harmony {

class NextUseIndex {
 public:
  static constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

  explicit NextUseIndex(int num_devices)
      : last_query_pos_(static_cast<std::size_t>(num_devices), 0) {}

  // Records that the task at queue position `pos` of `device` touches `id`. Build-time
  // only; positions must arrive in nondecreasing order per (tensor, device) — schedule
  // order guarantees this.
  void AddUse(TensorId id, int device, std::uint64_t pos) {
    CheckDevice(device);
    const std::size_t idx = static_cast<std::size_t>(id);
    if (idx >= by_tensor_.size()) {
      by_tensor_.resize(idx + 1);
    }
    Entry* entry = Find(id, device);
    if (entry == nullptr) {
      entry = &by_tensor_[idx];
      if (entry->device >= 0) {
        // Another device touches this tensor too: chain a fresh entry after the last one.
        while (entry->more >= 0) {
          entry = &more_[static_cast<std::size_t>(entry->more)];
        }
        entry->more = static_cast<int>(more_.size());
        entry = &more_.emplace_back();
      }
      entry->device = device;
    }
    HCHECK(entry->uses.empty() || entry->uses.back() <= pos)
        << "next-use positions must be appended in order (tensor " << id << ", device "
        << device << ")";
    entry->uses.push_back(pos);
  }

  // First use of `id` on `device` at or after `pos`, or kNever. `pos` must be nondecreasing
  // across calls for one device (the device's next_index never rewinds).
  std::uint64_t NextUseAtOrAfter(TensorId id, int device, std::uint64_t pos) {
    CheckDevice(device);
    std::uint64_t& last = last_query_pos_[static_cast<std::size_t>(device)];
    HCHECK_GE(pos, last) << "next-use cursor cannot rewind (device " << device << ")";
    last = pos;
    Entry* entry = Find(id, device);
    if (entry == nullptr) {
      return kNever;
    }
    const std::vector<std::uint64_t>& list = entry->uses;
    std::size_t& c = entry->cursor;
    while (c < list.size() && list[c] < pos) {
      ++c;
    }
    return c < list.size() ? list[c] : kNever;
  }

 private:
  // One (tensor, device) pair's uses. The first device to touch a tensor keeps its entry
  // inline in by_tensor_; each further device's entry chains from it through `more`.
  struct Entry {
    int device = -1;                  // -1 = no device touches the tensor
    int more = -1;                    // index of the next device's entry in more_, or -1
    std::size_t cursor = 0;           // first not-yet-consumed position in `uses`
    std::vector<std::uint64_t> uses;  // ascending queue positions on `device`
  };

  void CheckDevice(int device) const {
    // One unsigned compare also rejects negative devices.
    HCHECK(static_cast<std::size_t>(device) < last_query_pos_.size())
        << "next-use device " << device << " out of range";
  }

  Entry* Find(TensorId id, int device) {
    const std::size_t idx = static_cast<std::size_t>(id);
    if (idx >= by_tensor_.size()) {
      return nullptr;
    }
    Entry* entry = &by_tensor_[idx];
    while (entry->device != device) {
      if (entry->more < 0) {
        return nullptr;
      }
      entry = &more_[static_cast<std::size_t>(entry->more)];
    }
    return entry;
  }

  std::vector<Entry> by_tensor_;               // indexed by TensorId
  std::vector<Entry> more_;                    // second and later devices' entries
  std::vector<std::uint64_t> last_query_pos_;  // per device
};

}  // namespace harmony

#endif  // HARMONY_SRC_RUNTIME_NEXT_USE_H_
