// Tensor metadata and residency state machine.
//
// Tensors here are *descriptors* (size, class, lineage) — the timing engine never
// materializes payloads. A tensor's name is rendered from its descriptor only when
// something prints it (reports, lint findings, check failures). The paper's Fig. 5(a)
// tensor classes are modelled explicitly so swap volume can be accounted per class (that is
// how bench_fig5 verifies the analytic model for weights while other tensors keep flowing).
//
// Residency: at any time a tensor has at most one device copy (moves, not replicas — DP
// weight replicas are distinct tensors) plus an optional valid host copy. The state machine:
//
//        kNone  --swap-in-->  kSwappingIn  -->  kResident
//        kResident --evict--> kSwappingOut -->  kNone (host_valid=true)
//        kResident --drop (clean, host_valid)--> kNone
//        kResident --p2p----> kSwappingIn on the destination device
//
#ifndef HARMONY_SRC_MEM_TENSOR_H_
#define HARMONY_SRC_MEM_TENSOR_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/units.h"

namespace harmony {

using TensorId = int;
inline constexpr TensorId kInvalidTensor = -1;

// Fig. 5(a) tensor classes. "Stashed" activations are kActivation tensors whose lifetime
// spans forward to backward.
enum class TensorClass : int {
  kInput = 0,           // training-data microbatch
  kWeight = 1,          // W
  kWeightGrad = 2,      // dW (accumulated across microbatches)
  kActivation = 3,      // X / Y, including stashes
  kActivationGrad = 4,  // dX / dY
  kOptimizerState = 5,  // K (momentum / Adam moments)
  kWorkspace = 6,       // framework scratch
};
inline constexpr int kNumTensorClasses = 7;

const char* TensorClassName(TensorClass cls);

enum class Residency : int {
  kNone = 0,        // no device copy (host copy iff host_valid)
  kSwappingIn = 1,  // transfer toward a device in flight
  kResident = 2,    // device copy valid
  kSwappingOut = 3, // eviction write-back in flight
  kDead = 4,        // freed; any use is a bug
};

// How a tensor's name is spelled. PlanBuilder's six forms render from the meta's fields
// and the registry's layer names; a literal name is kept verbatim in a side table.
enum class TensorNameForm : std::uint8_t {
  kLiteral,         // as given to TensorRegistry::Create
  kWeight,          // W[<layer name>]r<replica>
  kOptState,        // K[<layer name>]r<replica>
  kWeightGrad,      // dW[<layer name>]r<replica>i<iteration>
  kActivation,      // X<layer + 1>mb<microbatch>r<replica>i<iteration>; X0 is the input
  kActivationGrad,  // dX<layer + 1>mb<microbatch>r<replica>i<iteration>
  kStash,           // S<layer>mb<microbatch>r<replica>i<iteration>
};

struct TensorMeta {
  Bytes bytes = 0;
  TensorClass cls = TensorClass::kWorkspace;
  int layer = -1;       // producing layer, if any
  int microbatch = -1;  // owning microbatch, -1 for per-model state
  int replica_gpu = -1; // DP replica owner, -1 for unreplicated tensors
  int iteration = -1;   // owning iteration, -1 for state that outlives one
  TensorNameForm form = TensorNameForm::kLiteral;
};

static_assert(std::is_trivially_copyable_v<TensorMeta>,
              "a tensor's metadata holds no heap memory");

struct TensorState {
  Residency residency = Residency::kNone;
  int device = -1;           // device holding/receiving the copy, -1 iff kNone/kDead
  bool host_valid = false;   // a valid copy exists in host DRAM
  bool dirty = false;        // device copy diverges from host copy
  int pin_count = 0;         // pinned tensors cannot be evicted
  std::uint64_t lru_tick = 0;
  Bytes alloc_offset = -1;   // device allocator handle, -1 when unallocated
};

// Global id -> metadata/state store, shared by every MemoryManager in a machine.
class TensorRegistry {
 public:
  TensorRegistry() = default;
  TensorRegistry(const TensorRegistry&) = delete;
  TensorRegistry& operator=(const TensorRegistry&) = delete;
  // Movable, so a prepared session can carry its registry into the run.
  TensorRegistry(TensorRegistry&&) = default;
  TensorRegistry& operator=(TensorRegistry&&) = default;

  // Creates a tensor named by `meta.form` (not kLiteral); `host_valid` marks pre-existing
  // host state (weights loaded from a checkpoint, input batches staged by the data loader).
  TensorId Create(const TensorMeta& meta, bool host_valid);
  // Creates a tensor with a literal name (tests, microbenchmarks).
  TensorId Create(std::string name, Bytes bytes, TensorClass cls, bool host_valid,
                  int layer = -1, int microbatch = -1, int replica_gpu = -1);

  // The names W, K and dW tensors render their layer with, indexed by TensorMeta::layer.
  // A registry holds one model's tensors: a second call must pass the same names.
  void SetLayerNames(std::vector<std::string> names);

  // Makes room for `more` tensors beyond those created so far.
  void Reserve(std::size_t more) {
    metas_.reserve(metas_.size() + more);
    states_.reserve(states_.size() + more);
  }

  int size() const { return static_cast<int>(metas_.size()); }
  const TensorMeta& meta(TensorId id) const { return metas_.at(static_cast<std::size_t>(id)); }
  // The tensor's name, e.g. "W[embedding]r0" or "X3mb1r0i2"; rendered on every call.
  std::string name(TensorId id) const;
  const TensorState& state(TensorId id) const {
    return states_.at(static_cast<std::size_t>(id));
  }
  TensorState& mutable_state(TensorId id) { return states_.at(static_cast<std::size_t>(id)); }

  std::uint64_t NextLruTick() { return ++lru_clock_; }

  // Total bytes across all tensors of `cls` (capacity planning / reports).
  Bytes TotalBytes(TensorClass cls) const;

 private:
  TensorId Add(const TensorMeta& meta, bool host_valid);

  std::vector<TensorMeta> metas_;
  std::vector<TensorState> states_;
  std::vector<std::string> layer_names_;
  std::vector<std::pair<TensorId, std::string>> literal_names_;  // ascending ids
  std::uint64_t lru_clock_ = 0;
};

}  // namespace harmony

#endif  // HARMONY_SRC_MEM_TENSOR_H_
