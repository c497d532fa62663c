#include "src/mem/tensor.h"

#include <algorithm>
#include <charconv>

namespace harmony {

const char* TensorClassName(TensorClass cls) {
  switch (cls) {
    case TensorClass::kInput:
      return "input";
    case TensorClass::kWeight:
      return "weight";
    case TensorClass::kWeightGrad:
      return "weight-grad";
    case TensorClass::kActivation:
      return "activation";
    case TensorClass::kActivationGrad:
      return "activation-grad";
    case TensorClass::kOptimizerState:
      return "optimizer-state";
    case TensorClass::kWorkspace:
      return "workspace";
  }
  return "unknown";
}

// A generated name's spelling up to its layer name or first number, by TensorNameForm.
constexpr const char* kNamePrefix[] = {"", "W[", "K[", "dW[", "X", "dX", "S"};

TensorId TensorRegistry::Create(const TensorMeta& meta, bool host_valid) {
  HCHECK(meta.form != TensorNameForm::kLiteral) << "a literal name needs the named Create";
  return Add(meta, host_valid);
}

TensorId TensorRegistry::Create(std::string name, Bytes bytes, TensorClass cls, bool host_valid,
                                int layer, int microbatch, int replica_gpu) {
  literal_names_.emplace_back(size(), std::move(name));
  return Add(TensorMeta{bytes, cls, layer, microbatch, replica_gpu}, host_valid);
}

TensorId TensorRegistry::Add(const TensorMeta& meta, bool host_valid) {
  HCHECK_GE(meta.bytes, 0);
  const TensorId id = size();
  metas_.push_back(meta);
  TensorState state;
  state.host_valid = host_valid;
  states_.push_back(state);
  return id;
}

void TensorRegistry::SetLayerNames(std::vector<std::string> names) {
  HCHECK(layer_names_.empty() || layer_names_ == names)
      << "one registry holds the tensors of one model";
  layer_names_ = std::move(names);
}

std::string TensorRegistry::name(TensorId id) const {
  const TensorMeta& m = meta(id);
  if (m.form == TensorNameForm::kLiteral) {
    const auto it = std::lower_bound(
        literal_names_.begin(), literal_names_.end(), id,
        [](const std::pair<TensorId, std::string>& entry, TensorId key) {
          return entry.first < key;
        });
    HCHECK(it != literal_names_.end() && it->first == id) << "tensor " << id << " has no name";
    return it->second;
  }
  std::string out;
  out.reserve(32);
  auto number = [&out](int value) {
    char digits[16];
    out.append(digits, std::to_chars(digits, digits + sizeof(digits), value).ptr);
  };
  out += kNamePrefix[static_cast<std::size_t>(m.form)];
  const bool per_layer_state = m.form == TensorNameForm::kWeight ||
                               m.form == TensorNameForm::kOptState ||
                               m.form == TensorNameForm::kWeightGrad;
  if (per_layer_state) {
    out += layer_names_.at(static_cast<std::size_t>(m.layer));
    out += "]";
  } else {
    // X and dX are numbered by the layer they feed, one past the layer that produces them.
    number(m.form == TensorNameForm::kStash ? m.layer : m.layer + 1);
    out += "mb";
    number(m.microbatch);
  }
  out += "r";
  number(m.replica_gpu);
  if (m.form != TensorNameForm::kWeight && m.form != TensorNameForm::kOptState) {
    out += "i";
    number(m.iteration);
  }
  return out;
}

Bytes TensorRegistry::TotalBytes(TensorClass cls) const {
  Bytes total = 0;
  for (const auto& meta : metas_) {
    if (meta.cls == cls) {
      total += meta.bytes;
    }
  }
  return total;
}

}  // namespace harmony
