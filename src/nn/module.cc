#include "nn/module.h"

#include "util/check.h"

namespace sthsl {

Tensor Module::RegisterParameter(const std::string& name, Tensor param) {
  STHSL_CHECK(param.Defined()) << "registering undefined parameter " << name;
  STHSL_CHECK(param.RequiresGrad())
      << "parameter " << name << " must require grad";
  params_.emplace_back(name, param);
  return param;
}

void Module::RegisterModule(const std::string& name, Module* child) {
  STHSL_CHECK(child != nullptr) << "registering null module " << name;
  children_.emplace_back(name, child);
}

std::vector<Tensor> Module::Parameters() const {
  std::vector<Tensor> out;
  for (const auto& [name, p] : params_) out.push_back(p);
  for (const auto& [name, child] : children_) {
    auto child_params = child->Parameters();
    out.insert(out.end(), child_params.begin(), child_params.end());
  }
  return out;
}

std::vector<Tensor> Module::MutableParameters() { return Parameters(); }

std::vector<std::pair<std::string, Tensor>> Module::NamedParameters() const {
  std::vector<std::pair<std::string, Tensor>> out;
  for (const auto& [name, p] : params_) out.emplace_back(name, p);
  for (const auto& [child_name, child] : children_) {
    for (auto& [name, p] : child->NamedParameters()) {
      out.emplace_back(child_name + "." + name, p);
    }
  }
  return out;
}

int64_t Module::NumParameters() const {
  int64_t total = 0;
  for (const auto& p : Parameters()) total += p.Numel();
  return total;
}

}  // namespace sthsl
