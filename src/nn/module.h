#ifndef STHSL_NN_MODULE_H_
#define STHSL_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace sthsl {

/// Base class for neural-network building blocks.
///
/// A Module owns trainable parameters and references child modules (which
/// are data members of the derived class, registered by pointer). It
/// provides recursive parameter collection for the optimizer.
class Module {
 public:
  Module() = default;
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters of this module and its children (depth-first).
  std::vector<Tensor> Parameters() const;

  /// Same traversal as Parameters(), but exposed on a non-const module for
  /// callers that rewrite parameter buffers in place (EMA swaps, snapshot
  /// restores, checkpoint loading). Mutating through handles obtained from
  /// the const accessor requires const_cast, which the repo lint forbids.
  std::vector<Tensor> MutableParameters();

  /// Named parameters, prefixed with the registration path (for debugging
  /// and checkpoints).
  std::vector<std::pair<std::string, Tensor>> NamedParameters() const;

  /// Total number of scalar parameters (for the efficiency study).
  int64_t NumParameters() const;

 protected:
  /// Registers a leaf parameter; returns it for storage in the subclass.
  Tensor RegisterParameter(const std::string& name, Tensor param);

  /// Registers a child module (must outlive this module; typically a data
  /// member of the subclass).
  void RegisterModule(const std::string& name, Module* child);

 private:
  std::vector<std::pair<std::string, Tensor>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
};

}  // namespace sthsl

#endif  // STHSL_NN_MODULE_H_
