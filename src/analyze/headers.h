#ifndef STHSL_ANALYZE_HEADERS_H_
#define STHSL_ANALYZE_HEADERS_H_

#include <string>
#include <vector>

#include "analyze/finding.h"
#include "analyze/source.h"

namespace sthsl::analyze {

/// Header-hygiene pass (carried over from sthsl_lint): path-derived include
/// guards, no bare assert(), no const_cast, reinterpret_cast confined to
/// baseline-carried byte-I/O boundaries.
std::vector<Finding> RunHeaderPass(const std::vector<SourceFile>& files);

/// The guard expected for a src-relative header path:
/// "tensor/ops.h" -> "STHSL_TENSOR_OPS_H_".
std::string ExpectedGuard(const std::string& path_in_src);

/// Self-containment check: compiles each header standalone with
/// `<compiler> -std=c++20 -fsyntax-only -I <root>/src`, up to one compiler
/// process per online CPU at a time, and reports failures in file order.
/// Separate from RunHeaderPass because it shells out to the compiler;
/// callers may skip it for speed or for deliberately-broken fixture trees.
std::vector<Finding> RunSelfContainedCheck(const std::string& root,
                                           const std::vector<SourceFile>& files,
                                           const std::string& compiler);

}  // namespace sthsl::analyze

#endif  // STHSL_ANALYZE_HEADERS_H_
