#ifndef STHSL_UTIL_PROVENANCE_H_
#define STHSL_UTIL_PROVENANCE_H_

#include <string>

namespace sthsl {

/// Commit hash of the source tree this binary was built from, for the
/// provenance records of bench JSON and serving bundles. Stamped at
/// configure time when the source tree is a git checkout, so it does not
/// depend on the working directory; otherwise looked up at run time with
/// `git rev-parse HEAD` in the working directory. "unknown" when neither
/// yields a hash.
std::string SourceGitHash();

}  // namespace sthsl

#endif  // STHSL_UTIL_PROVENANCE_H_
