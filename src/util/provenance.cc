#include "util/provenance.h"

#include <cstdio>

// Set by src/CMakeLists.txt from the configure-time `git rev-parse HEAD`;
// empty when the source tree was not a git checkout.
#ifndef STHSL_GIT_HASH
#define STHSL_GIT_HASH ""
#endif

namespace sthsl {
namespace {

std::string RuntimeGitHash() {
  std::string hash;
  if (std::FILE* pipe = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) hash = buf;
    pclose(pipe);
  }
  while (!hash.empty() && (hash.back() == '\n' || hash.back() == '\r')) {
    hash.pop_back();
  }
  return hash;
}

}  // namespace

std::string SourceGitHash() {
  std::string hash = STHSL_GIT_HASH;
  if (hash.empty()) hash = RuntimeGitHash();
  return hash.empty() ? "unknown" : hash;
}

}  // namespace sthsl
