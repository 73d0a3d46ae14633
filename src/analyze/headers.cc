#include "analyze/headers.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <memory>

#include "analyze/lexer.h"

namespace sthsl::analyze {
namespace {

void CheckIncludeGuard(const SourceFile& file, const std::vector<Token>& tokens,
                       std::vector<Finding>& out) {
  const std::string expected = ExpectedGuard(file.PathInSrc());
  // The first directive in the file must be the #ifndef of the guard, and
  // the very next token after its symbol must be the matching #define.
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kDirective) continue;
    if (t.text != "ifndef") break;  // some other directive came first
    if (i + 1 >= tokens.size() ||
        tokens[i + 1].kind != TokenKind::kIdentifier) {
      break;
    }
    const std::string guard = tokens[i + 1].text;
    if (guard != expected) {
      out.push_back({file.path, t.line, "include-guard", Severity::kError,
                     "guard " + guard + " does not match the path; expected " +
                         expected});
      return;
    }
    if (i + 3 >= tokens.size() || tokens[i + 2].kind != TokenKind::kDirective ||
        tokens[i + 2].text != "define" || !tokens[i + 3].IsIdent(guard)) {
      out.push_back({file.path, t.line, "include-guard", Severity::kError,
                     "#ifndef " + guard +
                         " is not followed by a matching #define"});
    }
    return;
  }
  out.push_back({file.path, 1, "include-guard", Severity::kError,
                 "header has no include guard (expected " + expected + ")"});
}

void CheckTokenRules(const SourceFile& file, const std::vector<Token>& tokens,
                     std::vector<Finding>& out) {
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    const bool call_like =
        i + 1 < tokens.size() && tokens[i + 1].IsPunct("(");
    if (t.text == "assert" && call_like) {
      out.push_back({file.path, t.line, "bare-assert", Severity::kError,
                     "bare assert() — use STHSL_CHECK so failures carry "
                     "file/line context and fire in release builds"});
    } else if (t.text == "const_cast") {
      out.push_back({file.path, t.line, "const-cast", Severity::kError,
                     "const_cast is forbidden in src/ — expose a mutable "
                     "accessor instead"});
    } else if (t.text == "reinterpret_cast") {
      out.push_back({file.path, t.line, "reinterpret-cast", Severity::kError,
                     "reinterpret_cast outside a baselined byte-I/O "
                     "boundary; if this is one, add a baseline entry with "
                     "a justification comment"});
    }
  }
}

}  // namespace

std::string ExpectedGuard(const std::string& path_in_src) {
  std::string guard = "STHSL_";
  for (char c : path_in_src) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      guard += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  guard += '_';  // trailing underscore; ".h" already became "_H"
  return guard;
}

std::vector<Finding> RunHeaderPass(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    const std::vector<Token> tokens = Lex(file.text);
    CheckTokenRules(file, tokens, findings);
    if (file.IsHeader() && !file.PathInSrc().empty()) {
      CheckIncludeGuard(file, tokens, findings);
    }
  }
  return findings;
}

std::vector<Finding> RunSelfContainedCheck(
    const std::string& root, const std::vector<SourceFile>& files,
    const std::string& compiler) {
  std::vector<const SourceFile*> headers;
  for (const SourceFile& file : files) {
    if (file.IsHeader()) headers.push_back(&file);
  }
  // One compiler process per header, at most one per online CPU at a time:
  // each batch is started with popen and then reaped in file order, so the
  // findings keep that order whatever finishes first.
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  const size_t batch = cpus > 0 ? static_cast<size_t>(cpus) : 1;
  std::vector<Finding> findings;
  for (size_t begin = 0; begin < headers.size(); begin += batch) {
    const size_t end = std::min(begin + batch, headers.size());
    std::vector<std::unique_ptr<FILE, decltype(&pclose)>> procs;
    for (size_t i = begin; i < end; ++i) {
      const std::string cmd = "\"" + compiler +
                              "\" -std=c++20 -fsyntax-only -x c++ -I \"" +
                              root + "/src\" \"" + root + "/" +
                              headers[i]->path + "\" >/dev/null 2>&1";
      procs.emplace_back(popen(cmd.c_str(), "r"), &pclose);
    }
    for (size_t i = begin; i < end; ++i) {
      FILE* proc = procs[i - begin].release();
      if (proc == nullptr || pclose(proc) != 0) {
        findings.push_back({headers[i]->path, 0, "self-contained",
                            Severity::kError,
                            "header does not compile standalone (" + compiler +
                                " -std=c++20 -fsyntax-only failed)"});
      }
    }
  }
  return findings;
}

}  // namespace sthsl::analyze
