// psmr-reclaim-discipline: flags `new`/`delete` of COS node types outside
// the COS implementations and the memory library.
//
// Concurrent readers traverse COS nodes without locks; a node freed outside
// the EBR retire path is a use-after-free waiting for the right
// interleaving. Node lifetime must flow through the owning COS .cc file
// (which hands frees to EbrDomain) — nothing else allocates or frees them.
#ifndef PSMR_TOOLS_LINT_RECLAIM_DISCIPLINE_CHECK_H
#define PSMR_TOOLS_LINT_RECLAIM_DISCIPLINE_CHECK_H

#include <string>
#include <vector>

#include "clang-tidy/ClangTidyCheck.h"

namespace clang {
namespace tidy {
namespace psmr {

class ReclaimDisciplineCheck : public ClangTidyCheck {
 public:
  ReclaimDisciplineCheck(StringRef Name, ClangTidyContext *Context);
  void registerMatchers(ast_matchers::MatchFinder *Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult &Result) override;
  void storeOptions(ClangTidyOptions::OptionMap &Opts) override;

 private:
  // CheckOptions: psmr-reclaim-discipline.NodeClasses — qualified names of
  // reclamation-managed types; .AllowedFiles — the owning implementations.
  std::vector<std::string> NodeClasses;
  std::vector<std::string> AllowedFiles;
};

}  // namespace psmr
}  // namespace tidy
}  // namespace clang

#endif  // PSMR_TOOLS_LINT_RECLAIM_DISCIPLINE_CHECK_H
