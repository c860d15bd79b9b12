#include "ReclaimDisciplineCheck.h"

#include <algorithm>

#include "PsmrLintUtils.h"
#include "clang/AST/ASTContext.h"
#include "clang/AST/DeclCXX.h"
#include "clang/AST/ExprCXX.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "clang/ASTMatchers/ASTMatchers.h"

using namespace clang::ast_matchers;

namespace clang {
namespace tidy {
namespace psmr {

namespace {

constexpr char kDefaultNodeClasses[] =
    "psmr::LockFreeCos::Node;psmr::FineGrainedCos::Node";
constexpr char kDefaultAllowed[] =
    "src/cos/lock_free.cc;src/cos/fine_grained.cc;src/memory/";

// Qualified name of the record behind `T`, or empty when `T` is not a
// (possibly sugared) record type.
std::string recordNameOf(QualType T) {
  if (T.isNull())
    return std::string();
  const CXXRecordDecl *RD = T->getAsCXXRecordDecl();
  return RD != nullptr ? RD->getQualifiedNameAsString() : std::string();
}

}  // namespace

ReclaimDisciplineCheck::ReclaimDisciplineCheck(StringRef Name,
                                               ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context),
      NodeClasses(splitList(Options.get("NodeClasses", kDefaultNodeClasses))),
      AllowedFiles(splitList(Options.get("AllowedFiles", kDefaultAllowed))) {}

void ReclaimDisciplineCheck::storeOptions(ClangTidyOptions::OptionMap &Opts) {
  Options.store(Opts, "NodeClasses", joinList(NodeClasses));
  Options.store(Opts, "AllowedFiles", joinList(AllowedFiles));
}

void ReclaimDisciplineCheck::registerMatchers(MatchFinder *Finder) {
  Finder->addMatcher(cxxNewExpr().bind("new"), this);
  Finder->addMatcher(cxxDeleteExpr().bind("delete"), this);
}

void ReclaimDisciplineCheck::check(const MatchFinder::MatchResult &Result) {
  QualType Alloc;
  const Expr *Site = nullptr;
  const char *Verb = nullptr;
  if (const auto *NE = Result.Nodes.getNodeAs<CXXNewExpr>("new")) {
    Alloc = NE->getAllocatedType();
    Site = NE;
    Verb = "allocated";
  } else if (const auto *DE = Result.Nodes.getNodeAs<CXXDeleteExpr>("delete")) {
    Alloc = DE->getDestroyedType();
    Site = DE;
    Verb = "freed";
  }
  if (Site == nullptr)
    return;
  const std::string Name = recordNameOf(Alloc);
  if (Name.empty() ||
      std::find(NodeClasses.begin(), NodeClasses.end(), Name) ==
          NodeClasses.end())
    return;
  if (locationInFiles(*Result.SourceManager, Site->getBeginLoc(),
                      AllowedFiles))
    return;
  diag(Site->getBeginLoc(),
       "%0 %1 outside its COS implementation — node lifetime must flow "
       "through the owning factory and the EBR retire path (reclaim "
       "discipline, DESIGN.md §8); freeing here races lock-free readers")
      << Name << Verb;
}

}  // namespace psmr
}  // namespace tidy
}  // namespace clang
