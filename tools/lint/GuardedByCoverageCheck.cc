#include "GuardedByCoverageCheck.h"

#include <algorithm>
#include <string>

#include "PsmrLintUtils.h"
#include "clang/AST/ASTContext.h"
#include "clang/AST/Attr.h"
#include "clang/AST/Decl.h"
#include "clang/AST/DeclCXX.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "clang/ASTMatchers/ASTMatchers.h"

using namespace clang::ast_matchers;

namespace clang {
namespace tidy {
namespace psmr {

namespace {

constexpr char kDefaultMutexTypes[] =
    "std::mutex;std::recursive_mutex;std::timed_mutex;std::shared_mutex;"
    "psmr::PlainRankedMutex;psmr::CheckedRankedMutex";
constexpr char kDefaultSelfSync[] =
    "psmr::CondVar;std::condition_variable;std::condition_variable_any;"
    "psmr::Semaphore;psmr::BlockingQueue;psmr::SpscRing;psmr::Counter;"
    "psmr::Gauge;psmr::Histogram;psmr::EbrDomain;std::thread;std::jthread";

bool contains(const std::vector<std::string> &Haystack,
              const std::string &Needle) {
  return std::find(Haystack.begin(), Haystack.end(), Needle) != Haystack.end();
}

// Qualified record name behind `T` (template args stripped by
// printQualifiedName), or empty for non-record types.
std::string recordNameOf(QualType T) {
  if (T.isNull())
    return std::string();
  const CXXRecordDecl *RD = T.getNonReferenceType()->getAsCXXRecordDecl();
  return RD != nullptr ? RD->getQualifiedNameAsString() : std::string();
}

}  // namespace

GuardedByCoverageCheck::GuardedByCoverageCheck(StringRef Name,
                                               ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context),
      MutexTypes(splitList(Options.get("MutexTypes", kDefaultMutexTypes))),
      SelfSyncTypes(splitList(Options.get("SelfSyncTypes", kDefaultSelfSync))) {
}

void GuardedByCoverageCheck::storeOptions(ClangTidyOptions::OptionMap &Opts) {
  Options.store(Opts, "MutexTypes", joinList(MutexTypes));
  Options.store(Opts, "SelfSyncTypes", joinList(SelfSyncTypes));
}

void GuardedByCoverageCheck::registerMatchers(MatchFinder *Finder) {
  Finder->addMatcher(cxxRecordDecl(isDefinition(), unless(isImplicit()),
                                   unless(isExpansionInSystemHeader()))
                         .bind("record"),
                     this);
}

void GuardedByCoverageCheck::check(const MatchFinder::MatchResult &Result) {
  const auto *RD = Result.Nodes.getNodeAs<CXXRecordDecl>("record");
  if (RD == nullptr || RD->isUnion())
    return;

  const FieldDecl *MutexField = nullptr;
  for (const FieldDecl *FD : RD->fields()) {
    if (contains(MutexTypes, recordNameOf(FD->getType()))) {
      MutexField = FD;
      break;
    }
  }
  if (MutexField == nullptr)
    return;

  for (const FieldDecl *FD : RD->fields()) {
    const QualType T = FD->getType();
    if (contains(MutexTypes, recordNameOf(T)))
      continue;  // the lock itself
    if (FD->hasAttr<GuardedByAttr>() || FD->hasAttr<PtGuardedByAttr>())
      continue;
    if (T.isConstQualified() || T->isReferenceType())
      continue;
    if (contains(SelfSyncTypes, recordNameOf(T)))
      continue;
    // Atomics in any wrapping (std::atomic<T>, Padded<std::atomic<T>>,
    // arrays thereof) show up in the printed type.
    if (T.getAsString().find("atomic") != std::string::npos)
      continue;
    diag(FD->getLocation(),
         "field %0 shares %1 with mutex %2 but is neither atomic, "
         "GUARDED_BY-annotated, nor a synchronization primitive — annotate "
         "which lock protects it, or NOLINT naming the confinement "
         "discipline (set-once-before-share, single-thread-owned, ...) "
         "that does")
        << FD->getName() << RD->getName() << MutexField->getName();
  }
}

}  // namespace psmr
}  // namespace tidy
}  // namespace clang
