// mpcsd-verify: clang LibTooling engine.
//
// Compiled only when clang development libraries are present (see
// CMakeLists.txt); written against the clang 14 API with version guards
// for the Preprocessor callback signature changes in 16/17.  The engine
// mirrors the token engine's catalog with real semantics: capture
// const-ness comes from the type system, machine bodies from the call
// operator's parameter types, container identity from the template
// specialization — so macro tricks, typedef chains, and using-directives
// cannot hide a violation the way they can from a token scan.
//
// Files without a compile command (headers, when running against a
// compile_commands.json) are analyzed with the token engine instead, so a
// directory sweep never hard-fails on an uncompilable TU.
#include "ast_engine.hpp"

#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "clang/AST/ASTConsumer.h"
#include "clang/AST/ASTContext.h"
#include "clang/AST/RecursiveASTVisitor.h"
#include "clang/Basic/SourceManager.h"
#include "clang/Basic/Version.h"
#include "clang/Frontend/CompilerInstance.h"
#include "clang/Frontend/FrontendActions.h"
#include "clang/Lex/PPCallbacks.h"
#include "clang/Lex/Preprocessor.h"
#include "clang/Tooling/CompilationDatabase.h"
#include "clang/Tooling/Tooling.h"
#include "llvm/Support/raw_ostream.h"

#include <fstream>
#include <sstream>

#include "policy.hpp"
#include "token_engine.hpp"

namespace mpcsd_verify {
namespace {

using clang::ASTContext;
using clang::CXXMethodDecl;
using clang::CXXRecordDecl;
using clang::LambdaExpr;
using clang::QualType;
using clang::SourceLocation;
using clang::SourceManager;
using clang::VarDecl;

[[nodiscard]] bool is_unordered_name(llvm::StringRef name) {
  return name == "unordered_map" || name == "unordered_set" ||
         name == "unordered_multimap" || name == "unordered_multiset";
}

[[nodiscard]] bool is_assoc_name(llvm::StringRef name) {
  return name == "map" || name == "set" || name == "multimap" ||
         name == "multiset" || is_unordered_name(name);
}

/// Record decl of `t` after stripping references/sugar; null if not a class.
[[nodiscard]] const CXXRecordDecl* record_of(QualType t) {
  return t.getNonReferenceType().getDesugaredType(t->getASTContext())
      ->getAsCXXRecordDecl();
}

class Visitor : public clang::RecursiveASTVisitor<Visitor> {
 public:
  Visitor(ASTContext& ctx, std::string path, Diagnostics* out)
      : sm_(ctx.getSourceManager()), path_(std::move(path)), out_(out) {
    det_file_ = Policy::det_scoped_file(path_);
    lint_scoped_ = Policy::in_lint_sources(path_);
    mutable_scoped_ = Policy::mutable_scoped(path_);
  }

  bool shouldVisitTemplateInstantiations() const { return false; }
  bool shouldVisitImplicitCode() const { return false; }

  // --- scope tracking ------------------------------------------------------

  bool TraverseLambdaExpr(LambdaExpr* lam) {
    const bool machine = is_machine_body(lam);
    if (machine) check_machine_captures(lam);
    check_mutable(lam, machine);
    machine_depth_ += machine ? 1 : 0;
    const bool ok =
        clang::RecursiveASTVisitor<Visitor>::TraverseLambdaExpr(lam);
    machine_depth_ -= machine ? 1 : 0;
    return ok;
  }

  // --- determinism ---------------------------------------------------------

  bool VisitCXXForRangeStmt(clang::CXXForRangeStmt* stmt) {
    if (!det_scope()) return true;
    const clang::Expr* range = stmt->getRangeInit();
    if (range == nullptr) return true;
    const CXXRecordDecl* rec = record_of(range->getType());
    if (rec != nullptr && is_unordered_name(rec->getName()) &&
        in_main_file(range->getBeginLoc())) {
      diag(DiagId::kDetUnorderedIter, range->getBeginLoc(),
           rec->getName().str());
    }
    return true;
  }

  bool VisitCXXMemberCallExpr(clang::CXXMemberCallExpr* call) {
    const CXXMethodDecl* method = call->getMethodDecl();
    if (method == nullptr || !in_main_file(call->getBeginLoc())) return true;
    const llvm::StringRef name = method->getName();
    if (det_scope() && (name == "begin" || name == "cbegin")) {
      const CXXRecordDecl* rec = record_of(call->getImplicitObjectArgument()
                                               ->IgnoreParenImpCasts()
                                               ->getType());
      if (rec != nullptr && is_unordered_name(rec->getName())) {
        diag(DiagId::kDetUnorderedIter, call->getBeginLoc(),
             rec->getName().str() + ".begin()");
      }
    }
    // Mutating member call through a by-value captured pointer.
    if (!pointer_captures_.empty() && is_mutator(name)) {
      const clang::Expr* base =
          call->getImplicitObjectArgument()->IgnoreParenImpCasts();
      if (const auto* deref = llvm::dyn_cast<clang::UnaryOperator>(base)) {
        if (deref->getOpcode() == clang::UO_Deref)
          base = deref->getSubExpr()->IgnoreParenImpCasts();
      }
      if (const auto* ref = llvm::dyn_cast<clang::DeclRefExpr>(base)) {
        if (pointer_captures_.count(ref->getDecl()) > 0) {
          diag(DiagId::kPurityPointerWrite, call->getBeginLoc(),
               ref->getDecl()->getNameAsString() + "->" + name.str());
        }
      }
    }
    return true;
  }

  bool VisitCallExpr(clang::CallExpr* call) {
    const clang::FunctionDecl* callee = call->getDirectCallee();
    if (callee == nullptr || !in_main_file(call->getBeginLoc())) return true;
    const std::string qual = callee->getQualifiedNameAsString();
    if (det_scope() && callee->getName() == "now" &&
        (qual.find("steady_clock") != std::string::npos ||
         qual.find("system_clock") != std::string::npos ||
         qual.find("high_resolution_clock") != std::string::npos)) {
      diag(DiagId::kDetWallClock, call->getBeginLoc(), qual + "()");
    }
    if (lint_scoped_ && !Policy::allow_process_primitives(path_) &&
        !llvm::isa<clang::CXXMemberCallExpr>(call)) {
      static const std::set<std::string> prims = {
          "fork",         "vfork",    "mmap",       "munmap",
          "memfd_create", "shm_open", "shm_unlink",
      };
      if (callee->getDeclContext()->getRedeclContext()->isTranslationUnit() &&
          prims.count(callee->getNameAsString()) > 0) {
        diag(DiagId::kConfProcessPrimitive, call->getBeginLoc(),
             callee->getNameAsString() + "()");
      }
    }
    return true;
  }

  bool VisitVarDecl(VarDecl* var) {
    if (!in_main_file(var->getLocation())) return true;
    // Pointer-keyed associative containers in determinism scope.
    if (det_scope()) {
      const auto* spec =
          llvm::dyn_cast_or_null<clang::ClassTemplateSpecializationDecl>(
              record_of(var->getType()));
      if (spec != nullptr && is_assoc_name(spec->getName())) {
        const auto& args = spec->getTemplateArgs();
        if (args.size() > 0 &&
            args[0].getKind() == clang::TemplateArgument::Type &&
            args[0].getAsType()->isPointerType()) {
          diag(DiagId::kDetPointerKeyed, var->getLocation(), "pointer key");
        }
      }
    }
    if (lint_scoped_ && !Policy::allow_router_constants(path_) &&
        var->getName().startswith("kRouter")) {
      diag(DiagId::kConfRouterConstant, var->getLocation(),
           var->getNameAsString());
    }
    return true;
  }

  bool VisitDeclRefExpr(clang::DeclRefExpr* ref) {
    if (!in_main_file(ref->getBeginLoc())) return true;
    if (lint_scoped_ && !Policy::allow_router_constants(path_) &&
        ref->getDecl()->getName().startswith("kRouter")) {
      diag(DiagId::kConfRouterConstant, ref->getBeginLoc(),
           ref->getDecl()->getNameAsString());
    }
    return true;
  }

  // --- confinement ---------------------------------------------------------

  bool VisitCXXReinterpretCastExpr(clang::CXXReinterpretCastExpr* cast) {
    if (lint_scoped_ && !Policy::allow_reinterpret_cast(path_) &&
        in_main_file(cast->getBeginLoc())) {
      diag(DiagId::kConfReinterpretCast, cast->getBeginLoc(), "");
    }
    return true;
  }

  bool VisitBinaryOperator(clang::BinaryOperator* op) {
    if (!op->isAssignmentOp() && !op->isCompoundAssignmentOp()) return true;
    if (!in_main_file(op->getBeginLoc())) return true;
    const auto* member = llvm::dyn_cast<clang::MemberExpr>(
        op->getLHS()->IgnoreParenImpCasts());
    if (member != nullptr) {
      if (lint_scoped_ && !Policy::allow_wall_seconds(path_) &&
          member->getMemberDecl()->getName() == "wall_seconds") {
        diag(DiagId::kConfWallSeconds, op->getBeginLoc(), "wall_seconds write");
      }
      // Write through a by-value captured pointer: p->field = ...
      if (!pointer_captures_.empty() && member->isArrow()) {
        const auto* base = llvm::dyn_cast<clang::DeclRefExpr>(
            member->getBase()->IgnoreParenImpCasts());
        if (base != nullptr && pointer_captures_.count(base->getDecl()) > 0) {
          diag(DiagId::kPurityPointerWrite, op->getBeginLoc(),
               base->getDecl()->getNameAsString() + "->...");
        }
      }
    }
    // *p = ...
    const auto* deref = llvm::dyn_cast<clang::UnaryOperator>(
        op->getLHS()->IgnoreParenImpCasts());
    if (deref != nullptr && deref->getOpcode() == clang::UO_Deref &&
        !pointer_captures_.empty()) {
      const auto* base = llvm::dyn_cast<clang::DeclRefExpr>(
          deref->getSubExpr()->IgnoreParenImpCasts());
      if (base != nullptr && pointer_captures_.count(base->getDecl()) > 0) {
        diag(DiagId::kPurityPointerWrite, op->getBeginLoc(),
             "*" + base->getDecl()->getNameAsString());
      }
    }
    return true;
  }

 private:
  [[nodiscard]] bool det_scope() const { return det_file_ || machine_depth_ > 0; }

  [[nodiscard]] bool in_main_file(SourceLocation loc) const {
    return sm_.isWrittenInMainFile(sm_.getExpansionLoc(loc));
  }

  [[nodiscard]] static bool is_mutator(llvm::StringRef name) {
    return name == "push_back" || name == "emplace_back" || name == "insert" ||
           name == "emplace" || name == "clear" || name == "erase" ||
           name == "resize" || name == "assign" || name == "pop_back" ||
           name == "reserve";
  }

  void diag(DiagId id, SourceLocation loc, std::string detail) {
    out_->push_back(Diagnostic{id, path_,
                               sm_.getSpellingLineNumber(sm_.getExpansionLoc(loc)),
                               std::move(detail)});
  }

  [[nodiscard]] static bool is_machine_body(const LambdaExpr* lam) {
    const CXXMethodDecl* op = lam->getCallOperator();
    if (op == nullptr) return false;
    for (const clang::ParmVarDecl* param : op->parameters()) {
      const QualType t = param->getType();
      if (!t->isLValueReferenceType()) continue;
      const QualType pointee = t->getPointeeType();
      if (pointee.isConstQualified()) continue;
      const CXXRecordDecl* rec = pointee->getAsCXXRecordDecl();
      if (rec == nullptr) continue;
      if (rec->getName() == "MachineContext" || rec->getName() == "StageContext")
        return true;
    }
    return false;
  }

  void check_mutable(const LambdaExpr* lam, bool machine) {
    const CXXMethodDecl* op = lam->getCallOperator();
    if (op == nullptr || op->isConst()) return;  // non-mutable lambdas are const
    if (!in_main_file(lam->getBeginLoc())) return;
    if (machine) {
      diag(DiagId::kConfMutableLambda, lam->getBeginLoc(), "machine body");
    } else if (mutable_scoped_) {
      diag(DiagId::kConfMutableLambda, lam->getBeginLoc(),
           "simulator/driver code");
    }
  }

  void check_machine_captures(const LambdaExpr* lam) {
    if (!in_main_file(lam->getBeginLoc())) return;
    if (lam->getCaptureDefault() == clang::LCD_ByRef) {
      diag(DiagId::kPurityRefCapture, lam->getBeginLoc(), "[&]");
    }
    for (const clang::LambdaCapture& cap : lam->captures()) {
      if (cap.capturesThis()) {
        if (cap.getCaptureKind() == clang::LCK_This) {
          diag(DiagId::kPurityThisCapture, lam->getBeginLoc(), "this");
        }
        continue;
      }
      if (!cap.capturesVariable()) continue;
      const auto* var = llvm::dyn_cast<VarDecl>(cap.getCapturedVar());
      if (var == nullptr) continue;
      QualType t = var->getType();
      if (t->isReferenceType()) t = t->getPointeeType();
      if (cap.getCaptureKind() == clang::LCK_ByRef) {
        // Explicit &name of a non-const entity; implicit ones are already
        // covered by the [&] default diagnostic.
        if (!cap.isImplicit() && !t.isConstQualified()) {
          diag(DiagId::kPurityRefCapture, lam->getBeginLoc(),
               "&" + var->getNameAsString());
        }
      } else if (cap.getCaptureKind() == clang::LCK_ByCopy &&
                 t->isPointerType() && !t->getPointeeType().isConstQualified()) {
        pointer_captures_.insert(var);
      }
    }
  }

  const SourceManager& sm_;
  std::string path_;
  Diagnostics* out_;
  int machine_depth_ = 0;
  bool det_file_ = false;
  bool lint_scoped_ = false;
  bool mutable_scoped_ = false;
  std::set<const clang::Decl*> pointer_captures_;
};

class IncludeCallbacks : public clang::PPCallbacks {
 public:
  IncludeCallbacks(const SourceManager& sm, std::string path, Diagnostics* out)
      : sm_(sm), path_(std::move(path)), out_(out) {}

  void InclusionDirective(SourceLocation hash_loc, const clang::Token&,
                          llvm::StringRef file_name, bool,
                          clang::CharSourceRange,
#if LLVM_VERSION_MAJOR >= 17
                          clang::OptionalFileEntryRef,
#elif LLVM_VERSION_MAJOR >= 16
                          std::optional<clang::FileEntryRef>,
#else
                          llvm::Optional<clang::FileEntryRef>,
#endif
                          llvm::StringRef, llvm::StringRef,
                          const clang::Module*,
                          clang::SrcMgr::CharacteristicKind) override {
    if (!Policy::in_lint_sources(path_) || Policy::allow_intrinsics(path_))
      return;
    if (!sm_.isWrittenInMainFile(sm_.getExpansionLoc(hash_loc))) return;
    static const std::set<std::string> headers = {
        "immintrin.h",     "x86intrin.h",      "emmintrin.h",
        "smmintrin.h",     "avxintrin.h",      "avx2intrin.h",
        "avx512fintrin.h", "avx512bwintrin.h",
    };
    if (headers.count(file_name.str()) > 0) {
      out_->push_back(Diagnostic{
          DiagId::kConfIntrinsics, path_,
          sm_.getSpellingLineNumber(sm_.getExpansionLoc(hash_loc)),
          file_name.str()});
    }
  }

 private:
  const SourceManager& sm_;
  std::string path_;
  Diagnostics* out_;
};

class Consumer : public clang::ASTConsumer {
 public:
  Consumer(std::string path, Diagnostics* out)
      : path_(std::move(path)), out_(out) {}

  void HandleTranslationUnit(ASTContext& ctx) override {
    Visitor visitor(ctx, path_, out_);
    visitor.TraverseDecl(ctx.getTranslationUnitDecl());
  }

 private:
  std::string path_;
  Diagnostics* out_;
};

class VerifyAction : public clang::ASTFrontendAction {
 public:
  explicit VerifyAction(Diagnostics* out) : out_(out) {}

  std::unique_ptr<clang::ASTConsumer> CreateASTConsumer(
      clang::CompilerInstance& ci, llvm::StringRef file) override {
    const std::string path = normalize_path(file.str());
    ci.getPreprocessor().addPPCallbacks(std::make_unique<IncludeCallbacks>(
        ci.getSourceManager(), path, out_));
    return std::make_unique<Consumer>(path, out_);
  }

 private:
  Diagnostics* out_;
};

class VerifyFactory : public clang::tooling::FrontendActionFactory {
 public:
  explicit VerifyFactory(Diagnostics* out) : out_(out) {}
  std::unique_ptr<clang::FrontendAction> create() override {
    return std::make_unique<VerifyAction>(out_);
  }

 private:
  Diagnostics* out_;
};

void finish(Diagnostics* diags) {
  std::sort(diags->begin(), diags->end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.id, a.detail) <
                     std::tie(b.file, b.line, b.id, b.detail);
            });
  diags->erase(std::unique(diags->begin(), diags->end(),
                           [](const Diagnostic& a, const Diagnostic& b) {
                             return a.id == b.id && a.file == b.file &&
                                    a.line == b.line;
                           }),
               diags->end());
}

}  // namespace

bool ast_engine_available() { return true; }

bool analyze_files_ast(const std::vector<std::string>& files,
                       const std::string& compdb_dir, Diagnostics* out) {
  namespace tooling = clang::tooling;
  std::unique_ptr<tooling::CompilationDatabase> db;
  std::string err;
  if (!compdb_dir.empty()) {
    db = tooling::CompilationDatabase::loadFromDirectory(compdb_dir, err);
    if (db == nullptr) {
      llvm::errs() << "mpcsd_verify: cannot load compilation database: " << err
                   << "\n";
      return false;
    }
  } else {
    db = std::make_unique<tooling::FixedCompilationDatabase>(
        ".", std::vector<std::string>{"-std=c++20", "-xc++", "-Wno-everything"});
  }

  std::vector<std::string> compiled;
  std::vector<std::string> token_fallback;
  for (const std::string& f : files) {
    if (compdb_dir.empty() || !db->getCompileCommands(f).empty()) {
      compiled.push_back(f);
    } else {
      token_fallback.push_back(f);  // typically headers not in the compdb
    }
  }

  if (!compiled.empty()) {
    tooling::ClangTool tool(*db, compiled);
    tool.appendArgumentsAdjuster(
        tooling::getInsertArgumentAdjuster("-Wno-everything"));
    VerifyFactory factory(out);
    if (tool.run(&factory) != 0) return false;
  }
  for (const std::string& f : token_fallback) {
    std::ifstream in(f, std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string source = ss.str();
    Diagnostics d = analyze_file_tokens(f, source);
    out->insert(out->end(), d.begin(), d.end());
  }
  finish(out);
  return true;
}

}  // namespace mpcsd_verify
