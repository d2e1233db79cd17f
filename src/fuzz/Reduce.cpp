//===- fuzz/Reduce.cpp - Automatic test-case reduction ----------------------===//

#include "fuzz/Reduce.h"

#include "fuzz/Mutate.h" // validateProgram: the same validity gate
#include "lang/Parser.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

using namespace bsched;
using namespace bsched::fuzz;
using namespace bsched::lang;

namespace {

/// Fixpoint rounds over the pass list before giving up.
constexpr int MaxPasses = 10;
/// Hard cap on predicate evaluations (an oracle call each).
constexpr int MaxCandidates = 4000;

/// Addresses one statement inside nested statement lists without pointers,
/// so a path survives copying the whole program. Each step descends from the
/// current list into child Index's sub-list (0 = For body, 1 = Then,
/// 2 = Else); the final Index names the target statement itself.
struct PathStep {
  size_t Index;
  int Branch; ///< -1 = stop here, 0 = Body, 1 = Then, 2 = Else.
};
using Path = std::vector<PathStep>;

void enumerateList(const StmtList &L, Path &Prefix, std::vector<Path> &Out) {
  for (size_t I = 0; I != L.size(); ++I) {
    Prefix.push_back({I, -1});
    Out.push_back(Prefix);
    const Stmt &S = *L[I];
    if (S.Kind == StmtKind::For) {
      Prefix.back().Branch = 0;
      enumerateList(S.Body, Prefix, Out);
    } else if (S.Kind == StmtKind::If) {
      Prefix.back().Branch = 1;
      enumerateList(S.Then, Prefix, Out);
      Prefix.back().Branch = 2;
      enumerateList(S.Else, Prefix, Out);
    }
    Prefix.pop_back();
  }
}

/// All statement paths in document order (parents before their children).
std::vector<Path> enumerateStmts(const Program &P) {
  std::vector<Path> Out;
  Path Prefix;
  enumerateList(P.Body, Prefix, Out);
  return Out;
}

/// Resolves \p Pa against \p P; returns the containing list and target
/// index, or nullptr if the path no longer exists.
StmtList *navigate(Program &P, const Path &Pa, size_t &Index) {
  StmtList *L = &P.Body;
  for (size_t S = 0; S != Pa.size(); ++S) {
    if (Pa[S].Index >= L->size())
      return nullptr;
    if (Pa[S].Branch < 0) {
      Index = Pa[S].Index;
      return L;
    }
    Stmt &St = *(*L)[Pa[S].Index];
    switch (Pa[S].Branch) {
    case 0:
      if (St.Kind != StmtKind::For)
        return nullptr;
      L = &St.Body;
      break;
    case 1:
      if (St.Kind != StmtKind::If)
        return nullptr;
      L = &St.Then;
      break;
    default:
      if (St.Kind != StmtKind::If)
        return nullptr;
      L = &St.Else;
      break;
    }
  }
  return nullptr;
}

/// Appends every name referenced anywhere in \p E to \p Out.
void collectNames(const Expr &E, std::vector<std::string> &Out) {
  if (E.Kind == ExprKind::VarRef || E.Kind == ExprKind::ArrayRef)
    Out.push_back(E.Name);
  for (const ExprPtr &A : E.Args)
    collectNames(*A, Out);
}

void collectNames(const StmtList &L, std::vector<std::string> &Out) {
  for (const StmtPtr &S : L) {
    switch (S->Kind) {
    case StmtKind::Assign:
      collectNames(*S->Lhs, Out);
      collectNames(*S->Rhs, Out);
      break;
    case StmtKind::For:
      collectNames(*S->Lo, Out);
      collectNames(*S->Hi, Out);
      collectNames(S->Body, Out);
      break;
    case StmtKind::If:
      collectNames(*S->Cond, Out);
      collectNames(S->Then, Out);
      collectNames(S->Else, Out);
      break;
    }
  }
}

class Reducer {
public:
  Reducer(lang::Program Input, const Predicate &Pred, ReduceStats *Stats)
      : Best(std::move(Input)), Pred(Pred), Stats(Stats) {
    // Resolve types on the working copy so expression passes can consult
    // Expr::Ty (checkProgram is idempotent; the input already validated).
    (void)lang::checkProgram(Best);
  }

  lang::Program run() {
    for (int Round = 0; Round != MaxPasses; ++Round) {
      if (Stats)
        ++Stats->Passes;
      bool Progress = false;
      Progress |= removeStmtsPass();
      Progress |= flattenPass();
      Progress |= shrinkTripsPass();
      Progress |= simplifyExprsPass();
      Progress |= dropDeclsPass();
      Progress |= shrinkDimsPass();
      if (!Progress || !budgetLeft())
        break;
    }
    return std::move(Best);
  }

private:
  lang::Program Best;
  const Predicate &Pred;
  ReduceStats *Stats;
  int Tried = 0;

  bool budgetLeft() const { return Tried < MaxCandidates; }

  /// Accepts \p Cand as the new Best when it is valid and still failing.
  bool accept(lang::Program &&Cand) {
    if (!budgetLeft())
      return false;
    ++Tried;
    if (Stats)
      ++Stats->CandidatesTried;
    if (!validateProgram(Cand).empty())
      return false;
    if (!Pred(Cand))
      return false;
    Best = std::move(Cand);
    (void)lang::checkProgram(Best);
    if (Stats)
      ++Stats->CandidatesAccepted;
    return true;
  }

  /// Tries deleting each statement, children before parents (reverse
  /// document order keeps every remaining path valid after an acceptance).
  bool removeStmtsPass() {
    bool Any = false;
    std::vector<Path> Paths = enumerateStmts(Best);
    for (auto It = Paths.rbegin(); It != Paths.rend() && budgetLeft(); ++It) {
      lang::Program Cand = Best;
      size_t Index = 0;
      StmtList *L = navigate(Cand, *It, Index);
      if (!L)
        continue;
      L->erase(L->begin() + static_cast<ptrdiff_t>(Index));
      Any |= accept(std::move(Cand));
    }
    return Any;
  }

  /// Replaces loops with one unrolled-at-Lo copy of their body, and
  /// conditionals with one of their branches.
  bool flattenPass() {
    bool Any = false;
    std::vector<Path> Paths = enumerateStmts(Best);
    for (auto It = Paths.rbegin(); It != Paths.rend() && budgetLeft(); ++It) {
      for (int Variant = 0; Variant != 2; ++Variant) {
        lang::Program Cand = Best;
        size_t Index = 0;
        StmtList *L = navigate(Cand, *It, Index);
        if (!L)
          break;
        Stmt &S = *(*L)[Index];
        StmtList Repl;
        if (S.Kind == StmtKind::For && Variant == 0) {
          Repl = cloneList(S.Body);
          for (StmtPtr &B : Repl)
            replaceVarRefs(*B, S.LoopVar, *S.Lo);
        } else if (S.Kind == StmtKind::If) {
          Repl = cloneList(Variant == 0 ? S.Then : S.Else);
          if (Repl.empty() && Variant == 1)
            continue; // dropping to an empty Else is removeStmts' job
        } else {
          continue;
        }
        L->erase(L->begin() + static_cast<ptrdiff_t>(Index));
        L->insert(L->begin() + static_cast<ptrdiff_t>(Index),
                  std::make_move_iterator(Repl.begin()),
                  std::make_move_iterator(Repl.end()));
        if (accept(std::move(Cand))) {
          Any = true;
          break;
        }
      }
    }
    return Any;
  }

  /// Shrinks literal trip counts: first to a single iteration, else halved.
  bool shrinkTripsPass() {
    bool Any = false;
    std::vector<Path> Paths = enumerateStmts(Best);
    for (auto It = Paths.rbegin(); It != Paths.rend() && budgetLeft(); ++It) {
      size_t Index = 0;
      StmtList *L0 = navigate(Best, *It, Index);
      if (!L0)
        continue;
      const Stmt &S0 = *(*L0)[Index];
      if (S0.Kind != StmtKind::For || S0.Lo->Kind != ExprKind::IntLit ||
          S0.Hi->Kind != ExprKind::IntLit)
        continue;
      int64_t Lo = S0.Lo->IntVal, Hi = S0.Hi->IntVal;
      for (int64_t NewHi :
           {Lo + S0.Step, Lo + (Hi - Lo) / 2, Lo + 2 * S0.Step}) {
        if (NewHi >= Hi || NewHi <= Lo || !budgetLeft())
          continue;
        lang::Program Cand = Best;
        StmtList *L = navigate(Cand, *It, Index);
        if (!L)
          break;
        (*L)[Index]->Hi = intLit(NewHi);
        if (accept(std::move(Cand))) {
          Any = true;
          break;
        }
      }
    }
    return Any;
  }

  /// Replaces assignment right-hand sides with a literal or one of their
  /// operands, and zeroes array subscripts, statement by statement.
  bool simplifyExprsPass() {
    bool Any = false;
    std::vector<Path> Paths = enumerateStmts(Best);
    for (auto It = Paths.rbegin(); It != Paths.rend() && budgetLeft(); ++It) {
      size_t Index = 0;
      StmtList *L0 = navigate(Best, *It, Index);
      if (!L0 || (*L0)[Index]->Kind != StmtKind::Assign)
        continue;
      const Stmt &S0 = *(*L0)[Index];
      // Candidate right-hand sides, simplest first.
      std::vector<ExprPtr> Rhss;
      if (S0.Rhs->Kind != ExprKind::FpLit &&
          S0.Rhs->Kind != ExprKind::IntLit)
        Rhss.push_back(S0.Rhs->Ty == Type::Fp ? fpLit(1.0) : intLit(1));
      if (S0.Rhs->Kind == ExprKind::Binary)
        for (const ExprPtr &Arg : S0.Rhs->Args)
          if (Arg->Ty == S0.Rhs->Ty)
            Rhss.push_back(Arg->clone());
      bool Replaced = false;
      for (ExprPtr &NewRhs : Rhss) {
        if (!budgetLeft())
          break;
        lang::Program Cand = Best;
        StmtList *L = navigate(Cand, *It, Index);
        if (!L)
          break;
        (*L)[Index]->Rhs = std::move(NewRhs);
        if (accept(std::move(Cand))) {
          Any = Replaced = true;
          break;
        }
      }
      if (Replaced || !budgetLeft())
        continue;
      // Zero every subscript in the statement (one combined candidate).
      lang::Program Cand = Best;
      StmtList *L = navigate(Cand, *It, Index);
      if (!L)
        continue;
      bool Zeroed = false;
      std::function<void(Expr &)> Zero = [&](Expr &E) {
        for (ExprPtr &A : E.Args)
          Zero(*A);
        if (E.Kind == ExprKind::ArrayRef)
          for (ExprPtr &A : E.Args)
            if (A->Kind != ExprKind::IntLit || A->IntVal != 0) {
              A = intLit(0);
              Zeroed = true;
            }
      };
      Zero(*(*L)[Index]->Lhs);
      Zero(*(*L)[Index]->Rhs);
      if (Zeroed)
        Any |= accept(std::move(Cand));
    }
    return Any;
  }

  /// Drops declarations nothing references (arrays and scalars).
  bool dropDeclsPass() {
    bool Any = false;
    for (bool Progress = true; Progress && budgetLeft();) {
      Progress = false;
      std::vector<std::string> Used;
      collectNames(Best.Body, Used);
      auto IsUsed = [&Used](const std::string &N) {
        return std::find(Used.begin(), Used.end(), N) != Used.end();
      };
      for (size_t K = 0; K != Best.Arrays.size() && budgetLeft(); ++K) {
        if (IsUsed(Best.Arrays[K].Name))
          continue;
        lang::Program Cand = Best;
        Cand.Arrays.erase(Cand.Arrays.begin() + static_cast<ptrdiff_t>(K));
        if (accept(std::move(Cand))) {
          Any = Progress = true;
          break;
        }
      }
      for (size_t K = 0; K != Best.Vars.size() && budgetLeft(); ++K) {
        if (IsUsed(Best.Vars[K].Name))
          continue;
        lang::Program Cand = Best;
        Cand.Vars.erase(Cand.Vars.begin() + static_cast<ptrdiff_t>(K));
        if (accept(std::move(Cand))) {
          Any = Progress = true;
          break;
        }
      }
    }
    return Any;
  }

  /// Shrinks array extents (toward 8, then halving).
  bool shrinkDimsPass() {
    bool Any = false;
    for (size_t K = 0; K != Best.Arrays.size(); ++K) {
      for (size_t D = 0; D != Best.Arrays[K].Dims.size(); ++D) {
        int64_t Cur = Best.Arrays[K].Dims[D];
        for (int64_t New : {static_cast<int64_t>(8), Cur / 2}) {
          if (New <= 0 || New >= Cur || !budgetLeft())
            continue;
          lang::Program Cand = Best;
          Cand.Arrays[K].Dims[D] = New;
          if (accept(std::move(Cand))) {
            Any = true;
            break;
          }
        }
      }
    }
    return Any;
  }
};

} // namespace

lang::Program fuzz::reduceProgram(const lang::Program &Input,
                                  const Predicate &StillFails,
                                  ReduceStats *Stats) {
  return Reducer(Input, StillFails, Stats).run();
}

driver::CompileOptions
fuzz::reduceCompileOptions(const lang::Program &P, driver::CompileOptions Opts,
                           const OptionsPredicate &StillFails,
                           ReduceStats *Stats) {
  const driver::CompileOptions Defaults;
  // Candidate simplifications toward the default configuration, applied
  // greedily while the failure persists. Two rounds: stripping one flag can
  // unlock stripping another.
  using Tweak = std::function<void(driver::CompileOptions &)>;
  const Tweak Tweaks[] = {
      [&](driver::CompileOptions &O) { O.UnrollFactor = 1; },
      [&](driver::CompileOptions &O) { O.TraceScheduling = false; },
      [&](driver::CompileOptions &O) { O.UseEstimatedProfile = false; },
      [&](driver::CompileOptions &O) { O.LocalityAnalysis = false; },
      [&](driver::CompileOptions &O) { O.Scheduler = Defaults.Scheduler; },
      [&](driver::CompileOptions &O) { O.CleanupIR = Defaults.CleanupIR; },
      [&](driver::CompileOptions &O) { O.Lower = Defaults.Lower; },
      [&](driver::CompileOptions &O) { O.RegAlloc = Defaults.RegAlloc; },
      [&](driver::CompileOptions &O) {
        sched::SchedImpl Impl = O.Balance.Impl;
        O.Balance = Defaults.Balance;
        O.Balance.Impl = Impl;
      },
  };
  for (int Round = 0; Round != 2; ++Round) {
    for (const Tweak &T : Tweaks) {
      driver::CompileOptions Cand = Opts;
      T(Cand);
      if (Stats)
        ++Stats->CandidatesTried;
      if (StillFails(P, Cand)) {
        Opts = Cand;
        if (Stats)
          ++Stats->CandidatesAccepted;
      }
    }
  }
  return Opts;
}
