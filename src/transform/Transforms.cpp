//===- Transforms.cpp -----------------------------------------------------===//

#include "transform/Transforms.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace rmt;

//===----------------------------------------------------------------------===//
// Loop unrolling
//===----------------------------------------------------------------------===//

namespace {

class LoopUnroller {
public:
  LoopUnroller(AstContext &Ctx, unsigned Bound) : Ctx(Ctx), Bound(Bound) {}

  std::vector<const Stmt *> block(const std::vector<const Stmt *> &Block) {
    std::vector<const Stmt *> Out;
    for (const Stmt *S : Block)
      stmt(S, Out);
    return Out;
  }

  bool changedAnything() const { return Changed; }

private:
  void stmt(const Stmt *S, std::vector<const Stmt *> &Out) {
    switch (S->kind()) {
    case StmtKind::If: {
      std::vector<const Stmt *> Then = block(S->thenBlock());
      std::vector<const Stmt *> Else = block(S->elseBlock());
      Out.push_back(
          Ctx.ifStmt(S->guard(), std::move(Then), std::move(Else), S->loc()));
      return;
    }
    case StmtKind::While: {
      Changed = true;
      std::vector<const Stmt *> Body = block(S->loopBody());
      // U(0): with a deterministic guard, executions that would iterate
      // again are blocked; with a nondeterministic guard, exiting now is a
      // legal choice, so nothing is emitted.
      std::vector<const Stmt *> Tail;
      if (const Expr *G = S->guard())
        Tail.push_back(Ctx.assume(Ctx.tUnary(UnOp::Not, G), S->loc()));
      // U(k) = if (g) { body; U(k-1) }.
      for (unsigned K = 0; K < Bound; ++K) {
        std::vector<const Stmt *> Arm = Body;
        for (const Stmt *T : Tail)
          Arm.push_back(T);
        Tail.clear();
        Tail.push_back(Ctx.ifStmt(S->guard(), std::move(Arm), {}, S->loc()));
      }
      for (const Stmt *T : Tail)
        Out.push_back(T);
      return;
    }
    default:
      Out.push_back(S);
      return;
    }
  }

  AstContext &Ctx;
  unsigned Bound;
  bool Changed = false;
};

} // namespace

Program rmt::unrollLoops(AstContext &Ctx, const Program &Prog,
                         unsigned Bound) {
  LoopUnroller U(Ctx, Bound);
  Program Out;
  Out.Globals = Prog.Globals;
  for (const Procedure &P : Prog.Procedures) {
    Procedure Copy = P;
    Copy.Body = U.block(P.Body);
    Out.Procedures.push_back(std::move(Copy));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Recursion unfolding
//===----------------------------------------------------------------------===//

namespace {

/// Rewrites call targets through \p Rename while deep-copying statements.
/// Rename returning nullopt means "this call is beyond the bound": it is
/// replaced by `assume false`.
class CallRewriter {
public:
  using RenameFn = std::function<std::optional<Symbol>(Symbol)>;

  CallRewriter(AstContext &Ctx, RenameFn Rename)
      : Ctx(Ctx), Rename(std::move(Rename)) {}

  std::vector<const Stmt *> block(const std::vector<const Stmt *> &Block) {
    std::vector<const Stmt *> Out;
    Out.reserve(Block.size());
    for (const Stmt *S : Block)
      Out.push_back(stmt(S));
    return Out;
  }

private:
  const Stmt *stmt(const Stmt *S) {
    switch (S->kind()) {
    case StmtKind::Call: {
      std::optional<Symbol> Target = Rename(S->callee());
      if (!Target)
        return Ctx.assume(Ctx.tBool(false), S->loc());
      return Ctx.call(*Target, S->callArgs(), S->callLhs(), S->loc());
    }
    case StmtKind::If:
      return Ctx.ifStmt(S->guard(), block(S->thenBlock()),
                        block(S->elseBlock()), S->loc());
    case StmtKind::While:
      return Ctx.whileStmt(S->guard(), block(S->loopBody()), S->loc());
    default:
      return S;
    }
  }

  AstContext &Ctx;
  RenameFn Rename;
};

/// The procedure call graph, from one scan of every body: per procedure
/// index, its callees by index in body order (with repeats).
struct CallGraph {
  std::unordered_map<Symbol, unsigned> IndexOf;
  std::vector<std::vector<unsigned>> Callees;

  explicit CallGraph(const Program &Prog) : Callees(Prog.Procedures.size()) {
    for (unsigned I = 0; I < Prog.Procedures.size(); ++I)
      IndexOf[Prog.Procedures[I].Name] = I;
    for (unsigned P = 0; P < Prog.Procedures.size(); ++P)
      scan(P, Prog.Procedures[P].Body);
  }

private:
  void scan(unsigned P, const std::vector<const Stmt *> &Block) {
    for (const Stmt *S : Block) {
      switch (S->kind()) {
      case StmtKind::Call: {
        auto It = IndexOf.find(S->callee());
        assert(It != IndexOf.end() && "unresolved callee (checked)");
        Callees[P].push_back(It->second);
        break;
      }
      case StmtKind::If:
        scan(P, S->thenBlock());
        scan(P, S->elseBlock());
        break;
      case StmtKind::While:
        scan(P, S->loopBody());
        break;
      default:
        break;
      }
    }
  }
};

/// Iterative Tarjan SCC over the procedure call graph. Returns, per
/// procedure index, its SCC id, plus the set of SCC ids that are cycles
/// (size > 1 or a self-loop).
struct SccResult {
  std::vector<unsigned> SccOf;
  std::unordered_set<unsigned> CyclicSccs;
};

SccResult computeSccs(const CallGraph &G) {
  const std::vector<std::vector<unsigned>> &Callees = G.Callees;
  size_t N = Callees.size();
  std::vector<bool> SelfLoop(N, false);
  for (unsigned P = 0; P < N; ++P)
    SelfLoop[P] = std::find(Callees[P].begin(), Callees[P].end(), P) !=
                  Callees[P].end();

  SccResult Result;
  Result.SccOf.assign(N, ~0u);
  std::vector<unsigned> Index(N, ~0u), Low(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<unsigned> Stack;
  unsigned NextIndex = 0, NextScc = 0;

  struct Frame {
    unsigned Node;
    size_t Child;
  };
  std::vector<Frame> Dfs;
  std::vector<unsigned> SccSize;

  for (unsigned Root = 0; Root < N; ++Root) {
    if (Index[Root] != ~0u)
      continue;
    Dfs.push_back({Root, 0});
    Index[Root] = Low[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = true;
    while (!Dfs.empty()) {
      Frame &F = Dfs.back();
      unsigned V = F.Node;
      if (F.Child < Callees[V].size()) {
        unsigned W = Callees[V][F.Child++];
        if (Index[W] == ~0u) {
          Index[W] = Low[W] = NextIndex++;
          Stack.push_back(W);
          OnStack[W] = true;
          Dfs.push_back({W, 0});
        } else if (OnStack[W] && Index[W] < Low[V]) {
          Low[V] = Index[W];
        }
        continue;
      }
      if (Low[V] == Index[V]) {
        unsigned Members = 0;
        unsigned W;
        do {
          W = Stack.back();
          Stack.pop_back();
          OnStack[W] = false;
          Result.SccOf[W] = NextScc;
          ++Members;
        } while (W != V);
        if (Members > 1 || SelfLoop[V])
          Result.CyclicSccs.insert(NextScc);
        ++NextScc;
      }
      Dfs.pop_back();
      if (!Dfs.empty()) {
        unsigned Parent = Dfs.back().Node;
        if (Low[V] < Low[Parent])
          Low[Parent] = Low[V];
      }
    }
  }
  return Result;
}

} // namespace

Program rmt::unfoldRecursion(AstContext &Ctx, const Program &Prog,
                             unsigned Bound) {
  assert(Bound >= 1 && "recursion bound must allow at least one frame");
  CallGraph G(Prog);
  SccResult Sccs = computeSccs(G);
  if (Sccs.CyclicSccs.empty()) {
    // Already acyclic; share everything.
    return Prog;
  }

  size_t N = Prog.Procedures.size();
  auto InCycle = [&](unsigned I) {
    return Sccs.CyclicSccs.count(Sccs.SccOf[I]) != 0;
  };

  // Depth-k name of a cyclic procedure; depth 1 keeps the original name so
  // external callers and the entry point are unaffected.
  auto DepthName = [&](Symbol Name, unsigned Depth) -> Symbol {
    if (Depth == 1)
      return Name;
    return Ctx.sym(Ctx.name(Name) + ".d" + std::to_string(Depth));
  };

  Program Out;
  Out.Globals = Prog.Globals;
  for (unsigned I = 0; I < N; ++I) {
    const Procedure &P = Prog.Procedures[I];
    if (!InCycle(I)) {
      // Calls from acyclic procedures enter cycles at depth 1 (the original
      // name), so the body is unchanged.
      Out.Procedures.push_back(P);
      continue;
    }
    unsigned MyScc = Sccs.SccOf[I];
    for (unsigned Depth = 1; Depth <= Bound; ++Depth) {
      Procedure Copy = P;
      Copy.Name = DepthName(P.Name, Depth);
      CallRewriter RW(Ctx, [&](Symbol Callee) -> std::optional<Symbol> {
        unsigned CalleeIdx = G.IndexOf.at(Callee);
        if (!InCycle(CalleeIdx) || Sccs.SccOf[CalleeIdx] != MyScc)
          return Callee; // leaves this SCC: depth restarts there
        if (Depth == Bound)
          return std::nullopt; // beyond the bound: block
        return DepthName(Callee, Depth + 1);
      });
      Copy.Body = RW.block(P.Body);
      Out.Procedures.push_back(std::move(Copy));
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Call-graph reachability
//===----------------------------------------------------------------------===//

namespace {

/// The procedures of \p Prog that \p Entry reaches in the call graph (itself
/// included), in declaration order; nullopt when that is all of them, so the
/// caller can keep sharing \p Prog.
std::optional<Program> reachedFrom(const Program &Prog, Symbol Entry) {
  CallGraph G(Prog);
  auto Root = G.IndexOf.find(Entry);
  if (Root == G.IndexOf.end())
    return std::nullopt; // instrumentAsserts reports the missing entry
  std::vector<char> Reach(Prog.Procedures.size(), 0);
  std::vector<unsigned> Work{Root->second};
  Reach[Root->second] = 1;
  size_t NumReached = 1;
  while (!Work.empty()) {
    unsigned P = Work.back();
    Work.pop_back();
    for (unsigned C : G.Callees[P])
      if (!Reach[C]) {
        Reach[C] = 1;
        ++NumReached;
        Work.push_back(C);
      }
  }
  if (NumReached == Prog.Procedures.size())
    return std::nullopt;
  Program Out;
  Out.Globals = Prog.Globals;
  for (unsigned I = 0; I < Prog.Procedures.size(); ++I)
    if (Reach[I])
      Out.Procedures.push_back(Prog.Procedures[I]);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Assertion instrumentation
//===----------------------------------------------------------------------===//

namespace {

class AssertInstrumenter {
public:
  AssertInstrumenter(AstContext &Ctx, Symbol ErrVar)
      : Ctx(Ctx), ErrVar(ErrVar) {}

  std::vector<const Stmt *> block(const std::vector<const Stmt *> &Block) {
    std::vector<const Stmt *> Out;
    for (const Stmt *S : Block)
      stmt(S, Out);
    return Out;
  }

  unsigned numAsserts() const { return NumAsserts; }

private:
  const Expr *errRef() { return Ctx.tVar(ErrVar, Ctx.boolType()); }

  void stmt(const Stmt *S, std::vector<const Stmt *> &Out) {
    switch (S->kind()) {
    case StmtKind::Assert: {
      ++NumAsserts;
      // assert e  ~~>  if (e) {} else { $err := true; return; }
      std::vector<const Stmt *> Fail = {
          Ctx.assign(ErrVar, Ctx.tBool(true), S->loc()),
          Ctx.returnStmt(S->loc())};
      Out.push_back(Ctx.ifStmt(S->condition(), {}, std::move(Fail), S->loc()));
      return;
    }
    case StmtKind::Call:
      // call p(..); if ($err) { return; }
      Out.push_back(S);
      Out.push_back(
          Ctx.ifStmt(errRef(), {Ctx.returnStmt(S->loc())}, {}, S->loc()));
      return;
    case StmtKind::If:
      Out.push_back(Ctx.ifStmt(S->guard(), block(S->thenBlock()),
                               block(S->elseBlock()), S->loc()));
      return;
    case StmtKind::While:
      Out.push_back(Ctx.whileStmt(S->guard(), block(S->loopBody()), S->loc()));
      return;
    default:
      Out.push_back(S);
      return;
    }
  }

  AstContext &Ctx;
  Symbol ErrVar;
  unsigned NumAsserts = 0;
};

} // namespace

BoundedInstance rmt::instrumentAsserts(AstContext &Ctx, const Program &Prog,
                                       Symbol Entry) {
  // Pick an error-bit name not clashing with any declared global.
  std::string ErrName = "$err";
  auto Taken = [&](const std::string &Name) {
    for (const VarDecl &G : Prog.Globals)
      if (Ctx.name(G.Name) == Name)
        return true;
    return false;
  };
  while (Taken(ErrName))
    ErrName += "_";
  Symbol ErrVar = Ctx.sym(ErrName);

  BoundedInstance Result;
  Result.ErrVar = ErrVar;
  Result.Entry = Entry;
  Result.Prog.Globals = Prog.Globals;
  Result.Prog.Globals.push_back({ErrVar, Ctx.boolType(), SrcLoc()});

  AssertInstrumenter Instr(Ctx, ErrVar);
  for (const Procedure &P : Prog.Procedures) {
    Procedure Copy = P;
    Copy.Body = Instr.block(P.Body);
    if (P.Name == Entry) {
      // Globals start unconstrained; the root must clear the error bit.
      std::vector<const Stmt *> Body = {Ctx.assign(ErrVar, Ctx.tBool(false))};
      for (const Stmt *S : Copy.Body)
        Body.push_back(S);
      Copy.Body = std::move(Body);
    }
    Result.Prog.Procedures.push_back(std::move(Copy));
  }
  Result.NumAsserts = Instr.numAsserts();
  assert(Result.Prog.findProc(Entry) && "entry procedure not found");
  return Result;
}

BoundedInstance rmt::prepareBounded(AstContext &Ctx, const Program &Prog,
                                    Symbol Entry, unsigned Bound) {
  std::optional<Program> Reached = reachedFrom(Prog, Entry);
  const Program &Source = Reached ? *Reached : Prog;
  Program Unrolled = unrollLoops(Ctx, Source, Bound);
  Program Unfolded = unfoldRecursion(Ctx, Unrolled, Bound);
  BoundedInstance Result = instrumentAsserts(Ctx, Unfolded, Entry);
  Result.NumProcsUnreached =
      static_cast<unsigned>(Prog.Procedures.size() - Source.Procedures.size());
  return Result;
}
