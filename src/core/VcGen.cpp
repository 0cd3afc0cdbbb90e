//===- VcGen.cpp ----------------------------------------------------------===//

#include "core/VcGen.h"

#include <algorithm>
#include <cassert>

using namespace rmt;

VcContext::VcContext(const AstContext &Ctx, const CfgProgram &Prog,
                     TermArena &Arena, std::function<void(TermRef)> Sink,
                     PvcMode Mode)
    : Ctx(Ctx), Prog(Prog), Arena(Arena), Sink(std::move(Sink)), Mode(Mode) {}

void VcContext::push(TermRef Clause) {
  if (Sink)
    Sink(Clause);
}

const std::vector<VarDecl> &VcContext::scopeVars(ProcId Q) {
  auto It = ScopeCache.find(Q);
  if (It != ScopeCache.end())
    return It->second;
  std::vector<VarDecl> Scope;
  for (const VarDecl &G : Prog.Globals)
    Scope.push_back(G);
  const CfgProc &P = Prog.proc(Q);
  for (const auto *Decls : {&P.Params, &P.Returns, &P.Locals})
    for (const VarDecl &D : *Decls)
      Scope.push_back(D);
  return ScopeCache.emplace(Q, std::move(Scope)).first->second;
}

const std::vector<NodeId> &VcContext::instancesOf(ProcId Q) const {
  auto It = Instances.find(Q);
  return It == Instances.end() ? NoInstances : It->second;
}

NodeId VcContext::genPvc(ProcId Q) {
  const CfgProc &P = Prog.proc(Q);
  const std::vector<VarDecl> &Scope = scopeVars(Q);
  size_t NumGlobals = Prog.Globals.size();
  bool Paper = Mode == PvcMode::Paper;

  NodeId NId = static_cast<NodeId>(Nodes.size());
  Nodes.emplace_back();
  VcNode &N = Nodes.back();
  N.Proc = Q;
  N.Entry = P.Entry;
  Instances[Q].push_back(NId);

  // A label joins when it takes its pre-state from fresh VS[y] constants
  // tied to each predecessor's post-state: every label in Paper mode, labels
  // with other than one predecessor in Passified mode. A non-joining label
  // reads its predecessor's post-state terms directly.
  std::unordered_map<LabelId, unsigned> PredCount;
  for (LabelId Y : P.Labels)
    PredCount[Y];
  for (LabelId Y : P.Labels)
    for (LabelId T : Prog.label(Y).Targets)
      ++PredCount[T];
  auto Joins = [&](LabelId Y) { return Paper || PredCount[Y] != 1; };

  // Lines 39–46: fresh BS[y] for every label y; fresh VS[y][v] for the entry
  // and every joining label, and in Paper mode fresh VS'[y][v] as well.
  std::unordered_map<LabelId, VarTermMap> PostAt;
  std::string Prefix = "n" + std::to_string(NId);
  for (LabelId Y : P.Labels) {
    std::string LTag = Prefix + ".L" + std::to_string(Y);
    N.BlockConst[Y] = Arena.freshConst(Ctx.boolType(), LTag + ".bs");
    if (Y != P.Entry && !Joins(Y))
      continue;
    VarTermMap &Pre = N.VarsAt[Y];
    VarTermMap *Post = Paper ? &PostAt[Y] : nullptr;
    for (const VarDecl &D : Scope) {
      std::string VTag = LTag + ".v" + std::to_string(D.Name.id());
      Pre[D.Name] = Arena.freshConst(D.Ty, VTag);
      if (Post)
        (*Post)[D.Name] = Arena.freshConst(D.Ty, VTag + "'");
    }
  }

  // Lines 47–51: entry control, input interface (globals ⧺ params) and
  // fresh output interface (globals ⧺ returns).
  N.Control = N.BlockConst.at(P.Entry);
  const VarTermMap &EntryVars = N.VarsAt.at(P.Entry);
  for (const VarDecl &G : Prog.Globals)
    N.In.push_back(EntryVars.at(G.Name));
  for (const VarDecl &D : P.Params)
    N.In.push_back(EntryVars.at(D.Name));
  for (const VarDecl &G : Prog.Globals)
    N.Out.push_back(
        Arena.freshConst(G.Ty, Prefix + ".out.v" + std::to_string(G.Name.id())));
  for (const VarDecl &D : P.Returns)
    N.Out.push_back(
        Arena.freshConst(D.Ty, Prefix + ".out.v" + std::to_string(D.Name.id())));

  // Paper mode pushes Fig. 8's clauses literally, trivially true ones too.
  auto PushClause = [&](TermRef Clause) {
    if (Paper || !Arena.isTrue(Clause))
      push(Clause);
  };

  // Lines 52–72, in label order (Paper) or topological order (Passified, so
  // a non-joining label's predecessor is walked first). Each label's
  // post-state is a term map over its pre-state: straight-line code
  // contributes no frame equalities unless Paper mode ties it to VS'[y].
  std::vector<LabelId> Order = Paper ? P.Labels : Prog.topoOrder(Q);
  for (LabelId Y : Order) {
    const CfgLabel &Lbl = Prog.label(Y);
    const CfgStmt &S = Lbl.Stmt;
    TermRef BS = N.BlockConst.at(Y);
    const VarTermMap &VY = N.VarsAt.at(Y);
    VarTermMap Out = VY;
    // A havoc or call output: VS'[y][v] in Paper mode, else a fresh constant
    // (an open edge's outputs are its havoc summary).
    auto Output = [&](Symbol V, const Type *Ty, const char *Kind) {
      if (Paper)
        return PostAt.at(Y).at(V);
      return Arena.freshConst(Ty, Prefix + ".L" + std::to_string(Y) + Kind +
                                      std::to_string(V.id()));
    };

    TermRef Guard = Arena.mkTrue();
    switch (S.Kind) {
    case CfgStmtKind::Assume:
      Guard = translateExpr(Arena, S.E, VY);
      break;
    case CfgStmtKind::Assign:
      Out[S.Target] = translateExpr(Arena, S.E, VY);
      break;
    case CfgStmtKind::Havoc:
      for (Symbol V : S.Vars)
        Out[V] = Output(V, P.typeOf(V), ".hv");
      break;
    case CfgStmtKind::Call: {
      // Lines 60–67: mint the open edge.
      EdgeId CId = static_cast<EdgeId>(Edges.size());
      VcEdge E;
      E.Src = NId;
      E.Callee = S.Callee;
      E.CallSite = Y;
      E.Control = BS;
      for (const VarDecl &G : Prog.Globals)
        E.In.push_back(VY.at(G.Name));
      for (const Expr *Arg : S.Args)
        E.In.push_back(translateExpr(Arena, Arg, VY));
      for (const VarDecl &G : Prog.Globals)
        E.Out.push_back(Out[G.Name] = Output(G.Name, G.Ty, ".co"));
      for (Symbol Lhs : S.Vars)
        E.Out.push_back(Out[Lhs] = Output(Lhs, P.typeOf(Lhs), ".co"));
      Edges.push_back(std::move(E));
      Open.push_back(CId);
      N.OutEdges.push_back(CId);
      break;
    }
    }

    // The post-state successors read: VS'[y] in Paper mode, else Out.
    const VarTermMap &Post = Paper ? PostAt.at(Y) : Out;
    if (Paper) {
      // Lines 53–68: BS[y] ⇒ guard ∧ VS'[y] = Out, with the assigned
      // variable first and then the frame equalities of every variable the
      // statement leaves alone (havoc and call outputs already are VS'[y]).
      bool Assign = S.Kind == CfgStmtKind::Assign;
      TermRef Update = Assign ? Arena.mkEq(Post.at(S.Target), Out.at(S.Target))
                              : Arena.mkTrue();
      TermRef Frame = Arena.mkTrue();
      for (const VarDecl &D : Scope) {
        TermRef V = Out.at(D.Name);
        if ((Assign && D.Name == S.Target) || V == Post.at(D.Name))
          continue;
        Frame = Arena.mkAnd(Frame, Arena.mkEq(Post.at(D.Name), V));
      }
      PushClause(
          Arena.mkImplies(BS, Arena.mkAnd(Guard, Arena.mkAnd(Update, Frame))));
    } else {
      PushClause(Arena.mkImplies(BS, Guard));
    }

    // Lines 69–72: successor clause.
    if (Lbl.Targets.empty()) {
      TermRef Eq = Arena.mkTrue();
      for (size_t I = 0; I < NumGlobals; ++I)
        Eq = Arena.mkAnd(Eq,
                         Arena.mkEq(Post.at(Prog.Globals[I].Name), N.Out[I]));
      for (size_t I = 0; I < P.Returns.size(); ++I)
        Eq = Arena.mkAnd(Eq, Arena.mkEq(Post.at(P.Returns[I].Name),
                                        N.Out[NumGlobals + I]));
      PushClause(Arena.mkImplies(BS, Eq));
    } else {
      TermRef Disj = Arena.mkFalse();
      for (LabelId X : Lbl.Targets) {
        TermRef Step = N.BlockConst.at(X);
        if (Joins(X)) {
          TermRef Eq = Arena.mkTrue();
          const VarTermMap &JoinVars = N.VarsAt.at(X);
          for (const VarDecl &D : Scope)
            Eq = Arena.mkAnd(
                Eq, Arena.mkEq(Post.at(D.Name), JoinVars.at(D.Name)));
          Step = Arena.mkAnd(Step, Eq);
        } else {
          N.VarsAt[X] = Post;
        }
        Disj = Arena.mkOr(Disj, Step);
      }
      PushClause(Arena.mkImplies(BS, Disj));
    }
  }
  return NId;
}

TermRef VcContext::bindEdge(EdgeId C, NodeId N) {
  VcEdge &E = Edges[C];
  assert(E.isOpen() && "edge already bound");
  const VcNode &Target = Nodes[N];
  assert(E.Callee == Target.Proc && "binding to an instance of the wrong "
                                    "procedure");
  assert(E.In.size() == Target.In.size() &&
         E.Out.size() == Target.Out.size() && "interface shape mismatch");

  E.Dest = N;
  Open.erase(std::find(Open.begin(), Open.end(), C));

  // Line 25: Control[c] ⇒ Control[n] ∧ In[c] = In[n] ∧ Out[c] = Out[n].
  TermRef Eq = Target.Control;
  for (size_t I = 0; I < E.In.size(); ++I)
    Eq = Arena.mkAnd(Eq, Arena.mkEq(E.In[I], Target.In[I]));
  for (size_t I = 0; I < E.Out.size(); ++I)
    Eq = Arena.mkAnd(Eq, Arena.mkEq(E.Out[I], Target.Out[I]));
  TermRef Clause = Arena.mkImplies(E.Control, Eq);
  push(Clause);
  return Clause;
}
