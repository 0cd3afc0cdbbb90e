//===- SdvGen.cpp ---------------------------------------------------------===//

#include "workload/SdvGen.h"

#include "support/Rng.h"

using namespace rmt;

namespace {

class DriverBuilder {
public:
  DriverBuilder(AstContext &Ctx, const SdvParams &P)
      : Ctx(Ctx), P(P), Gen(P.Seed) {}

  Program run() {
    Lock = Ctx.sym("lock");
    Irql = Ctx.sym("irql");
    State = Ctx.sym("state");
    Prog.Globals.push_back({Lock, Ctx.boolType(), SrcLoc()});
    Prog.Globals.push_back({Irql, Ctx.intType(), SrcLoc()});
    Prog.Globals.push_back({State, Ctx.intType(), SrcLoc()});

    buildRule();
    buildUtils();
    buildHandlers();
    buildHarness();
    return std::move(Prog);
  }

private:
  const Expr *lockRef() { return Ctx.tVar(Lock, Ctx.boolType()); }
  const Expr *irqlRef() { return Ctx.tVar(Irql, Ctx.intType()); }
  const Expr *stateRef() { return Ctx.tVar(State, Ctx.intType()); }

  /// The instrumented rule: spinlock discipline, as SDV's
  /// SpinLock/DoubleKeAcquireSpinLock rules check it.
  void buildRule() {
    {
      Procedure Acq;
      Acq.Name = Ctx.sym("KeAcquireLock");
      Acq.Body.push_back(
          Ctx.assertStmt(Ctx.tUnary(UnOp::Not, lockRef())));
      Acq.Body.push_back(Ctx.assign(Lock, Ctx.tBool(true)));
      Acq.Body.push_back(Ctx.assign(
          Irql, Ctx.tBinary(BinOp::Add, irqlRef(), Ctx.tInt(1))));
      Prog.Procedures.push_back(std::move(Acq));
    }
    {
      Procedure Rel;
      Rel.Name = Ctx.sym("KeReleaseLock");
      Rel.Body.push_back(Ctx.assertStmt(lockRef()));
      Rel.Body.push_back(Ctx.assign(Lock, Ctx.tBool(false)));
      Rel.Body.push_back(Ctx.assign(
          Irql, Ctx.tBinary(BinOp::Sub, irqlRef(), Ctx.tInt(1))));
      Prog.Procedures.push_back(std::move(Rel));
    }
  }

  Symbol utilName(unsigned Layer, unsigned K) {
    return Ctx.sym("util_" + std::to_string(Layer) + "_" +
                   std::to_string(K));
  }

  /// `if (*) call a(); else call b();` — the disjoint-call pattern.
  const Stmt *branchCalls(Symbol A, Symbol B) {
    return Ctx.ifStmt(nullptr, {Ctx.call(A, {}, {})},
                      {Ctx.call(B, {}, {})});
  }

  const Stmt *bumpState(int64_t Amount) {
    return Ctx.assign(State,
                      Ctx.tBinary(BinOp::Add, stateRef(), Ctx.tInt(Amount)));
  }

  /// Compiled-driver idiom: the status value threads through a chain of
  /// temporaries before reaching the state update (`s0 := state; s1 := s0;
  /// state := s1 + k`). Semantically the same as bumpState — passified pVC
  /// binds each copy to the term it copies rather than to a fresh constant.
  void pushStatusChain(Procedure &U, int64_t Amount) {
    unsigned Len = static_cast<unsigned>(Gen.range(2, 3));
    Symbol Prev;
    for (unsigned I = 0; I < Len; ++I) {
      Symbol S = Ctx.sym("status" + std::to_string(I));
      U.Locals.push_back({S, Ctx.intType(), SrcLoc()});
      U.Body.push_back(Ctx.assign(
          S, I == 0 ? stateRef() : Ctx.tVar(Prev, Ctx.intType())));
      Prev = S;
    }
    U.Body.push_back(Ctx.assign(
        State, Ctx.tBinary(BinOp::Add, Ctx.tVar(Prev, Ctx.intType()),
                           Ctx.tInt(Amount))));
  }

  /// Layered utility DAG. Layer L utilities call layer L+1 utilities through
  /// both arms of a nondeterministic branch: a full tree unrolling doubles
  /// per layer while the DAG stays linear in depth.
  void buildUtils() {
    for (unsigned Layer = 0; Layer < P.UtilDepth; ++Layer) {
      for (unsigned K = 0; K < P.NumUtils; ++K) {
        Procedure U;
        U.Name = utilName(Layer, K);
        bool UsesLock = Gen.chance(1, 3);
        if (UsesLock) {
          U.Body.push_back(Ctx.call(Ctx.sym("KeAcquireLock"), {}, {}));
          U.Body.push_back(bumpState(Gen.range(0, 3)));
          U.Body.push_back(Ctx.call(Ctx.sym("KeReleaseLock"), {}, {}));
        } else {
          pushStatusChain(U, Gen.range(0, 3));
        }
        // The monotone state invariant the rule checks everywhere.
        if (Gen.chance(1, 2))
          U.Body.push_back(Ctx.assertStmt(
              Ctx.tBinary(BinOp::Ge, stateRef(), Ctx.tInt(0))));
        if (Layer + 1 < P.UtilDepth) {
          Symbol A = utilName(Layer + 1, Gen.below(P.NumUtils));
          Symbol B = utilName(Layer + 1, Gen.below(P.NumUtils));
          U.Body.push_back(branchCalls(A, B));
        }
        Prog.Procedures.push_back(std::move(U));
      }
    }
  }

  void buildHandlers() {
    // Place the seeded bug on one handler, behind an opcode test.
    unsigned BugHandler = P.InjectBug
                              ? static_cast<unsigned>(Gen.below(P.NumHandlers))
                              : P.NumHandlers;
    unsigned BugKind = static_cast<unsigned>(Gen.below(3));

    for (unsigned H = 0; H < P.NumHandlers; ++H) {
      Procedure Handler;
      Handler.Name = Ctx.sym("handler_" + std::to_string(H));
      Symbol Opcode = Ctx.sym("opcode");
      Handler.Params.push_back({Opcode, Ctx.intType(), SrcLoc()});
      const Expr *OpRef = Ctx.tVar(Opcode, Ctx.intType());

      // Opcode validation at entry, re-checked after the utility calls — the
      // inlined-macro pattern compiled drivers are full of. The calls never
      // touch the opcode, so the re-check is entailed on every path and
      // assume-redundancy elimination drops it.
      const Expr *OpValid = Ctx.tBinary(BinOp::Ge, OpRef, Ctx.tInt(0));
      Handler.Body.push_back(Ctx.assume(OpValid));
      for (unsigned C = 0; C < P.CallsPerHandler; ++C) {
        Symbol A = utilName(0, Gen.below(P.NumUtils));
        Symbol B = utilName(0, Gen.below(P.NumUtils));
        Handler.Body.push_back(branchCalls(A, B));
        Handler.Body.push_back(Ctx.assume(OpValid));
      }
      Handler.Body.push_back(
          Ctx.assertStmt(Ctx.tUnary(UnOp::Not, lockRef())));

      if (H == BugHandler) {
        // The violation hides behind an opcode window inside one arm.
        std::vector<const Stmt *> BugBlock;
        switch (BugKind) {
        case 0:
          // Double acquire: take the lock, then enter the utility layer
          // (some utility acquires again).
          BugBlock.push_back(Ctx.call(Ctx.sym("KeAcquireLock"), {}, {}));
          BugBlock.push_back(
              Ctx.call(utilName(0, Gen.below(P.NumUtils)), {}, {}));
          break;
        case 1:
          // Leaked lock: acquire without release; the harness's final
          // `assert !lock` fires.
          BugBlock.push_back(Ctx.call(Ctx.sym("KeAcquireLock"), {}, {}));
          break;
        default:
          // IRQL imbalance: raise without lowering; the harness's final
          // `assert irql == 0` fires.
          BugBlock.push_back(Ctx.assign(
              Irql, Ctx.tBinary(BinOp::Add, irqlRef(), Ctx.tInt(1))));
          break;
        }
        int64_t Window = Gen.range(2, 9);
        Handler.Body.push_back(Ctx.ifStmt(
            Ctx.tBinary(BinOp::Eq,
                        Ctx.tBinary(BinOp::Mod, OpRef, Ctx.tInt(Window + 1)),
                        Ctx.tInt(Window)),
            std::move(BugBlock), {}));
      }
      Prog.Procedures.push_back(std::move(Handler));
    }
  }

  /// The SDV harness: initialize the rule state, dispatch a havoc'd request
  /// through the switch, check the rule's exit conditions.
  void buildHarness() {
    Procedure Main;
    Main.Name = Ctx.sym("main");
    Symbol Req = Ctx.sym("req");
    Symbol Op = Ctx.sym("op");
    Main.Locals.push_back({Req, Ctx.intType(), SrcLoc()});
    Main.Locals.push_back({Op, Ctx.intType(), SrcLoc()});
    const Expr *ReqRef = Ctx.tVar(Req, Ctx.intType());
    const Expr *OpRef = Ctx.tVar(Op, Ctx.intType());

    Main.Body.push_back(Ctx.assign(Lock, Ctx.tBool(false)));
    Main.Body.push_back(Ctx.assign(Irql, Ctx.tInt(0)));
    Main.Body.push_back(Ctx.assign(State, Ctx.tInt(0)));
    // The request code selects the handler; the operand travels with it and
    // stays unconstrained (the driver's input buffer).
    Main.Body.push_back(Ctx.havoc({Req, Op}));

    // Dispatch switch: if (req == 0) handler_0(op); else if ...
    const Stmt *Dispatch = Ctx.call(
        Ctx.sym("handler_" + std::to_string(P.NumHandlers - 1)), {OpRef},
        {});
    for (unsigned H = P.NumHandlers - 1; H-- > 0;) {
      Dispatch = Ctx.ifStmt(
          Ctx.tBinary(BinOp::Eq, ReqRef, Ctx.tInt(H)),
          {Ctx.call(Ctx.sym("handler_" + std::to_string(H)), {OpRef}, {})},
          {Dispatch});
    }
    Main.Body.push_back(Dispatch);

    // The rule's exit conditions.
    Main.Body.push_back(
        Ctx.assertStmt(Ctx.tUnary(UnOp::Not, lockRef())));
    Main.Body.push_back(Ctx.assertStmt(
        Ctx.tBinary(BinOp::Eq, irqlRef(), Ctx.tInt(0))));
    Prog.Procedures.push_back(std::move(Main));
  }

  AstContext &Ctx;
  const SdvParams &P;
  Rng Gen;
  Program Prog;
  Symbol Lock, Irql, State;
};

} // namespace

Program rmt::makeSdvProgram(AstContext &Ctx, const SdvParams &Params) {
  DriverBuilder B(Ctx, Params);
  return B.run();
}

std::vector<SdvInstance> rmt::makeSdvCorpus(uint64_t Seed, unsigned Count,
                                            unsigned BugFraction) {
  Rng Gen(Seed);
  std::vector<SdvInstance> Corpus;
  Corpus.reserve(Count);
  for (unsigned I = 0; I < Count; ++I) {
    SdvParams P;
    P.Seed = Gen.next();
    P.NumHandlers = 3 + static_cast<unsigned>(Gen.below(5));
    P.NumUtils = 3 + static_cast<unsigned>(Gen.below(6));
    P.UtilDepth = 3 + static_cast<unsigned>(Gen.below(5));
    P.CallsPerHandler = 2 + static_cast<unsigned>(Gen.below(3));
    P.InjectBug = Gen.chance(BugFraction, 256);
    SdvInstance Inst;
    Inst.Name = "drv" + std::to_string(I) + (P.InjectBug ? "_bug" : "_safe");
    Inst.Params = P;
    Corpus.push_back(std::move(Inst));
  }
  return Corpus;
}
