//===- Transforms.h - Bounding and instrumentation pipeline -----*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST-to-AST transforms that turn an arbitrary checked program into a
/// *hierarchical* reachability instance (paper Section 1: "once loops have
/// been unrolled and recursion unfolded up to a bound, the resulting program
/// is hierarchical"):
///
///  0. reachability        — only the procedures the entry reaches in the
///                           call graph are kept, in declaration order.
///                           Reachability is asked of the root (Def. 1), so
///                           a procedure it never calls cannot change the
///                           verdict; steps 1-3 run on what is left.
///  1. unrollLoops(R)      — every `while` becomes R nested guarded copies;
///                           a deterministic guard still true after R
///                           iterations blocks (assume false), so bounding is
///                           an under-approximation, as in Corral/CBMC.
///  2. unfoldRecursion(R)  — procedures in call-graph SCCs are cloned to
///                           depth R; deeper recursive calls block.
///  3. instrumentAsserts   — compiles assertion checking to the paper's
///                           reachability problem (Def. 1) with an error-bit
///                           global: `assert e` sets `$err` and bails to the
///                           procedure exit; every call is followed by an
///                           `$err` bail-out check; the root procedure clears
///                           `$err` on entry. The query becomes "is there a
///                           terminating execution of the root with $err".
///
/// prepareBounded() composes all four.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_TRANSFORM_TRANSFORMS_H
#define RMT_TRANSFORM_TRANSFORMS_H

#include "ast/AstContext.h"
#include "ast/Stmt.h"

namespace rmt {

/// Rewrites every `while` into \p Bound nested `if`s. Programs without loops
/// are returned unchanged (structurally shared).
Program unrollLoops(AstContext &Ctx, const Program &Prog, unsigned Bound);

/// Clones every procedure that participates in a call-graph cycle into
/// \p Bound depth-indexed copies (`p`, `p@2`, ..., `p@Bound`); recursive
/// calls past the bound become `assume false`. Acyclic programs are returned
/// unchanged. The bound counts frames of the same SCC on one call chain.
Program unfoldRecursion(AstContext &Ctx, const Program &Prog, unsigned Bound);

/// A ready-to-lower reachability instance: the result of assertion
/// instrumentation.
struct BoundedInstance {
  Program Prog;
  /// The error-bit global ($err).
  Symbol ErrVar;
  /// Entry procedure (same name as requested).
  Symbol Entry;
  /// Number of assert statements instrumented.
  unsigned NumAsserts = 0;
  /// Declared procedures prepareBounded() dropped because the entry never
  /// calls them (0 from instrumentAsserts, which keeps every procedure).
  unsigned NumProcsUnreached = 0;
};

/// Error-bit instrumentation (see file comment). \p Entry must name a
/// procedure of \p Prog; it must not be called from within the program.
BoundedInstance instrumentAsserts(AstContext &Ctx, const Program &Prog,
                                  Symbol Entry);

/// Drops the procedures \p Entry does not reach, then unrollLoops(R) ∘
/// unfoldRecursion(R) ∘ instrumentAsserts. When \p Entry reaches every
/// procedure, \p Prog is bounded as is, with no copy.
BoundedInstance prepareBounded(AstContext &Ctx, const Program &Prog,
                               Symbol Entry, unsigned Bound);

} // namespace rmt

#endif // RMT_TRANSFORM_TRANSFORMS_H
