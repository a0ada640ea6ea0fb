// FIR optimization passes.
//
// MCC positions the FIR as the place where analysis and transformation
// happen ("MCC provides an active test bed for research", Section 3; the
// FIR "could be used to verify the correctness of the programs"). This
// module implements the classical safe passes over the CPS representation:
//
//   * copy propagation   — `let x = a` binds are substituted away;
//   * constant folding   — unops/binops over literals are evaluated at
//     compile time with exactly the interpreter's semantics (int add, sub,
//     mul and neg wrap; division and modulo by a literal zero are NOT
//     folded: the runtime trap is the program's defined behaviour);
//   * branch folding     — `if` over a literal condition is replaced by
//     the taken arm;
//   * available-expression CSE — a unop/binop whose (op, operands) is
//     already bound on the current path becomes a copy of that variable.
//     Trapping div/mod are included: the earlier one would have trapped.
//     `let nz = t != 0` where t is bound by a comparison (0 or 1) becomes
//     a copy of t;
//   * redundant read elimination — a tagged `read(p, o) : ty` whose
//     (p, o, ty) is already available on the path reuses the earlier
//     result;
//   * store-to-load forwarding — after `write(p, k) := v` with a literal
//     k, `read(p, k) : ty` becomes v, but only when v's static type is ty
//     (otherwise the read stays and traps as before);
//   * dead-let elimination — pure, unused bindings are dropped. Heap
//     reads, allocations, and anything that can trap stay put.
//
// Availability is per path: both arms of an `if` inherit the prefix's
// tables (scoped by an undo trail, not copied), and nothing flows across
// functions or past a terminator. No heap write is ever removed, so every
// speculate, migrate and deopt point sees exactly the heap the
// unoptimized program builds. Known slot contents are killed as follows:
//
//   * `write(p, k)` with a literal k keeps only p's other literal slots.
//     Any other variable may hold the same pointer, and ptr_add derives
//     aliases, so their slots go;
//   * any other write — a computed offset, a non-variable base, a raw
//     store — and every external call (msg_recv writes through its
//     pointer argument) kill every known slot;
//   * allocation kills nothing; raw loads and block_size are not tracked.
//
// A variable bound more than once in a function (ill-formed FIR, which
// the typechecker rejects) never enters a table and is never substituted.
//
// Passes iterate to a fixpoint (bounded). The result always re-typechecks,
// and the VM must produce identical observable behaviour — properties the
// test suite enforces on randomized programs.
#pragma once

#include "fir/ir.hpp"

namespace mojave::fir {

struct OptimizeStats {
  std::uint64_t constants_folded = 0;
  std::uint64_t copies_propagated = 0;
  std::uint64_t branches_folded = 0;
  std::uint64_t dead_lets_removed = 0;
  /// Unop/binop lets replaced by an earlier equal one (and `t != 0`
  /// tests of a comparison t).
  std::uint64_t exprs_reused = 0;
  /// Tagged reads replaced by an earlier read of the same slot.
  std::uint64_t reads_eliminated = 0;
  /// Tagged reads replaced by the value a write stored in the slot.
  std::uint64_t stores_forwarded = 0;

  [[nodiscard]] std::uint64_t total() const {
    return constants_folded + copies_propagated + branches_folded +
           dead_lets_removed + exprs_reused + reads_eliminated +
           stores_forwarded;
  }
};

/// Optimize in place; returns what was done.
OptimizeStats optimize(Program& program);

}  // namespace mojave::fir
