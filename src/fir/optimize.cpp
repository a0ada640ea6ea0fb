#include "fir/optimize.hpp"

#include <bit>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace mojave::fir {

namespace {

/// Fold a unop over a literal; nullopt when not foldable.
std::optional<Atom> fold_unop(Unop op, const Atom& a) {
  if (a.kind == Atom::Kind::kInt) {
    switch (op) {
      case Unop::kNeg:
        return Atom::integer(wrapping_neg(a.i));
      case Unop::kNot:
        return Atom::integer(a.i == 0 ? 1 : 0);
      case Unop::kBitNot:
        return Atom::integer(~a.i);
      case Unop::kFloatOfInt:
        return Atom::real(static_cast<double>(a.i));
      default:
        return std::nullopt;
    }
  }
  if (a.kind == Atom::Kind::kFloat) {
    switch (op) {
      case Unop::kFNeg:
        return Atom::real(-a.f);
      case Unop::kIntOfFloat:
        return Atom::integer(static_cast<std::int64_t>(a.f));
      default:
        return std::nullopt;
    }
  }
  return std::nullopt;
}

/// Fold a binop over literals with the interpreter's exact semantics.
/// Division/modulo by a literal zero are left alone: the trap happens at
/// run time, as the language defines. So is INT64_MIN / -1, which has no
/// int64 result (the hardware faults on it).
std::optional<Atom> fold_binop(Binop op, const Atom& a, const Atom& b) {
  if (a.kind == Atom::Kind::kInt && b.kind == Atom::Kind::kInt) {
    const std::int64_t x = a.i;
    const std::int64_t y = b.i;
    const bool no_quotient =
        y == 0 || (y == -1 && x == std::numeric_limits<std::int64_t>::min());
    switch (op) {
      case Binop::kAdd: return Atom::integer(wrapping_add(x, y));
      case Binop::kSub: return Atom::integer(wrapping_sub(x, y));
      case Binop::kMul: return Atom::integer(wrapping_mul(x, y));
      case Binop::kDiv:
        if (no_quotient) return std::nullopt;
        return Atom::integer(x / y);
      case Binop::kMod:
        if (no_quotient) return std::nullopt;
        return Atom::integer(x % y);
      case Binop::kAnd: return Atom::integer(x & y);
      case Binop::kOr: return Atom::integer(x | y);
      case Binop::kXor: return Atom::integer(x ^ y);
      case Binop::kShl: return Atom::integer(x << (y & 63));
      case Binop::kShr: return Atom::integer(x >> (y & 63));
      case Binop::kLt: return Atom::integer(x < y ? 1 : 0);
      case Binop::kLe: return Atom::integer(x <= y ? 1 : 0);
      case Binop::kGt: return Atom::integer(x > y ? 1 : 0);
      case Binop::kGe: return Atom::integer(x >= y ? 1 : 0);
      case Binop::kEq: return Atom::integer(x == y ? 1 : 0);
      case Binop::kNe: return Atom::integer(x != y ? 1 : 0);
      default: return std::nullopt;
    }
  }
  if (a.kind == Atom::Kind::kFloat && b.kind == Atom::Kind::kFloat) {
    const double x = a.f;
    const double y = b.f;
    switch (op) {
      case Binop::kFAdd: return Atom::real(x + y);
      case Binop::kFSub: return Atom::real(x - y);
      case Binop::kFMul: return Atom::real(x * y);
      case Binop::kFDiv: return Atom::real(x / y);
      case Binop::kFLt: return Atom::integer(x < y ? 1 : 0);
      case Binop::kFLe: return Atom::integer(x <= y ? 1 : 0);
      case Binop::kFGt: return Atom::integer(x > y ? 1 : 0);
      case Binop::kFGe: return Atom::integer(x >= y ? 1 : 0);
      case Binop::kFEq: return Atom::integer(x == y ? 1 : 0);
      case Binop::kFNe: return Atom::integer(x != y ? 1 : 0);
      default: return std::nullopt;
    }
  }
  return std::nullopt;
}

bool is_comparison(Binop op) {
  return (op >= Binop::kLt && op <= Binop::kNe) ||
         (op >= Binop::kFLt && op <= Binop::kFNe);
}

/// An atom as an ordered key: kind plus the bits of its payload (floats
/// by bit pattern, so -0.0 and 0.0 stay distinct).
using AtomKey = std::pair<Atom::Kind, std::uint64_t>;

AtomKey key_of(const Atom& a) {
  switch (a.kind) {
    case Atom::Kind::kInt:
      return {a.kind, static_cast<std::uint64_t>(a.i)};
    case Atom::Kind::kFloat:
      return {a.kind, std::bit_cast<std::uint64_t>(a.f)};
    case Atom::Kind::kVar:
      return {a.kind, a.var};
    case Atom::Kind::kFunRef:
      return {a.kind, a.fun};
    case Atom::Kind::kString:
      return {a.kind, a.string_id};
    default:
      return {a.kind, 0};
  }
}

/// A map whose changes can be undone back to a mark. Each `if` arm starts
/// from its prefix's entries without a copy of the table, so scoping costs
/// what the arm changed, not the table's size at every branch.
template <class K, class V>
class ScopedMap {
 public:
  [[nodiscard]] const V* find(const K& k) const {
    const auto it = map_.find(k);
    return it == map_.end() ? nullptr : &it->second;
  }

  void set(const K& k, V v) {
    const auto it = map_.find(k);
    if (it == map_.end()) {
      trail_.emplace_back(k, std::nullopt);
      map_.emplace(k, std::move(v));
    } else {
      trail_.emplace_back(k, std::move(it->second));
      it->second = std::move(v);
    }
  }

  void erase(const K& k) {
    const auto it = map_.find(k);
    if (it == map_.end()) return;
    trail_.emplace_back(k, std::move(it->second));
    map_.erase(it);
  }

  [[nodiscard]] std::size_t mark() const { return trail_.size(); }

  void clear() {
    map_.clear();
    trail_.clear();
  }

  void undo(std::size_t mark) {
    while (trail_.size() > mark) {
      auto& [k, old] = trail_.back();
      if (old) {
        map_.insert_or_assign(k, std::move(*old));
      } else {
        map_.erase(k);
      }
      trail_.pop_back();
    }
  }

 private:
  std::map<K, V> map_;
  std::vector<std::pair<K, std::optional<V>>> trail_;
};

bool binds_var(ExprKind k) {
  switch (k) {
    case ExprKind::kLetAtom:
    case ExprKind::kLetUnop:
    case ExprKind::kLetBinop:
    case ExprKind::kLetAllocTagged:
    case ExprKind::kLetAllocRaw:
    case ExprKind::kLetRead:
    case ExprKind::kLetRawLoad:
    case ExprKind::kLetRawLoadF:
    case ExprKind::kLetLen:
    case ExprKind::kLetPtrAdd:
    case ExprKind::kLetExternal:
      return true;
    default:
      return false;
  }
}

/// Static type kind of the variable a let binds.
TyKind bound_kind(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLetUnop:
      return e.unop == Unop::kFNeg || e.unop == Unop::kFloatOfInt
                 ? TyKind::kFloat
                 : TyKind::kInt;
    case ExprKind::kLetBinop:
      return binop_yields_int(e.binop) ? TyKind::kInt : TyKind::kFloat;
    case ExprKind::kLetAllocTagged:
    case ExprKind::kLetAllocRaw:
    case ExprKind::kLetPtrAdd:
      return TyKind::kPtr;
    case ExprKind::kLetRawLoad:
    case ExprKind::kLetLen:
      return TyKind::kInt;
    case ExprKind::kLetRawLoadF:
      return TyKind::kFloat;
    default:
      return e.bind_ty.kind;
  }
}

class FunctionOptimizer {
 public:
  explicit FunctionOptimizer(OptimizeStats& stats) : stats_(stats) {}

  /// One pass over `fn`; the tables start empty.
  void run(Function& fn) {
    vars_.assign(fn.num_vars, VarInfo{});
    for (std::uint32_t i = 0; i < fn.arity() && i < fn.num_vars; ++i) {
      vars_[i].binds = 1;
      vars_[i].kind = fn.param_tys[i].kind;
    }
    env_.clear();
    exprs_.clear();
    slots_.clear();
    heap_ = HeapEpoch{};
    scan(fn.body.get());
    forward(fn.body);
    std::set<VarId> used;
    backward(fn.body, used);
  }

 private:
  struct VarInfo {
    std::uint32_t binds = 0;  ///< bindings anywhere in the function
    TyKind kind = TyKind::kUnit;
    bool is_bool = false;  ///< bound by a comparison: always 0 or 1
  };

  /// (kind, op, a, b) of a unop/binop let.
  using ExprKey = std::tuple<ExprKind, std::uint8_t, AtomKey, AtomKey>;
  /// (base variable, offset) of a tagged read or write.
  using SlotKey = std::pair<VarId, AtomKey>;

  /// What a slot is known to hold: the result of an earlier read, or the
  /// value of an earlier literal-offset write. Function values are never
  /// tracked, so the kind is the whole static type.
  struct Slot {
    Atom value;
    TyKind kind = TyKind::kUnit;
    std::uint64_t stamp = 0;
    bool stored = false;
  };

  /// Which Slot entries heap writes have left valid. An entry stamped
  /// before `dead_before` is dead; one stamped in [dead_before, cut)
  /// survives only if it is a literal offset of `survivor`, the base of
  /// every write since `dead_before`.
  struct HeapEpoch {
    std::uint64_t dead_before = 0;
    std::uint64_t cut = 0;
    std::optional<VarId> survivor;
  };

  void scan(const Expr* e) {
    for (; e != nullptr; e = e->next.get()) {
      if (binds_var(e->kind) && e->bind < vars_.size()) {
        VarInfo& v = vars_[e->bind];
        ++v.binds;
        v.kind = bound_kind(*e);
        v.is_bool = e->kind == ExprKind::kLetBinop && is_comparison(e->binop);
      }
      if (e->kind == ExprKind::kIf) scan(e->els.get());
    }
  }

  /// Only atoms over variables bound exactly once may enter a table: an
  /// entry that mentions a rebound variable could outlive its value.
  [[nodiscard]] bool tracked(VarId v) const {
    return v < vars_.size() && vars_[v].binds == 1;
  }
  [[nodiscard]] bool tracked(const Atom& a) const {
    return a.kind != Atom::Kind::kVar || tracked(a.var);
  }

  /// Static type of a non-function atom.
  [[nodiscard]] std::optional<TyKind> kind_of(const Atom& a) const {
    switch (a.kind) {
      case Atom::Kind::kUnit:
        return TyKind::kUnit;
      case Atom::Kind::kInt:
        return TyKind::kInt;
      case Atom::Kind::kFloat:
        return TyKind::kFloat;
      case Atom::Kind::kNull:
      case Atom::Kind::kString:
        return TyKind::kPtr;
      case Atom::Kind::kVar:
        if (tracked(a.var) && vars_[a.var].kind != TyKind::kFun) {
          return vars_[a.var].kind;
        }
        return std::nullopt;
      default:
        return std::nullopt;
    }
  }

  void subst(Atom& a) {
    if (a.kind != Atom::Kind::kVar) return;
    if (const Atom* to = env_.find(a.var)) {
      a = *to;
      ++stats_.copies_propagated;
    }
  }

  void subst_all(Expr& e) {
    subst(e.a);
    subst(e.b);
    subst(e.c_atom);
    subst(e.fun);
    for (Atom& a : e.args) subst(a);
  }

  /// An earlier variable holding the value of this unop/binop let.
  std::optional<Atom> reuse_expr(const Expr& e) {
    if (!tracked(e.a) || !tracked(e.b)) return std::nullopt;
    if (e.kind == ExprKind::kLetBinop && e.binop == Binop::kNe) {
      // `t != 0` of a comparison t is t itself.
      for (const auto& [t, z] : {std::pair{e.a, e.b}, std::pair{e.b, e.a}}) {
        if (t.kind == Atom::Kind::kVar && vars_[t.var].is_bool &&
            z.kind == Atom::Kind::kInt && z.i == 0) {
          return t;
        }
      }
    }
    const std::uint8_t op = static_cast<std::uint8_t>(
        e.kind == ExprKind::kLetUnop ? static_cast<int>(e.unop)
                                     : static_cast<int>(e.binop));
    const ExprKey key{e.kind, op, key_of(e.a), key_of(e.b)};
    if (const VarId* prev = exprs_.find(key)) return Atom::variable(*prev);
    exprs_.set(key, e.bind);
    return std::nullopt;
  }

  [[nodiscard]] bool live(const SlotKey& key, const Slot& s) const {
    if (s.stamp < heap_.dead_before) return false;
    return s.stamp >= heap_.cut ||
           (key.first == heap_.survivor &&
            key.second.first == Atom::Kind::kInt);
  }

  /// The value a tagged read would produce, if an earlier read or write of
  /// the same slot on this path left it known at the read's type.
  std::optional<Atom> reuse_read(const Expr& e) {
    const TyKind kind = e.bind_ty.kind;
    if (e.a.kind != Atom::Kind::kVar || !tracked(e.a) || !tracked(e.b) ||
        kind == TyKind::kFun) {
      return std::nullopt;
    }
    const SlotKey key{e.a.var, key_of(e.b)};
    if (const Slot* s = slots_.find(key);
        s != nullptr && live(key, *s) && s->kind == kind) {
      ++(s->stored ? stats_.stores_forwarded : stats_.reads_eliminated);
      return s->value;
    }
    slots_.set(key, Slot{Atom::variable(e.bind), kind, ++stamp_, false});
    return std::nullopt;
  }

  /// A write to a literal offset of a variable keeps only that variable's
  /// other literal slots (any other variable, or a computed offset, may
  /// alias the written slot) and records the stored value.
  void store(const Expr& e) {
    if (e.a.kind != Atom::Kind::kVar || !tracked(e.a) ||
        e.b.kind != Atom::Kind::kInt) {
      clobber();
      return;
    }
    const VarId base = e.a.var;
    const std::uint64_t t = ++stamp_;
    if (heap_.survivor != base) {
      heap_.dead_before = heap_.cut;
      heap_.survivor = base;
    }
    heap_.cut = t;
    const SlotKey key{base, key_of(e.b)};
    if (const auto kind = kind_of(e.c_atom)) {
      slots_.set(key, Slot{e.c_atom, *kind, t, true});
    } else {
      slots_.erase(key);
    }
  }

  /// Forget every known slot: the heap may have changed anywhere.
  void clobber() {
    heap_.dead_before = heap_.cut = ++stamp_;
    heap_.survivor.reset();
  }

  /// Forward pass: propagate copies & constants, fold, reuse available
  /// expressions and slots, splice branches.
  void forward(ExprPtr& head) {
    ExprPtr* slot = &head;
    while (*slot != nullptr) {
      Expr& e = **slot;
      subst_all(e);
      // A let of a variable bound more than once is never replaced.
      const bool single = binds_var(e.kind) && tracked(e.bind);
      // Set when the let's value is already at hand: the node is dropped
      // and its variable replaced by this atom.
      std::optional<Atom> known;
      switch (e.kind) {
        case ExprKind::kLetAtom:
          if (single && tracked(e.a)) {
            known = e.a;
            ++stats_.copies_propagated;
          }
          break;
        case ExprKind::kLetUnop:
          if (!single) break;
          if ((known = fold_unop(e.unop, e.a))) {
            ++stats_.constants_folded;
          } else if ((known = reuse_expr(e))) {
            ++stats_.exprs_reused;
          }
          break;
        case ExprKind::kLetBinop:
          if (!single) break;
          if ((known = fold_binop(e.binop, e.a, e.b))) {
            ++stats_.constants_folded;
          } else if ((known = reuse_expr(e))) {
            ++stats_.exprs_reused;
          }
          break;
        case ExprKind::kLetRead:
          if (single) known = reuse_read(e);
          break;
        case ExprKind::kWrite:
          store(e);
          break;
        case ExprKind::kRawStore:
        case ExprKind::kRawStoreF:
        case ExprKind::kLetExternal:  // msg_recv writes through its args
          clobber();
          break;
        case ExprKind::kIf: {
          if (e.a.kind == Atom::Kind::kInt) {
            // Splice in the taken arm and keep optimizing from here.
            ExprPtr taken =
                e.a.i != 0 ? std::move(e.next) : std::move(e.els);
            *slot = std::move(taken);
            ++stats_.branches_folded;
            continue;
          }
          const std::size_t env_mark = env_.mark();
          const std::size_t exprs_mark = exprs_.mark();
          const std::size_t slots_mark = slots_.mark();
          const HeapEpoch heap = heap_;
          for (ExprPtr* arm : {&e.next, &e.els}) {
            forward(*arm);
            env_.undo(env_mark);
            exprs_.undo(exprs_mark);
            slots_.undo(slots_mark);
            heap_ = heap;
          }
          return;
        }
        default:
          break;
      }
      if (known) {
        env_.set(e.bind, *known);
        ExprPtr next = std::move(e.next);
        *slot = std::move(next);
        continue;
      }
      slot = &e.next;
    }
  }

  /// Backward pass: drop pure, unused lets; record every used variable.
  void backward(ExprPtr& head, std::set<VarId>& used) {
    if (head == nullptr) return;
    Expr& e = *head;
    if (e.kind == ExprKind::kIf) {
      backward(e.next, used);
      backward(e.els, used);
      mark(e, used);
      return;
    }
    backward(e.next, used);
    const bool pure_let =
        (e.kind == ExprKind::kLetUnop ||
         (e.kind == ExprKind::kLetBinop && e.binop != Binop::kDiv &&
          e.binop != Binop::kMod) ||
         e.kind == ExprKind::kLetAtom);
    if (pure_let && !used.contains(e.bind)) {
      ExprPtr next = std::move(e.next);
      head = std::move(next);
      ++stats_.dead_lets_removed;
      return;
    }
    mark(e, used);
  }

  static void mark_atom(const Atom& a, std::set<VarId>& used) {
    if (a.kind == Atom::Kind::kVar) used.insert(a.var);
  }

  static void mark(const Expr& e, std::set<VarId>& used) {
    mark_atom(e.a, used);
    mark_atom(e.b, used);
    mark_atom(e.c_atom, used);
    mark_atom(e.fun, used);
    for (const Atom& a : e.args) mark_atom(a, used);
  }

  OptimizeStats& stats_;
  std::vector<VarInfo> vars_;
  ScopedMap<VarId, Atom> env_;      ///< copies and constants to substitute
  ScopedMap<ExprKey, VarId> exprs_; ///< available unop/binop results
  ScopedMap<SlotKey, Slot> slots_;  ///< available tagged-slot contents
  HeapEpoch heap_;
  std::uint64_t stamp_ = 0;
};

}  // namespace

OptimizeStats optimize(Program& program) {
  OptimizeStats stats;
  FunctionOptimizer optimizer(stats);
  for (Function& fn : program.functions) {
    // Iterate to a (bounded) fixpoint: folding exposes new copies, which
    // expose new folds.
    for (int pass = 0; pass < 8; ++pass) {
      OptimizeStats before = stats;
      optimizer.run(fn);
      if (stats.total() == before.total()) break;
    }
  }
  return stats;
}

}  // namespace mojave::fir
