// Optimizer tests: each pass individually, re-typechecking after
// optimization, and the equivalence property — an optimized program must
// behave identically to the original, on hand-written MojC programs and
// on randomized builder programs alike.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "core/engine.hpp"
#include "fir/builder.hpp"
#include "fir/optimize.hpp"
#include "fir/printer.hpp"
#include "fir/typecheck.hpp"
#include "frontend/compile.hpp"
#include "native/arch.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "vm/process.hpp"

namespace {

using namespace mojave;
using fir::Atom;
using fir::Binop;
using fir::FunctionBuilder;
using fir::Program;
using fir::ProgramBuilder;
using fir::Type;
using fir::Unop;

std::size_t count_exprs(const fir::Expr* e) {
  std::size_t n = 0;
  for (; e != nullptr; e = e->next.get()) {
    ++n;
    if (e->kind == fir::ExprKind::kIf) return n + count_exprs(e->els.get()) +
                                              count_exprs(e->next.get()) - 1;
  }
  return n;
}

std::size_t program_size(const Program& p) {
  std::size_t n = 0;
  for (const auto& fn : p.functions) n += count_exprs(fn.body.get());
  return n;
}

TEST(Optimize, FoldsConstantArithmetic) {
  ProgramBuilder pb("fold");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto a = fb.let_binop("a", Binop::kAdd, Atom::integer(2), Atom::integer(3));
    auto b = fb.let_binop("b", Binop::kMul, fb.v(a), Atom::integer(4));
    auto c = fb.let_unop("c", Unop::kNeg, fb.v(b));
    fb.halt(fb.v(c));
  }
  Program p = pb.take("main");
  const auto stats = fir::optimize(p);
  EXPECT_GE(stats.constants_folded, 3u);
  fir::typecheck(p);
  // Everything folded: the body is a single halt of the literal -20.
  EXPECT_EQ(p.functions[0].body->kind, fir::ExprKind::kHalt);
  EXPECT_EQ(p.functions[0].body->a.i, -20);
  vm::Process proc(std::move(p));
  EXPECT_EQ(proc.run().exit_code, -20);
}

TEST(Optimize, DoesNotFoldDivisionByLiteralZero) {
  ProgramBuilder pb("divzero");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto a = fb.let_binop("a", Binop::kDiv, Atom::integer(1), Atom::integer(0));
    fb.halt(fb.v(a));
  }
  Program p = pb.take("main");
  (void)fir::optimize(p);
  fir::typecheck(p);
  // The trap is the program's behaviour; it must survive optimization.
  vm::Process proc(std::move(p));
  EXPECT_THROW((void)proc.run(), SafetyError);
}

TEST(Optimize, FoldsBranchesOnLiterals) {
  ProgramBuilder pb("branch");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto cond =
        fb.let_binop("cond", Binop::kLt, Atom::integer(3), Atom::integer(5));
    fb.branch(fb.v(cond), [](auto& t) { t.halt(Atom::integer(1)); },
              [](auto& e) { e.halt(Atom::integer(2)); });
  }
  Program p = pb.take("main");
  const auto stats = fir::optimize(p);
  EXPECT_EQ(stats.branches_folded, 1u);
  EXPECT_EQ(p.functions[0].body->kind, fir::ExprKind::kHalt);
  EXPECT_EQ(p.functions[0].body->a.i, 1);
}

TEST(Optimize, RemovesDeadPureLets) {
  ProgramBuilder pb("dead");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto x = fb.let_atom("x", Type::integer(), Atom::integer(5));
    // Not foldable (operand is a parameter-like unknown)? Use an alloc to
    // create an unknown, then dead arithmetic on a live value.
    auto buf = fb.let_alloc("buf", Atom::integer(1), Atom::integer(3));
    auto live = fb.let_read("live", Type::integer(), fb.v(buf),
                            Atom::integer(0));
    auto dead = fb.let_binop("dead", Binop::kAdd, fb.v(live), fb.v(x));
    (void)dead;  // never used
    fb.halt(fb.v(live));
  }
  Program p = pb.take("main");
  const std::size_t before = program_size(p);
  const auto stats = fir::optimize(p);
  EXPECT_GE(stats.dead_lets_removed, 1u);
  EXPECT_LT(program_size(p), before);
  fir::typecheck(p);
  vm::Process proc(std::move(p));
  EXPECT_EQ(proc.run().exit_code, 3);
}

TEST(Optimize, KeepsEffectfulOperations) {
  // Allocation, writes, reads, externals, speculation: none may vanish
  // even when their results are unused.
  ProgramBuilder pb("effects");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto u = fb.let_external("u", Type::unit(), "print_string",
                             {pb.str("kept\n")});
    (void)u;
    auto buf = fb.let_alloc("buf", Atom::integer(2), Atom::integer(0));
    fb.write(fb.v(buf), Atom::integer(0), Atom::integer(1));
    auto r = fb.let_read("r", Type::integer(), fb.v(buf), Atom::integer(0));
    (void)r;  // a read can trap; it stays even if unused
    fb.halt(Atom::integer(0));
  }
  Program p = pb.take("main");
  (void)fir::optimize(p);
  std::ostringstream out;
  vm::ProcessConfig cfg;
  cfg.output = &out;
  vm::Process proc(std::move(p), cfg);
  EXPECT_EQ(proc.run().exit_code, 0);
  EXPECT_EQ(out.str(), "kept\n");
}

std::int64_t run_program(Program p, std::string* output = nullptr) {
  std::ostringstream out;
  vm::ProcessConfig cfg;
  cfg.output = &out;
  cfg.max_instructions = 10'000'000;
  vm::Process proc(std::move(p), cfg);
  const auto r = proc.run();
  EXPECT_EQ(r.kind, vm::RunResult::Kind::kHalted);
  if (output) *output = out.str();
  return r.exit_code;
}

TEST(Optimize, MojcProgramsBehaveIdentically) {
  const char* sources[] = {
      "int main() { int a = 3; int b = a * 7 + 2; return b - a; }",
      "int main() { ptr x = alloc(4); int i = 0;"
      "  while (i < 4) { x[i] = i * i; i = i + 1; }"
      "  return x[0] + x[1] + x[2] + x[3]; }",
      "int f(int n) { if (n < 2) { return n; } int a = f(n-1);"
      "  int b = f(n-2); return a + b; }"
      "int main() { return f(10); }",
      "int main() { ptr a = alloc(1); a[0] = 5; int id = speculate();"
      "  if (id > 0) { a[0] = 9; abort(id); } return a[0] * 10 + id; }",
  };
  for (const char* src : sources) {
    Program plain = frontend::compile_source("plain", src);
    Program opt = fir::clone_program(plain);
    (void)fir::optimize(opt);
    fir::typecheck(opt);
    std::string out_plain;
    std::string out_opt;
    const auto a = run_program(std::move(plain), &out_plain);
    const auto b = run_program(std::move(opt), &out_opt);
    EXPECT_EQ(a, b) << src;
    EXPECT_EQ(out_plain, out_opt) << src;
  }
}

TEST(Optimize, FoldsOverflowingIntArithmeticLikeTheInterpreter) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  struct Case {
    bool unary;
    Binop op;
    std::int64_t x, y;
  };
  const Case cases[] = {{false, Binop::kAdd, kMax, 1},
                        {false, Binop::kMul, kMin, -1},
                        {true, Binop::kAdd, kMin, 0},  // -INT64_MIN
                        {false, Binop::kSub, kMin, 1}};
  for (const Case& c : cases) {
    ProgramBuilder pb("wrap");
    auto main_id = pb.declare("main", {});
    {
      auto fb = pb.define(main_id, {});
      const auto r =
          c.unary ? fb.let_unop("r", Unop::kNeg, Atom::integer(c.x))
                  : fb.let_binop("r", c.op, Atom::integer(c.x),
                                 Atom::integer(c.y));
      fb.halt(fb.v(r));
    }
    Program plain = pb.take("main");
    Program opt = fir::clone_program(plain);
    EXPECT_EQ(fir::optimize(opt).constants_folded, 1u);
    ASSERT_EQ(opt.functions[0].body->kind, fir::ExprKind::kHalt);
    const std::int64_t folded = opt.functions[0].body->a.i;
    // The interpreter computes the same operation at run time.
    EXPECT_EQ(run_program(std::move(plain)), folded) << c.x;
    EXPECT_EQ(folded, c.op == Binop::kSub ? kMax : kMin) << c.x;
  }
  // INT64_MIN / -1 has no int64 quotient: like / 0, it is left to run time.
  for (const Binop op : {Binop::kDiv, Binop::kMod}) {
    ProgramBuilder pb("nofold");
    auto main_id = pb.declare("main", {});
    {
      auto fb = pb.define(main_id, {});
      auto r = fb.let_binop("r", op, Atom::integer(kMin), Atom::integer(-1));
      fb.halt(fb.v(r));
    }
    Program p = pb.take("main");
    EXPECT_EQ(fir::optimize(p).constants_folded, 0u);
  }
}

/// Optimize, re-typecheck and run `p` with the external `scribble(ptr)`,
/// which writes 42 into slot 0 of its argument.
std::int64_t run_optimized(Program p, fir::OptimizeStats* stats = nullptr,
                           std::ostream* output = nullptr) {
  const auto s = fir::optimize(p);
  if (stats != nullptr) *stats = s;
  fir::typecheck(p);
  std::ostringstream discard;
  vm::ProcessConfig cfg;
  cfg.output = output != nullptr ? output : &discard;
  vm::Process proc(std::move(p), cfg);
  proc.vm().register_external(
      "scribble",
      [](vm::Interpreter& it, std::span<const runtime::Value> args) {
        it.heap().write_slot(args[0].as_ptr().index, 0,
                             runtime::Value::from_int(42));
        return runtime::Value::unit();
      });
  return proc.run().exit_code;
}

TEST(Optimize, ReusesReadsAndExpressionsAndForwardsStores) {
  ProgramBuilder pb("reuse");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(4), Atom::integer(6));
    auto a = fb.let_read("a", Type::integer(), fb.v(buf), Atom::integer(0));
    auto b = fb.let_read("b", Type::integer(), fb.v(buf), Atom::integer(0));
    auto x = fb.let_binop("x", Binop::kMul, fb.v(a), fb.v(b));
    auto y = fb.let_binop("y", Binop::kMul, fb.v(a), fb.v(b));
    fb.write(fb.v(buf), Atom::integer(1), fb.v(y));
    // Another literal slot of the same base leaves slot 1 known.
    fb.write(fb.v(buf), Atom::integer(2), Atom::integer(5));
    auto z = fb.let_read("z", Type::integer(), fb.v(buf), Atom::integer(1));
    auto t = fb.let_binop("t", Binop::kLt, fb.v(x), fb.v(z));
    auto nz = fb.let_binop("nz", Binop::kNe, fb.v(t), Atom::integer(0));
    fb.branch(
        fb.v(nz), [](auto& th) { th.halt(Atom::integer(1)); },
        [&](auto& el) {
          // The arm inherits the prefix's slots.
          auto w = el.let_read("w", Type::integer(), el.v(buf),
                               Atom::integer(2));
          auto s = el.let_binop("s", Binop::kAdd, el.v(z), el.v(w));
          // a is not a comparison: `a != 0` is 1, not a.
          auto m = el.let_binop("m", Binop::kNe, el.v(a), Atom::integer(0));
          auto s2 = el.let_binop("s2", Binop::kAdd, el.v(s), el.v(m));
          el.halt(el.v(s2));
        });
  }
  fir::OptimizeStats stats;
  EXPECT_EQ(run_optimized(pb.take("main"), &stats), 42);
  EXPECT_EQ(stats.reads_eliminated, 1u);   // b
  EXPECT_EQ(stats.stores_forwarded, 2u);   // z, w
  EXPECT_EQ(stats.exprs_reused, 2u);       // y, nz
}

TEST(Optimize, IfArmsDoNotSeeEachOthersSlots) {
  ProgramBuilder pb("arms");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(1), Atom::integer(5));
    auto c = fb.let_read("c", Type::integer(), fb.v(buf), Atom::integer(0));
    auto t = fb.let_binop("t", Binop::kEq, fb.v(c), Atom::integer(99));
    fb.branch(
        fb.v(t),
        [&](auto& th) {
          th.write(th.v(buf), Atom::integer(0), Atom::integer(1));
          th.halt(Atom::integer(0));
        },
        [&](auto& el) {
          auto r = el.let_read("r", Type::integer(), el.v(buf),
                               Atom::integer(0));
          el.halt(el.v(r));
        });
  }
  fir::OptimizeStats stats;
  EXPECT_EQ(run_optimized(pb.take("main"), &stats), 5);
  EXPECT_EQ(stats.reads_eliminated, 1u);  // r is the prefix's c
  EXPECT_EQ(stats.stores_forwarded, 0u);
}

TEST(Optimize, WriteThroughAnAliasInvalidatesCachedReads) {
  // The same block reached three ways: a second parameter holding the
  // same pointer, a pointer read back from the heap, and ptr_add.
  ProgramBuilder pb("alias");
  auto main_id = pb.declare("main", {});
  auto f_id = pb.declare("f", {Type::ptr(), Type::ptr()});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(4), Atom::integer(5));
    fb.tail_call(Atom::fun_ref(f_id), {fb.v(buf), fb.v(buf)});
  }
  {
    auto fb = pb.define(f_id, {"x", "y"});
    auto a = fb.let_read("a", Type::integer(), fb.arg(0), Atom::integer(0));
    fb.write(fb.arg(1), Atom::integer(0), Atom::integer(9));
    auto b = fb.let_read("b", Type::integer(), fb.arg(0), Atom::integer(0));
    auto holder = fb.let_alloc("holder", Atom::integer(1), fb.arg(0));
    auto q = fb.let_read("q", Type::ptr(), fb.v(holder), Atom::integer(0));
    fb.write(fb.v(q), Atom::integer(0), Atom::integer(7));
    auto c = fb.let_read("c", Type::integer(), fb.arg(0), Atom::integer(0));
    auto d = fb.let_ptr_add("d", fb.arg(0), Atom::integer(1));
    auto e = fb.let_read("e", Type::integer(), fb.arg(0), Atom::integer(1));
    fb.write(fb.v(d), Atom::integer(0), Atom::integer(3));
    auto g = fb.let_read("g", Type::integer(), fb.arg(0), Atom::integer(1));
    // a b c e g = 5 9 7 5 3
    auto r = fb.let_binop("r", Binop::kMul, fb.v(a), Atom::integer(10000));
    auto rb = fb.let_binop("rb", Binop::kMul, fb.v(b), Atom::integer(1000));
    auto rc = fb.let_binop("rc", Binop::kMul, fb.v(c), Atom::integer(100));
    auto re = fb.let_binop("re", Binop::kMul, fb.v(e), Atom::integer(10));
    auto s1 = fb.let_binop("s1", Binop::kAdd, fb.v(r), fb.v(rb));
    auto s2 = fb.let_binop("s2", Binop::kAdd, fb.v(s1), fb.v(rc));
    auto s3 = fb.let_binop("s3", Binop::kAdd, fb.v(s2), fb.v(re));
    auto s4 = fb.let_binop("s4", Binop::kAdd, fb.v(s3), fb.v(g));
    fb.halt(fb.v(s4));
  }
  fir::OptimizeStats stats;
  EXPECT_EQ(run_optimized(pb.take("main"), &stats), 59753);
  EXPECT_EQ(stats.reads_eliminated, 0u);
}

TEST(Optimize, ExternalCallsInvalidateCachedReads) {
  // msg_recv-style: the external writes through its pointer argument.
  ProgramBuilder pb("external");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(1), Atom::integer(5));
    auto a = fb.let_read("a", Type::integer(), fb.v(buf), Atom::integer(0));
    (void)fb.let_external("u", Type::unit(), "scribble", {fb.v(buf)});
    auto b = fb.let_read("b", Type::integer(), fb.v(buf), Atom::integer(0));
    auto r = fb.let_binop("r", Binop::kMul, fb.v(a), Atom::integer(100));
    auto s = fb.let_binop("s", Binop::kAdd, fb.v(r), fb.v(b));
    fb.halt(fb.v(s));
  }
  fir::OptimizeStats stats;
  EXPECT_EQ(run_optimized(pb.take("main"), &stats), 542);
  EXPECT_EQ(stats.reads_eliminated, 0u);
}

TEST(Optimize, TypeMismatchedForwardStillTraps) {
  ProgramBuilder pb("mismatch");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(1), Atom::integer(0));
    fb.write(fb.v(buf), Atom::integer(0), Atom::real(1.5));
    auto r = fb.let_read("r", Type::integer(), fb.v(buf), Atom::integer(0));
    fb.halt(fb.v(r));
  }
  fir::OptimizeStats stats;
  EXPECT_THROW((void)run_optimized(pb.take("main"), &stats), SafetyError);
  EXPECT_EQ(stats.stores_forwarded, 0u);
}

TEST(Optimize, RedundantDivisionByZeroStillTrapsAtTheFirst) {
  ProgramBuilder pb("divzero2");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(1), Atom::integer(0));
    auto zero =
        fb.let_read("zero", Type::integer(), fb.v(buf), Atom::integer(0));
    (void)fb.let_external("p1", Type::unit(), "print_string",
                          {pb.str("a")});
    // q1 is unused, but it traps first; q2 becomes a copy of it.
    (void)fb.let_binop("q1", Binop::kDiv, Atom::integer(10), fb.v(zero));
    (void)fb.let_external("p2", Type::unit(), "print_string",
                          {pb.str("b")});
    auto q2 = fb.let_binop("q2", Binop::kDiv, Atom::integer(10), fb.v(zero));
    fb.halt(fb.v(q2));
  }
  fir::OptimizeStats stats;
  std::ostringstream out;
  EXPECT_THROW((void)run_optimized(pb.take("main"), &stats, &out),
               SafetyError);
  EXPECT_EQ(out.str(), "a");
  EXPECT_EQ(stats.exprs_reused, 1u);
}

/// Rebind the variable bound by the `nth` let of main's body to `var`:
/// ill-formed FIR (the typechecker rejects it) the optimizer must still
/// not miscompile.
void rebind_nth_let(Program& p, int nth, fir::VarId var) {
  fir::Expr* e = p.functions[p.entry].body.get();
  for (int i = 0; i < nth; ++i) e = e->next.get();
  e->bind = var;
}

TEST(Optimize, ReboundVariablesAreNotReused) {
  {
    ProgramBuilder pb("rebind_expr");
    auto main_id = pb.declare("main", {});
    fir::VarId x = 0;
    {
      auto fb = pb.define(main_id, {});
      auto buf = fb.let_alloc("buf", Atom::integer(1), Atom::integer(5));
      auto a = fb.let_read("a", Type::integer(), fb.v(buf), Atom::integer(0));
      x = fb.let_binop("x", Binop::kAdd, fb.v(a), fb.v(a));
      (void)fb.let_binop("x2", Binop::kMul, fb.v(a), Atom::integer(3));
      auto z = fb.let_binop("z", Binop::kAdd, fb.v(a), fb.v(a));
      fb.halt(fb.v(z));
    }
    Program p = pb.take("main");
    rebind_nth_let(p, 3, x);  // x2 becomes a second binding of x
    const auto stats = fir::optimize(p);
    EXPECT_EQ(stats.exprs_reused, 0u);
    const fir::Expr* e = p.functions[0].body.get();
    while (e->next != nullptr) e = e->next.get();
    ASSERT_EQ(e->kind, fir::ExprKind::kHalt);
    EXPECT_NE(e->a.var, x) << "z = a + a became the rebound x";
  }
  {
    ProgramBuilder pb("rebind_base");
    auto main_id = pb.declare("main", {});
    fir::VarId buf = 0;
    {
      auto fb = pb.define(main_id, {});
      buf = fb.let_alloc("buf", Atom::integer(1), Atom::integer(5));
      auto a = fb.let_read("a", Type::integer(), fb.v(buf), Atom::integer(0));
      (void)fb.let_alloc("buf2", Atom::integer(1), Atom::integer(7));
      auto b = fb.let_read("b", Type::integer(), fb.v(buf), Atom::integer(0));
      auto s = fb.let_binop("s", Binop::kSub, fb.v(a), fb.v(b));
      fb.halt(fb.v(s));
    }
    Program p = pb.take("main");
    rebind_nth_let(p, 2, buf);  // buf2 becomes a second binding of buf
    const auto stats = fir::optimize(p);
    EXPECT_EQ(stats.reads_eliminated, 0u);  // b is not the old buf's a
  }
}

TEST(Optimize, EngineCompilePublishesFirCounters) {
  auto& reg = obs::MetricsRegistry::instance();
  const auto before = reg.snapshot().counters;
  Engine engine;
  (void)engine.compile(
      "counted",
      "int main() { ptr a = alloc(2); a[0] = 3; int x = a[0] * a[0];"
      "  int y = a[0] * a[0]; if (x < y) { return 1; } return x + y; }");
  const auto after = reg.snapshot().counters;
  const auto delta = [&](const std::string& name) {
    const auto b = before.find(name);
    return after.at(name) - (b == before.end() ? 0 : b->second);
  };
  for (const char* name :
       {"fir.constants_folded", "fir.copies_propagated", "fir.branches_folded",
        "fir.dead_lets_removed"}) {
    EXPECT_TRUE(after.contains(name)) << name;
  }
  EXPECT_GT(delta("fir.exprs_reused"), 0u);
  EXPECT_GT(delta("fir.reads_eliminated"), 0u);
  EXPECT_GT(delta("fir.stores_forwarded"), 0u);
}

/// Equivalence property on randomized straight-line + branching programs.
class OptimizeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimizeProperty, RandomProgramsAreEquivalentAfterOptimization) {
  Rng rng(GetParam());
  ProgramBuilder pb("rand");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(4),
                            Atom::integer(static_cast<std::int64_t>(
                                rng.below(100))));
    fir::Atom last =
        fb.v(fb.let_read("seed", Type::integer(), fb.v(buf),
                         Atom::integer(0)));
    for (int i = 0; i < 40; ++i) {
      const auto roll = rng.below(6);
      if (roll < 3) {
        // Mix of constant and value operands: folding + propagation fuel.
        const Binop ops[] = {Binop::kAdd, Binop::kSub, Binop::kMul,
                             Binop::kAnd, Binop::kOr,  Binop::kXor,
                             Binop::kLt,  Binop::kGe};
        const Atom rhs =
            rng.chance(0.5)
                ? Atom::integer(static_cast<std::int64_t>(rng.below(50)) + 1)
                : last;
        last = fb.v(fb.let_binop("b" + std::to_string(i),
                                 ops[rng.below(8)], last, rhs));
      } else if (roll == 3) {
        last = fb.v(fb.let_unop("u" + std::to_string(i),
                                static_cast<Unop>(rng.below(3)), last));
      } else if (roll == 4) {
        auto copy = fb.let_atom("c" + std::to_string(i), Type::integer(),
                                Atom::integer(static_cast<std::int64_t>(
                                    rng.below(1000))));
        last = fb.v(fb.let_binop("m" + std::to_string(i), Binop::kXor, last,
                                 fb.v(copy)));
      } else {
        // Dead code: an unused chain of pure lets.
        auto d1 = fb.let_binop("d" + std::to_string(i), Binop::kAdd, last,
                               Atom::integer(7));
        (void)fb.let_unop("e" + std::to_string(i), Unop::kBitNot, fb.v(d1));
      }
    }
    fb.write(fb.v(buf), Atom::integer(1), last);
    auto readback =
        fb.let_read("rb", Type::integer(), fb.v(buf), Atom::integer(1));
    auto masked = fb.let_binop("mask", Binop::kAnd, fb.v(readback),
                               Atom::integer(0xffff));
    fb.halt(fb.v(masked));
  }
  Program plain = pb.take("main");
  Program opt = fir::clone_program(plain);
  const auto stats = fir::optimize(opt);
  fir::typecheck(opt);
  EXPECT_GT(stats.total(), 0u);
  EXPECT_LE(program_size(opt), program_size(plain));
  EXPECT_EQ(run_program(std::move(plain)), run_program(std::move(opt)));
}

/// Random heap traffic for `work(p, q, a, iter, acc)`: reads and writes
/// of p, q, the alias a (main passes p twice) and d = ptr_add(p, 1) at
/// literal and computed offsets, re-reads of slots read before (with
/// writes through other bases in between), repeated expressions and
/// `t != 0` tests, then nested `if` arms that do more of the same before
/// looping back into work or halting.
void heap_traffic(FunctionBuilder& fb, Rng& rng, std::uint32_t work_id,
                  const std::vector<Atom>& ptrs,
                  std::vector<std::pair<Atom, Atom>> seen, Atom last,
                  int depth) {
  // A fresh slot: few distinct offsets, so accesses through different
  // bases meet (d[0] is p[1]).
  const auto any_slot = [&]() -> std::pair<Atom, Atom> {
    const Atom p = ptrs[rng.below(ptrs.size())];
    if (rng.chance(0.8)) {
      return {p, Atom::integer(static_cast<std::int64_t>(rng.below(3)))};
    }
    return {p, fb.v(fb.let_binop("o", Binop::kAnd, last, Atom::integer(3)))};
  };
  const std::uint64_t n = 6 + rng.below(10);
  for (std::uint64_t i = 0; i < n; ++i) {
    switch (rng.below(6)) {
      case 0:
      case 1: {
        const auto [p, off] = !seen.empty() && rng.chance(0.5)
                                  ? seen[rng.below(seen.size())]
                                  : any_slot();
        seen.emplace_back(p, off);
        auto r = fb.let_read("r", Type::integer(), p, off);
        last = fb.v(fb.let_binop("m", rng.chance(0.5) ? Binop::kAdd
                                                     : Binop::kXor,
                                 last, fb.v(r)));
        break;
      }
      case 2:
      case 3: {
        // Most writes hit a slot read before, through any base.
        auto [p, off] = any_slot();
        if (!seen.empty() && rng.chance(0.7)) {
          off = seen[rng.below(seen.size())].second;
        }
        fb.write(p, off,
                 rng.chance(0.5)
                     ? last
                     : Atom::integer(static_cast<std::int64_t>(rng.below(100))));
        break;
      }
      case 4: {
        const Binop ops[] = {Binop::kAdd, Binop::kMul, Binop::kSub,
                             Binop::kLt};
        const Binop op = ops[rng.below(4)];
        const Atom rhs =
            Atom::integer(static_cast<std::int64_t>(rng.below(9)) + 1);
        auto x = fb.let_binop("x", op, last, rhs);
        auto y = fb.let_binop("y", op, last, rhs);
        last = fb.v(fb.let_binop("s", Binop::kAdd, fb.v(x), fb.v(y)));
        break;
      }
      default: {
        auto t = fb.let_binop("t", Binop::kLt, last, Atom::integer(500));
        auto nz = fb.let_binop("nz", Binop::kNe, fb.v(t), Atom::integer(0));
        last = fb.v(fb.let_binop("m", Binop::kAdd, last, fb.v(nz)));
        break;
      }
    }
  }
  if (depth < 2 && rng.chance(0.7)) {
    auto bit = fb.let_binop("bit", Binop::kAnd, last, Atom::integer(1));
    auto t = fb.let_binop("t", Binop::kEq, fb.v(bit), Atom::integer(0));
    auto nz = fb.let_binop("nz", Binop::kNe, fb.v(t), Atom::integer(0));
    fb.branch(
        fb.v(nz),
        [&](FunctionBuilder& th) {
          heap_traffic(th, rng, work_id, ptrs, seen, last, depth + 1);
        },
        [&](FunctionBuilder& el) {
          heap_traffic(el, rng, work_id, ptrs, seen, last, depth + 1);
        });
    return;
  }
  auto more = fb.let_binop("more", Binop::kLt, fb.arg(3), Atom::integer(3));
  fb.branch(
      fb.v(more),
      [&](FunctionBuilder& th) {
        auto i1 = th.let_binop("i1", Binop::kAdd, th.arg(3), Atom::integer(1));
        th.tail_call(Atom::fun_ref(work_id),
                     {th.arg(0), th.arg(1), th.arg(2), th.v(i1), last});
      },
      [&](FunctionBuilder& el) {
        auto m = el.let_binop("m", Binop::kAnd, last, Atom::integer(0xffff));
        el.halt(el.v(m));
      });
}

Program make_heap_program(std::uint64_t seed) {
  Rng rng(seed);
  ProgramBuilder pb("heap_rand");
  auto main_id = pb.declare("main", {});
  auto work_id = pb.declare("work", {Type::ptr(), Type::ptr(), Type::ptr(),
                                     Type::integer(), Type::integer()});
  {
    auto fb = pb.define(main_id, {});
    auto p = fb.let_alloc("p", Atom::integer(8),
                          Atom::integer(static_cast<std::int64_t>(
                              rng.below(100))));
    auto q = fb.let_alloc("q", Atom::integer(8),
                          Atom::integer(static_cast<std::int64_t>(
                              rng.below(100))));
    fb.tail_call(Atom::fun_ref(work_id), {fb.v(p), fb.v(q), fb.v(p),
                                          Atom::integer(0), Atom::integer(1)});
  }
  {
    auto fb = pb.define(work_id, {"p", "q", "a", "iter", "acc"});
    auto d = fb.let_ptr_add("d", fb.arg(0), Atom::integer(1));
    heap_traffic(fb, rng, work_id, {fb.arg(0), fb.arg(1), fb.arg(2), fb.v(d)},
                 {}, fb.arg(4), 0);
  }
  return pb.take("main");
}

std::int64_t run_on_tier(Program p, bool native_tier) {
  vm::ProcessConfig cfg;
  cfg.max_instructions = 10'000'000;
  cfg.jit.enabled = native_tier;
  cfg.jit.threshold = 1;
  vm::Process proc(std::move(p), cfg);
  const auto r = proc.run();
  EXPECT_EQ(r.kind, vm::RunResult::Kind::kHalted);
  return r.exit_code;
}

TEST_P(OptimizeProperty, RandomHeapProgramsAgreeOnBothTiers) {
  Program plain = make_heap_program(GetParam());
  Program opt = fir::clone_program(plain);
  const auto stats = fir::optimize(opt);
  fir::typecheck(opt);
  EXPECT_GT(stats.reads_eliminated + stats.stores_forwarded +
                stats.exprs_reused,
            0u);
  const std::int64_t expected = run_on_tier(fir::clone_program(plain), false);
  EXPECT_EQ(run_on_tier(fir::clone_program(opt), false), expected);
  if (native::jit_supported()) {
    EXPECT_EQ(run_on_tier(std::move(plain), true), expected);
    EXPECT_EQ(run_on_tier(std::move(opt), true), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizeProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808, 909, 1010));

}  // namespace
