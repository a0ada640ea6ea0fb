// Native-tier tests: the arch probe, tier equivalence (differential fuzz
// of randomly generated loop/arithmetic programs against the interpreter,
// including instruction accounting), deoptimization at speculation and
// budget boundaries, and native<->interpreter migration round trips.
//
// Every test that needs generated code skips — not fails — on hosts where
// the probe reports the tier unavailable (non-x86-64, W^X-restricted).
#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <random>
#include <vector>

#include "fir/builder.hpp"
#include "fir/legalize.hpp"
#include "migrate/image.hpp"
#include "migrate/migrator.hpp"
#include "migrate/protocols.hpp"
#include "native/arch.hpp"
#include "native/engine.hpp"
#include "vm/process.hpp"

namespace {

using namespace mojave;
using fir::Atom;
using fir::Binop;
using fir::ProgramBuilder;
using fir::Type;
using fir::VarId;

namespace fs = std::filesystem;

vm::ProcessConfig jit_on(std::uint32_t threshold = 1) {
  vm::ProcessConfig cfg;
  cfg.jit.enabled = true;
  cfg.jit.threshold = threshold;
  return cfg;
}

vm::ProcessConfig jit_off() {
  vm::ProcessConfig cfg;
  cfg.jit.enabled = false;
  return cfg;
}

/// sum(0..n-1) via a self-tail-calling loop — the canonical hot shape.
fir::Program make_sum_loop(std::int64_t n) {
  ProgramBuilder pb("sum_loop");
  auto main_id = pb.declare("main", {});
  auto loop_id = pb.declare("loop", {Type::integer(), Type::integer()});
  {
    auto fb = pb.define(main_id, {});
    fb.tail_call(Atom::fun_ref(loop_id), {Atom::integer(0), Atom::integer(0)});
  }
  {
    auto fb = pb.define(loop_id, {"i", "acc"});
    auto done = fb.let_binop("done", Binop::kGe, fb.arg(0), Atom::integer(n));
    fb.branch(
        fb.v(done), [&](auto& t) { t.halt(t.arg(1)); },
        [&](auto& e) {
          auto acc = e.let_binop("acc2", Binop::kAdd, e.arg(1), e.arg(0));
          auto i1 = e.let_binop("i1", Binop::kAdd, e.arg(0), Atom::integer(1));
          e.tail_call(Atom::fun_ref(loop_id), {e.v(i1), e.v(acc)});
        });
  }
  return pb.take("main");
}

struct TierRun {
  std::int64_t exit_code = 0;
  std::uint64_t instructions = 0;
  std::uint64_t calls = 0;
  vm::OpClassCounts class_counts{};
  std::uint64_t compiled = 0;
  std::uint64_t deopts = 0;
};

TierRun run_tier(fir::Program prog, const vm::ProcessConfig& cfg) {
  vm::Process p(std::move(prog), cfg);
  TierRun out;
  out.exit_code = p.run().exit_code;
  out.instructions = p.vm().stats().instructions;
  out.calls = p.vm().stats().calls;
  out.class_counts = p.vm().op_class_counts();
  if (const native::Engine* eng = p.vm().native_engine()) {
    out.compiled = eng->compiled_functions();
    out.deopts = eng->total_deopts();
  }
  return out;
}

/// The two tiers must be observationally identical: same result, same
/// retired instruction count, same per-opcode-class breakdown, same call
/// count. This is the acceptance bar for every deopt/accounting path.
void expect_tiers_agree(const TierRun& native, const TierRun& interp) {
  EXPECT_EQ(native.exit_code, interp.exit_code);
  EXPECT_EQ(native.instructions, interp.instructions);
  EXPECT_EQ(native.calls, interp.calls);
  EXPECT_EQ(native.class_counts, interp.class_counts);
}

TEST(NativeArch, ProbeIsStableAndSane) {
  const bool first = native::jit_supported();
  EXPECT_EQ(native::jit_supported(), first);  // cached, not flapping
#if defined(__x86_64__)
  // On the CI hosts this suite targets, x86-64 implies the probe passes
  // unless the platform forbids W^X flips entirely; either answer must
  // still leave the interpreter fully functional (checked below).
#endif
  fir::Program prog = make_sum_loop(100);
  vm::Process p(std::move(prog), jit_off());
  EXPECT_EQ(p.run().exit_code, 4950);
}

TEST(NativeTier, HotLoopCompilesAndMatchesInterpreter) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  const TierRun n = run_tier(make_sum_loop(50000), jit_on(2));
  const TierRun i = run_tier(make_sum_loop(50000), jit_off());
  expect_tiers_agree(n, i);
  EXPECT_EQ(n.exit_code, 50000LL * 49999 / 2);
  EXPECT_GE(n.compiled, 1u);  // the loop crossed the threshold
  EXPECT_EQ(i.compiled, 0u);  // no engine when disabled
}

TEST(NativeTier, ColdThresholdKeepsFunctionsInterpreted) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  // One transfer into main + a handful into loop; a huge threshold means
  // nothing ever compiles and the run is pure interpretation.
  const TierRun n = run_tier(make_sum_loop(10), jit_on(1u << 30));
  EXPECT_EQ(n.exit_code, 45);
  EXPECT_EQ(n.compiled, 0u);
  EXPECT_EQ(n.deopts, 0u);
}

TEST(NativeTier, ColdTargetCompilesOnItsNextEntry) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  // loop(i, acc) spins on itself until i == 20, then alternates with
  // side(i, acc), which has never run. Once loop is compiled its jump to
  // side deopts as a cold target; that deopt must make side's next entry
  // compile it, rather than bouncing once per hotness tick.
  constexpr std::uint32_t kThreshold = 16;  // below the 20 warm-up spins
  std::uint32_t loop_id = 0;
  std::uint32_t side_id = 0;
  auto make = [&] {
    ProgramBuilder pb("cold_target");
    auto main_id = pb.declare("main", {});
    loop_id = pb.declare("loop", {Type::integer(), Type::integer()});
    side_id = pb.declare("side", {Type::integer(), Type::integer()});
    {
      auto fb = pb.define(main_id, {});
      fb.tail_call(Atom::fun_ref(loop_id),
                   {Atom::integer(0), Atom::integer(0)});
    }
    {
      auto fb = pb.define(loop_id, {"i", "acc"});
      auto done = fb.let_binop("done", Binop::kGe, fb.arg(0),
                               Atom::integer(400));
      fb.branch(
          fb.v(done), [&](auto& t) { t.halt(t.arg(1)); },
          [&](auto& e) {
            auto warm = e.let_binop("warm", Binop::kLt, e.arg(0),
                                    Atom::integer(20));
            e.branch(
                e.v(warm),
                [&](auto& t2) {
                  auto i1 = t2.let_binop("i1", Binop::kAdd, t2.arg(0),
                                         Atom::integer(1));
                  t2.tail_call(Atom::fun_ref(loop_id), {t2.v(i1), t2.arg(1)});
                },
                [&](auto& e2) {
                  e2.tail_call(Atom::fun_ref(side_id), {e2.arg(0), e2.arg(1)});
                });
          });
    }
    {
      auto fb = pb.define(side_id, {"i", "acc"});
      auto a3 = fb.let_binop("a3", Binop::kMul, fb.arg(1), Atom::integer(3));
      auto acc = fb.let_binop("acc", Binop::kAdd, fb.v(a3), fb.arg(0));
      auto lo = fb.let_binop("lo", Binop::kAnd, fb.v(acc),
                             Atom::integer(0xffff));
      auto i1 = fb.let_binop("i1", Binop::kAdd, fb.arg(0), Atom::integer(1));
      fb.tail_call(Atom::fun_ref(loop_id), {fb.v(i1), fb.v(lo)});
    }
    return pb.take("main");
  };
  vm::Process p(make(), jit_on(kThreshold));
  const std::int64_t code = p.run().exit_code;
  const native::Engine* eng = p.vm().native_engine();
  ASSERT_NE(eng, nullptr);
  EXPECT_TRUE(eng->is_compiled(loop_id));
  EXPECT_TRUE(eng->is_compiled(side_id));  // compiled on its next entry
  EXPECT_LE(eng->deopt_count(native::DeoptReason::kColdTarget), 1u);
  const TierRun i = run_tier(make(), jit_off());
  EXPECT_EQ(code, i.exit_code);
  EXPECT_EQ(p.vm().stats().instructions, i.instructions);
}

// ---------------------------------------------------------------------------
// Differential fuzz: random loop/arithmetic programs, both tiers,
// bit-identical results and instruction accounting.
// ---------------------------------------------------------------------------

/// A random straight-line body of integer arithmetic inside a hot loop.
/// Loop-carried state (a, b) and a heap accumulator make every generated
/// instruction observable in the final hash. Divisors are positive
/// constants so both tiers face the same (defined) semantics.
fir::Program make_int_fuzz(std::uint32_t seed, std::int64_t iters) {
  std::mt19937 rng(seed);
  auto rnd = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  static const Binop kOps[] = {
      Binop::kAdd, Binop::kSub, Binop::kMul, Binop::kAnd, Binop::kOr,
      Binop::kXor, Binop::kShl, Binop::kShr, Binop::kLt,  Binop::kLe,
      Binop::kGt,  Binop::kGe,  Binop::kEq,  Binop::kNe,  Binop::kDiv,
      Binop::kMod};

  ProgramBuilder pb("fuzz");
  auto main_id = pb.declare("main", {});
  auto loop_id = pb.declare(
      "loop", {Type::integer(), Type::integer(), Type::integer(), Type::ptr()});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(1), Atom::integer(0));
    fb.tail_call(Atom::fun_ref(loop_id),
                 {Atom::integer(0), Atom::integer(rnd(-1000, 1000)),
                  Atom::integer(rnd(-1000, 1000)), fb.v(buf)});
  }
  {
    auto fb = pb.define(loop_id, {"i", "a", "b", "buf"});
    auto done = fb.let_binop("done", Binop::kGe, fb.arg(0),
                             Atom::integer(iters));
    fb.branch(
        fb.v(done),
        [&](auto& t) {
          auto acc = t.let_read("acc", Type::integer(), t.arg(3),
                                Atom::integer(0));
          auto h1 = t.let_binop("h1", Binop::kXor, t.v(acc), t.arg(1));
          auto h2 = t.let_binop("h2", Binop::kXor, t.v(h1), t.arg(2));
          auto lo = t.let_binop("lo", Binop::kAnd, t.v(h2),
                                Atom::integer(0x7fffffff));
          t.halt(t.v(lo));
        },
        [&](auto& e) {
          std::vector<VarId> pool;
          auto operand = [&]() -> Atom {
            const std::int64_t pick = rnd(0, 9);
            if (pick < 3) return e.arg(static_cast<std::uint32_t>(pick));
            if (pick < 5 || pool.empty()) return Atom::integer(rnd(-64, 64));
            return e.v(pool[static_cast<std::size_t>(
                rnd(0, static_cast<std::int64_t>(pool.size()) - 1))]);
          };
          const std::int64_t nops = rnd(4, 12);
          for (std::int64_t k = 0; k < nops; ++k) {
            const Binop op =
                kOps[static_cast<std::size_t>(rnd(0, std::ssize(kOps) - 1))];
            Atom lhs = operand();
            // Division by a positive constant only: zero divisors trap and
            // INT64_MIN / -1 overflows — both are separate tests.
            Atom rhs = (op == Binop::kDiv || op == Binop::kMod)
                           ? Atom::integer(rnd(1, 9))
                           : operand();
            pool.push_back(
                e.let_binop("t" + std::to_string(k), op, lhs, rhs));
          }
          auto acc = e.let_read("acc", Type::integer(), e.arg(3),
                                Atom::integer(0));
          auto mix = e.let_binop("mix", Binop::kAdd, e.v(acc),
                                 e.v(pool.back()));
          e.write(e.arg(3), Atom::integer(0), e.v(mix));
          auto i1 = e.let_binop("i1", Binop::kAdd, e.arg(0), Atom::integer(1));
          auto pick = [&]() {
            return e.v(pool[static_cast<std::size_t>(
                rnd(0, static_cast<std::int64_t>(pool.size()) - 1))]);
          };
          e.tail_call(Atom::fun_ref(loop_id), {e.v(i1), pick(), pick(),
                                               e.arg(3)});
        });
  }
  return pb.take("main");
}

/// Float fuzz: carried doubles through FAdd/FSub/FMul/FDiv and float
/// compares; the final value is hashed bit-exactly through a raw byte
/// buffer (raw_storef + 8-byte raw_load), so "close enough" cannot pass.
fir::Program make_float_fuzz(std::uint32_t seed, std::int64_t iters) {
  std::mt19937 rng(seed);
  auto rnd = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  static const Binop kFOps[] = {Binop::kFAdd, Binop::kFSub, Binop::kFMul,
                                Binop::kFDiv};
  static const Binop kFCmps[] = {Binop::kFLt, Binop::kFLe, Binop::kFGt,
                                 Binop::kFGe, Binop::kFEq, Binop::kFNe};

  ProgramBuilder pb("ffuzz");
  auto main_id = pb.declare("main", {});
  auto loop_id = pb.declare(
      "loop", {Type::integer(), Type::real(), Type::real(), Type::ptr()});
  {
    auto fb = pb.define(main_id, {});
    auto raw = fb.let_alloc_raw("raw", Atom::integer(8));
    fb.tail_call(Atom::fun_ref(loop_id),
                 {Atom::integer(0), Atom::real(rnd(-100, 100) / 7.0),
                  Atom::real(rnd(1, 100) / 3.0), fb.v(raw)});
  }
  {
    auto fb = pb.define(loop_id, {"i", "x", "y", "raw"});
    auto done = fb.let_binop("done", Binop::kGe, fb.arg(0),
                             Atom::integer(iters));
    fb.branch(
        fb.v(done),
        [&](auto& t) {
          t.raw_storef(t.arg(3), Atom::integer(0), t.arg(1));
          auto bits = t.let_raw_load("bits", 8, t.arg(3), Atom::integer(0));
          auto lo = t.let_binop("lo", Binop::kAnd, t.v(bits),
                                Atom::integer(0x7fffffff));
          t.halt(t.v(lo));
        },
        [&](auto& e) {
          std::vector<VarId> fpool;
          auto foperand = [&]() -> Atom {
            const std::int64_t pick = rnd(0, 5);
            if (pick < 2) return e.arg(1);
            if (pick < 3) return e.arg(2);
            if (pick < 4 || fpool.empty()) {
              return Atom::real(rnd(-50, 50) / 9.0);
            }
            return e.v(fpool[static_cast<std::size_t>(
                rnd(0, static_cast<std::int64_t>(fpool.size()) - 1))]);
          };
          const std::int64_t nops = rnd(3, 8);
          for (std::int64_t k = 0; k < nops; ++k) {
            const Binop op = kFOps[static_cast<std::size_t>(
                rnd(0, std::ssize(kFOps) - 1))];
            fpool.push_back(e.let_binop("f" + std::to_string(k), op,
                                        foperand(), foperand()));
          }
          // A float compare steers an int add so branch directions depend
          // on float state (NaN-compare semantics included).
          const Binop cmp = kFCmps[static_cast<std::size_t>(
              rnd(0, std::ssize(kFCmps) - 1))];
          auto c = e.let_binop("c", cmp, foperand(), foperand());
          auto i1 = e.let_binop("i1", Binop::kAdd, e.arg(0), Atom::integer(1));
          auto i2 = e.let_binop("i2", Binop::kAdd, e.v(i1), e.v(c));
          auto pick = [&]() {
            return e.v(fpool[static_cast<std::size_t>(
                rnd(0, static_cast<std::int64_t>(fpool.size()) - 1))]);
          };
          e.tail_call(Atom::fun_ref(loop_id),
                      {e.v(i2), pick(), pick(), e.arg(3)});
        });
  }
  return pb.take("main");
}

TEST(NativeDifferential, IntFuzzBothTiersBitIdentical) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    const TierRun n = run_tier(make_int_fuzz(seed, 300), jit_on(1));
    const TierRun i = run_tier(make_int_fuzz(seed, 300), jit_off());
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_tiers_agree(n, i);
    EXPECT_GE(n.compiled, 1u);
  }
}

TEST(NativeDifferential, FloatFuzzBothTiersBitIdentical) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  for (std::uint32_t seed = 100; seed <= 108; ++seed) {
    const TierRun n = run_tier(make_float_fuzz(seed, 200), jit_on(1));
    const TierRun i = run_tier(make_float_fuzz(seed, 200), jit_off());
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_tiers_agree(n, i);
  }
}

TEST(NativeDifferential, DivideByZeroTrapsIdenticallyMidLoop) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  // loop(i): if i >= 100 halt 0; q = 1000 / (50 - i)  -- traps at i == 50,
  // after the loop is hot. The native tier must deopt on the guard and let
  // the interpreter raise the canonical SafetyError at the same point.
  auto make = [] {
    ProgramBuilder pb("divtrap");
    auto main_id = pb.declare("main", {});
    auto loop_id = pb.declare("loop", {Type::integer(), Type::integer()});
    {
      auto fb = pb.define(main_id, {});
      fb.tail_call(Atom::fun_ref(loop_id),
                   {Atom::integer(0), Atom::integer(0)});
    }
    {
      auto fb = pb.define(loop_id, {"i", "acc"});
      auto done = fb.let_binop("done", Binop::kGe, fb.arg(0),
                               Atom::integer(100));
      fb.branch(
          fb.v(done), [&](auto& t) { t.halt(t.arg(1)); },
          [&](auto& e) {
            auto d = e.let_binop("d", Binop::kSub, Atom::integer(50),
                                 e.arg(0));
            auto q = e.let_binop("q", Binop::kDiv, Atom::integer(1000),
                                 e.v(d));
            auto acc = e.let_binop("acc2", Binop::kAdd, e.arg(1), e.v(q));
            auto i1 = e.let_binop("i1", Binop::kAdd, e.arg(0),
                                  Atom::integer(1));
            e.tail_call(Atom::fun_ref(loop_id), {e.v(i1), e.v(acc)});
          });
    }
    return pb.take("main");
  };

  vm::OpClassCounts counts_native{}, counts_interp{};
  {
    vm::Process p(make(), jit_on(1));
    EXPECT_THROW((void)p.run(), SafetyError);
    counts_native = p.vm().op_class_counts();
    ASSERT_NE(p.vm().native_engine(), nullptr);
    EXPECT_GE(p.vm().native_engine()->deopt_count(
                  native::DeoptReason::kGuard),
              1u);
  }
  {
    vm::Process p(make(), jit_off());
    EXPECT_THROW((void)p.run(), SafetyError);
    counts_interp = p.vm().op_class_counts();
  }
  // The interpreter re-executes the trapping division itself, so the two
  // tiers must have retired exactly the same multiset of instructions.
  EXPECT_EQ(counts_native, counts_interp);
}

TEST(NativeDifferential, InstructionFuseFiresAtSamePoint) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  // Pre-paid chunk budgeting + stub refunds must make the fuse land on the
  // same instruction as pure interpretation.
  auto cfg_n = jit_on(1);
  cfg_n.max_instructions = 5000;
  auto cfg_i = jit_off();
  cfg_i.max_instructions = 5000;
  vm::OpClassCounts counts_native{}, counts_interp{};
  {
    vm::Process p(make_sum_loop(1u << 20), cfg_n);
    EXPECT_THROW((void)p.run(), Error);  // "instruction budget exhausted"
    counts_native = p.vm().op_class_counts();
  }
  {
    vm::Process p(make_sum_loop(1u << 20), cfg_i);
    EXPECT_THROW((void)p.run(), Error);
    counts_interp = p.vm().op_class_counts();
  }
  EXPECT_EQ(counts_native, counts_interp);
}

// ---------------------------------------------------------------------------
// Deoptimization at speculation sites.
// ---------------------------------------------------------------------------

TEST(NativeDeopt, ForcedRollbackRestoresHeapFromNativeWrites) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  // main: buf = alloc(1, 3); speculate body(c, buf)
  // body: first entry runs a *hot native loop* of speculative heap writes,
  // then aborts — every write must be rolled back even though they were
  // issued from compiled code (the first through the helper, which clones
  // the block copy-on-write; the rest inline into the clone).
  ProgramBuilder pb("native_rollback");
  auto main_id = pb.declare("main", {});
  auto body_id = pb.declare("body", {Type::integer(), Type::ptr()});
  auto spin_id = pb.declare("spin",
                            {Type::integer(), Type::integer(), Type::ptr()});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(1), Atom::integer(3));
    fb.speculate(Atom::fun_ref(body_id), {fb.v(buf)});
  }
  {
    auto fb = pb.define(body_id, {"c", "buf"});
    auto live = fb.let_binop("live", Binop::kGt, fb.arg(0), Atom::integer(0));
    fb.branch(
        fb.v(live),
        [&](auto& t) {
          t.tail_call(Atom::fun_ref(spin_id),
                      {Atom::integer(0), t.arg(0), t.arg(1)});
        },
        [&](auto& e) {
          auto x = e.let_read("x", Type::integer(), e.arg(1),
                              Atom::integer(0));
          e.halt(e.v(x));
        });
  }
  {
    auto fb = pb.define(spin_id, {"j", "c", "buf"});
    auto done = fb.let_binop("done", Binop::kGe, fb.arg(0),
                             Atom::integer(200));
    fb.branch(
        fb.v(done),
        [&](auto& t) { t.abort_spec(t.arg(1), Atom::integer(0)); },
        [&](auto& e) {
          auto acc = e.let_read("acc", Type::integer(), e.arg(2),
                                Atom::integer(0));
          auto acc1 = e.let_binop("acc1", Binop::kAdd, e.v(acc), e.arg(0));
          e.write(e.arg(2), Atom::integer(0), e.v(acc1));
          auto j1 = e.let_binop("j1", Binop::kAdd, e.arg(0),
                                Atom::integer(1));
          e.tail_call(Atom::fun_ref(spin_id), {e.v(j1), e.arg(1), e.arg(2)});
        });
  }
  vm::Process p(pb.take("main"), jit_on(1));
  EXPECT_EQ(p.run().exit_code, 3);  // all 200 native writes undone
  const native::Engine* eng = p.vm().native_engine();
  ASSERT_NE(eng, nullptr);
  EXPECT_GE(eng->compiled_functions(), 1u);
  EXPECT_GE(eng->deopt_count(native::DeoptReason::kSpeculate), 1u);
  EXPECT_GE(eng->deopt_count(native::DeoptReason::kRollback), 1u);
}

/// Every live block in table order: index, kind, size and contents —
/// tagged slots as (tag, payload bits), raw blocks byte for byte.
std::vector<std::uint64_t> heap_image(runtime::Heap& heap) {
  std::vector<std::uint64_t> out;
  const runtime::PointerTable::View* view = heap.table().view();
  for (std::uint64_t i = 1; i < view->size; ++i) {
    const runtime::Block* b = view->data[i];
    if (b == nullptr) continue;
    out.push_back(i);
    out.push_back(static_cast<std::uint64_t>(b->h.kind));
    out.push_back(b->h.count);
    if (b->h.kind == runtime::BlockKind::kRaw) {
      for (std::uint32_t k = 0; k < b->h.count; ++k) {
        out.push_back(static_cast<std::uint64_t>(b->bytes()[k]));
      }
      continue;
    }
    for (std::uint32_t k = 0; k < b->h.count; ++k) {
      const runtime::Value& v = b->slot(k);
      std::uint64_t bits = 0;
      switch (v.tag()) {
        case runtime::Tag::kUnit: break;
        case runtime::Tag::kInt:
          bits = static_cast<std::uint64_t>(v.as_int());
          break;
        case runtime::Tag::kFloat:
          bits = std::bit_cast<std::uint64_t>(v.as_float());
          break;
        case runtime::Tag::kPtr:
          bits = (std::uint64_t{v.as_ptr().index} << 32) | v.as_ptr().offset;
          break;
        case runtime::Tag::kFun: bits = v.as_fun(); break;
      }
      out.push_back(static_cast<std::uint64_t>(v.tag()));
      out.push_back(bits);
    }
  }
  return out;
}

/// Read-modify-write stores of all three inlinable kinds (kWrite of a
/// float, kRawStore, kRawStoreF) from a hot loop, into blocks allocated
/// before level 1 (`pre`, `rawpre`) and inside it (`in`, `rawin`):
///   phase 1 (level 1): the pre-level blocks need one clone each, the
///     level-1 blocks none;
///   phase 2 (level 2 entered): every block needs a fresh clone;
///   the level is rolled back with retry, re-entering with a new epoch;
///   phase 3 (level 2 again): every block needs a clone again;
/// then both levels commit and the program halts.
fir::Program make_epoch_stores(std::int64_t iters) {
  ProgramBuilder pb("epoch_stores");
  const std::vector<Type> blocks = {Type::ptr(), Type::ptr(), Type::ptr(),
                                    Type::ptr()};
  auto with_blocks = [&](std::vector<Type> head) {
    head.insert(head.end(), blocks.begin(), blocks.end());
    return head;
  };
  auto main_id = pb.declare("main", {});
  auto lvl1_id =
      pb.declare("lvl1", {Type::integer(), Type::ptr(), Type::ptr()});
  auto lvl2_id =
      pb.declare("lvl2", with_blocks({Type::integer(), Type::integer()}));
  auto loop_id = pb.declare(
      "loop", with_blocks({Type::integer(), Type::integer(), Type::integer()}));
  auto after_id =
      pb.declare("after", with_blocks({Type::integer(), Type::integer()}));
  auto fin1_id = pb.declare("fin1", with_blocks({Type::integer()}));
  auto fin2_id = pb.declare("fin2", blocks);
  {
    auto fb = pb.define(main_id, {});
    auto pre = fb.let_alloc("pre", Atom::integer(4), Atom::real(0.0));
    auto rawpre = fb.let_alloc_raw("rawpre", Atom::integer(24));
    fb.speculate(Atom::fun_ref(lvl1_id), {fb.v(pre), fb.v(rawpre)});
  }
  {
    auto fb = pb.define(lvl1_id, {"c", "pre", "rawpre"});
    auto in = fb.let_alloc("in", Atom::integer(4), Atom::real(0.0));
    auto rawin = fb.let_alloc_raw("rawin", Atom::integer(24));
    fb.tail_call(Atom::fun_ref(loop_id),
                 {Atom::integer(0), Atom::integer(1), fb.arg(0), fb.arg(1),
                  fb.arg(2), fb.v(in), fb.v(rawin)});
  }
  {
    // First entry: c is the level (2); the retry re-enters with c = 3.
    auto fb = pb.define(lvl2_id, {"c", "l1", "pre", "rawpre", "in", "rawin"});
    fb.tail_call(Atom::fun_ref(loop_id),
                 {Atom::integer(0), fb.arg(0), fb.arg(1), fb.arg(2),
                  fb.arg(3), fb.arg(4), fb.arg(5)});
  }
  {
    auto fb = pb.define(loop_id, {"i", "phase", "l1", "pre", "rawpre", "in",
                                  "rawin"});
    auto done = fb.let_binop("done", Binop::kGe, fb.arg(0),
                             Atom::integer(iters));
    fb.branch(
        fb.v(done),
        [&](auto& t) {
          t.tail_call(Atom::fun_ref(after_id),
                      {t.arg(1), t.arg(2), t.arg(3), t.arg(4), t.arg(5),
                       t.arg(6)});
        },
        [&](auto& e) {
          auto slot = e.let_binop("slot", Binop::kAnd, e.arg(0),
                                  Atom::integer(3));
          auto fi = e.let_unop("fi", fir::Unop::kFloatOfInt, e.arg(0));
          auto fp = e.let_unop("fp", fir::Unop::kFloatOfInt, e.arg(1));
          auto fx = e.let_binop("fx", Binop::kFMul, e.v(fi), e.v(fp));
          auto ix = e.let_binop("ix", Binop::kMul, e.arg(0), e.arg(1));
          for (const std::uint32_t tagged : {3u, 5u}) {
            const std::string n = std::to_string(tagged);
            auto old = e.let_read("t" + n, Type::real(), e.arg(tagged),
                                  e.v(slot));
            auto sum = e.let_binop("ts" + n, Binop::kFAdd, e.v(old), e.v(fx));
            e.write(e.arg(tagged), e.v(slot), e.v(sum));
          }
          for (const std::uint32_t raw : {4u, 6u}) {
            const std::string n = std::to_string(raw);
            auto q = e.let_raw_load("q" + n, 8, e.arg(raw), Atom::integer(0));
            auto q1 = e.let_binop("qs" + n, Binop::kAdd, e.v(q), e.v(ix));
            e.raw_store(8, e.arg(raw), Atom::integer(0), e.v(q1));
            auto f = e.let_raw_loadf("f" + n, e.arg(raw), Atom::integer(8));
            auto f1 = e.let_binop("fs" + n, Binop::kFAdd, e.v(f), e.v(fx));
            e.raw_storef(e.arg(raw), Atom::integer(8), e.v(f1));
            e.raw_store(4, e.arg(raw), Atom::integer(16), e.v(ix));
            e.raw_store(2, e.arg(raw), Atom::integer(20), e.v(q1));
            e.raw_store(1, e.arg(raw), Atom::integer(22), e.arg(0));
          }
          auto i1 = e.let_binop("i1", Binop::kAdd, e.arg(0), Atom::integer(1));
          e.tail_call(Atom::fun_ref(loop_id),
                      {e.v(i1), e.arg(1), e.arg(2), e.arg(3), e.arg(4),
                       e.arg(5), e.arg(6)});
        });
  }
  {
    auto fb = pb.define(after_id, {"phase", "l1", "pre", "rawpre", "in",
                                   "rawin"});
    auto first = fb.let_binop("first", Binop::kEq, fb.arg(0),
                              Atom::integer(1));
    fb.branch(
        fb.v(first),
        [&](auto& t) {
          t.speculate(Atom::fun_ref(lvl2_id), {t.arg(1), t.arg(2), t.arg(3),
                                               t.arg(4), t.arg(5)});
        },
        [&](auto& e) {
          auto l2 = e.let_binop("l2", Binop::kAdd, e.arg(1), Atom::integer(1));
          auto retry = e.let_binop("retry", Binop::kEq, e.arg(0),
                                   Atom::integer(2));
          e.branch(
              e.v(retry),
              [&](auto& t2) { t2.rollback(t2.v(l2), Atom::integer(3)); },
              [&](auto& e2) {
                e2.commit(e2.v(l2), Atom::fun_ref(fin1_id),
                          {e2.arg(1), e2.arg(2), e2.arg(3), e2.arg(4),
                           e2.arg(5)});
              });
        });
  }
  {
    auto fb = pb.define(fin1_id, {"l1", "pre", "rawpre", "in", "rawin"});
    fb.commit(fb.arg(0), Atom::fun_ref(fin2_id),
              {fb.arg(1), fb.arg(2), fb.arg(3), fb.arg(4)});
  }
  {
    auto fb = pb.define(fin2_id, {"pre", "rawpre", "in", "rawin"});
    auto q = fb.let_raw_load("q", 8, fb.arg(3), Atom::integer(0));
    auto lo = fb.let_binop("lo", Binop::kAnd, fb.v(q),
                           Atom::integer(0x7fffffff));
    fb.halt(fb.v(lo));
  }
  return pb.take("main");
}

TEST(NativeDeopt, InlineStoresCloneExactlyWhenTheInterpreterWould) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  struct Outcome {
    std::int64_t exit_code = 0;
    std::uint64_t instructions = 0;
    std::uint64_t blocks_preserved = 0;
    std::uint64_t bytes_preserved = 0;
    std::vector<std::uint64_t> heap;
    std::uint64_t compiled = 0;
  };
  const auto run = [](const vm::ProcessConfig& cfg) {
    vm::Process p(make_epoch_stores(300), cfg);
    Outcome o;
    o.exit_code = p.run().exit_code;
    o.instructions = p.vm().stats().instructions;
    o.blocks_preserved = p.spec().stats().blocks_preserved;
    o.bytes_preserved = p.spec().stats().bytes_preserved;
    o.heap = heap_image(p.heap());
    if (const native::Engine* eng = p.vm().native_engine()) {
      o.compiled = eng->compiled_functions();
    }
    return o;
  };
  const Outcome n = run(jit_on(1));
  const Outcome i = run(jit_off());
  EXPECT_GE(n.compiled, 1u);
  EXPECT_EQ(n.exit_code, i.exit_code);
  EXPECT_EQ(n.instructions, i.instructions);
  EXPECT_EQ(n.heap, i.heap);
  EXPECT_EQ(n.bytes_preserved, i.bytes_preserved);
  EXPECT_EQ(n.blocks_preserved, i.blocks_preserved);
  // 2 pre-level blocks in level 1, then all 4 on each entry of level 2.
  EXPECT_EQ(i.blocks_preserved, 10u);
}

// ---------------------------------------------------------------------------
// Native <-> interpreter migration round trips.
// ---------------------------------------------------------------------------

/// Counts to `total` via a hot loop, checkpointing every `interval` steps.
fir::Program make_ckpt_counter(const std::string& target, std::int64_t total,
                               std::int64_t interval) {
  ProgramBuilder pb("native_counter");
  auto main_id = pb.declare("main", {});
  auto loop_id =
      pb.declare("loop", {Type::integer(), Type::integer(), Type::ptr()});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(1), Atom::integer(0));
    fb.tail_call(Atom::fun_ref(loop_id),
                 {Atom::integer(1), Atom::integer(total), fb.v(buf)});
  }
  {
    auto fb = pb.define(loop_id, {"i", "total", "buf"});
    auto done = fb.let_binop("done", Binop::kGt, fb.arg(0), fb.arg(1));
    fb.branch(
        fb.v(done),
        [&](auto& t) {
          auto x = t.let_read("x", Type::integer(), t.arg(2),
                              Atom::integer(0));
          t.halt(t.v(x));
        },
        [&](auto& e) {
          auto old = e.let_read("old", Type::integer(), e.arg(2),
                                Atom::integer(0));
          auto acc = e.let_binop("acc", Binop::kAdd, e.v(old), e.arg(0));
          e.write(e.arg(2), Atom::integer(0), e.v(acc));
          auto i1 = e.let_binop("i1", Binop::kAdd, e.arg(0),
                                Atom::integer(1));
          auto m = e.let_binop("m", Binop::kMod, e.arg(0),
                               Atom::integer(interval));
          auto hit = e.let_unop("hit", fir::Unop::kNot, e.v(m));
          e.branch(
              e.v(hit),
              [&](auto& t2) {
                auto tgt =
                    t2.let_atom("tgt", Type::ptr(), pb.str(target));
                t2.migrate(7, t2.v(tgt), Atom::fun_ref(loop_id),
                           {t2.v(i1), t2.arg(1), t2.arg(2)});
              },
              [&](auto& e2) {
                e2.tail_call(Atom::fun_ref(loop_id),
                             {e2.v(i1), e2.arg(1), e2.arg(2)});
              });
        });
  }
  return pb.take("main");
}

TEST(NativeMigrate, HotProcessCheckpointsAndResumesOnEitherTier) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  const fs::path dir = fs::temp_directory_path() / "mojave_native_ckpt";
  fs::create_directories(dir);
  const fs::path file = dir / "hot.img";
  fs::remove(file);
  constexpr std::int64_t kTotal = 500, kInterval = 64;
  constexpr std::int64_t kSum = kTotal * (kTotal + 1) / 2;

  // Run natively hot; every checkpoint is a migrate-site deopt, and the
  // packed image must be byte-compatible with pure-interpreter images.
  vm::Process p(make_ckpt_counter("checkpoint://" + file.string(), kTotal,
                                  kInterval),
                jit_on(1));
  migrate::Migrator mig(p);
  const auto result = p.run();
  EXPECT_EQ(result.kind, vm::RunResult::Kind::kHalted);
  EXPECT_EQ(result.exit_code, kSum);
  const native::Engine* eng = p.vm().native_engine();
  ASSERT_NE(eng, nullptr);
  EXPECT_GE(eng->compiled_functions(), 1u);
  EXPECT_GE(eng->deopt_count(native::DeoptReason::kMigrate), 1u);
  ASSERT_TRUE(fs::exists(file));

  // Resume the native-born image on a pure interpreter...
  {
    migrate::ResurrectOptions opts;
    opts.cfg = jit_off();
    opts.prepare = [](vm::Process& proc) {
      proc.adopt_hook(std::make_unique<migrate::Migrator>(proc));
    };
    auto res = migrate::resurrect_from_uri(file.string(), opts);
    EXPECT_EQ(res.run.kind, vm::RunResult::Kind::kHalted);
    EXPECT_EQ(res.run.exit_code, kSum);
  }
  // ...and again on a native tier (interpreter-born state runs native).
  {
    migrate::ResurrectOptions opts;
    opts.cfg = jit_on(1);
    opts.prepare = [](vm::Process& proc) {
      proc.adopt_hook(std::make_unique<migrate::Migrator>(proc));
    };
    auto res = migrate::resurrect_from_uri(file.string(), opts);
    EXPECT_EQ(res.run.kind, vm::RunResult::Kind::kHalted);
    EXPECT_EQ(res.run.exit_code, kSum);
  }
}

TEST(NativeMigrate, SuspendedHotLoopResumesIdenticallyOnBothTiers) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  const fs::path dir = fs::temp_directory_path() / "mojave_native_susp";
  fs::create_directories(dir);
  const fs::path file = dir / "hot.img";
  fs::remove(file);
  constexpr std::int64_t kTotal = 500, kInterval = 200;
  constexpr std::int64_t kSum = kTotal * (kTotal + 1) / 2;

  // Suspend mid-loop while the loop is native-hot: the image captures
  // state a deopt handed back, in the unchanged process-image format.
  vm::Process p(make_ckpt_counter("suspend://" + file.string(), kTotal,
                                  kInterval),
                jit_on(1));
  migrate::Migrator mig(p);
  EXPECT_EQ(p.run().kind, vm::RunResult::Kind::kMigratedAway);
  ASSERT_TRUE(fs::exists(file));
  const std::vector<std::byte> img = migrate::Migrator::read_image_file(file);

  // The same image must finish with the same sum whether the destination
  // resumes it interpreted or native (it re-suspends at each interval hit,
  // so hop until halt, re-reading the fresh image).
  for (const bool dest_jit : {false, true}) {
    std::vector<std::byte> hop_img = img;
    std::int64_t final_code = -1;
    for (int hop = 0; hop < 8; ++hop) {
      auto unpacked = migrate::unpack_process(
          hop_img, dest_jit ? jit_on(1) : jit_off());
      migrate::Migrator m(*unpacked.process);
      const auto r = unpacked.process->resume(unpacked.resume_fun,
                                              std::move(unpacked.resume_args));
      if (r.kind == vm::RunResult::Kind::kHalted) {
        final_code = r.exit_code;
        break;
      }
      hop_img = migrate::Migrator::read_image_file(file);
    }
    EXPECT_EQ(final_code, kSum) << (dest_jit ? "native" : "interpreted")
                                << " destination";
  }
}

// ---------------------------------------------------------------------------
// FIR legalization (the canonicalization pass the native tier relies on).
// ---------------------------------------------------------------------------

TEST(Legalize, CanonicalizesConstLeftOperands) {
  ProgramBuilder pb("leg");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto v = fb.let_atom("v", Type::integer(), Atom::integer(9));
    // Commutative: swapped. Compare: mirrored. Sub: must stay put (there
    // is no mirror for it).
    auto a = fb.let_binop("a", Binop::kAdd, Atom::integer(1), fb.v(v));
    auto c = fb.let_binop("c", Binop::kLt, Atom::integer(3), fb.v(v));
    auto s = fb.let_binop("s", Binop::kSub, Atom::integer(10), fb.v(v));
    auto t1 = fb.let_binop("t1", Binop::kAdd, fb.v(a), fb.v(c));
    auto t2 = fb.let_binop("t2", Binop::kAdd, fb.v(t1), fb.v(s));
    fb.halt(fb.v(t2));
  }
  fir::Program prog = pb.take("main");
  EXPECT_EQ(fir::legalize(prog), 2u);  // a and c rewritten, s untouched
  EXPECT_EQ(fir::legalize(prog), 0u);  // idempotent
  // (1+9) + (3<9) + (10-9) = 10 + 1 + 1
  vm::Process p(std::move(prog));
  EXPECT_EQ(p.run().exit_code, 12);
}

TEST(Legalize, MirroredComparesPreserveSemantics) {
  auto eval = [](Binop op, std::int64_t lhs_const, std::int64_t rhs_var) {
    ProgramBuilder pb("mirror");
    auto main_id = pb.declare("main", {});
    {
      auto fb = pb.define(main_id, {});
      auto v = fb.let_atom("v", Type::integer(), Atom::integer(rhs_var));
      auto c = fb.let_binop("c", op, Atom::integer(lhs_const), fb.v(v));
      fb.halt(fb.v(c));
    }
    vm::Process p(pb.take("main"));  // Process ctor legalizes
    return p.run().exit_code;
  };
  for (std::int64_t k : {-3, 4, 5, 6}) {
    EXPECT_EQ(eval(Binop::kLt, 5, k), 5 < k ? 1 : 0);
    EXPECT_EQ(eval(Binop::kLe, 5, k), 5 <= k ? 1 : 0);
    EXPECT_EQ(eval(Binop::kGt, 5, k), 5 > k ? 1 : 0);
    EXPECT_EQ(eval(Binop::kGe, 5, k), 5 >= k ? 1 : 0);
  }
}

}  // namespace
