// Tests for the extended MojC syntax (for / do-while / compound
// assignment / ++ / --), and the migration-equivalence property: a
// program that checkpoints mid-run and is resumed must compute exactly
// what the uninterrupted program computes — for randomized programs.
#include <gtest/gtest.h>

#include <filesystem>

#include "frontend/compile.hpp"
#include "migrate/image.hpp"
#include "migrate/migrator.hpp"
#include "support/rng.hpp"
#include "vm/process.hpp"

namespace {

using namespace mojave;
namespace fs = std::filesystem;

std::int64_t run_mojc(const std::string& src) {
  vm::ProcessConfig cfg;
  cfg.max_instructions = 50'000'000;
  vm::Process p(frontend::compile_source("t", src), cfg);
  const auto r = p.run();
  EXPECT_EQ(r.kind, vm::RunResult::Kind::kHalted);
  return r.exit_code;
}

TEST(FrontendExt, ForLoop) {
  EXPECT_EQ(run_mojc("int main() { int acc = 0;"
                     "  for (int i = 1; i <= 10; i++) { acc += i; }"
                     "  return acc; }"),
            55);
}

TEST(FrontendExt, ForLoopContinueRunsStep) {
  // If continue skipped the step, this would loop forever (caught by the
  // instruction fuse); correct semantics: 0+1+2+4 = 7 for i in 0..4 \ {3}.
  EXPECT_EQ(run_mojc("int main() { int acc = 0;"
                     "  for (int i = 0; i < 5; i++) {"
                     "    if (i == 3) { continue; }"
                     "    acc += i;"
                     "  }"
                     "  return acc; }"),
            7);
}

TEST(FrontendExt, ForLoopBreakAndInfiniteHeader) {
  EXPECT_EQ(run_mojc("int main() { int n = 0;"
                     "  for (;;) { n++; if (n == 9) { break; } }"
                     "  return n; }"),
            9);
}

TEST(FrontendExt, ForScopesInitVariable) {
  // The induction variable is scoped to the loop.
  EXPECT_THROW(
      (void)run_mojc("int main() { for (int i = 0; i < 3; i++) { } "
                     "return i; }"),
      TypeError);
}

TEST(FrontendExt, NestedForLoops) {
  EXPECT_EQ(run_mojc("int main() { int acc = 0;"
                     "  for (int i = 0; i < 4; i++) {"
                     "    for (int j = 0; j < 4; j++) {"
                     "      if (j > i) { continue; }"
                     "      acc += 1;"
                     "    }"
                     "  }"
                     "  return acc; }"),
            10);  // 1+2+3+4
}

TEST(FrontendExt, DoWhileRunsAtLeastOnce) {
  EXPECT_EQ(run_mojc("int main() { int n = 0;"
                     "  do { n++; } while (n < 0);"
                     "  return n; }"),
            1);
  EXPECT_EQ(run_mojc("int main() { int n = 0;"
                     "  do { n += 2; } while (n < 10);"
                     "  return n; }"),
            10);
}

TEST(FrontendExt, CompoundAssignmentOnScalars) {
  EXPECT_EQ(run_mojc("int main() { int x = 7;"
                     "  x += 3; x *= 2; x -= 4; x /= 2; x %= 5;"
                     "  return x; }"),
            3);  // ((7+3)*2-4)/2 = 8; 8%5 = 3
}

TEST(FrontendExt, CompoundAssignmentOnSlots) {
  EXPECT_EQ(run_mojc("int main() { ptr a = alloc(3); int i = 1;"
                     "  a[i] = 10;"
                     "  a[i] += 5;"
                     "  a[i + 0] *= 2;"
                     "  return a[1]; }"),
            30);
}

TEST(FrontendExt, IncrementDecrementStatements) {
  EXPECT_EQ(run_mojc("int main() { int x = 5; x++; x++; x--; return x; }"),
            6);
}

TEST(FrontendExt, FloatCompoundAssignment) {
  EXPECT_EQ(run_mojc("int main() { float f = 1.5; f += 2.5; f *= 2.0;"
                     "  return f2i(f); }"),
            8);
}

// --- Migration equivalence property ------------------------------------------

/// Generate a random MojC program with a checkpoint in the middle of its
/// computation; run it straight through (checkpoint protocol continues),
/// then resume the written image and compare: the resumed run must finish
/// with the same result as the uninterrupted run's remainder.
class MigrateEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

std::string random_program(Rng& rng, const std::string& ckpt_path) {
  std::ostringstream src;
  src << "int main() {\n  int acc = " << rng.below(100) << ";\n"
      << "  ptr a = alloc(8);\n"
      << "  for (int i = 0; i < 8; i++) { a[i] = i * "
      << (1 + rng.below(9)) << "; }\n";
  // Phase 1: some arithmetic.
  for (int i = 0; i < 6; ++i) {
    switch (rng.below(4)) {
      case 0: src << "  acc += a[" << rng.below(8) << "];\n"; break;
      case 1: src << "  acc *= " << (1 + rng.below(4)) << ";\n"; break;
      case 2: src << "  acc -= " << rng.below(50) << ";\n"; break;
      default:
        src << "  if (acc % 2 == 0) { acc += 7; } else { acc -= 3; }\n";
    }
  }
  src << "  migrate(\"checkpoint://" << ckpt_path << "\");\n";
  // Phase 2: more arithmetic after the checkpoint.
  for (int i = 0; i < 6; ++i) {
    switch (rng.below(3)) {
      case 0: src << "  acc += a[" << rng.below(8) << "] + " << i << ";\n";
        break;
      case 1: src << "  acc ^= " << rng.below(255) << ";\n"; break;
      default: src << "  for (int k = 0; k < 3; k++) { acc += k; }\n";
    }
  }
  src << "  return acc & 65535;\n}\n";
  return src.str();
}

TEST_P(MigrateEquivalence, ResumedRunMatchesUninterruptedRun) {
  Rng rng(GetParam());
  const fs::path dir = fs::temp_directory_path() / "mojave_equiv";
  fs::create_directories(dir);
  const fs::path ckpt =
      dir / ("s" + std::to_string(GetParam()) + ".img");
  fs::remove(ckpt);

  const std::string src = random_program(rng, ckpt.string());
  fir::Program program = frontend::compile_source("equiv", src);

  // Uninterrupted run (the checkpoint protocol continues execution).
  vm::Process straight(fir::clone_program(program));
  migrate::Migrator mig(straight);
  const auto direct = straight.run();
  ASSERT_EQ(direct.kind, vm::RunResult::Kind::kHalted);
  ASSERT_TRUE(fs::exists(ckpt));

  // Resume the image: phase 2 recomputes from the checkpointed state.
  const auto resumed = migrate::resurrect_from_uri(
      ckpt.string(), {.cfg = {}, .prepare = [](vm::Process& proc) {
               proc.adopt_hook(std::make_unique<migrate::Migrator>(proc));
             }});
  ASSERT_EQ(resumed.run.kind, vm::RunResult::Kind::kHalted);
  EXPECT_EQ(resumed.run.exit_code, direct.exit_code) << src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrateEquivalence,
                         ::testing::Values(7, 14, 21, 28, 35, 42, 49, 56, 63,
                                           70));

}  // namespace
