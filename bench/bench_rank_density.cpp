// E9 — rank density: how many ranks one agent hosts, and what a rank
// costs, now that ranks are fibers on an event loop instead of kernel
// threads (see docs/SCALING.md).
//
// Two runs of the same communication-bound heat stencil (one grid row
// per rank, so per-rank work is constant across densities):
//
//   * small: 4 ranks over 2 agents — the comfortable thread-per-rank
//     regime the old design handled;
//   * dense: 400 ranks over 2 agents — 200 ranks per event-loop core,
//     100x the small run's density, far past where a thread-per-rank
//     agent collapses under stacks and context switches.
//
// Round-robin placement puts every halo neighbour on the *other* agent,
// so each timestep pushes every exchange through the wire — exactly the
// load the per-(peer, tick) frame coalescing exists for. The BENCH_JSON
// line reports ranks/core, the coalesce ratio (frames per flushed
// batch), and the per-rank wall-time cost of both regimes; the perf gate
// tracks density and coalescing as headline metrics.
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "dnode/agent.hpp"
#include "dnode/coord.hpp"
#include "gridapp/heat.hpp"
#include "obs/metrics.hpp"

namespace {

namespace fs = std::filesystem;
using namespace mojave;

constexpr std::uint32_t kAgents = 2;
constexpr std::uint32_t kSmallRanks = 4;
constexpr std::uint32_t kDenseRanks = 400;

// Per-rank wall cost (ms) of the last completed run at each density,
// published in BENCH_JSON after the harness finishes.
double g_perrank_small_ms = 0;
double g_perrank_dense_ms = 0;

gridapp::HeatConfig density_grid(std::uint32_t ranks) {
  gridapp::HeatConfig cfg;
  cfg.nodes = ranks;
  cfg.rows = ranks;  // one row band per rank: constant per-rank work
  cfg.cols = 16;
  cfg.steps = 10;
  cfg.checkpoint_interval = 0;
  return cfg;
}

fs::path bench_storage() {
  const fs::path dir = fs::temp_directory_path() / "mojave_bench_density";
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// One full session: 2 agents, `ranks` fibers round-robined across them,
/// run to completion. Returns wall seconds for the compute phase (launch
/// through last RESULT), excluding agent/coordinator setup and teardown.
double run_density(std::uint32_t ranks, const fs::path& storage,
                   benchmark::State& state) {
  dnode::AgentConfig acfg;
  acfg.storage_root = storage;
  dnode::NodeAgent a0(acfg), a1(acfg);

  dnode::CoordinatorConfig ccfg;
  ccfg.agents = {{"127.0.0.1", a0.port()}, {"127.0.0.1", a1.port()}};
  ccfg.num_ranks = ranks;
  ccfg.recv_timeout_seconds = 60.0;
  dnode::Coordinator coord(std::move(ccfg));

  const auto start = std::chrono::steady_clock::now();
  coord.launch_spmd(gridapp::heat_program(density_grid(ranks)));
  if (!coord.wait_all(180.0)) {
    state.SkipWithError("density run hung");
    return 0;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (const auto& r : coord.results()) {
    if (r.result_kind != 0) {
      state.SkipWithError("rank failed");
      return 0;
    }
  }
  coord.shutdown_agents();
  return wall;
}

void BM_RankDensitySmall(benchmark::State& state) {
  const fs::path storage = bench_storage();
  for (auto _ : state) {
    const double wall = run_density(kSmallRanks, storage, state);
    g_perrank_small_ms = wall * 1e3 / kSmallRanks;
  }
  state.counters["perrank_ms"] = g_perrank_small_ms;
}

void BM_RankDensityDense(benchmark::State& state) {
  const fs::path storage = bench_storage();
  for (auto _ : state) {
    const double wall = run_density(kDenseRanks, storage, state);
    g_perrank_dense_ms = wall * 1e3 / kDenseRanks;
  }
  state.counters["perrank_ms"] = g_perrank_dense_ms;
  state.counters["ranks_per_core"] =
      static_cast<double>(kDenseRanks) / kAgents;
}

}  // namespace

BENCHMARK(BM_RankDensitySmall)->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK(BM_RankDensityDense)->Unit(benchmark::kMillisecond)->Iterations(2);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const auto snap = mojave::obs::MetricsRegistry::instance().snapshot();
  const auto counter = [&](const char* name) -> unsigned long long {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0ull : it->second;
  };
  const double frames_out =
      static_cast<double>(counter("net.coalesce.frames_out"));
  const double batches =
      static_cast<double>(counter("net.coalesce.flush_batches"));
  const double coalesce_ratio = batches > 0 ? frames_out / batches : 0;
  const double cost_ratio = g_perrank_small_ms > 0
                                ? g_perrank_dense_ms / g_perrank_small_ms
                                : 0;
  // Peak RSS covers the whole process; the dense run's 400 co-hosted
  // ranks dominate it, so rss/ranks bounds the per-fiber memory cost.
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  std::printf(
      "BENCH_JSON {\"bench\":\"rank_density\","
      "\"ranks_per_core\":%g,\"coalesce_ratio\":%.3f,"
      "\"perrank_small_ms\":%.3f,\"perrank_dense_ms\":%.3f,"
      "\"perrank_cost_ratio\":%.3f,\"peak_rss_mb\":%.1f,"
      "\"coalesce_frames_out\":%llu,\"coalesce_batches\":%llu,"
      "\"coalesce_batched_frames\":%llu,\"coalesce_zero_copy\":%llu,"
      "\"sched_slices\":%llu,\"sched_blocks\":%llu,\"sched_wakes\":%llu}\n",
      static_cast<double>(kDenseRanks) / kAgents, coalesce_ratio,
      g_perrank_small_ms, g_perrank_dense_ms, cost_ratio, peak_rss_mb,
      counter("net.coalesce.frames_out"),
      counter("net.coalesce.flush_batches"),
      counter("net.coalesce.batched_frames"),
      counter("net.coalesce.zero_copy_frames"), counter("sched.slices"),
      counter("sched.blocks"), counter("sched.wakes"));
  return 0;
}
