// E8 — the log-structured chunk-store engine: a million tiny checkpoints
// without a million files.
//
// The flat layout's failure mode is metadata, not bandwidth: one inode
// and one dirent per chunk makes small-checkpoint workloads readdir- and
// fsync-bound. The engine appends chunks to large extent files, so the
// headline numbers here are (a) small-put throughput over 10^6 distinct
// small chunks and (b) how many extent *files* that run leaves on disk —
// gated in bench/baseline.jsonl at a deliberate ceiling of 1000 (the
// flat layout would leave 10^6; a healthy engine leaves a handful).
//
// The micro benchmarks pin the per-operation costs around that headline:
// cold put, a checksum-verified read from the extent file, and compaction
// of a half-dead extent population.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "ckpt/engine.hpp"
#include "support/stopwatch.hpp"

namespace {

namespace fs = std::filesystem;
using namespace mojave;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A distinct small chunk per sequence number: 96 bytes, mostly zeros
/// with the counter stamped in — the shape of a tiny rank image delta
/// (and friendly to the zero-run codec, like real images are).
std::vector<std::byte> small_chunk(std::uint64_t i) {
  std::vector<std::byte> data(96);
  std::memcpy(data.data(), &i, sizeof(i));
  data[40] = static_cast<std::byte>(i >> 3);
  return data;
}

void BM_EngineSmallPut(benchmark::State& state) {
  const fs::path dir = fresh_dir("mojave_bench_engine_put");
  ckpt::ChunkEngine engine(dir);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto data = small_chunk(i++);
    engine.put(ckpt::ChunkKey::of(data), data);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}

void BM_EngineRead(benchmark::State& state) {
  const fs::path dir = fresh_dir("mojave_bench_engine_read");
  ckpt::ChunkEngine engine(dir);
  std::vector<ckpt::ChunkKey> keys;
  for (std::uint64_t i = 0; i < 1024; ++i) {
    const auto data = small_chunk(i);
    keys.push_back(ckpt::ChunkKey::of(data));
    engine.put(keys.back(), data);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto got = engine.read(keys[i++ % keys.size()]);
    benchmark::DoNotOptimize(got);
  }
}

/// Compact a population where half the records are tombstoned — the
/// steady state a GC'd checkpoint store converges to.
void BM_EngineCompactHalfDead(benchmark::State& state) {
  std::uint64_t reclaimed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const fs::path dir = fresh_dir("mojave_bench_engine_compact");
    ckpt::ChunkEngine::Options opts;
    opts.extent_target_bytes = 1 << 20;  // many extents, realistic husks
    opts.compact_min_idle_seconds = 0;
    ckpt::ChunkEngine engine(dir, opts);
    std::vector<ckpt::ChunkKey> keys;
    for (std::uint64_t i = 0; i < 20000; ++i) {
      const auto data = small_chunk(i);
      keys.push_back(ckpt::ChunkKey::of(data));
      engine.put(keys.back(), data);
    }
    for (std::size_t i = 0; i < keys.size(); i += 2) engine.remove(keys[i]);
    state.ResumeTiming();
    const auto stats = engine.compact(/*force=*/true);
    reclaimed = stats.bytes_reclaimed;
    benchmark::DoNotOptimize(reclaimed);
  }
  state.counters["bytes_reclaimed"] = static_cast<double>(reclaimed);
}

}  // namespace

BENCHMARK(BM_EngineSmallPut)->MinTime(0.5);
BENCHMARK(BM_EngineRead)->MinTime(0.5);
BENCHMARK(BM_EngineCompactHalfDead)->Unit(benchmark::kMillisecond)
    ->Iterations(3);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();

  // The headline run: 10^6 distinct small checkpoints into one engine,
  // then read a sample back (half of it twice). The trendline gates
  // throughput (floor) and the extent-file count (ceiling): the flat
  // layout this engine replaced would report small_put_extents = 10^6.
  constexpr std::uint64_t kSmallPuts = 1000000;
  const fs::path dir = fresh_dir("mojave_bench_engine_headline");
  ckpt::ChunkEngine engine(dir);

  mojave::Stopwatch put_sw;
  for (std::uint64_t i = 0; i < kSmallPuts; ++i) {
    const auto data = small_chunk(i);
    engine.put(ckpt::ChunkKey::of(data), data);
  }
  engine.flush();
  const double put_s = put_sw.seconds();

  mojave::Stopwatch read_sw;
  constexpr std::uint64_t kReads = 100000;
  std::uint64_t read_ok = 0;
  for (std::uint64_t i = 0; i < kReads; ++i) {
    // Stride through the keyspace, revisiting half the keys once.
    const auto data = small_chunk((i % (kReads / 2)) * 7 % kSmallPuts);
    if (engine.read(ckpt::ChunkKey::of(data)).has_value()) ++read_ok;
  }
  const double read_s = read_sw.seconds();

  const auto stats = engine.stats();
  std::printf(
      "BENCH_JSON {\"bench\":\"ckpt_engine\","
      "\"small_puts\":%llu,\"small_put_per_s\":%.0f,"
      "\"small_put_extents\":%llu,\"small_put_wall_ms\":%.1f,"
      "\"extent_file_mb\":%.1f,\"live_ratio\":%.4f,"
      "\"read_per_s\":%.0f,\"read_ok\":%llu,\"compactions\":%llu}\n",
      static_cast<unsigned long long>(kSmallPuts),
      static_cast<double>(kSmallPuts) / put_s,
      static_cast<unsigned long long>(stats.extents), put_s * 1e3,
      static_cast<double>(stats.extent_file_bytes) / (1024.0 * 1024.0),
      stats.live_ratio(), static_cast<double>(kReads) / read_s,
      static_cast<unsigned long long>(read_ok),
      static_cast<unsigned long long>(stats.compactions));

  benchmark::Shutdown();
  fs::remove_all(dir);
  return 0;
}
