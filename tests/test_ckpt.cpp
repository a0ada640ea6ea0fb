// The incremental checkpoint store: chunking, the content-addressed
// store (dedup, retention, GC, integrity fallback), shared-storage
// hygiene, and the ckpt:// protocol end-to-end through the Migrator.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "ckpt/chunker.hpp"
#include "ckpt/engine.hpp"
#include "ckpt/store.hpp"
#include "cluster/storage.hpp"
#include "fir/builder.hpp"
#include "migrate/image.hpp"
#include "migrate/migrator.hpp"
#include "migrate/protocols.hpp"
#include "migrate/server.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "vm/process.hpp"

namespace {

using namespace mojave;
namespace fs = std::filesystem;

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------- chunker

TEST(Chunker, ContentDefinedRespectsBoundsAndReassembles) {
  ckpt::ChunkerConfig cfg;
  const auto data = random_bytes(200 * 1024, 2);
  const auto chunks = ckpt::chunk_image(data, cfg).chunks;
  ASSERT_GT(chunks.size(), 1u);

  std::size_t total = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    total += chunks[i].bytes.size();
    EXPECT_LE(chunks[i].bytes.size(), cfg.max_bytes);
    if (i + 1 < chunks.size()) {
      EXPECT_GE(chunks[i].bytes.size(), cfg.min_bytes);
    }
  }
  EXPECT_EQ(total, data.size());

  // The spans alias the input in order: reassembly is the identity.
  std::vector<std::byte> joined;
  for (const auto& c : chunks) {
    joined.insert(joined.end(), c.bytes.begin(), c.bytes.end());
  }
  EXPECT_EQ(joined, data);

  // Deterministic.
  const auto again = ckpt::chunk_image(data, cfg).chunks;
  ASSERT_EQ(again.size(), chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(again[i].bytes.data(), chunks[i].bytes.data());
  }
}

TEST(Chunker, LocalEditOnlyDisturbsNearbyChunks) {
  ckpt::ChunkerConfig cfg;
  auto data = random_bytes(256 * 1024, 3);
  const auto keys_of = [&](std::span<const std::byte> img) {
    std::set<std::string> keys;
    for (const auto& c : ckpt::chunk_image(img, cfg).chunks) {
      keys.insert(c.key.hex());
    }
    return keys;
  };
  const auto before = keys_of(data);
  for (std::size_t i = 0; i < 512; ++i) {
    data[100 * 1024 + i] ^= std::byte{0x5a};
  }
  const auto after = keys_of(data);
  std::size_t fresh = 0;
  for (const auto& k : after) fresh += before.count(k) == 0 ? 1 : 0;
  // A 512-byte edit must not re-key more than a handful of chunks — this
  // is the boundary-resynchronisation property fixed-size chunking lacks.
  EXPECT_LE(fresh, 4u);
  EXPECT_GT(before.size(), 20u);
}

TEST(Chunker, RejectsBadConfig) {
  ckpt::ChunkerConfig cfg;
  cfg.target_bytes = 1000;  // not a power of two
  EXPECT_THROW((void)ckpt::chunk_image(random_bytes(64, 4), cfg), Error);
  cfg = {};
  cfg.min_bytes = 1 << 16;  // min > max
  cfg.max_bytes = 1 << 10;
  EXPECT_THROW((void)ckpt::chunk_image(random_bytes(64, 4), cfg), Error);
}

// The fused pass against a reference built from separate passes: the
// plain gear loop for the cuts, ChunkKey::of per chunk and fnv1a over the
// whole image. Any drift would re-key stored chunks and break dedup
// against existing stores.
std::vector<std::size_t> reference_cut_lengths(std::span<const std::byte> data,
                                               const ckpt::ChunkerConfig& cfg) {
  std::vector<std::size_t> lens;
  // The gear table: splitmix64 over the byte value, as the chunker's.
  std::uint64_t gear[256];
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (auto& g : gear) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    g = z ^ (z >> 31);
  }
  const std::uint64_t mask = cfg.target_bytes - 1;
  std::size_t start = 0;
  while (start < data.size()) {
    const std::size_t remaining = data.size() - start;
    if (remaining <= cfg.min_bytes) {
      lens.push_back(remaining);
      break;
    }
    const std::size_t limit = std::min(remaining, cfg.max_bytes);
    std::uint64_t h = 0;
    std::size_t len = 0;
    for (; len < limit; ++len) {
      h = (h << 1) + gear[static_cast<std::uint8_t>(data[start + len])];
      if (len + 1 >= cfg.min_bytes && (h & mask) == 0) {
        ++len;
        break;
      }
    }
    lens.push_back(len);
    start += len;
  }
  return lens;
}

void expect_matches_reference(std::span<const std::byte> data,
                              const ckpt::ChunkerConfig& cfg) {
  const auto got = ckpt::chunk_image(data, cfg);
  EXPECT_EQ(got.image_hash, fnv1a(data));
  const auto lens = reference_cut_lengths(data, cfg);
  ASSERT_EQ(got.chunks.size(), lens.size());
  std::size_t off = 0;
  for (std::size_t i = 0; i < lens.size(); ++i) {
    const auto want = data.subspan(off, lens[i]);
    EXPECT_EQ(got.chunks[i].bytes.data(), want.data()) << "chunk " << i;
    EXPECT_EQ(got.chunks[i].bytes.size(), want.size()) << "chunk " << i;
    EXPECT_EQ(got.chunks[i].key, ckpt::ChunkKey::of(want)) << "chunk " << i;
    off += lens[i];
  }
  EXPECT_EQ(off, data.size());
}

// Random bytes whose first cut falls exactly at min_bytes, the first
// position where a cut may fall: only the last few bytes before a position
// decide whether the gear hash matches there, so one of the 256 values of
// the byte at min_bytes - 1 makes it match for about one seed in eight.
std::vector<std::byte> image_cut_at_min(const ckpt::ChunkerConfig& cfg) {
  for (std::uint64_t seed = 500; seed < 600; ++seed) {
    auto img = random_bytes(2 * cfg.min_bytes, seed);
    for (int b = 0; b < 256; ++b) {
      img[cfg.min_bytes - 1] = static_cast<std::byte>(b);
      if (reference_cut_lengths(img, cfg).front() == cfg.min_bytes) {
        const auto rest = random_bytes(3 * cfg.max_bytes, seed);
        img.insert(img.end(), rest.begin(), rest.end());
        return img;
      }
    }
  }
  return {};
}

TEST(Chunker, FusedPassMatchesSeparatePasses) {
  const ckpt::ChunkerConfig cfg;
  const std::size_t m = cfg.max_bytes;
  std::uint64_t seed = 40;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, cfg.min_bytes - 1, cfg.min_bytes,
        cfg.min_bytes + 1, cfg.target_bytes, m, m + 1, 3 * m, 7 * m + 5,
        std::size_t{200 * 1024}}) {
    SCOPED_TRACE(testing::Message() << "size " << n);
    expect_matches_reference(random_bytes(n, ++seed), cfg);
  }
  // An all-zero image never matches the cut mask: every cut is forced at
  // max_bytes.
  SCOPED_TRACE("all zero");
  const std::vector<std::byte> zeros(5 * m + 300);
  expect_matches_reference(zeros, cfg);
  const auto chunks = ckpt::chunk_image(zeros, cfg).chunks;
  ASSERT_EQ(chunks.size(), 6u);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].bytes.size(), m);
  }
  const auto at_min = image_cut_at_min(cfg);
  ASSERT_FALSE(at_min.empty());
  expect_matches_reference(at_min, cfg);
  EXPECT_EQ(ckpt::chunk_image(at_min, cfg).chunks.front().bytes.size(),
            cfg.min_bytes);
}

// ----------------------------------------------------------------- engine

std::vector<std::byte> bytes_of(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (const int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(ChunkEngine, ZeroRleRoundTrips) {
  const auto round_trip = [](const std::vector<std::byte>& raw) {
    const auto packed = ckpt::zero_rle_compress(raw);
    EXPECT_EQ(ckpt::zero_rle_decompress(
                  packed, static_cast<std::uint32_t>(raw.size())),
              raw);
    return packed;
  };
  EXPECT_TRUE(round_trip({}).empty());

  const std::vector<std::byte> zeros(4096);
  EXPECT_LT(round_trip(zeros).size(), 16u);  // one run token

  auto no_zeros = random_bytes(3000, 30);
  for (auto& b : no_zeros) b |= std::byte{0x01};
  EXPECT_EQ(round_trip(no_zeros).size(), no_zeros.size() + 5);  // one literal

  // kMinRun is 16: a shorter zero run rides inside the literal, a run of
  // 16 or more becomes its own token and splits the literal in two.
  for (const std::size_t run : {15u, 16u, 17u}) {
    SCOPED_TRACE(testing::Message() << "zero run " << run);
    auto img = bytes_of({7, 7, 7});
    img.insert(img.end(), run, std::byte{0});
    img.push_back(std::byte{9});
    const auto packed = round_trip(img);
    if (run < 16) {
      EXPECT_EQ(packed.size(), 5 + img.size());
    } else {
      EXPECT_EQ(packed.size(), (5 + 3) + 5 + (5 + 1));
    }
  }
}

TEST(ChunkEngine, ZeroRleRejectsMalformedStreams) {
  // Tokens are u8 kind (0 zero run, 1 literal) | u32 little-endian length.
  EXPECT_THROW((void)ckpt::zero_rle_decompress(bytes_of({2, 1, 0, 0, 0}), 1),
               ImageError);  // bad token
  EXPECT_THROW((void)ckpt::zero_rle_decompress(bytes_of({0, 10, 0, 0, 0}), 5),
               ImageError);  // overrun
  EXPECT_THROW((void)ckpt::zero_rle_decompress(bytes_of({0, 3, 0, 0, 0}), 5),
               ImageError);  // short decode
}

/// Chunk `i` of the engine tests: alternately zero-heavy (stored with the
/// RLE codec) and random (stored raw).
std::vector<std::byte> engine_chunk(std::uint64_t i) {
  if (i % 2 == 0) return random_bytes(300 + i, 900 + i);
  std::vector<std::byte> data(700 + i);
  std::memcpy(data.data(), &i, sizeof(i));
  return data;
}

TEST(ChunkEngine, CompactedExtentsReopenBitIdentical) {
  const auto dir = fresh_dir("mj_engine_compact_reopen");
  constexpr std::uint64_t kChunks = 64;
  {
    ckpt::ChunkEngine::Options opts;
    opts.extent_target_bytes = 4096;  // many extents, so compaction runs
    ckpt::ChunkEngine engine(dir, opts);
    for (std::uint64_t i = 0; i < kChunks; ++i) {
      const auto data = engine_chunk(i);
      engine.put(ckpt::ChunkKey::of(data), data);
    }
    for (std::uint64_t i = 0; i < kChunks; i += 2) {
      engine.remove(ckpt::ChunkKey::of(engine_chunk(i)));
    }
    const auto compacted = engine.compact(true);
    EXPECT_GT(compacted.extents_compacted, 0u);
    EXPECT_GT(compacted.bytes_reclaimed, 0u);
  }

  ckpt::ChunkEngine reopened(dir);
  EXPECT_EQ(reopened.live_chunks().size(), kChunks / 2);
  for (std::uint64_t i = 0; i < kChunks; ++i) {
    SCOPED_TRACE(testing::Message() << "chunk " << i);
    const auto data = engine_chunk(i);
    const auto key = ckpt::ChunkKey::of(data);
    if (i % 2 == 0) {
      EXPECT_FALSE(reopened.exists(key));
      EXPECT_FALSE(reopened.read(key).has_value());
    } else {
      const auto back = reopened.read(key);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, data);
    }
  }
}

TEST(ChunkEngine, SecondEngineSeesPutsAndTombstones) {
  // Two engines on one directory, as two agent processes sharing a
  // checkpoint store have: a miss rescans the other engine's extent.
  const auto dir = fresh_dir("mj_engine_two_writers");
  ckpt::ChunkEngine writer(dir);
  ckpt::ChunkEngine reader(dir);
  const auto d1 = engine_chunk(1), d2 = engine_chunk(2), d3 = engine_chunk(3);
  const auto k1 = ckpt::ChunkKey::of(d1), k2 = ckpt::ChunkKey::of(d2),
             k3 = ckpt::ChunkKey::of(d3);

  writer.put(k1, d1);
  writer.put(k2, d2);
  EXPECT_TRUE(reader.exists(k1));
  EXPECT_EQ(reader.read(k2), d2);

  // The tombstone reaches the reader with the next rescan, which a miss
  // on the newly put k3 triggers.
  writer.remove(k1);
  writer.put(k3, d3);
  EXPECT_EQ(reader.read(k3), d3);
  EXPECT_FALSE(reader.exists(k1));
  EXPECT_FALSE(reader.read(k1).has_value());

  // A put after the tombstone brings the key back.
  writer.put(k1, d1);
  EXPECT_TRUE(reader.exists(k1));
  EXPECT_EQ(reader.read(k1), d1);
}

// --------------------------------------------------------------- manifest

TEST(Manifest, EncodeDecodeRoundTrip) {
  ckpt::Manifest m;
  m.snapshot = "rank_3";
  m.seq = 42;
  m.image_bytes = 7;
  m.image_hash = 0xdeadbeef;
  m.chunks = {{ckpt::ChunkKey{1, 2}, 3}, {ckpt::ChunkKey{4, 5}, 4}};
  const auto bytes = m.encode();
  const auto d = ckpt::Manifest::decode(bytes);
  EXPECT_EQ(d.snapshot, m.snapshot);
  EXPECT_EQ(d.seq, m.seq);
  EXPECT_EQ(d.image_bytes, m.image_bytes);
  EXPECT_EQ(d.image_hash, m.image_hash);
  ASSERT_EQ(d.chunks.size(), 2u);
  EXPECT_EQ(d.chunks[1].key, (ckpt::ChunkKey{4, 5}));
  EXPECT_EQ(d.chunks[1].length, 4u);

  // Any flipped byte breaks the trailing checksum.
  auto bad = bytes;
  bad[bytes.size() / 2] ^= std::byte{0x01};
  EXPECT_THROW((void)ckpt::Manifest::decode(bad), ImageError);
  auto truncated = bytes;
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW((void)ckpt::Manifest::decode(truncated), ImageError);
}

// ------------------------------------------------------------------ store

TEST(CheckpointStore, PutRestoreRoundTrip) {
  ckpt::CheckpointStore store(fresh_dir("mj_ckpt_roundtrip"));
  const auto img = random_bytes(100 * 1024, 10);
  const auto put = store.put("rank_0", img);
  EXPECT_EQ(put.seq, 1u);
  EXPECT_TRUE(put.first_snapshot);
  EXPECT_EQ(put.bytes_total, img.size());
  EXPECT_EQ(put.chunks_written, put.chunks_total);

  ckpt::RestoreStats rs;
  const auto back = store.restore("rank_0", &rs);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, img);
  EXPECT_EQ(rs.seq, 1u);
  EXPECT_EQ(rs.manifests_skipped, 0u);
  EXPECT_TRUE(store.has_snapshot("rank_0"));
  EXPECT_FALSE(store.has_snapshot("rank_9"));
  EXPECT_EQ(store.latest_seq("rank_0"), 1u);
}

TEST(CheckpointStore, IdenticalPutWritesNothing) {
  ckpt::CheckpointStore store(fresh_dir("mj_ckpt_identical"));
  const auto img = random_bytes(64 * 1024, 11);
  (void)store.put("a", img);
  const auto again = store.put("a", img);
  EXPECT_EQ(again.seq, 2u);
  EXPECT_FALSE(again.first_snapshot);
  EXPECT_EQ(again.chunks_written, 0u);
  EXPECT_EQ(again.bytes_written, 0u);
  EXPECT_EQ(again.chunks_deduped, again.chunks_total);
}

TEST(CheckpointStore, SmallEditWritesSmallDelta) {
  // The acceptance shape: a second checkpoint whose image differs in one
  // small region uploads well under 25% of the full image.
  ckpt::CheckpointStore store(fresh_dir("mj_ckpt_delta"));
  auto img = random_bytes(256 * 1024, 12);
  (void)store.put("a", img);
  for (std::size_t i = 0; i < 1024; ++i) {
    img[37 * 1024 + i] ^= std::byte{0xff};
  }
  const auto put = store.put("a", img);
  EXPECT_GT(put.chunks_deduped, 0u);
  EXPECT_LT(put.bytes_written, put.bytes_total / 4);

  const auto back = store.restore("a");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, img);
}

TEST(CheckpointStore, DedupesAcrossSnapshots) {
  ckpt::CheckpointStore store(fresh_dir("mj_ckpt_cross"));
  const auto img = random_bytes(64 * 1024, 13);
  (void)store.put("rank_0", img);
  const auto other = store.put("rank_1", img);
  EXPECT_TRUE(other.first_snapshot);
  EXPECT_EQ(other.chunks_written, 0u);
  EXPECT_GE(store.stats().dedup_ratio(), 1.9);
}

/// Put `v1` then `v2` as snapshot "a", and flip payload bytes of a chunk
/// only the newest checkpoint references, in place inside its extent file.
void put_two_and_corrupt_the_newest(ckpt::CheckpointStore& store,
                                    const std::vector<std::byte>& v1,
                                    const std::vector<std::byte>& v2) {
  (void)store.put("a", v1);
  (void)store.put("a", v2);
  const auto manifests = store.manifests("a");
  ASSERT_EQ(manifests.size(), 2u);
  std::set<std::string> old_keys;
  for (const auto& e : manifests[0].chunks) old_keys.insert(e.key.hex());
  std::optional<ckpt::ChunkKey> fresh_key;
  for (const auto& e : manifests[1].chunks) {
    if (old_keys.count(e.key.hex()) == 0) fresh_key = e.key;
  }
  ASSERT_TRUE(fresh_key.has_value());
  const auto loc = store.engine().locate(*fresh_key);
  ASSERT_TRUE(loc.has_value());
  ASSERT_GT(loc->stored_len, 0u);
  std::fstream ext(loc->extent,
                   std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(ext.good());
  ext.seekp(static_cast<std::streamoff>(loc->payload_offset));
  const char junk[] = "junk";
  ext.write(junk, std::min<std::streamsize>(
                      4, static_cast<std::streamsize>(loc->stored_len)));
  ASSERT_TRUE(ext.good());
}

/// Restore must not surface v2 (or garbage): it falls back to the
/// previous complete checkpoint, and verify() sees the same corruption.
void expect_falls_back_to_v1(const ckpt::CheckpointStore& store,
                             const std::vector<std::byte>& v1) {
  ckpt::RestoreStats rs;
  const auto back = store.restore("a", &rs);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, v1);
  EXPECT_EQ(rs.seq, 1u);
  EXPECT_EQ(rs.manifests_skipped, 1u);

  const auto report = store.verify();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.chunks_corrupt, 1u);
}

std::pair<std::vector<std::byte>, std::vector<std::byte>> two_versions() {
  auto v1 = random_bytes(64 * 1024, 14);
  auto v2 = v1;
  for (std::size_t i = 0; i < 4096; ++i) v2[20 * 1024 + i] = std::byte{0xab};
  return {std::move(v1), std::move(v2)};
}

TEST(CheckpointStore, CorruptChunkFallsBackToPreviousManifest) {
  ckpt::CheckpointStore::Options opts;
  opts.auto_gc = false;
  const auto root = fresh_dir("mj_ckpt_corrupt_chunk");
  const auto [v1, v2] = two_versions();
  {
    ckpt::CheckpointStore store(root, opts);
    put_two_and_corrupt_the_newest(store, v1, v2);
  }
  // A fresh store rebuilds its index from the extents.
  const ckpt::CheckpointStore store(root, opts);
  expect_falls_back_to_v1(store, v1);
}

TEST(CheckpointStore, WritingInstanceSeesCorruptChunkOnDisk) {
  // The store that wrote the chunk reads it back from the extent file,
  // not from memory, so it sees the corruption too.
  ckpt::CheckpointStore::Options opts;
  opts.auto_gc = false;
  ckpt::CheckpointStore store(fresh_dir("mj_ckpt_corrupt_same_store"), opts);
  const auto [v1, v2] = two_versions();
  put_two_and_corrupt_the_newest(store, v1, v2);
  expect_falls_back_to_v1(store, v1);
}

TEST(CheckpointStore, CorruptOrMissingEverythingMeansNoRestore) {
  ckpt::CheckpointStore::Options opts;
  opts.auto_gc = false;
  ckpt::CheckpointStore store(fresh_dir("mj_ckpt_all_bad"), opts);
  (void)store.put("a", random_bytes(8 * 1024, 15));
  const char junk[] = "x";
  for (const auto& name : store.storage().list(
           ckpt::CheckpointStore::kManifestDir)) {
    store.storage().write(name,
                          std::as_bytes(std::span(junk, std::size_t{1})));
  }
  EXPECT_FALSE(store.restore("a").has_value());
}

TEST(CheckpointStore, RetentionPrunesAndGcKeepsSharedChunks) {
  ckpt::CheckpointStore::Options opts;
  opts.keep_manifests = 2;
  ckpt::CheckpointStore store(fresh_dir("mj_ckpt_gc"), opts);

  // A stable prefix shared by every version + a churning suffix.
  const auto stable = random_bytes(32 * 1024, 16);
  for (int v = 0; v < 5; ++v) {
    auto img = stable;
    const auto churn = random_bytes(16 * 1024, 100 + v);
    img.insert(img.end(), churn.begin(), churn.end());
    (void)store.put("a", img);
  }
  // Retention kept only the newest two manifests…
  EXPECT_EQ(store.manifests("a").size(), 2u);
  EXPECT_EQ(store.latest_seq("a"), 5u);
  // …and GC evicted the dropped versions' churn without touching the
  // shared prefix: everything still restores bit-exact.
  const auto report = store.verify();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.chunks_orphaned, 0u);
  const auto back = store.restore("a");
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(std::equal(stable.begin(), stable.end(), back->begin()));
}

TEST(CheckpointStore, PutCollectsGarbageOnlyWhenRetentionPrunes) {
  ckpt::CheckpointStore::Options opts;
  opts.keep_manifests = 2;
  ckpt::CheckpointStore store(fresh_dir("mj_ckpt_gc_when"), opts);
  auto& gc_runs = obs::MetricsRegistry::instance().counter("ckpt.gc_runs");
  // A chunk no manifest references, as a crashed put leaves behind.
  const auto stray = random_bytes(3000, 50);
  const auto stray_key = ckpt::ChunkKey::of(stray);
  store.engine().put(stray_key, stray);
  store.engine().flush();

  // Puts that keep the snapshot within keep_manifests collect nothing.
  const auto runs0 = gc_runs.value();
  for (int v = 0; v < 2; ++v) {
    const auto put = store.put("a", random_bytes(16 * 1024, 60 + v));
    EXPECT_EQ(put.manifests_pruned, 0u);
    EXPECT_EQ(put.chunks_evicted, 0u);
  }
  EXPECT_EQ(gc_runs.value(), runs0);
  EXPECT_TRUE(store.engine().exists(stray_key));
  EXPECT_EQ(store.verify().chunks_orphaned, 1u);

  // The first put that prunes runs GC, which evicts the stray chunk along
  // with the pruned version's chunks.
  const auto pruning = store.put("a", random_bytes(16 * 1024, 62));
  EXPECT_EQ(gc_runs.value(), runs0 + 1);
  EXPECT_EQ(pruning.manifests_pruned, 1u);
  EXPECT_GT(pruning.chunks_evicted, 1u);
  EXPECT_FALSE(store.engine().exists(stray_key));

  // An explicit collect_garbage() evicts at once.
  store.engine().put(stray_key, stray);
  const auto gc = store.collect_garbage();
  EXPECT_EQ(gc_runs.value(), runs0 + 2);
  EXPECT_EQ(gc.manifests_pruned, 0u);
  EXPECT_EQ(gc.chunks_evicted, 1u);
  EXPECT_FALSE(store.engine().exists(stray_key));
  const auto report = store.verify();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.chunks_orphaned, 0u);
}

TEST(CheckpointStore, ConcurrentPutsIntoOneSharedStore) {
  // Two checkpointers share one store, as the agents of a LocalCluster
  // do. With keep_manifests = 2 nearly every put prunes and runs GC while
  // the other thread puts; GC must never evict a chunk the other put
  // deduplicated against.
  ckpt::CheckpointStore::Options opts;
  opts.keep_manifests = 2;
  auto store =
      ckpt::CheckpointStore::open_shared(fresh_dir("mj_ckpt_concurrent"), opts);
  const auto shared = random_bytes(32 * 1024, 70);
  constexpr int kPuts = 12;
  std::vector<std::byte> last[2];
  std::string errors[2];
  const auto checkpointer = [&](int t) {
    try {
      for (int v = 0; v < kPuts; ++v) {
        auto img = shared;
        const auto churn = random_bytes(8 * 1024, 1000 * (t + 1) + v);
        img.insert(img.end(), churn.begin(), churn.end());
        (void)store->put("rank_" + std::to_string(t), img);
        last[t] = std::move(img);
      }
    } catch (const std::exception& e) {
      errors[t] = e.what();
    }
  };
  std::thread a(checkpointer, 0);
  std::thread b(checkpointer, 1);
  a.join();
  b.join();

  for (int t = 0; t < 2; ++t) {
    const std::string snapshot = "rank_" + std::to_string(t);
    EXPECT_EQ(errors[t], "");
    EXPECT_EQ(store->latest_seq(snapshot), std::uint64_t{kPuts});
    EXPECT_EQ(store->manifests(snapshot).size(), 2u);
    const auto back = store->restore(snapshot);
    ASSERT_TRUE(back.has_value()) << snapshot;
    EXPECT_EQ(*back, last[t]) << snapshot;
  }
  const auto report = store->verify();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.chunks_orphaned, 0u);
}

TEST(CheckpointStore, ValidatesSnapshotNames) {
  ckpt::CheckpointStore store(fresh_dir("mj_ckpt_names"));
  const auto img = random_bytes(1024, 17);
  EXPECT_THROW((void)store.put("", img), Error);
  EXPECT_THROW((void)store.put("a/b", img), Error);
  EXPECT_THROW((void)store.put("a@2", img), Error);
  EXPECT_THROW((void)store.put("..", img), Error);
  (void)store.put("ok-Name_1.x", img);
  EXPECT_EQ(store.snapshots(), std::vector<std::string>{"ok-Name_1.x"});
}

// ---------------------------------------------------- storage hygiene

TEST(SharedStorage, ListHidesInFlightAndSweepsStaleTempFiles) {
  const auto dir = fresh_dir("mj_storage_tmp");
  cluster::SharedStorage storage(dir);
  const auto img = random_bytes(128, 18);
  storage.write("sub/real.obj", img);

  // A fresh temp file (in-flight write) is hidden but not deleted…
  std::ofstream(dir / "sub" / "inflight.obj.1234.5.tmp") << "partial";
  auto names = storage.list();
  EXPECT_EQ(names, std::vector<std::string>{"sub/real.obj"});
  EXPECT_TRUE(fs::exists(dir / "sub" / "inflight.obj.1234.5.tmp"));

  // …until it is old enough to be crash debris, then list() sweeps it.
  fs::last_write_time(dir / "sub" / "inflight.obj.1234.5.tmp",
                      fs::file_time_type::clock::now() - std::chrono::minutes(2));
  names = storage.list("sub");
  EXPECT_EQ(names, std::vector<std::string>{"sub/real.obj"});
  EXPECT_FALSE(fs::exists(dir / "sub" / "inflight.obj.1234.5.tmp"));
}

// --------------------------------------------------------- ckpt:// wiring

TEST(CkptProtocol, TargetParsing) {
  const auto t = migrate::MigrateTarget::parse("ckpt:///var/store/rank_2");
  EXPECT_EQ(t.protocol, migrate::Protocol::kCkpt);
  EXPECT_EQ(t.path, "/var/store");
  EXPECT_EQ(t.snapshot, "rank_2");
  EXPECT_EQ(t.kind, migrate::ImageKind::kFir);
  EXPECT_EQ(t.to_string(), "ckpt:///var/store/rank_2");

  const auto b = migrate::MigrateTarget::parse("ckpt://store/name;binary");
  EXPECT_EQ(b.kind, migrate::ImageKind::kBinary);
  EXPECT_EQ(b.path, "store");
  EXPECT_EQ(b.snapshot, "name");

  EXPECT_THROW(migrate::MigrateTarget::parse("ckpt://nosnapshot"),
               MigrateError);
  EXPECT_THROW(migrate::MigrateTarget::parse("ckpt://trailing/"),
               MigrateError);
}

/// Counts to 10 via `loop`, hitting `migrate [target]` every `interval`
/// steps (same shape as the migrate tests). The accumulator lives in a
/// deliberately oversized buffer — only slot 0 ever changes, so checkpoint
/// images are nearly identical and the incremental store has real work to
/// dedupe.
fir::Program make_counter_program(const std::string& target, int interval) {
  using fir::Atom;
  using fir::Binop;
  using fir::Type;
  fir::ProgramBuilder pb("counter");
  auto main_id = pb.declare("main", {});
  auto loop_id = pb.declare(
      "loop", {Type::integer(), Type::integer(), Type::ptr()});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(4096), Atom::integer(0));
    fb.tail_call(Atom::fun_ref(loop_id),
                 {Atom::integer(1), Atom::integer(10), fb.v(buf)});
  }
  {
    auto fb = pb.define(loop_id, {"i", "total", "buf"});
    auto done = fb.let_binop("done", Binop::kGt, fb.arg(0), fb.arg(1));
    fb.branch(
        fb.v(done),
        [&](auto& t) {
          auto x =
              t.let_read("x", Type::integer(), t.arg(2), Atom::integer(0));
          t.halt(t.v(x));
        },
        [&](auto& e) {
          auto old =
              e.let_read("old", Type::integer(), e.arg(2), Atom::integer(0));
          auto acc = e.let_binop("acc", Binop::kAdd, e.v(old), e.arg(0));
          e.write(e.arg(2), Atom::integer(0), e.v(acc));
          auto i1 = e.let_binop("i1", Binop::kAdd, e.arg(0), Atom::integer(1));
          auto m = e.let_binop("m", Binop::kMod, e.arg(0),
                               Atom::integer(interval));
          auto hit = e.let_unop("hit", fir::Unop::kNot, e.v(m));
          e.branch(
              e.v(hit),
              [&](auto& t2) {
                auto tgt = t2.let_atom("tgt", Type::ptr(), pb.str(target));
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

TEST(CkptProtocol, MigratorCheckpointsIncrementallyAndResumes) {
  const auto dir = fresh_dir("mj_ckpt_proto_e2e");
  const std::string uri = "ckpt://" + dir.string() + "/counter";

  vm::Process p(make_counter_program(uri, 4));
  migrate::Migrator mig(p);
  const auto result = p.run();
  // Like the checkpoint protocol, ckpt keeps running to completion.
  EXPECT_EQ(result.kind, vm::RunResult::Kind::kHalted);
  EXPECT_EQ(result.exit_code, 55);
  ASSERT_GE(mig.events().size(), 2u);
  EXPECT_TRUE(mig.events()[0].success);
  // The first checkpoint wrote real bytes; the second, nearly-identical
  // image wrote a strictly smaller delta.
  EXPECT_GT(mig.events()[0].bytes_written, 0u);
  EXPECT_LT(mig.events()[1].bytes_written, mig.events()[0].bytes_written);

  auto store = ckpt::CheckpointStore::open_shared(dir);
  EXPECT_GE(store->latest_seq("counter"), 2u);

  // Resurrect from the URI: resumes past the last checkpoint and finishes
  // with the same sum.
  auto res = migrate::resurrect_from_uri(
      uri, {.cfg = {}, .prepare = [](vm::Process& proc) {
              proc.adopt_hook(std::make_unique<migrate::Migrator>(proc));
            }});
  EXPECT_EQ(res.run.kind, vm::RunResult::Kind::kHalted);
  EXPECT_EQ(res.run.exit_code, 55);

  // read_checkpoint_uri serves both plain paths and ckpt:// URIs.
  EXPECT_THROW((void)migrate::read_checkpoint_uri(
                   "ckpt://" + dir.string() + "/absent"),
               MigrateError);
}

TEST(CkptProtocol, ServerJournalsInboundImages) {
  const auto dir = fresh_dir("mj_ckpt_journal");
  migrate::MigrationServer::Options opts;
  opts.ckpt_journal_root = dir;
  migrate::MigrationServer server(std::move(opts));

  vm::Process p(make_counter_program(
      "migrate://127.0.0.1:" + std::to_string(server.port()), 4));
  migrate::Migrator mig(p);
  EXPECT_EQ(p.run().kind, vm::RunResult::Kind::kMigratedAway);
  (void)server.wait_for(1);

  // The inbound image was journaled (durably, before the ack) and is
  // restorable from the store under the sanitized program name.
  auto store = ckpt::CheckpointStore::open_shared(dir);
  ASSERT_TRUE(store->has_snapshot("inbound_counter"));
  const auto img = store->restore("inbound_counter");
  ASSERT_TRUE(img.has_value());
  EXPECT_EQ(migrate::inspect_image(*img).program_name, "counter");
}

}  // namespace
