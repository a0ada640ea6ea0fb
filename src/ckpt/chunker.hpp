// Byte slicing for the content-addressed checkpoint store.
//
// A packed process image is split into chunks before storage by gear-hash
// content-defined chunking (CDC): a cut is placed where a rolling hash of
// the trailing bytes matches a mask, so boundaries are a function of
// *content*, not position. An edit disturbs only the chunk(s) it touches;
// everything downstream re-aligns and dedupes against the previous
// snapshot, where fixed-size slices would shift every later boundary.
//
// Chunking is deterministic: the same bytes always produce the same chunk
// sequence, which is what makes cross-snapshot and cross-node
// deduplication sound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ckpt/key.hpp"

namespace mojave::ckpt {

struct ChunkerConfig {
  /// No cut before this many bytes; also the tail-chunk floor.
  std::size_t min_bytes = 512;
  /// Expected average chunk size; must be a power of two (it forms the
  /// cut mask).
  std::size_t target_bytes = 2048;
  /// Forced cut at this size even if the hash never matches.
  std::size_t max_bytes = 8192;

  /// Throws Error if the parameters are inconsistent.
  void validate() const;
};

struct Chunk {
  std::span<const std::byte> bytes;  ///< aliases the chunked image
  ChunkKey key;                      ///< ChunkKey::of(bytes)
};

struct ChunkedImage {
  /// Consecutive chunks; concatenating them reproduces the image exactly.
  std::vector<Chunk> chunks;
  std::uint64_t image_hash = 0;  ///< fnv1a(image)
};

/// Split `data` into chunks and key each one, in one pass over the bytes:
/// the cut hash, each chunk's `hi` key lane and the whole-image hash
/// advance together, and the `lo` lane runs over each chunk at its cut,
/// while the chunk is still in cache. No copies: chunks alias `data`.
[[nodiscard]] ChunkedImage chunk_image(std::span<const std::byte> data,
                                       const ChunkerConfig& cfg);

}  // namespace mojave::ckpt
