#include "ckpt/chunker.hpp"

#include <algorithm>
#include <array>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace mojave::ckpt {

namespace {

/// Deterministic 256-entry gear table (splitmix64 over the byte value).
/// Constant across builds and platforms, so stores written by one node
/// chunk identically on every other node.
std::array<std::uint64_t, 256> make_gear_table() {
  std::array<std::uint64_t, 256> gear{};
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (auto& g : gear) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    g = z ^ (z >> 31);
  }
  return gear;
}

const std::array<std::uint64_t, 256>& gear_table() {
  static const std::array<std::uint64_t, 256> table = make_gear_table();
  return table;
}

}  // namespace

void ChunkerConfig::validate() const {
  if (target_bytes == 0 || (target_bytes & (target_bytes - 1)) != 0) {
    throw Error("chunker: target_bytes must be a nonzero power of two");
  }
  if (min_bytes == 0 || min_bytes > target_bytes || target_bytes > max_bytes) {
    throw Error("chunker: need 0 < min_bytes <= target_bytes <= max_bytes");
  }
}

ChunkedImage chunk_image(std::span<const std::byte> data,
                         const ChunkerConfig& cfg) {
  cfg.validate();
  ChunkedImage out;
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(data.data());
  std::uint64_t image = kFnvOffset;  // fnv1a(data), advanced byte by byte
  std::uint64_t hi = ChunkKey::kHiSeed;
  // Both FNV-1a lanes take the same byte; they are independent multiply
  // chains, so the CPU overlaps them.
  const auto absorb = [&](std::uint8_t b) {
    hi = (hi ^ b) * kFnvPrime;
    image = (image ^ b) * kFnvPrime;
  };
  std::size_t start = 0;
  const auto cut = [&](std::size_t len) {
    const auto chunk = data.subspan(start, len);
    out.chunks.push_back({chunk, ChunkKey::with_hi(hi, chunk)});
    start += len;
    hi = ChunkKey::kHiSeed;
  };

  // Gear CDC: g = (g << 1) + gear[b]; cut where the low target_bits of g
  // are zero, giving an expected chunk size of target_bytes past the
  // minimum. The shift ages each byte out after 64 positions, so g is a
  // function of the trailing bytes only, not of the chunk's offset.
  const auto& gear = gear_table();
  const std::uint64_t mask = static_cast<std::uint64_t>(cfg.target_bytes - 1);
  while (start < data.size()) {
    const std::uint8_t* p = bytes + start;
    const std::size_t remaining = data.size() - start;
    std::size_t len = 0;
    if (remaining <= cfg.min_bytes) {
      for (; len < remaining; ++len) absorb(p[len]);
    } else {
      const std::size_t limit = std::min(remaining, cfg.max_bytes);
      std::uint64_t g = 0;
      // The hash warms up inside the skipped minimum region so the first
      // eligible position already sees a full window of context.
      for (; len + 1 < cfg.min_bytes; ++len) {
        g = (g << 1) + gear[p[len]];
        absorb(p[len]);
      }
      while (len < limit) {
        g = (g << 1) + gear[p[len]];
        absorb(p[len]);
        ++len;
        if ((g & mask) == 0) break;
      }
    }
    cut(len);
  }
  out.image_hash = image;
  return out;
}

}  // namespace mojave::ckpt
