// Content address for one chunk, shared by the checkpoint store (which
// names checkpoints in terms of keys) and the log-structured engine
// (which maps keys to extent offsets).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "support/hash.hpp"

namespace mojave::ckpt {

/// 128-bit content address: two independently seeded FNV-1a passes.
struct ChunkKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  /// Seed of the `hi` pass.
  static constexpr std::uint64_t kHiSeed = kFnvOffset;
  /// Seed diversifier for the `lo` pass, which is seeded with
  /// `hi ^ kLoSeedSalt` so (hi, lo) are not trivially correlated.
  static constexpr std::uint64_t kLoSeedSalt = 0x9e3779b97f4a7c15ULL;

  [[nodiscard]] static ChunkKey of(std::span<const std::byte> data) {
    return with_hi(fnv1a(data, kHiSeed), data);
  }

  /// The key of `data` given its already-computed `hi` pass
  /// (`fnv1a(data, kHiSeed)`); runs only the `lo` pass.
  [[nodiscard]] static ChunkKey with_hi(std::uint64_t hi,
                                        std::span<const std::byte> data) {
    return ChunkKey{hi, fnv1a(data, hi ^ kLoSeedSalt)};
  }

  [[nodiscard]] std::string hex() const;  ///< 32 lowercase hex chars

  auto operator<=>(const ChunkKey&) const = default;
};

/// Hash for unordered containers of keys. Both lanes are already FNV
/// outputs, so mixing them is enough.
struct ChunkKeyHash {
  [[nodiscard]] std::size_t operator()(const ChunkKey& k) const noexcept {
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
  }
};

}  // namespace mojave::ckpt
