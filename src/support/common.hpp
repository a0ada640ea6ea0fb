// Common small utilities shared by every Mojave module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace mojave {

/// Version of the on-disk / on-wire state image format. Bumped whenever
/// the serialized layout of programs or process images changes.
inline constexpr std::uint32_t kImageFormatVersion = 3;

/// Magic prefix for serialized process images ("MOJV").
inline constexpr std::uint32_t kImageMagic = 0x4d4f4a56;

/// Index into the pointer table. Index 0 is reserved as the null pointer,
/// matching the paper's "free entry" validation rule: a valid base pointer
/// is a non-zero index whose table entry is occupied.
using BlockIndex = std::uint32_t;
inline constexpr BlockIndex kNullIndex = 0;

/// Index into the function table.
using FunIndex = std::uint32_t;

/// Speculation level. Level 0 means "not speculating"; active levels are
/// numbered 1..N with 1 the oldest, as in the paper (Section 4.3.1).
using SpecLevel = std::uint32_t;

/// Label correlating a runtime migration point with its FIR location.
using MigrateLabel = std::uint32_t;

/// Two's-complement wrapping int64 arithmetic. Signed overflow is undefined
/// behaviour in C++, so the interpreter and the FIR constant folder compute
/// through uint64_t and wrap exactly as the native tier's add/sub/imul/neg.
[[nodiscard]] constexpr std::int64_t wrapping_add(std::int64_t a,
                                                  std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
[[nodiscard]] constexpr std::int64_t wrapping_sub(std::int64_t a,
                                                  std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
[[nodiscard]] constexpr std::int64_t wrapping_mul(std::int64_t a,
                                                  std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}
[[nodiscard]] constexpr std::int64_t wrapping_neg(std::int64_t a) {
  return wrapping_sub(0, a);
}

}  // namespace mojave
