// The Mojave heap: arenas + pointer table + function table + write
// barriers + copy-on-write support (paper, Sections 4 and 4.1).
//
// All mutation of managed memory funnels through this class so that
//  * every access is validated (pointer-table index check, bounds check,
//    runtime type check),
//  * the speculation manager sees every write before it happens and can
//    clone the target block copy-on-write,
//  * the generational write barrier can maintain the remembered set,
//  * raw (C-style) data is stored in canonical little-endian byte order so
//    images migrate across architectures unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/arena.hpp"
#include "runtime/block.hpp"
#include "runtime/function_table.hpp"
#include "runtime/gc.hpp"
#include "runtime/pointer_table.hpp"
#include "runtime/value.hpp"
#include "support/common.hpp"

namespace mojave::runtime {

struct HeapConfig {
  std::size_t young_capacity = 512 * 1024;
  std::size_t old_capacity = 8 * 1024 * 1024;
  /// When false, every collection is a full major cycle (generational
  /// filtering disabled); used by GC tests and ablations.
  bool generational = true;
  EvacuationOrder evacuation_order = EvacuationOrder::kAddress;
};

struct HeapStats {
  std::uint64_t blocks_allocated = 0;
  std::uint64_t bytes_allocated = 0;
  std::uint64_t cow_clones = 0;
  GcStats gc;
};

/// Installed by the speculation manager; invoked before any block
/// mutation so the pre-write version can be preserved copy-on-write, and
/// after every fresh allocation so entries created inside a speculation
/// level can be released if that level rolls back.
class WriteHook {
 public:
  virtual ~WriteHook() = default;
  virtual void before_write(BlockIndex idx) = 0;
  virtual void after_alloc(BlockIndex /*idx*/) {}
};

class Heap {
 public:
  explicit Heap(HeapConfig cfg = {});

  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  // --- Allocation -------------------------------------------------------

  /// Allocate a tagged block of `nslots` values, each set to `init`.
  [[nodiscard]] BlockIndex alloc_tagged(std::uint32_t nslots,
                                        Value init = Value::unit());
  /// Allocate a raw byte block, zero-filled.
  [[nodiscard]] BlockIndex alloc_raw(std::uint32_t nbytes);
  /// Allocate a raw block holding a copy of `data`.
  [[nodiscard]] BlockIndex alloc_raw_copy(std::span<const std::byte> data);
  /// Allocate a raw block holding `s` followed by a NUL terminator.
  [[nodiscard]] BlockIndex alloc_string(std::string_view s);

  // --- Validated access -------------------------------------------------

  [[nodiscard]] Block* deref(BlockIndex idx) const { return table_.get(idx); }

  [[nodiscard]] Value read_slot(BlockIndex idx, std::uint32_t off) const;
  void write_slot(BlockIndex idx, std::uint32_t off, Value v);

  /// Canonical little-endian load/store in raw blocks. width ∈ {1,2,4,8}.
  [[nodiscard]] std::int64_t raw_load(BlockIndex idx, std::uint32_t off,
                                      std::uint32_t width) const;
  void raw_store(BlockIndex idx, std::uint32_t off, std::uint32_t width,
                 std::int64_t v);
  [[nodiscard]] double raw_load_f64(BlockIndex idx, std::uint32_t off) const;
  void raw_store_f64(BlockIndex idx, std::uint32_t off, double v);

  /// Read a NUL-terminated string starting at (p.index, p.offset).
  [[nodiscard]] std::string read_string(PtrValue p) const;

  // --- Speculation support ---------------------------------------------

  struct ClonePair {
    Block* old_version;  ///< The preserved pre-write version (not in table).
    Block* clone;        ///< The new current version (in the table).
  };

  /// Clone the current version of `idx` and redirect the table entry to
  /// the clone; the old version is returned for the caller's checkpoint
  /// record. The clone is allocated in the *same generation* as the
  /// original so a redirect never turns an old-generation entry young
  /// behind the remembered set's back.
  [[nodiscard]] ClonePair cow_clone(BlockIndex idx);

  /// Stamp used on every allocation/clone; advanced by the speculation
  /// manager on each speculate(). Native code reads it through the stable
  /// address: a block whose header epoch is at least this needs no COW.
  void set_spec_epoch(std::uint64_t e) { spec_epoch_ = e; }
  [[nodiscard]] const std::uint64_t* spec_epoch_addr() const {
    return &spec_epoch_;
  }

  void set_write_hook(WriteHook* hook) { write_hook_ = hook; }

  // --- Roots & collection ------------------------------------------------

  void add_root_provider(RootProvider* p);
  void remove_root_provider(RootProvider* p);

  /// Run a collection now. Migration's pack "first performs garbage
  /// collection on the heap"; tests and benches also call this directly.
  void collect(bool major);

  // --- Introspection ------------------------------------------------------

  [[nodiscard]] PointerTable& table() { return table_; }
  [[nodiscard]] const PointerTable& table() const { return table_; }
  [[nodiscard]] FunctionTable& funs() { return funs_; }
  [[nodiscard]] const FunctionTable& funs() const { return funs_; }
  [[nodiscard]] const HeapStats& stats() const { return stats_; }
  [[nodiscard]] const HeapConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t young_used() const { return young_->used(); }
  [[nodiscard]] std::size_t old_used() const { return old_->used(); }
  /// Sum of live block footprints (walks the table).
  [[nodiscard]] std::size_t live_bytes() const;
  /// Per-block overhead of the indirection design: header + table entry.
  [[nodiscard]] std::size_t per_block_overhead() const {
    return sizeof(Block) + sizeof(Block*);
  }

  /// Drop all blocks and table state (used when unpack rebuilds a heap).
  void reset();

  /// Rebuild support for unpack: allocate a block of the given shape in
  /// the old generation and install it at exactly `idx`. Never collects —
  /// the caller must have sized the heap for the whole image first (a
  /// collection here would sweep the partially restored, root-less heap).
  [[nodiscard]] Block* restore_block(BlockIndex idx, BlockKind kind,
                                     std::uint32_t count);

 private:
  friend class Gc;
  friend class ScopedBlockProtect;

  /// Allocate a block, running collections as needed. `prefer_old` places
  /// the block directly in the old generation (COW clones of old blocks,
  /// oversized blocks).
  [[nodiscard]] Block* allocate_block(BlockKind kind, std::uint32_t count,
                                      bool prefer_old);

  /// Generational write barrier: record old-generation blocks that come to
  /// reference young blocks.
  void barrier(Block* dst, Value v);

  [[nodiscard]] Block* checked_raw_block(BlockIndex idx, std::uint32_t off,
                                         std::uint32_t width) const;

  HeapConfig cfg_;
  PointerTable table_;
  FunctionTable funs_;
  std::unique_ptr<Arena> young_;
  std::unique_ptr<Arena> old_;
  std::vector<BlockIndex> remembered_;
  WriteHook* write_hook_ = nullptr;
  std::vector<RootProvider*> root_providers_;
  /// Blocks protected across a potentially-collecting allocation (clone
  /// sources); enumerated and patched by the collector.
  std::vector<Block*> protected_blocks_;
  std::uint64_t spec_epoch_ = 0;
  HeapStats stats_;
};

/// RAII protection of a block pointer across allocations that may collect.
class ScopedBlockProtect {
 public:
  ScopedBlockProtect(Heap& heap, Block* block);
  ~ScopedBlockProtect();
  ScopedBlockProtect(const ScopedBlockProtect&) = delete;
  ScopedBlockProtect& operator=(const ScopedBlockProtect&) = delete;

  /// Current (possibly relocated) address of the protected block.
  [[nodiscard]] Block* get() const;

 private:
  Heap& heap_;
  std::size_t slot_;
};

/// A simple RootProvider holding explicit Value roots; the embedding API
/// for C++ clients (tests, externals) that hold references across
/// allocations.
class RootSet : public RootProvider {
 public:
  explicit RootSet(Heap& heap) : heap_(heap) { heap_.add_root_provider(this); }
  ~RootSet() override { heap_.remove_root_provider(this); }
  RootSet(const RootSet&) = delete;
  RootSet& operator=(const RootSet&) = delete;

  /// Pin a value; returns a handle slot whose content can be updated.
  std::size_t pin(Value v) {
    values_.push_back(v);
    return values_.size() - 1;
  }
  [[nodiscard]] Value& at(std::size_t slot) { return values_.at(slot); }
  void clear() { values_.clear(); }

  void enumerate_roots(RootVisitor& visitor) override {
    for (const Value& v : values_) visitor.value_root(v);
  }

 private:
  Heap& heap_;
  std::vector<Value> values_;
};

}  // namespace mojave::runtime
