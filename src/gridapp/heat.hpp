// The canonical grid computation of the paper (Figure 2): a 2D Jacobi
// heat-diffusion stencil, decomposed across cluster nodes in row bands,
// exchanging halo rows with neighbours every timestep through the
// message-passing externals, speculating between checkpoints, and
// checkpointing through the migrate primitive at a fixed interval —
// "the code ... can easily be used as a template for a large variety of
// scientific computing applications."
//
// The MojC program is generated from a HeatConfig; a bit-exact C++
// reference implementation validates the distributed results (including
// runs with injected faults, rollback, and resurrection, which must not
// change the answer).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dnode/local.hpp"
#include "fir/ir.hpp"

namespace mojave::gridapp {

struct HeatConfig {
  std::uint32_t nodes = 4;
  std::uint32_t rows = 32;  ///< global rows; must divide evenly by nodes
  std::uint32_t cols = 32;
  std::uint32_t steps = 50;
  std::uint32_t checkpoint_interval = 0;  ///< in steps; 0 = never checkpoint
  /// Extra heap slots of static (write-once) data allocated alongside the
  /// grid — stands in for the large read-mostly state (meshes, material
  /// tables, constants) real scientific codes carry. It inflates the
  /// checkpoint image without changing between checkpoints, which is what
  /// the incremental chunk store dedupes away. 0 = none. Does not affect
  /// the computed sums.
  std::uint32_t static_slots = 0;
};

/// The MojC source of the per-node (SPMD) program.
[[nodiscard]] std::string heat_mojc_source(const HeatConfig& cfg);

/// Compiled, optimized and typechecked FIR for the program, as
/// Engine::compile (and so `mojc cluster`) builds it.
[[nodiscard]] fir::Program heat_program(const HeatConfig& cfg);

/// Bit-exact sequential reference: the per-rank interior sums after
/// `steps` timesteps (same operation order as the generated program).
[[nodiscard]] std::vector<double> heat_reference_sums(const HeatConfig& cfg);

struct HeatRun {
  std::vector<dnode::RankOutcome> ranks;
  std::vector<double> sums;  ///< per-rank reported sums (NaN if missing)
  bool all_clean = true;     ///< every rank halted with exit code 0
};

/// Run the program SPMD on a dnode::LocalCluster with one agent per rank
/// (so killing a rank's agent kills that rank) and wait for completion.
/// `ccfg.num_ranks` is filled in. The optional `chaos` callback runs on
/// the caller's thread after launch and may inject faults (kill_agent)
/// while the computation runs.
[[nodiscard]] HeatRun run_heat(
    const HeatConfig& cfg, dnode::CoordinatorConfig ccfg = {},
    const std::function<void(dnode::LocalCluster&)>& chaos = nullptr);

}  // namespace mojave::gridapp
