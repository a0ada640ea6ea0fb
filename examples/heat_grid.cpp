// The paper's evaluation application (Figure 2): a distributed 2D heat
// stencil on an in-process cluster (one dnode agent per rank, real
// loopback TCP between them), with the speculative checkpointing main
// loop, an injected node failure, automatic resurrection from the shared
// checkpoint store, and verification that the answer is identical to the
// failure-free sequential reference.
//
//   $ ./examples/heat_grid
#include <chrono>
#include <cmath>
#include <iostream>
#include <thread>

#include "ckpt/store.hpp"
#include "gridapp/heat.hpp"
#include "support/stopwatch.hpp"

int main() {
  using namespace mojave;

  gridapp::HeatConfig cfg;
  cfg.nodes = 4;
  cfg.rows = 32;
  cfg.cols = 24;
  cfg.steps = 120;
  cfg.checkpoint_interval = 20;

  std::cout << "2D heat diffusion, " << cfg.rows << "x" << cfg.cols
            << " grid, " << cfg.steps << " timesteps, " << cfg.nodes
            << " nodes, checkpoint every "
            << cfg.checkpoint_interval << " steps\n";
  std::cout << "the per-node program is MojC compiled through the Mojave "
               "pipeline;\nits main loop is the paper's Figure 2: "
               "speculate / exchange-or-rollback /\ncompute / "
               "commit+checkpoint\n\n";

  Stopwatch sw;
  const auto run = gridapp::run_heat(cfg, {}, [&](dnode::LocalCluster& lc) {
    // Let rank 2 checkpoint at least once, then kill its node mid-run.
    const auto store = ckpt::CheckpointStore::open_shared(lc.storage_root());
    for (int i = 0; i < 5000 && !store->has_snapshot("rank_2"); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (store->has_snapshot("rank_2")) {
      std::cout << "!! injecting failure: killing node 2\n";
      lc.kill_agent(lc.coordinator().agent_of(2));
    } else {
      std::cout << "(node 2 never checkpointed; skipping fault injection)\n";
    }
  });
  const double elapsed = sw.seconds();

  const auto ref = gridapp::heat_reference_sums(cfg);
  bool verified = run.all_clean;
  std::cout << "\nper-rank interior sums (distributed vs reference):\n";
  for (std::uint32_t r = 0; r < cfg.nodes; ++r) {
    const double got = run.sums[r];
    const double want = ref[r];
    const bool match = std::abs(got - want) < 1e-9;
    verified = verified && match;
    std::cout << "  rank " << r << ": " << got << " vs " << want
              << (match ? "  [match]" : "  [MISMATCH]") << "\n";
  }

  std::uint64_t restarts = 0;
  std::uint64_t rollbacks = 0;
  for (const auto& rank : run.ranks) {
    restarts += rank.restarts;
    rollbacks += rank.rollbacks;
    if (!rank.error.empty()) {
      std::cout << "  rank " << rank.rank << " error: " << rank.error << "\n";
    }
  }
  std::cout << "\nresurrections: " << restarts
            << ", speculation rollbacks: " << rollbacks << "\n";
  std::cout << "wall time: " << elapsed << " s\n";
  std::cout << (verified ? "VERIFIED: fault-tolerant run matches the "
                           "failure-free reference\n"
                         : "VERIFICATION FAILED\n");
  return verified ? 0 : 1;
}
