// Chaos tests: random node kills, hostile wires and a torn checkpoint
// during grid runs on a dnode::LocalCluster (one in-process agent per
// rank, so killing a rank's agent kills the rank). Whatever the failure
// schedule, the computation must converge to exactly the failure-free
// answer — the strongest form of the paper's reliability claim.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include "ckpt/store.hpp"
#include "dnode/local.hpp"
#include "gridapp/heat.hpp"
#include "net/chaos.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"

namespace {

using namespace mojave;

std::string rank_errors(const std::vector<dnode::RankOutcome>& ranks) {
  std::string s;
  for (const auto& r : ranks) {
    s += "rank " + std::to_string(r.rank) + ": " + r.error + "; ";
  }
  return s;
}

void expect_reference_sums(const gridapp::HeatConfig& cfg,
                           const std::vector<dnode::RankOutcome>& ranks) {
  const auto ref = gridapp::heat_reference_sums(cfg);
  ASSERT_EQ(ranks.size(), cfg.nodes) << "census: one result per rank";
  for (const dnode::RankOutcome& r : ranks) {
    EXPECT_TRUE(r.done) << "rank " << r.rank;
    EXPECT_EQ(r.result_kind, 0) << "rank " << r.rank << ": " << r.error;
    EXPECT_EQ(r.exit_code, 0) << "rank " << r.rank;
    ASSERT_TRUE(r.has_reported) << "rank " << r.rank << " never reported";
    EXPECT_NEAR(r.reported, ref[r.rank], 1e-9) << "rank " << r.rank;
  }
}

/// Block until `rank` has at least `seq` checkpoints in the store.
bool wait_for_checkpoint(const ckpt::CheckpointStore& store,
                         std::uint32_t rank, std::uint64_t seq = 1) {
  const std::string name = "rank_" + std::to_string(rank);
  for (int i = 0; i < 5000 && store.latest_seq(name) < seq; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return store.latest_seq(name) >= seq;
}

class GridChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridChaos, RepeatedKillsStillProduceTheReferenceAnswer) {
  gridapp::HeatConfig cfg;
  cfg.nodes = 3;
  cfg.rows = 12;
  cfg.cols = 8;
  cfg.steps = 90;
  cfg.checkpoint_interval = 9;

  Rng rng(GetParam());
  const auto run = gridapp::run_heat(
      cfg, {}, [&](dnode::LocalCluster& lc) {
        const auto store =
            ckpt::CheckpointStore::open_shared(lc.storage_root());
        dnode::Coordinator& coord = lc.coordinator();
        // Two kill rounds against random victims, each after the victim
        // has a checkpoint to come back from. A victim is killed by
        // killing whichever agent hosts it right now.
        for (int round = 0; round < 2; ++round) {
          const auto victim = static_cast<std::uint32_t>(rng.below(cfg.nodes));
          if (!wait_for_checkpoint(*store, victim)) continue;
          std::this_thread::sleep_for(
              std::chrono::milliseconds(rng.below(20)));
          const std::uint32_t host = coord.agent_of(victim);
          if (!coord.agent_alive(host)) continue;  // still recovering
          lc.kill_agent(host);
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
        }
      });

  ASSERT_TRUE(run.all_clean) << rank_errors(run.ranks);
  expect_reference_sums(cfg, run.ranks);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridChaos, ::testing::Values(31, 62, 93));

/// Hostile wires plus a kill: every agent sits behind a WireChaos that
/// delays and fragments every byte and hard-resets its first data link
/// mid-frame at a seed-chosen point, and one seed-chosen agent is killed
/// after its rank checkpointed. The grid must still converge to the
/// failure-free answer.
///
/// Each fault recovers through a different path: fragments reassemble in
/// FramedSocket; a reset link drops its queued frames, which the
/// receiver re-requests from the sender's replay log after redialing; the
/// kill is detected by EOF, poisons the victim's dependents, and
/// resurrects its rank from the shared store on a survivor.
class GridFaultMatrix : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridFaultMatrix, LossyLinksPlusKillStillProduceTheReferenceAnswer) {
  gridapp::HeatConfig cfg;
  cfg.nodes = 3;
  cfg.rows = 12;
  cfg.cols = 8;
  cfg.steps = 60;
  cfg.checkpoint_interval = 9;

  Rng rng(GetParam());
  dnode::LocalCluster lc(cfg.nodes);
  // Connection #1 through every proxy is the coordinator's control link
  // (dialed before launch); #2 is the first peer data link. The reset
  // lands within its first few halo frames (~130 bytes each), so it fires
  // before the kill below can take the link down.
  net::WireFaults faults;
  faults.delay_seconds = 0.001;
  faults.split_bytes = 256;
  faults.reset_conn = 2;
  faults.reset_after_bytes = 100 + rng.below(600);
  std::vector<std::unique_ptr<net::WireChaos>> proxies;
  dnode::CoordinatorConfig ccfg;
  ccfg.num_ranks = cfg.nodes;
  for (std::uint32_t a = 0; a < lc.size(); ++a) {
    proxies.push_back(std::make_unique<net::WireChaos>(
        "127.0.0.1", lc.agent_port(a), faults));
    ccfg.agents.push_back({"127.0.0.1", proxies.back()->port()});
  }
  dnode::Coordinator& coord = lc.start(std::move(ccfg));
  coord.launch_spmd(gridapp::heat_program(cfg));

  const auto store = ckpt::CheckpointStore::open_shared(lc.storage_root());
  const auto victim = static_cast<std::uint32_t>(rng.below(cfg.nodes));
  ASSERT_TRUE(wait_for_checkpoint(*store, victim))
      << "victim never checkpointed";
  // Ranks the kill takes down: those on the victim's agent not yet done.
  const std::uint32_t host = coord.agent_of(victim);
  std::uint64_t lost = 0;
  for (const dnode::RankOutcome& r : coord.results()) {
    if (!r.done && coord.agent_of(r.rank) == host) ++lost;
  }
  lc.kill_agent(host);

  ASSERT_TRUE(coord.wait_all(120.0))
      << "run did not recover: " << rank_errors(coord.results());
  expect_reference_sums(cfg, coord.results());
  // At most once: every lost rank came back exactly once, and nothing
  // else was resurrected.
  EXPECT_GE(lost, 1u);
  EXPECT_EQ(coord.resurrections(), lost);

  // The wire faults genuinely fired: fragmented writes everywhere, and at
  // least one data link reset mid-frame.
  net::WireStats total;
  for (const auto& p : proxies) {
    const net::WireStats s = p->stats();
    total.split_writes += s.split_writes;
    total.resets += s.resets;
  }
  EXPECT_GT(total.split_writes, 0u) << "no write was fragmented";
  EXPECT_GE(total.resets, 1u) << "no data link was reset — test is vacuous";
}

INSTANTIATE_TEST_SUITE_P(FaultSeeds, GridFaultMatrix,
                         ::testing::Values(17, 42, 1009));

std::uint64_t restore_fallbacks() {
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  const auto it = snap.counters.find("ckpt.restore_fallbacks");
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(GridChaos, KillMidCheckpointResurrectsFromLastCompleteManifest) {
  // A node dies *during* a checkpoint: the chunk writes may have landed
  // but the manifest did not (here: landed torn). The store must treat the
  // newest manifest as unrestorable and resurrect the victim from the last
  // complete one — costing at most one checkpoint interval, never a torn
  // image or a stuck rank.
  gridapp::HeatConfig cfg;
  cfg.nodes = 3;
  cfg.rows = 12;
  cfg.cols = 8;
  cfg.steps = 90;
  cfg.checkpoint_interval = 9;
  constexpr std::uint32_t kVictim = 1;

  // Retention GC drops undecodable manifests; with it on, any survivor's
  // checkpoint between the tear and the restore would sweep the torn one.
  dnode::AgentConfig acfg;
  acfg.ckpt.auto_gc = false;
  dnode::LocalCluster lc(cfg.nodes, acfg);
  // The coordinator reaches the victim's agent through a relay the test
  // can freeze: while held, the agent's death is invisible, so the torn
  // manifest is in place before anyone can try to restore.
  net::WireChaos relay("127.0.0.1", lc.agent_port(kVictim), {});
  dnode::CoordinatorConfig ccfg;
  ccfg.num_ranks = cfg.nodes;
  // EOF, not a missed heartbeat, must be what reveals the death.
  ccfg.heartbeat_timeout_seconds = 60.0;
  for (std::uint32_t a = 0; a < lc.size(); ++a) {
    ccfg.agents.push_back(
        {"127.0.0.1", a == kVictim ? relay.port() : lc.agent_port(a)});
  }
  dnode::Coordinator& coord = lc.start(std::move(ccfg));
  coord.launch_spmd(gridapp::heat_program(cfg));

  const std::uint64_t fallbacks_before = restore_fallbacks();
  const auto store = ckpt::CheckpointStore::open_shared(lc.storage_root());
  // Let the victim finish at least two checkpoints so there is a previous
  // complete manifest to fall back to.
  ASSERT_TRUE(wait_for_checkpoint(*store, kVictim, 2))
      << "victim never checkpointed twice";
  relay.hold(true);
  lc.kill_agent(kVictim);  // returns once the agent wrote its last byte

  // Emulate the torn manifest the mid-checkpoint crash leaves behind:
  // replace the newest one with garbage.
  const std::string snapshot = "rank_" + std::to_string(kVictim);
  std::string newest;
  for (const auto& name :
       store->storage().list(ckpt::CheckpointStore::kManifestDir)) {
    if (name.find("/" + snapshot + "@") != std::string::npos) newest = name;
  }
  ASSERT_FALSE(newest.empty());
  const char garbage[] = "not a manifest";
  store->storage().write(
      newest, std::as_bytes(std::span(garbage, std::strlen(garbage))));
  relay.hold(false);  // the coordinator sees EOF and resurrects

  ASSERT_TRUE(coord.wait_all(120.0))
      << "no restorable checkpoint survived: " << rank_errors(coord.results());
  expect_reference_sums(cfg, coord.results());
  EXPECT_EQ(coord.resurrections(), 1u);
  // The restore really did skip the torn manifest.
  EXPECT_GT(restore_fallbacks(), fallbacks_before);
}

}  // namespace
