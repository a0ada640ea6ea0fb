// LocalCluster: a whole dnode cluster inside one process.
//
// N NodeAgents on loopback TCP over one fresh shared checkpoint store,
// plus the Coordinator that drives them: the same agents, wire protocol
// and control plane that `mojc node` / `mojc cluster` run across
// machines, minus the fork. Tests, benches and examples use it wherever
// they need a cluster. A node failure is kill_agent(i), which is
// NodeAgent::stop(): every socket the agent holds closes with no goodbye
// and the coordinator sees EOF, exactly as when a `mojc node` process is
// SIGKILLed — its ranks resurrect from the shared store on the survivors.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "dnode/agent.hpp"
#include "dnode/coord.hpp"

namespace mojave::dnode {

class LocalCluster {
 public:
  /// Start `num_agents` agents on 127.0.0.1. `acfg.storage_root` is
  /// replaced by a fresh directory, removed again on destruction.
  explicit LocalCluster(std::uint32_t num_agents, AgentConfig acfg = {});
  ~LocalCluster();

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  /// Connect the coordinator. An empty `ccfg.agents` dials every agent
  /// directly; a caller interposing on the wire (a net::WireChaos per
  /// agent, say) lists its own addresses instead, one per agent in order.
  Coordinator& start(CoordinatorConfig ccfg);

  /// The coordinator (start() must have run).
  [[nodiscard]] Coordinator& coordinator() { return *coord_; }
  [[nodiscard]] const std::filesystem::path& storage_root() const {
    return root_;
  }
  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(agents_.size());
  }
  [[nodiscard]] std::uint16_t agent_port(std::uint32_t i) const {
    return agents_.at(i)->port();
  }

  /// Fail agent `i`: NodeAgent::stop(). Idempotent.
  void kill_agent(std::uint32_t i) { agents_.at(i)->stop(); }

 private:
  std::filesystem::path root_;
  std::vector<std::unique_ptr<NodeAgent>> agents_;
  std::unique_ptr<Coordinator> coord_;
};

}  // namespace mojave::dnode
