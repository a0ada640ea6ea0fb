#include "dnode/local.hpp"

#include <unistd.h>

#include <atomic>
#include <string>
#include <system_error>

namespace mojave::dnode {

namespace {

std::filesystem::path fresh_storage_root() {
  static std::atomic<int> counter{0};
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mojave_local_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter++));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace

LocalCluster::LocalCluster(std::uint32_t num_agents, AgentConfig acfg)
    : root_(fresh_storage_root()) {
  acfg.bind = "127.0.0.1";
  acfg.port = 0;
  acfg.storage_root = root_;
  agents_.reserve(num_agents);
  for (std::uint32_t i = 0; i < num_agents; ++i) {
    agents_.push_back(std::make_unique<NodeAgent>(acfg));
  }
}

LocalCluster::~LocalCluster() {
  // Stop the control plane before the agents, so their EOFs read as the
  // end of the run rather than as failures to recover from.
  if (coord_) coord_->shutdown_agents();
  agents_.clear();
  coord_.reset();
  std::error_code ec;
  std::filesystem::remove_all(root_, ec);
}

Coordinator& LocalCluster::start(CoordinatorConfig ccfg) {
  if (ccfg.agents.empty()) {
    for (const auto& agent : agents_) {
      ccfg.agents.push_back(AgentAddr{"127.0.0.1", agent->port()});
    }
  }
  coord_ = std::make_unique<Coordinator>(std::move(ccfg));
  return *coord_;
}

}  // namespace mojave::dnode
