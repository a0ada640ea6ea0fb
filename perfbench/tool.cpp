// perfbench_tool: the C++ half of the end-to-end heat-grid benchmark.
// run.py drives it; it never spawns processes itself.
//
//   perfbench_tool gen DIR RANKS ROWS COLS STEPS INTERVAL STATIC
//       Write DIR/heat.mjc (gridapp::heat_mojc_source) and
//       DIR/reference.txt (gridapp::heat_reference_sums, one %.17g per
//       line, the same format `mojc cluster` prints RANK_SUM with).
//
//   perfbench_tool coord --nodes H:P,... --ranks N --program FILE
//                        [--wal-root DIR] [--lease-ttl S] [--standby]
//                        [--timeout S]
//       Host a dnode::Coordinator in this process (the traced run's
//       stand-in for `mojc cluster`), timing its constructor, launch_spmd,
//       wait_all and shutdown_agents. Prints COORD_READY once the
//       coordinator is connected and the program compiled, RANK_SUM lines,
//       then one COORD_REPORT JSON line with the timings and this
//       process's metrics registry (ctrl.* lives here).
//
//   perfbench_tool probes DIR RANKS ROWS COLS STEPS INTERVAL STATIC
//       Time calls into each layer's public functions on one rank's band
//       of this workload and print one JSON object.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/store.hpp"
#include "core/engine.hpp"
#include "ctrl/lease.hpp"
#include "ctrl/wal.hpp"
#include "dnode/coord.hpp"
#include "gridapp/heat.hpp"
#include "migrate/image.hpp"
#include "native/arch.hpp"
#include "net/poller.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "support/log.hpp"

using namespace mojave;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string fmt17(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

gridapp::HeatConfig parse_config(char** argv) {
  gridapp::HeatConfig cfg;
  cfg.nodes = static_cast<std::uint32_t>(std::stoul(argv[0]));
  cfg.rows = static_cast<std::uint32_t>(std::stoul(argv[1]));
  cfg.cols = static_cast<std::uint32_t>(std::stoul(argv[2]));
  cfg.steps = static_cast<std::uint32_t>(std::stoul(argv[3]));
  cfg.checkpoint_interval = static_cast<std::uint32_t>(std::stoul(argv[4]));
  cfg.static_slots = static_cast<std::uint32_t>(std::stoul(argv[5]));
  return cfg;
}

/// The program exactly as `mojc cluster` builds it (Engine::compile:
/// parse, optimize, typecheck).
fir::Program compile_like_mojc(const std::string& name,
                               const std::string& source) {
  Engine engine;
  return engine.compile(name, source);
}

int cmd_gen(const fs::path& dir, const gridapp::HeatConfig& cfg) {
  fs::create_directories(dir);
  const auto t0 = Clock::now();
  (void)gridapp::heat_program(cfg);
  const double heat_program_s = seconds_since(t0);
  std::ofstream(dir / "heat.mjc") << gridapp::heat_mojc_source(cfg);
  std::ofstream ref(dir / "reference.txt");
  for (double s : gridapp::heat_reference_sums(cfg)) ref << fmt17(s) << "\n";
  // Whether agents spawned from here will run the native tier.
  const bool native_tier =
      native::jit_supported() && native::jit_options_from_env().enabled;
  std::cout << "{\"heat_program_s\":" << fmt17(heat_program_s)
            << ",\"native_tier\":" << (native_tier ? 1 : 0) << "}\n";
  return 0;
}

// ---------------------------------------------------------------- coord --

int cmd_coord(int argc, char** argv) {
  dnode::CoordinatorConfig cfg;
  fs::path program_path;
  bool standby = false;
  double timeout_s = 120;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--nodes" && has_value) {
      std::stringstream nodes(argv[++i]);
      std::string entry;
      while (std::getline(nodes, entry, ',')) {
        const auto colon = entry.rfind(':');
        dnode::AgentAddr addr;
        addr.host = entry.substr(0, colon);
        addr.port =
            static_cast<std::uint16_t>(std::stoi(entry.substr(colon + 1)));
        cfg.agents.push_back(addr);
      }
    } else if (arg == "--ranks" && has_value) {
      cfg.num_ranks = static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else if (arg == "--program" && has_value) {
      program_path = argv[++i];
    } else if (arg == "--wal-root" && has_value) {
      cfg.wal_root = argv[++i];
    } else if (arg == "--lease-ttl" && has_value) {
      cfg.lease_ttl_seconds = std::stod(argv[++i]);
    } else if (arg == "--timeout" && has_value) {
      timeout_s = std::stod(argv[++i]);
    } else if (arg == "--standby") {
      standby = true;
    } else {
      std::cerr << "perfbench_tool coord: bad argument '" << arg << "'\n";
      return 2;
    }
  }
  if (standby) {
    // Same lease wait as `mojc cluster --standby`.
    while (true) {
      const auto info = ctrl::Lease::read(cfg.wal_root);
      if (!info.has_value() || info->expired(ctrl::Lease::wall_now())) break;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::max(0.05, info->ttl_seconds / 4.0)));
    }
    cfg.resume = true;
  }

  std::stringstream source;
  source << std::ifstream(program_path).rdbuf();
  auto t0 = Clock::now();
  const fir::Program program =
      compile_like_mojc(program_path.stem().string(), source.str());
  const double compile_s = seconds_since(t0);

  t0 = Clock::now();
  dnode::Coordinator coord(cfg);
  const double ctor_s = seconds_since(t0);
  std::cout << "COORD_READY" << std::endl;

  double launch_s = 0;
  if (!coord.resumed()) {
    t0 = Clock::now();
    coord.launch_spmd(program);
    launch_s = seconds_since(t0);
  }
  t0 = Clock::now();
  const bool all_done = coord.wait_all(timeout_s);
  const double wait_s = seconds_since(t0);
  for (const dnode::RankOutcome& r : coord.results()) {
    if (r.has_reported) {
      std::cout << "RANK_SUM rank=" << r.rank << " sum=" << fmt17(r.reported)
                << "\n";
    }
  }
  std::cout.flush();
  t0 = Clock::now();
  coord.shutdown_agents();
  const double shutdown_s = seconds_since(t0);

  std::cout << "COORD_REPORT {\"resumed\":" << (coord.resumed() ? 1 : 0)
            << ",\"all_done\":" << (all_done ? 1 : 0)
            << ",\"compile_s\":" << fmt17(compile_s)
            << ",\"ctor_s\":" << fmt17(ctor_s)
            << ",\"launch_s\":" << fmt17(launch_s)
            << ",\"wait_s\":" << fmt17(wait_s)
            << ",\"shutdown_s\":" << fmt17(shutdown_s)
            << ",\"resurrections\":" << coord.resurrections()
            << ",\"registry\":" << obs::MetricsRegistry::instance().dump_json()
            << "}" << std::endl;
  return all_done ? 0 : 1;
}

// --------------------------------------------------------------- probes --

/// Registers the heat program's externals for a single-rank run: rank 0 of
/// 1 never sends or receives, and its checkpoint target is `target`.
void register_solo_externals(vm::Process& proc, const std::string& target) {
  using runtime::Value;
  auto& vm = proc.vm();
  vm.register_external("node_id", [](vm::Interpreter&,
                                     std::span<const Value>) {
    return Value::from_int(0);
  });
  vm.register_external("num_nodes", [](vm::Interpreter&,
                                       std::span<const Value>) {
    return Value::from_int(1);
  });
  const auto no_msg = [](vm::Interpreter&, std::span<const Value>) {
    return Value::from_int(0);
  };
  vm.register_external("msg_send", no_msg);
  vm.register_external("msg_recv", no_msg);
  vm.register_external("report_result", [](vm::Interpreter&,
                                           std::span<const Value>) {
    return Value::unit();
  });
  vm.register_external(
      "checkpoint_target",
      [target](vm::Interpreter& it, std::span<const Value>) {
        return Value::from_ptr(it.heap().alloc_string(target), 0);
      });
}

/// Records the resume continuation at `migrate` and stops the run, so the
/// probe can pack the same live rank repeatedly.
struct CaptureHook final : vm::MigrationHook {
  Action on_migrate(vm::Interpreter&, MigrateLabel at, const std::string&,
                    FunIndex fun,
                    std::span<const runtime::Value> args) override {
    label = at;
    resume_fun = fun;
    resume_args.assign(args.begin(), args.end());
    return Action::kExit;
  }
  MigrateLabel label = 0;
  FunIndex resume_fun = 0;
  std::vector<runtime::Value> resume_args;
};

/// vm::Process::run on one rank's band (rows/ranks rows, no exchange);
/// returns the median nanoseconds per retired instruction.
double probe_ns_per_insn(const std::string& band_source, bool jit, int reps) {
  auto& insns = obs::MetricsRegistry::instance().counter("vm.instructions");
  std::vector<double> per_insn;
  for (int i = 0; i < reps; ++i) {
    vm::ProcessConfig pcfg;
    pcfg.output = nullptr;
    pcfg.jit.enabled = jit;
    vm::Process proc(compile_like_mojc("heat", band_source), pcfg);
    register_solo_externals(proc, "ckpt://unused/rank_0");
    const std::uint64_t before = insns.value();
    const auto t0 = Clock::now();
    (void)proc.run();
    const double s = seconds_since(t0);
    const std::uint64_t ran = insns.value() - before;
    if (ran > 0) per_insn.push_back(s * 1e9 / static_cast<double>(ran));
  }
  return median(per_insn);
}

std::pair<net::TcpStream, net::TcpStream> tcp_pair() {
  net::TcpListener listener(0);
  auto client = net::TcpStream::connect("127.0.0.1", listener.port());
  auto server = listener.accept();
  if (!server) throw Error("probe: loopback accept failed");
  return {std::move(client), std::move(*server)};
}

/// Round trip of `frames` frames of `bytes` each through a FramedSocket
/// loopback pair; returns microseconds per frame.
double probe_frames(std::size_t bytes, int frames) {
  auto [client, server] = tcp_pair();
  net::FramedSocket tx{std::move(client)};
  net::FramedSocket rx{std::move(server)};
  net::Poller poller;
  poller.add(rx.fd(), 1, true, false);
  std::vector<std::byte> payload(bytes, std::byte{0x5a});
  std::vector<std::vector<std::byte>> got;
  std::vector<net::Poller::Event> events;
  const auto t0 = Clock::now();
  for (int i = 0; i < frames; ++i) {
    tx.queue_frame(std::span<const std::byte>(payload));
    if (!tx.flush()) throw Error("probe: loopback flush failed");
    while (got.size() < static_cast<std::size_t>(i + 1)) {
      poller.wait(events, 1000);
      for (const auto& ev : events) {
        if (ev.token == 1 && !rx.on_readable(got)) {
          throw Error("probe: loopback peer closed");
        }
      }
      if (tx.want_write() && !tx.flush()) {
        throw Error("probe: loopback flush failed");
      }
    }
  }
  return seconds_since(t0) * 1e6 / frames;
}

int cmd_probes(const fs::path& dir, const gridapp::HeatConfig& cfg) {
  fs::create_directories(dir);
  Logger::instance().set_level(LogLevel::kError);
  const std::uint32_t band_rows = cfg.rows / cfg.nodes;
  // One rank's band as a one-rank grid: same columns, same rows per rank.
  gridapp::HeatConfig band = cfg;
  band.nodes = 1;
  band.rows = band_rows;
  band.checkpoint_interval = 0;
  band.static_slots = 0;
  band.steps = std::min<std::uint32_t>(cfg.steps, 50);
  const std::string band_source = gridapp::heat_mojc_source(band);
  const double interp_ns = probe_ns_per_insn(band_source, false, 3);
  const double native_ns = probe_ns_per_insn(band_source, true, 3);

  // A rank image as the workload checkpoints it: run the band up to its
  // first checkpoint (static_slots included) and capture the continuation.
  gridapp::HeatConfig ck = cfg;
  ck.nodes = 1;
  ck.rows = band_rows;
  ck.checkpoint_interval = std::max<std::uint32_t>(cfg.checkpoint_interval, 2);
  ck.steps = ck.checkpoint_interval + 1;
  vm::ProcessConfig pcfg;
  pcfg.output = nullptr;
  vm::Process proc(compile_like_mojc("heat", gridapp::heat_mojc_source(ck)),
                   pcfg);
  register_solo_externals(proc, "ckpt://unused/rank_0");
  CaptureHook hook;
  proc.vm().set_migration_hook(&hook);
  if (proc.run().kind != vm::RunResult::Kind::kMigratedAway) {
    throw Error("probe: rank never reached its checkpoint");
  }
  std::vector<double> pack_us, unpack_us, recompile_us;
  std::vector<std::byte> image;
  for (int i = 0; i < 5; ++i) {
    auto t0 = Clock::now();
    auto packed = migrate::pack_process(proc, hook.label, hook.resume_fun,
                                        hook.resume_args,
                                        migrate::ImageKind::kFir);
    pack_us.push_back(seconds_since(t0) * 1e6);
    t0 = Clock::now();
    auto unpacked = migrate::unpack_process(packed.bytes);
    unpack_us.push_back(seconds_since(t0) * 1e6);
    recompile_us.push_back(unpacked.breakdown.recompile_seconds * 1e6);
    image = std::move(packed.bytes);
  }

  // A store holding the workload's snapshot count (a rank image and a send
  // log per rank), then puts and restores of one rank's snapshot.
  const fs::path store_root = dir / "probe-store";
  fs::remove_all(store_root);
  std::vector<double> put_us, restore_us;
  {
    ckpt::CheckpointStore store(store_root);
    for (std::uint32_t r = 0; r < cfg.nodes; ++r) {
      std::vector<std::byte> img = image;
      img[img.size() / 2] = std::byte{static_cast<unsigned char>(r)};
      (void)store.put("rank_" + std::to_string(r), img);
      (void)store.put("rank_" + std::to_string(r) + "_sendlog",
                      std::span<const std::byte>(img).first(
                          std::min<std::size_t>(img.size(), 4096)));
    }
    for (int i = 0; i < 8; ++i) {
      image[(i * 7919u) % image.size()] ^= std::byte{0x01};
      auto t0 = Clock::now();
      (void)store.put("rank_0", image);
      put_us.push_back(seconds_since(t0) * 1e6);
      t0 = Clock::now();
      if (!store.restore("rank_0").has_value()) {
        throw Error("probe: restore found no snapshot");
      }
      restore_us.push_back(seconds_since(t0) * 1e6);
    }
  }
  fs::remove_all(store_root);

  // WAL appends of the commonest record (a speculation-join DEP_RECORD),
  // each batch followed by the fsync the coordinator issues.
  const fs::path wal_dir = dir / "probe-wal";
  fs::remove_all(wal_dir);
  std::vector<double> append_us, sync_us;
  {
    ctrl::WalWriter wal(wal_dir, 1);
    for (int batch = 0; batch < 8; ++batch) {
      for (int i = 0; i < 32; ++i) {
        ctrl::WalRecord rec;
        rec.op = ctrl::WalOp::kDepRecord;
        rec.sender = static_cast<std::uint32_t>(i % cfg.nodes);
        rec.receiver = static_cast<std::uint32_t>((i + 1) % cfg.nodes);
        rec.commit_seq = static_cast<std::uint64_t>(batch);
        const auto t0 = Clock::now();
        wal.append(rec);
        append_us.push_back(seconds_since(t0) * 1e6);
      }
      const auto t0 = Clock::now();
      wal.flush();
      sync_us.push_back(seconds_since(t0) * 1e6);
    }
  }
  fs::remove_all(wal_dir);

  // A halo row on the wire: C slots (about 9 bytes each) plus the DATA
  // header and frame checksum.
  const std::size_t frame_bytes = static_cast<std::size_t>(cfg.cols) * 9 + 64;
  const double frame_us = probe_frames(frame_bytes, 2000);

  std::cout << "{\"vm.probe_ns_per_insn\":" << fmt17(interp_ns)
            << ",\"native.probe_ns_per_insn\":" << fmt17(native_ns)
            << ",\"migrate.probe_pack_us\":" << fmt17(median(pack_us))
            << ",\"migrate.probe_unpack_us\":" << fmt17(median(unpack_us))
            << ",\"migrate.probe_recompile_us\":"
            << fmt17(median(recompile_us))
            << ",\"ckpt.probe_put_us\":" << fmt17(median(put_us))
            << ",\"ckpt.probe_restore_us\":" << fmt17(median(restore_us))
            << ",\"ctrl.probe_append_us\":" << fmt17(median(append_us))
            << ",\"ctrl.probe_sync_us\":" << fmt17(median(sync_us))
            << ",\"net.probe_frame_us\":" << fmt17(frame_us) << "}\n";
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench_tool gen|probes DIR RANKS ROWS COLS STEPS "
               "INTERVAL STATIC\n"
               "       perfbench_tool coord --nodes H:P,... --ranks N "
               "--program FILE [--wal-root DIR] [--lease-ttl S] [--standby] "
               "[--timeout S]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "coord") return cmd_coord(argc - 2, argv + 2);
    if ((cmd == "gen" || cmd == "probes") && argc == 9) {
      const gridapp::HeatConfig cfg = parse_config(argv + 3);
      return cmd == "gen" ? cmd_gen(argv[2], cfg) : cmd_probes(argv[2], cfg);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_tool " << cmd << ": " << e.what() << "\n";
    return 1;
  }
  return usage();
}
