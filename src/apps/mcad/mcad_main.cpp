// mcad — one cluster node as an OS process.
//
// Usage (one command line):
//   mcad --id 1 --data /var/lib/mca/node1
//        --peers "1=127.0.0.1:9001,2=127.0.0.1:9002,3=127.0.0.1:9003"
//        [--witnesses "2,3"] [--ints "10=100,11=0"] [--blobs "20,21"]
//        [--invoke-timeout-ms 4000] [--tpc-timeout-ms 1000]
//
// The node's durable store is a WalStore in the --data directory; a process
// started over an existing directory is a restarted node and replays it.
//
// The process serves until ctl.shutdown arrives (exit 0) or it is killed.
// README "Running a real cluster" walks through a full example.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "apps/mcad/daemon.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --id N --data DIR --peers \"id=host:port,...\"\n"
               "          [--witnesses \"id,...\"] [--ints \"key=initial,...\"]\n"
               "          [--blobs \"key,...\"]\n"
               "          [--invoke-timeout-ms N] [--tpc-timeout-ms N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mca;
  using namespace mca::apps;

  DaemonConfig config;
  bool have_id = false;
  bool have_peers = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--id") {
        config.id = static_cast<NodeId>(std::stoul(value()));
        have_id = true;
      } else if (arg == "--data") {
        config.data_dir = value();
      } else if (arg == "--peers") {
        config.peers = parse_peer_map(value());
        have_peers = true;
      } else if (arg == "--witnesses") {
        config.witnesses = parse_node_list(value());
      } else if (arg == "--ints") {
        config.ints = parse_int_map(value());
      } else if (arg == "--blobs") {
        for (const NodeId key : parse_node_list(value())) {
          config.blobs.push_back(static_cast<std::uint32_t>(key));
        }
      } else if (arg == "--invoke-timeout-ms") {
        config.invoke_timeout = std::chrono::milliseconds(std::stoul(value()));
      } else if (arg == "--tpc-timeout-ms") {
        config.tpc_call_timeout = std::chrono::milliseconds(std::stoul(value()));
      } else {
        std::fprintf(stderr, "mcad: unknown argument '%s'\n", arg.c_str());
        return usage(argv[0]);
      }
    }
    if (!have_id || !have_peers || config.data_dir.empty()) return usage(argv[0]);
    if (!config.peers.contains(config.id)) {
      std::fprintf(stderr, "mcad: --id %u is not in the peer map\n", config.id);
      return 2;
    }

    NodeDaemon daemon(std::move(config));
    std::fprintf(stderr, "mcad: node %u serving on port %u\n", daemon.node().id(),
                 daemon.transport().port_of(daemon.node().id()));
    daemon.run_until_shutdown();
    std::fprintf(stderr, "mcad: node %u shutting down\n", daemon.node().id());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcad: fatal: %s\n", e.what());
    return 1;
  }
}
