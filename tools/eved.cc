// eved: the EVE network daemon.
//
// Serves the full evectl statement language to concurrent TCP clients over
// the framed wire protocol (net/protocol.h). Statement semantics, output
// bytes and failure modes are identical to a local evectl run — the same
// net::Console executes both.
//
// Usage:
//   eved [--host <addr>] [--port <n>] [--port-file <path>]
//        [--workers <n>] [--max-sessions <n>] [--max-pending <n>]
//        [--idle-timeout-micros <n>] [--drain-timeout-micros <n>]
//        [--init <script>]
//        [--node-id <id> --cluster <n1=h:p,...> --data-dir <dir>
//         [--replica-of <id>] [--lease-micros <n>] [--heartbeat-micros <n>]
//         [--ack-replicas <n>] [--ack-timeout-micros <n>]]
//
//   --ack-replicas is a floor, not the exact quorum: a non-zero value is
//   clamped UP to floor(cluster/2) so the acked set intersects every
//   election vote majority (0 opts out of semi-sync entirely).
//        [--metrics-port <n> [--metrics-host <addr>]]
//
//   --max-sessions (default 0) bounds the open sessions and --max-pending
//   (default 64) the statements in flight on one session; 0 means no bound
//   for either.
//   --port 0 (the default) binds an ephemeral port; --port-file writes the
//   chosen port as a decimal line once the server is listening, so test
//   harnesses can rendezvous without racing.
//   --init runs a script through the console BEFORE serving (e.g. LOAD
//   MISD + CREATE VIEW + JOURNAL bring-up); any failure aborts startup.
//
// Replicated mode (--node-id + --cluster + --data-dir, docs/REPLICATION.md):
//   the node RECOVERs from <data-dir>/checkpoint + <data-dir>/wal, attaches
//   the WAL, and joins the cluster — as the journal-shipping primary when
//   --replica-of is absent, otherwise as a replica following that node
//   (with automatic failover either way). --metrics-port serves the
//   plaintext /metrics document (also available without a cluster).
//
// Lifecycle: SIGTERM or SIGINT begins a graceful drain — stop accepting,
// shed statements that have not started, finish in-flight ones, flush
// journaled state (every mutation was already journaled synchronously at
// commit), close sessions — then the process exits 0. A second signal
// forces an immediate stop. An armed crash-mode failpoint (EVE_FAILPOINTS)
// that fires anywhere in the serving path stops the server abruptly and
// exits 3, leaving durable state for RECOVER — exactly like evectl.
//
// Every <n> is a plain decimal (no sign, no trailing bytes) that fits its
// field; any other value exits 2 before anything starts.
//
// Exit status: 0 = clean drain/stop; 1 = failed statement in --init;
// 2 = usage/startup problem; 3 = simulated crash.

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "net/console.h"
#include "net/metrics.h"
#include "net/replication.h"
#include "net/server.h"

namespace eve {
namespace {

// Signal flag, written by the handler, polled by the main thread.
std::atomic<int> g_signals{0};

void OnSignal(int) { g_signals.fetch_add(1); }

// Serving thousands of sessions needs thousands of fds; lift the soft
// limit to the hard limit so the default 1024 does not cap the server.
void RaiseFdLimit() {
  rlimit limit{};
  if (getrlimit(RLIMIT_NOFILE, &limit) == 0 &&
      limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    setrlimit(RLIMIT_NOFILE, &limit);
  }
}

// Reads a numeric flag's value into `field`: a plain decimal (ParseDecimal
// refuses a sign, trailing bytes and overflow) no larger than the field
// holds. Says why on stderr when it refuses.
template <typename T>
bool ReadNumber(const std::string& flag, const char* text, T* field) {
  uint64_t value = 0;
  if (!ParseDecimal(text, &value) || value > std::numeric_limits<T>::max()) {
    std::cerr << "error: " << flag << " expects an integer in [0, "
              << uint64_t{std::numeric_limits<T>::max()} << "], got " << text
              << "\n";
    return false;
  }
  *field = static_cast<T>(value);
  return true;
}

int Main(int argc, char** argv) {
  net::ServerOptions options;
  net::ReplicationOptions repl;
  std::string cluster_spec;
  uint16_t metrics_port = 0;
  std::string metrics_host = "127.0.0.1";
  std::string port_file;
  std::string init_script;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    bool read = true;
    if (arg == "--host" && has_value) {
      options.host = argv[++i];
    } else if (arg == "--port" && has_value) {
      read = ReadNumber(arg, argv[++i], &options.port);
    } else if (arg == "--port-file" && has_value) {
      port_file = argv[++i];
    } else if (arg == "--workers" && has_value) {
      read = ReadNumber(arg, argv[++i], &options.worker_threads);
    } else if (arg == "--max-sessions" && has_value) {
      read = ReadNumber(arg, argv[++i], &options.max_sessions);
    } else if (arg == "--max-pending" && has_value) {
      read = ReadNumber(arg, argv[++i], &options.max_pending_per_session);
    } else if (arg == "--idle-timeout-micros" && has_value) {
      read = ReadNumber(arg, argv[++i], &options.idle_timeout_micros);
    } else if (arg == "--drain-timeout-micros" && has_value) {
      read = ReadNumber(arg, argv[++i], &options.drain_timeout_micros);
    } else if (arg == "--init" && has_value) {
      init_script = argv[++i];
    } else if (arg == "--node-id" && has_value) {
      repl.node_id = argv[++i];
    } else if (arg == "--cluster" && has_value) {
      cluster_spec = argv[++i];
    } else if (arg == "--replica-of" && has_value) {
      repl.primary_of = argv[++i];
    } else if (arg == "--data-dir" && has_value) {
      repl.data_dir = argv[++i];
    } else if (arg == "--lease-micros" && has_value) {
      read = ReadNumber(arg, argv[++i], &repl.lease_micros);
    } else if (arg == "--heartbeat-micros" && has_value) {
      read = ReadNumber(arg, argv[++i], &repl.heartbeat_micros);
    } else if (arg == "--ack-replicas" && has_value) {
      read = ReadNumber(arg, argv[++i], &repl.ack_replicas);
    } else if (arg == "--ack-timeout-micros" && has_value) {
      read = ReadNumber(arg, argv[++i], &repl.ack_timeout_micros);
    } else if (arg == "--metrics-port" && has_value) {
      read = ReadNumber(arg, argv[++i], &metrics_port);
    } else if (arg == "--metrics-host" && has_value) {
      metrics_host = argv[++i];
    } else {
      std::cerr << "usage: eved [--host <addr>] [--port <n>] "
                   "[--port-file <path>] [--workers <n>] "
                   "[--max-sessions <n>] [--max-pending <n>] "
                   "(0 = no bound) "
                   "[--idle-timeout-micros <n>] "
                   "[--drain-timeout-micros <n>] [--init <script>] "
                   "[--node-id <id> --cluster <spec> --data-dir <dir> "
                   "[--replica-of <id>] [--lease-micros <n>] "
                   "[--heartbeat-micros <n>] [--ack-replicas <n>] "
                   "[--ack-timeout-micros <n>]] "
                   "[--metrics-port <n>] [--metrics-host <addr>]\n";
      return 2;
    }
    if (!read) return 2;
  }
  RaiseFdLimit();
  const bool replicated = !repl.node_id.empty() || !cluster_spec.empty();
  if (replicated &&
      (repl.node_id.empty() || cluster_spec.empty() ||
       repl.data_dir.empty())) {
    std::cerr << "error: replicated mode needs --node-id, --cluster and "
                 "--data-dir together\n";
    return 2;
  }
  if (replicated && !init_script.empty()) {
    std::cerr << "error: --init is not supported in replicated mode (state "
                 "comes from --data-dir recovery and the primary)\n";
    return 2;
  }
  if (const char* spec = std::getenv("EVE_FAILPOINTS")) {
    const Status status = Failpoints::Instance().ArmFromSpec(spec);
    if (!status.ok()) {
      std::cerr << "error: bad EVE_FAILPOINTS: " << status << "\n";
      return 2;
    }
  }

  if (replicated) {
    Result<std::map<std::string, net::NodeAddress>> cluster =
        net::ParseCluster(cluster_spec);
    if (!cluster.ok()) {
      std::cerr << "error: bad --cluster: " << cluster.status() << "\n";
      return 2;
    }
    repl.cluster = cluster.MoveValue();
    net::ReplicatedNodeOptions node_options;
    node_options.server = options;
    node_options.repl = std::move(repl);
    node_options.metrics_port = metrics_port;
    node_options.metrics_host = metrics_host;
    net::ReplicatedNode node;
    const Status started = node.Start(node_options);
    if (!started.ok()) {
      std::cerr << "error: " << started << "\n";
      return 2;
    }
    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << node.port() << "\n";
      if (!out) {
        std::cerr << "error: cannot write " << port_file << "\n";
        return 2;
      }
    }
    std::cout << "eved node " << node_options.repl.node_id << " ("
              << net::ReplRoleToString(node.hub().role()) << ", epoch "
              << node.hub().epoch() << ") listening on " << options.host
              << ":" << node.port();
    if (node.metrics_port() != 0) {
      std::cout << ", metrics on " << metrics_host << ":"
                << node.metrics_port();
    }
    std::cout << std::endl;

    struct sigaction action{};
    action.sa_handler = OnSignal;
    sigaction(SIGTERM, &action, nullptr);
    sigaction(SIGINT, &action, nullptr);
    signal(SIGPIPE, SIG_IGN);

    int handled_signals = 0;
    while (!node.stopped()) {
      const int seen = g_signals.load();
      if (seen > handled_signals) {
        handled_signals = seen;
        if (seen == 1) {
          std::cout << "eved draining (signal)" << std::endl;
          node.BeginDrain();
        } else {
          std::cout << "eved stopping (repeated signal)" << std::endl;
          node.Stop();
        }
      }
      usleep(20'000);
    }
    node.Stop();  // join the agent/metrics threads
    node.WaitUntilStopped();
    const std::string crashed = node.crashed_site();
    if (!crashed.empty()) {
      std::cerr << "simulated crash at failpoint " << crashed << "\n";
      return 3;
    }
    std::cout << "eved exited cleanly" << std::endl;
    return 0;
  }

  net::Console console;
  if (!init_script.empty()) {
    std::ifstream in(init_script);
    if (!in) {
      std::cerr << "error: cannot open " << init_script << "\n";
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    for (const net::Statement& statement :
         net::SplitStatements(buffer.str())) {
      bool ok = false;
      try {
        ok = console.Run(statement.text, std::cout, std::cerr);
      } catch (const SimulatedCrash& crash) {
        std::cerr << "simulated crash at failpoint " << crash.site() << "\n";
        return 3;
      }
      if (!ok) {
        std::cerr << init_script << ":" << statement.line
                  << ": error: init statement failed: " << statement.text
                  << "\n";
        return 1;
      }
    }
  }

  net::Server server(&console, options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "error: " << started << "\n";
    return 2;
  }
  std::unique_ptr<net::MetricsServer> metrics;
  if (metrics_port != 0) {
    metrics = std::make_unique<net::MetricsServer>(
        metrics_host, metrics_port, [&server, &console] {
          return net::RenderMetricsText(server, console, nullptr);
        });
    const Status metrics_started = metrics->Start();
    if (!metrics_started.ok()) {
      std::cerr << "error: " << metrics_started << "\n";
      return 2;
    }
    std::cout << "eved metrics on " << metrics_host << ":"
              << metrics->port() << std::endl;
  }
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << "\n";
    if (!out) {
      std::cerr << "error: cannot write " << port_file << "\n";
      return 2;
    }
  }
  std::cout << "eved listening on " << options.host << ":" << server.port()
            << std::endl;

  struct sigaction action{};
  action.sa_handler = OnSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  signal(SIGPIPE, SIG_IGN);  // dead peers surface as write errors, not death

  // Tick until teardown: the first signal starts a graceful drain, a
  // second forces an immediate stop, and a crash-mode failpoint stops the
  // server on its own (noticed here through stopped()).
  int handled_signals = 0;
  while (!server.stopped()) {
    const int seen = g_signals.load();
    if (seen > handled_signals) {
      handled_signals = seen;
      if (seen == 1) {
        std::cout << "eved draining (signal)" << std::endl;
        server.BeginDrain();
      } else {
        std::cout << "eved stopping (repeated signal)" << std::endl;
        server.Stop();
      }
    }
    usleep(20'000);  // signal latency without busy-waiting
  }
  server.WaitUntilStopped();
  if (metrics != nullptr) metrics->Stop();
  const std::string crashed = server.crashed_site();
  if (!crashed.empty()) {
    std::cerr << "simulated crash at failpoint " << crashed << "\n";
    return 3;
  }
  std::cout << "eved exited cleanly" << std::endl;
  return 0;
}

}  // namespace
}  // namespace eve

int main(int argc, char** argv) { return eve::Main(argc, argv); }
