// The end-to-end run: real eved processes over loopback, one client thread
// in closed loop (a change on one connection, then a read on a second),
// every response checked.

#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "common/file_io.h"
#include "host.h"
#include "net/client.h"
#include "runs.h"
#include "stats.h"

namespace evebench {
namespace {

using eve::net::NetClient;

struct Node {
  std::string id;
  ChildProcess process;
  uint16_t port = 0;
  uint16_t metrics_port = 0;
};

// One standalone eved, or a primary (nodes[0]) and two replicas.
struct Deployment {
  std::vector<std::unique_ptr<Node>> nodes;
  void Stop() {
    for (auto& node : nodes) node->process.Stop();
  }
};

eve::Result<NetClient> Connect(uint16_t port) {
  eve::net::ClientOptions options;
  options.host = "127.0.0.1";
  options.port = port;
  // A shed response is an error of the run, never retried away.
  options.max_shed_retries = 0;
  options.receive_timeout_micros = 120'000'000;
  return NetClient::Connect(options);
}

eve::Status RunOk(NetClient& client, const std::string& statement,
                  std::string* output = nullptr) {
  eve::Result<eve::net::Response> response = client.Run(statement);
  if (!response.ok()) return response.status();
  if (response.value().code != 0) {
    return eve::Status::Internal(statement.substr(0, 80) + ": " +
                                 response.value().error);
  }
  if (output != nullptr) *output = response.value().output;
  return eve::Status::OK();
}

std::string Quote(const std::string& path) { return "'" + path + "'"; }

eve::Result<double> SetUpStandalone(const RunOptions& options,
                                    const std::string& dir,
                                    const std::string& misd_path,
                                    const std::string& pool_path,
                                    Deployment* deployment) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto node = std::make_unique<Node>();
  node->id = "eved";
  const double start = NowSeconds();
  if (!node->process.Spawn({options.eved_path, "--port", "0", "--port-file",
                            dir + "/port", "--workers", "2"},
                           dir + "/eved.log")) {
    return eve::Status::Internal("cannot spawn " + options.eved_path);
  }
  std::optional<uint16_t> port =
      WaitForPortFile(dir + "/port", &node->process, 30.0);
  if (!port.has_value()) return eve::Status::Internal("eved did not start");
  node->port = *port;
  eve::Result<NetClient> client = Connect(node->port);
  if (!client.ok()) return client.status();
  EVE_RETURN_IF_ERROR(RunOk(client.value(), "LOAD MISD " + Quote(misd_path)));
  EVE_RETURN_IF_ERROR(RunOk(client.value(), "LOAD VIEWS " + Quote(pool_path)));
  EVE_RETURN_IF_ERROR(RunOk(client.value(), "JOURNAL " + Quote(dir + "/wal")));
  const double elapsed = NowSeconds() - start;
  deployment->nodes.push_back(std::move(node));
  return elapsed;
}

// Waits until every replica has applied the primary's version.
bool WaitForReplicas(const Deployment& deployment, double timeout_seconds) {
  const double deadline = NowSeconds() + timeout_seconds;
  while (NowSeconds() < deadline) {
    std::optional<eve::net::ReplStatus> primary =
        ProbeReplStatus(deployment.nodes[0]->port, 2.0);
    bool caught_up = primary.has_value() &&
                     primary->role == eve::net::ReplRole::kPrimary;
    for (size_t i = 1; caught_up && i < deployment.nodes.size(); ++i) {
      std::optional<eve::net::ReplStatus> replica =
          ProbeReplStatus(deployment.nodes[i]->port, 2.0);
      caught_up = replica.has_value() &&
                  replica->role == eve::net::ReplRole::kReplica &&
                  replica->applied_version == primary->applied_version;
    }
    if (caught_up) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

// Waits until the primary's /metrics lists every replica as a peer.
bool WaitForSubscribers(const Deployment& deployment, double timeout_seconds) {
  const double deadline = NowSeconds() + timeout_seconds;
  while (NowSeconds() < deadline) {
    const std::string metrics = ScrapeMetrics(deployment.nodes[0]->metrics_port);
    bool all = true;
    for (size_t i = 1; i < deployment.nodes.size(); ++i) {
      all = all && metrics.find("eve_repl_peer_lag{node=\"" +
                                deployment.nodes[i]->id + "\"}") !=
                       std::string::npos;
    }
    if (all) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

eve::Result<double> SetUpCluster(const RunOptions& options,
                                 const std::string& dir,
                                 const Inputs& inputs,
                                 const std::string& pool_path,
                                 Deployment* deployment) {
  std::filesystem::remove_all(dir);
  std::ostringstream cluster;
  for (int i = 0; i < 3; ++i) {
    auto node = std::make_unique<Node>();
    node->id = "n" + std::to_string(i + 1);
    node->port = ReservePort();
    node->metrics_port = ReservePort();
    if (i > 0) cluster << ",";
    cluster << node->id << "=127.0.0.1:" << node->port;
    std::filesystem::create_directories(dir + "/" + node->id);
    deployment->nodes.push_back(std::move(node));
  }
  const double start = NowSeconds();
  for (size_t i = 0; i < deployment->nodes.size(); ++i) {
    Node& node = *deployment->nodes[i];
    std::vector<std::string> argv = {
        options.eved_path, "--node-id", node.id, "--cluster", cluster.str(),
        "--data-dir", dir + "/" + node.id, "--port",
        std::to_string(node.port), "--metrics-port",
        std::to_string(node.metrics_port), "--workers", "2"};
    if (i > 0) {
      argv.push_back("--replica-of");
      argv.push_back(deployment->nodes[0]->id);
    }
    if (!node.process.Spawn(argv, dir + "/" + node.id + ".log")) {
      return eve::Status::Internal("cannot spawn " + options.eved_path);
    }
  }
  // The primary must lead and both replicas must be subscribed to its
  // stream before the first journaled statement, or its semi-sync ack
  // could time out.
  if (!WaitForReplicas(*deployment, 30.0) ||
      !WaitForSubscribers(*deployment, 30.0)) {
    return eve::Status::Internal("cluster did not form");
  }
  eve::Result<NetClient> client = Connect(deployment->nodes[0]->port);
  if (!client.ok()) return client.status();
  // Journaled statements only: LOAD MISD rebuilds the system without a
  // journal record, so replicas would never see it.
  for (const std::string& statement : inputs.misd_statements) {
    EVE_RETURN_IF_ERROR(RunOk(client.value(), "DEFINE " + statement));
  }
  EVE_RETURN_IF_ERROR(RunOk(client.value(), "LOAD VIEWS " + Quote(pool_path)));
  if (!WaitForReplicas(*deployment, 60.0)) {
    return eve::Status::Internal("replicas did not catch up after setup");
  }
  return NowSeconds() - start;
}

// Counts from SHOW SERVER STATS ("key=value" words).
std::map<std::string, double> ServerStats(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string word;
  while (in >> word) {
    const size_t eq = word.find('=');
    if (eq == std::string::npos) continue;
    out[word.substr(0, eq)] = std::strtod(word.c_str() + eq + 1, nullptr);
  }
  return out;
}

}  // namespace

RunResult RunEndToEnd(const RunOptions& options, const Inputs& inputs) {
  RunResult result;
  const bool replicated = options.spec.kind == WorkloadKind::kReplicatedCommit;
  const bool whatif = options.spec.kind == WorkloadKind::kWhatifDeparture;
  const CpuTimes cpu_start = ReadCpuTimes();
  std::vector<std::string> failures;
  const auto fail = [&](const std::string& why) {
    ++result.failed;
    if (failures.size() < 5) failures.push_back(why);
  };

  const std::string misd_path = options.work_dir + "/inputs.misd";
  const std::string pool_path = options.work_dir + "/inputs.views";
  if (!eve::AtomicWriteFile(misd_path, inputs.misd_text).ok() ||
      !eve::AtomicWriteFile(pool_path, inputs.pool_text).ok()) {
    std::cout << "# error: cannot write inputs under " << options.work_dir
              << "\n";
    result.attempted = 1;
    result.failed = 1;
    return result;
  }

  // Per-deployment latency samples; diagnostics pool them.
  std::vector<double> setups;
  std::vector<double> rss_mb;
  std::vector<std::vector<double>> change_runs;
  std::vector<std::vector<double>> read_runs;
  std::vector<double> change_ms;
  std::vector<double> read_us;
  uint64_t response_bytes = 0;
  double loop_seconds = 0.0;
  double loop_cpu = 0.0;
  double acks = 0.0;
  double ack_timeouts = 0.0;
  std::map<std::string, double> server;
  // A what-if must answer with the same bytes every time, in every
  // process; reads must return each view exactly as it was before.
  std::map<std::string, std::string> first_dry_run;
  std::map<std::string, std::string> baseline_reads;

  // Each deployment is a fresh process (or cluster): its own memory
  // layout, its own CPU placement. The same sequence runs on every one,
  // and each latency metric is the trimmed mean over deployments of the
  // deployment's percentile, so neither one outlier process nor a split
  // between fast and slow processes decides the run.
  for (size_t d = 0; d < options.spec.deployments; ++d) {
    const std::string dir = options.work_dir + "/deploy" + std::to_string(d);
    Deployment deployment;
    eve::Result<double> seconds =
        replicated
            ? SetUpCluster(options, dir, inputs, pool_path, &deployment)
            : SetUpStandalone(options, dir, misd_path, pool_path, &deployment);
    if (!seconds.ok()) {
      std::cout << "# error: setup failed: " << seconds.status() << "\n";
      deployment.Stop();
      ++result.attempted;
      fail("setup failed");
      break;
    }
    setups.push_back(seconds.value());

    Node& primary = *deployment.nodes[0];
    eve::Result<NetClient> change_client = Connect(primary.port);
    eve::Result<NetClient> read_client = Connect(primary.port);
    if (!change_client.ok() || !read_client.ok()) {
      ++result.attempted;
      fail("cannot connect to eved");
      deployment.Stop();
      break;
    }
    if (whatif) {
      for (const Step& step : inputs.steps) {
        std::string text;
        if (!RunOk(read_client.value(), step.read_statement, &text).ok()) {
          fail("baseline read of " + step.read_view + " failed");
        }
        auto [it, first] = baseline_reads.emplace(step.read_view, text);
        if (!first && it->second != text) {
          fail(step.read_view + " differs between deployments");
        }
      }
    }
    const double acks_before =
        replicated ? MetricValue(ScrapeMetrics(primary.metrics_port),
                                 "eve_repl_acks_received_total")
                   : 0.0;

    change_runs.emplace_back();
    read_runs.emplace_back();
    const double cpu_before = SelfCpuSeconds();
    const double loop_start = NowSeconds();
    bool transport_ok = true;
    for (const Step& step : inputs.steps) {
      result.attempted += 2;
      if (!transport_ok) {
        result.failed += 2;
        continue;
      }
      double t0 = NowSeconds();
      eve::Result<eve::net::Response> change =
          change_client.value().Run(step.change_statement);
      change_runs.back().push_back((NowSeconds() - t0) * 1e3);
      std::string why;
      if (!change.ok()) {
        fail("transport: " + change.status().ToString());
        transport_ok = false;
        result.failed += 1;  // the read that cannot follow
        continue;
      }
      const eve::net::Response& cr = change.value();
      response_bytes += cr.output.size();
      if (cr.code != 0) {
        fail(step.change_statement + ": " + cr.error);
      } else if (whatif) {
        auto [it, first] = first_dry_run.emplace(step.relation, cr.output);
        if (!CheckDryRunHeader(cr.output, &why) ||
            !CheckChangeReport(step, cr.output, inputs.view_names.size(),
                               /*allow_disabled=*/true, &why)) {
          fail(step.change_statement + ": " + why);
        } else if (!first && it->second != cr.output) {
          fail(step.change_statement + ": differs from its first run");
        }
      } else if (!CheckChangeReport(step, cr.output, inputs.view_names.size(),
                                    /*allow_disabled=*/false, &why)) {
        fail(step.change_statement + ": " + why);
      }

      t0 = NowSeconds();
      eve::Result<eve::net::Response> read =
          read_client.value().Run(step.read_statement);
      read_runs.back().push_back((NowSeconds() - t0) * 1e6);
      if (!read.ok()) {
        fail("transport: " + read.status().ToString());
        transport_ok = false;
        continue;
      }
      const eve::net::Response& rr = read.value();
      if (rr.code != 0) {
        fail(step.read_statement + ": " + rr.error);
      } else if (whatif) {
        if (rr.output != baseline_reads[step.read_view]) {
          fail(step.read_statement + ": view changed under a what-if");
        }
      } else if (!CheckRenamedView(step, rr.output, &why)) {
        fail(step.read_statement + ": " + why);
      }
    }
    loop_seconds += NowSeconds() - loop_start;
    loop_cpu += SelfCpuSeconds() - cpu_before;
    change_ms.insert(change_ms.end(), change_runs.back().begin(),
                     change_runs.back().end());
    read_us.insert(read_us.end(), read_runs.back().begin(),
                   read_runs.back().end());

    // Server-side counters, then (replicated) convergence of every node.
    std::string stats_text;
    if (transport_ok &&
        RunOk(change_client.value(), "SHOW SERVER STATS", &stats_text).ok()) {
      for (const auto& [key, value] : ServerStats(stats_text)) {
        server[key] += value;
      }
    }
    if (replicated) {
      ++result.attempted;
      if (!WaitForReplicas(deployment, 30.0)) {
        fail("replicas did not reach lag 0");
      } else {
        std::string mkb0, views0;
        for (size_t i = 0; i < deployment.nodes.size(); ++i) {
          eve::Result<NetClient> client = Connect(deployment.nodes[i]->port);
          std::string mkb, views;
          if (!client.ok() || !RunOk(client.value(), "SHOW MKB", &mkb).ok() ||
              !RunOk(client.value(), "SHOW VIEWS", &views).ok()) {
            fail("cannot read state of " + deployment.nodes[i]->id);
            break;
          }
          if (i == 0) {
            mkb0 = mkb;
            views0 = views;
          } else if (mkb != mkb0 || views != views0) {
            fail(deployment.nodes[i]->id + " state differs from the primary");
          }
        }
      }
      const std::string metrics = ScrapeMetrics(primary.metrics_port);
      acks += MetricValue(metrics, "eve_repl_acks_received_total") - acks_before;
      ack_timeouts += MetricValue(metrics, "eve_repl_ack_timeouts_total");
    }
    double rss = 0.0;
    for (const auto& node : deployment.nodes) {
      rss += PeakRssMb(node->process.pid());
    }
    rss_mb.push_back(rss);
    deployment.Stop();
    std::filesystem::remove_all(dir);
  }
  const double steal = StealFraction(cpu_start, ReadCpuTimes());

  const size_t changes = change_ms.size();
  const size_t reads = read_us.size();
  // One value per deployment; gated latency metrics combine them with a
  // trimmed mean.
  const auto per_deployment = [](const std::vector<std::vector<double>>& runs,
                                 auto statistic) {
    std::vector<double> values;
    for (const std::vector<double>& run : runs) values.push_back(statistic(run));
    return values;
  };
  const auto p50 = [](const std::vector<double>& v) { return Percentile(v, 50); };
  const auto p90 = [](const std::vector<double>& v) { return Percentile(v, 90); };
  const std::vector<double> change_p50s = per_deployment(change_runs, p50);
  const std::vector<double> change_p90s = per_deployment(change_runs, p90);
  const std::vector<double> throughputs = per_deployment(change_runs, OpsPerSecond);
  const std::vector<double> read_p50s = per_deployment(read_runs, p50);
  const std::vector<double> read_p90s = per_deployment(read_runs, p90);
  const size_t per_run = inputs.steps.size();
  if (!options.smoke && !PercentileGateable(per_run, 90)) {
    ++result.attempted;
    fail("fewer than " + std::to_string(kMinSamplesBeyond) +
         " samples beyond a p90");
  }
  result.correct = result.failed == 0 && setups.size() == options.spec.deployments;
  const double error_frac =
      result.attempted == 0
          ? 1.0
          : static_cast<double>(result.failed) /
                static_cast<double>(result.attempted);

  const auto list = [](const std::vector<double>& values) {
    std::ostringstream os;
    for (size_t i = 0; i < values.size(); ++i) os << (i ? ", " : "") << values[i];
    return os.str();
  };
  const auto beyond = [](size_t n, double q) {
    return "n=" + std::to_string(n) + ", " +
           std::to_string(SamplesBeyond(n, q)) + " beyond";
  };
  const auto with_values = [&](const std::string& what,
                               const std::vector<double>& values) {
    return what + "; per deployment: " + list(values);
  };
  // All eight end-to-end metrics are printed; BENCHMARK.json gates the
  // ones that held across runs of identical code on a noisy shared host.
  // The p90s and the mean-based throughput moved by 20-60% there (a burst
  // of host scheduling delay lands in the tail and the mean), and
  // error_frac is 0 on a correct build, so those are reported only.
  struct Row {
    Metric metric;
    std::string note;
    bool gated;
  };
  const std::vector<Row> rows = {
      {{"setup_s", Median(setups), "s"}, "setups: " + list(setups), true},
      {{"change_p50_ms", TrimmedMean(change_p50s), "ms"},
       with_values(beyond(per_run, 50), change_p50s), true},
      {{"change_p90_ms", TrimmedMean(change_p90s), "ms"},
       with_values(beyond(per_run, 90), change_p90s), false},
      {{"changes_per_s", TrimmedMean(throughputs), "1/s"},
       with_values("1 / mean over n=" + std::to_string(per_run), throughputs),
       false},
      {{"read_p50_us", TrimmedMean(read_p50s), "us"},
       with_values(beyond(per_run, 50), read_p50s), true},
      {{"read_p90_us", TrimmedMean(read_p90s), "us"},
       with_values(beyond(per_run, 90), read_p90s), false},
      {{"rss_peak_mb", Median(rss_mb), "MB"},
       with_values("VmHWM summed over the deployment's eved", rss_mb), true},
      {{"error_frac", error_frac, "ratio"},
       std::to_string(result.failed) + " of " +
           std::to_string(result.attempted) + " ops failed",
       false},
  };
  std::cout << "# end-to-end metrics: " << setups.size()
            << " deployments, each running the whole sequence (closed loop, "
               "1 client thread, 2 connections); latency metrics are the mean "
               "of the middle half of the deployments' values\n";
  for (const Row& row : rows) {
    std::cout << "#"
              << MetricLine(row.metric,
                            (row.gated ? "[gated] " : "[reported] ") + row.note)
              << "\n";
    if (row.gated) result.metrics.push_back(row.metric);
  }
  std::cout << "# diagnostics (not gated)\n";
  const std::vector<std::pair<Metric, std::string>> diagnostics = {
      {{"gen.change_p99_ms", Percentile(change_ms, 99), "ms"},
       "all deployments pooled, " + beyond(changes, 99)},
      {{"gen.read_p99_us", Percentile(read_us, 99), "us"},
       "all deployments pooled, " + beyond(reads, 99)},
      {{"gen.cpu_frac", loop_seconds > 0 ? loop_cpu / loop_seconds : 0.0, "ratio"},
       "client CPU / loop wall time"},
      {{"host.steal_frac", steal, "ratio"}, "/proc/stat over the run"},
      {{"net.response_bytes_per_change",
        changes ? static_cast<double>(response_bytes) / static_cast<double>(changes) : 0.0,
        "B"},
       ""},
      {{"net.shed", server["shed_overload"], "count"}, "SHOW SERVER STATS"},
      {{"net.evictions",
        server["evicted_slow_loris"] + server["evicted_overflow"] +
            server["evicted_io_error"],
        "count"},
       "SHOW SERVER STATS"},
  };
  for (const auto& [metric, note] : diagnostics) {
    std::cout << "#" << MetricLine(metric, note) << "\n";
  }
  if (replicated) {
    std::cout << "#" << MetricLine({"repl.acks_per_change",
                                    changes ? acks / static_cast<double>(changes)
                                            : 0.0,
                                    "count"},
                                   "eve_repl_acks_received_total over the loops")
              << "\n";
    std::cout << "#" << MetricLine({"repl.ack_timeouts", ack_timeouts, "count"},
                                   "eve_repl_ack_timeouts_total")
              << "\n";
  }
  if (whatif) {
    // Per-relation medians expose the cost modes the change cycle mixes.
    std::map<std::string, std::vector<double>> by_relation;
    for (size_t i = 0; i < changes; ++i) {
      by_relation[inputs.steps[i % inputs.steps.size()].relation].push_back(
          change_ms[i]);
    }
    for (const auto& [relation, samples] : by_relation) {
      std::cout << "#" << MetricLine({"gen.change_p50_ms." + relation,
                                      Percentile(samples, 50), "ms"},
                                     "n=" + std::to_string(samples.size()))
                << "\n";
    }
  }
  for (const std::string& why : failures) {
    std::cout << "# failure: " << why << "\n";
  }
  return result;
}

}  // namespace evebench
