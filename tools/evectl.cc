// evectl: a script-driven console for the EVE/CVS system.
//
// Usage:
//   evectl <script>                      run statements locally
//   evectl -                             run statements from stdin
//   evectl --connect <host:port> <script>|-
//                                        run the same statements against a
//                                        running eved (net/server.h); the
//                                        output is byte-identical to the
//                                        local run for the same script
//   evectl --connect <h:p,h:p,...> <script>|-
//                                        cluster mode: the extra endpoints
//                                        are failover candidates — lost
//                                        connections are retried across the
//                                        list and "not primary" redirects
//                                        are chased to the leader (see
//                                        docs/REPLICATION.md; SHOW
//                                        REPLICATION and READ STALENESS <n>
//                                        are the replication session knobs)
//
// Statements are ';'-terminated:
//   LOAD MISD '<path>';                   -- load IS descriptions (MISD text)
//   SAVE MISD '<path>';                   -- write the current MKB
//   LOAD VIEWS '<path>';                  -- restore a saved view pool
//   SAVE VIEWS '<path>';                  -- persist the view pool
//   SHOW MKB;                             -- dump relations + constraints
//   SHOW HYPERGRAPH;                      -- H(MKB) summary (Fig. 4 style)
//   SHOW VIEWS;                           -- registered views and states
//   SHOW VIEW <name>;                     -- one view's E-SQL text
//   CREATE VIEW ... ;                     -- register an E-SQL view
//   DEFINE <MISD statement>;              -- a source publishes a relation
//                                            or constraint (additive)
//   RETRACT <constraint id>;              -- a source withdraws a constraint
//   SET SYNC BUDGET <n>;                  -- cap candidates pulled per view
//                                            synchronization (0 = no cap)
//   SET SYNC WORKBUDGET <n>;              -- per-view logical work budget
//                                            (0 = unlimited): deterministic
//                                            best-under-budget partials
//   SET SYNC DEADLINE <micros>;           -- wall-clock deadline per change
//                                            (0 = none; best effort)
//   SET SYNC QUEUE <n>;                   -- admission queue bound (0 = no
//                                            bound); a full queue sheds the
//                                            newest ENQUEUE with an explicit
//                                            resource-exhausted error
//   ENQUEUE DELETE ...;                   -- admit a capability change into
//   ENQUEUE RENAME ...;                      the bounded sync queue
//   DRAIN;                                -- apply queued changes FIFO, each
//                                            under a fresh deadline
//   SHOW SYNC STATS;                      -- enumeration counters, deadline
//                                            block, per-view truncation list
//                                            and admission counters for the
//                                            last change/preview
//   SHOW EXECUTOR STATS;                  -- process-wide executor counters:
//                                            queries run and cartesian
//                                            fallbacks
//   PREVIEW DELETE|RENAME ...;            -- what-if: the report the change
//                                            would commit; applies nothing
//   SYNC DRYRUN DELETE|RENAME ... [AT VERSION <n>];
//                                         -- full what-if synchronization:
//                                            the exact report a commit from
//                                            the tip (or retained version n)
//                                            would produce; commits nothing
//   SHOW VERSIONS;                        -- the copy-on-write version chain
//                                            (each version holds the whole
//                                            pool; a commit re-renders only
//                                            the VIEWS buckets it changed)
//   SHOW MKB AT VERSION <n>;              -- pin and dump an old MKB
//   SHOW VIEWS AT VERSION <n>;            -- the view pool frozen at n
//   ROLLBACK TO VERSION <n>;              -- restore MKB + views to version
//                                            n, committed as a NEW version
//   SCRUB;                                -- verify the whole version chain
//                                            (checksums, links, view stamps);
//                                            fails on any corruption
//   SHOW SCRUB STATS;                     -- counters of the last SCRUB
//   DELETE RELATION <name>;               -- capability change
//   DELETE ATTRIBUTE <rel>.<attr>;        -- capability change
//   RENAME RELATION <old> TO <new>;       -- capability change
//   RENAME ATTRIBUTE <rel>.<a> TO <b>;    -- capability change
//   TRACK SOURCES;                        -- admit every catalog source to
//                                            federation monitoring (healthy)
//   SHOW SOURCES;                         -- membership table: state,
//                                            breaker, failures, lease left
//   SET SOURCE <name> LEASE <n>;          -- lease length (also renews the
//                                            lease to now + n); auto-tracks
//   SET SOURCE <name> PROBE <n>;          -- probe cadence (next probe at
//                                            now + n); auto-tracks
//   SET SOURCE <name> BREAKER <n>;        -- breaker cooldown; auto-tracks
//   FAULT SOURCE <name> TIMEOUT|SLOW|CORRUPT|FLAP FROM <a> TO <b>;
//                                         -- transport fault for federation
//                                            ticks [a, b)
//   TICK <n>;                             -- advance the federation monitor
//                                            n logical ticks; lease expiry
//                                            departs the source (cascade)
//   JOURNAL '<path>';                     -- attach a write-ahead journal;
//                                            subsequent mutations are durable
//   CHECKPOINT '<path>';                  -- atomically write a checkpoint
//                                            and truncate the journal
//   RECOVER '<ckpt>' '<journal>';         -- rebuild state from checkpoint +
//                                            journal replay (crash recovery)
//   -- comments run to end of line
//
// The statement language is implemented by net/console.h (shared with
// eved). Every capability change prints the EVE change report (rewritten /
// disabled views, dropped constraints).
//
// Exit status: 0 = every statement succeeded; 1 = at least one failed (a
// one-line "<script>:<line>: error: ..." pointing at the FIRST failure is
// printed to stderr before exit); 2 = usage/startup problem; 3 = an armed
// crash failpoint fired (durable state is left for a later RECOVER run).
//
// Setting EVE_FAILPOINTS (e.g. "eve.apply_change.after_journal=crash") arms
// fault-injection sites; in --connect mode the spec arms the CLIENT process
// (the server arms its own from its own environment).

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "net/client.h"
#include "net/console.h"

namespace eve {
namespace {

// Runs every statement against a remote eved, mirroring the local loop's
// output byte-for-byte: the response's output/error fields are exactly
// what the local console would have written to stdout/stderr.
bool RunRemote(const std::string& endpoint,
               const std::vector<net::Statement>& statements,
               const std::string& script_name, std::string* first_failure) {
  // --connect takes one endpoint, or a comma-separated cluster list: the
  // first entry is dialed, the rest are failover candidates the client
  // retries across (with leader-redirect chasing) when a node dies.
  std::vector<std::string> endpoints;
  std::istringstream parts(endpoint);
  std::string part;
  while (std::getline(parts, part, ',')) {
    if (!part.empty()) endpoints.push_back(part);
  }
  if (endpoints.empty()) {
    std::cerr << "error: --connect expects <host>:<port>[,<host>:<port>...]\n";
    return false;
  }
  const size_t colon = endpoints[0].rfind(':');
  if (colon == std::string::npos) {
    std::cerr << "error: --connect expects <host>:<port>\n";
    return false;
  }
  net::ClientOptions options;
  options.host = endpoints[0].substr(0, colon);
  options.port = static_cast<uint16_t>(
      std::strtoul(endpoints[0].c_str() + colon + 1, nullptr, 10));
  if (endpoints.size() > 1) {
    options.nodes.assign(endpoints.begin() + 1, endpoints.end());
    options.max_transport_retries = 8;
  }
  Result<net::NetClient> client = net::NetClient::Connect(options);
  if (!client.ok()) {
    std::cerr << "error: " << client.status() << "\n";
    return false;
  }
  bool ok = true;
  for (const net::Statement& statement : statements) {
    std::cout << "evectl> " << statement.text << "\n";
    const Result<net::Response> response =
        client.value().Run(statement.text);
    if (!response.ok()) {
      std::cerr << "error: " << response.status() << "\n";
      if (first_failure->empty()) {
        *first_failure = script_name + ":" + std::to_string(statement.line) +
                         ": error: transport failed: " +
                         response.status().ToString();
      }
      return false;
    }
    std::cout << response.value().output;
    std::cerr << response.value().error;
    if (response.value().code != 0) {
      ok = false;
      if (first_failure->empty()) {
        *first_failure = script_name + ":" + std::to_string(statement.line) +
                         ": error: statement failed: " + statement.text;
      }
    }
  }
  return ok;
}

int Main(int argc, char** argv) {
  std::string connect;
  std::string source;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect = argv[++i];
    } else if (source.empty()) {
      source = arg;
    } else {
      source.clear();
      break;
    }
  }
  if (source.empty()) {
    std::cerr << "usage: evectl [--connect <host:port>[,<host:port>...]] "
                 "<script>|-\n";
    return 2;
  }
  std::string script;
  if (source == "-") {
    std::stringstream buffer;
    buffer << std::cin.rdbuf();
    script = buffer.str();
  } else {
    std::ifstream in(source);
    if (!in) {
      std::cerr << "error: cannot open " << source << "\n";
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    script = buffer.str();
  }
  const std::string script_name = source == "-" ? "<stdin>" : source;
  if (const char* spec = std::getenv("EVE_FAILPOINTS")) {
    const Status status = Failpoints::Instance().ArmFromSpec(spec);
    if (!status.ok()) {
      std::cerr << "error: bad EVE_FAILPOINTS: " << status << "\n";
      return 2;
    }
  }
  const std::vector<net::Statement> statements = net::SplitStatements(script);
  // The first failing statement, as "<script>:<line>: error: ...". The
  // script keeps running past failures (later statements often still make
  // sense, and CI asserts on final counters), but the exit status and this
  // one-line pointer make the failure impossible to miss.
  std::string first_failure;
  bool ok = true;
  if (!connect.empty()) {
    ok = RunRemote(connect, statements, script_name, &first_failure);
  } else {
    net::Console console;
    for (const net::Statement& statement : statements) {
      std::cout << "evectl> " << statement.text << "\n";
      bool this_ok = false;
      try {
        this_ok = console.Run(statement.text, std::cout, std::cerr);
      } catch (const SimulatedCrash& crash) {
        // Model a process death at the armed site: abandon the script,
        // keep whatever durable files were already written.
        std::cerr << "simulated crash at failpoint " << crash.site() << "\n";
        return 3;
      }
      if (!this_ok) {
        ok = false;
        if (first_failure.empty()) {
          first_failure = script_name + ":" +
                          std::to_string(statement.line) +
                          ": error: statement failed: " + statement.text;
        }
      }
    }
  }
  if (!ok && !first_failure.empty()) {
    std::cerr << first_failure << "\n";
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace eve

int main(int argc, char** argv) { return eve::Main(argc, argv); }
