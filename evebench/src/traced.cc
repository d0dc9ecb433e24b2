// The traced run: the workload's seeded sequence replayed in process.
// Each statement goes through net::Console exactly as eved would run it;
// on a mirror EveSystem holding the same state, the benchmark then calls
// each layer's public functions in pipeline order, one span around each
// call. The run is made twice, with spans on and off; the difference in
// wall time is the tracing overhead.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "cvs/cvs.h"
#include "cvs/legality.h"
#include "cvs/r_mapping.h"
#include "esql/binder.h"
#include "eve/eve_system.h"
#include "eve/journal.h"
#include "eve/view_pool_io.h"
#include "host.h"
#include "mkb/evolution.h"
#include "mkb/serializer.h"
#include "mkb/version_store.h"
#include "net/client.h"
#include "net/console.h"
#include "net/protocol.h"
#include "net/server.h"
#include "runs.h"
#include "sql/parser.h"
#include "stats.h"
#include "trace.h"

namespace evebench {
namespace {

using eve::net::Console;

// Per-change counts gathered alongside the spans.
struct PassCounts {
  uint64_t checks = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  double loop_seconds = 0.0;
  uint64_t changes = 0;
  uint64_t affected_views = 0;
  uint64_t r_mapped_views = 0;
  uint64_t report_outcomes = 0;
  uint64_t response_bytes = 0;
  uint64_t journal_records = 0;
  uint64_t journal_bytes = 0;
  uint64_t candidates_yielded = 0;
  uint64_t candidates_rejected = 0;
  uint64_t trees_expanded = 0;
  uint64_t truncated_views = 0;
  double commit_ms_sum = 0.0;  // sum over changes of apply - prepare
  double history_lines_per_view = 0.0;
  double chain_mb = 0.0;
  double versions = 0.0;
  size_t views = 0;
  double register_ms = 0.0;
  std::vector<double> console_read_us;
  std::vector<double> wire_read_us;

  void Check(bool ok, const std::string& why) {
    ++checks;
    if (!ok) {
      ++failed;
      if (failures.size() < 5) failures.push_back(why);
    }
  }
};

std::string RunStatement(Console& console, const std::string& statement,
                         bool* ok) {
  std::ostringstream out;
  std::ostringstream err;
  *ok = console.Run(statement, out, err);
  return *ok ? out.str() : err.str();
}

double Ms(int64_t start_ns) {
  return static_cast<double>(Tracer::NowNs() - start_ns) / 1e6;
}

// One complete pass: set up, run every step, check every answer.
PassCounts RunPass(const RunOptions& options, const Inputs& inputs,
                   Tracer& tracer, const std::string& dir) {
  PassCounts counts;
  const WorkloadKind kind = options.spec.kind;
  const bool whatif = kind == WorkloadKind::kWhatifDeparture;
  const bool replicated = kind == WorkloadKind::kReplicatedCommit;
  // Every committed change is also applied to a replica console, as a
  // replica's agent applies the records shipped to it.
  const bool replica_applies = !whatif;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string misd_path = dir + "/inputs.misd";
  const std::string pool_path = dir + "/inputs.views";
  {
    std::ofstream(misd_path) << inputs.misd_text;
    std::ofstream(pool_path) << inputs.pool_text;
  }

  // --- Set up the console (what eved runs) --------------------------------
  Console console;
  Console replica;
  eve::JournalReplayer replayer;
  std::vector<eve::JournalRecord> console_records;
  bool ok = false;
  {
    ScopedSpan span(tracer, "net.console_setup", kSetupOp);
    if (replicated) {
      // The journaled bring-up of a replicated primary; every record is
      // applied to the replica console as the replica agent would.
      RunStatement(console, "JOURNAL '" + dir + "/wal'", &ok);
      counts.Check(ok, "JOURNAL failed");
      console.attached_journal()->SetObserver(
          [&](eve::JournalRecordKind record_kind, std::string_view body) {
            console_records.push_back({record_kind, std::string(body)});
          });
      for (const std::string& statement : inputs.misd_statements) {
        RunStatement(console, "DEFINE " + statement, &ok);
        counts.Check(ok, "DEFINE failed: " + statement.substr(0, 60));
      }
      RunStatement(console, "LOAD VIEWS '" + pool_path + "'", &ok);
      counts.Check(ok, "LOAD VIEWS failed");
      for (const eve::JournalRecord& record : console_records) {
        counts.Check(replica.ApplyReplicatedRecord(record, &replayer).ok(),
                     "replica apply failed during setup");
      }
      console_records.clear();
    } else {
      const auto load = [&](Console& target) {
        RunStatement(target, "LOAD MISD '" + misd_path + "'", &ok);
        counts.Check(ok, "LOAD MISD failed");
        RunStatement(target, "LOAD VIEWS '" + pool_path + "'", &ok);
        counts.Check(ok, "LOAD VIEWS failed");
      };
      load(console);
      // Loaded the same way, the replica's version chain has the primary's
      // ids before the first shipped record.
      if (replica_applies) load(replica);
      RunStatement(console, "JOURNAL '" + dir + "/wal'", &ok);
      counts.Check(ok, "JOURNAL failed");
    }
  }

  // --- Set up the mirror system on the same inputs -------------------------
  eve::Result<eve::Mkb> mkb = eve::LoadMkb(inputs.misd_text);
  counts.Check(mkb.ok(), "LoadMkb failed");
  if (!mkb.ok()) return counts;
  for (const std::string& text : inputs.view_texts) {
    std::optional<eve::Result<eve::ParsedView>> parsed;
    {
      ScopedSpan span(tracer, "sql.parse", kSetupOp);
      parsed.emplace(eve::ParseView(text));
    }
    counts.Check(parsed->ok(), "ParseView failed");
    if (!parsed->ok()) continue;
    ScopedSpan span(tracer, "esql.bind", kSetupOp);
    counts.Check(eve::BindView(parsed->value(), mkb.value().catalog()).ok(),
                 "BindView failed");
  }
  auto mirror = std::make_unique<eve::EveSystem>(mkb.MoveValue());
  {
    const int64_t start = Tracer::NowNs();
    ScopedSpan span(tracer, "eve.register", kSetupOp);
    counts.Check(eve::LoadViews(inputs.pool_text, mirror.get()).ok(),
                 "LoadViews failed");
    counts.register_ms = Ms(start);
  }
  counts.views = mirror->NumViews();
  eve::Result<eve::Journal> mirror_journal =
      eve::Journal::Open(dir + "/mirror.wal");
  eve::Result<eve::Journal> scratch_journal =
      eve::Journal::Open(dir + "/scratch.wal");
  counts.Check(mirror_journal.ok() && scratch_journal.ok(),
               "cannot open journals");
  if (!mirror_journal.ok() || !scratch_journal.ok()) return counts;
  std::vector<eve::JournalRecord> mirror_records;
  mirror_journal.value().SetObserver(
      [&](eve::JournalRecordKind record_kind, std::string_view body) {
        mirror_records.push_back({record_kind, std::string(body)});
      });
  mirror->AttachJournal(&mirror_journal.value());
  eve::MkbVersionStore scratch_store;
  scratch_store.Reset(std::make_shared<const eve::Mkb>(mirror->mkb()),
                      eve::SaveViews(*mirror), "loaded");

  // Reads also go over loopback to an in-process server on the console, so
  // the transport share of a read can be separated from the console's.
  eve::net::ServerOptions server_options;
  server_options.worker_threads = 1;
  eve::net::Server server(&console, server_options);
  counts.Check(server.Start().ok(), "in-process server did not start");
  eve::net::ClientOptions client_options;
  client_options.port = server.port();
  client_options.max_shed_retries = 0;
  eve::Result<eve::net::NetClient> wire =
      eve::net::NetClient::Connect(client_options);
  counts.Check(wire.ok(), "cannot connect to the in-process server");
  if (!wire.ok()) {
    server.Stop();
    return counts;
  }

  std::map<std::string, std::string> baseline_reads;
  if (whatif) {
    for (const Step& step : inputs.steps) {
      std::ostringstream out, err;
      console.RunSnapshotRead(step.read_statement, out, err);
      baseline_reads.emplace(step.read_view, out.str());
    }
  }
  if (replica_applies) {
    console.attached_journal()->SetObserver(
        [&](eve::JournalRecordKind record_kind, std::string_view body) {
          console_records.push_back({record_kind, std::string(body)});
        });
  }

  // --- The sequence --------------------------------------------------------
  std::map<std::string, std::string> first_dry_run;
  const double loop_start = NowSeconds();
  for (uint32_t op = 0; op < inputs.steps.size(); ++op) {
    const Step& step = inputs.steps[op];
    const eve::CapabilityChange& change = step.change;
    ScopedSpan op_span(tracer, "op", op);
    ++counts.changes;

    std::optional<eve::Result<eve::MkbEvolutionReport>> evolved;
    {
      ScopedSpan span(tracer, "mkb.evolve", op);
      evolved.emplace(eve::EvolveMkb(mirror->mkb(), change));
    }
    counts.Check(evolved->ok(), "EvolveMkb failed");
    std::vector<std::string> affected;
    {
      ScopedSpan span(tracer, "eve.affected_lookup", op);
      affected = mirror->AffectedViews(change);
    }
    counts.Check(affected == step.affected,
                 "AffectedViews differs from the prediction");
    counts.affected_views += affected.size();

    const int64_t prepare_start = Tracer::NowNs();
    std::optional<eve::Result<eve::DryRunReport>> prepared;
    {
      ScopedSpan span(tracer, "eve.prepare", op);
      prepared.emplace(mirror->DryRunChange(change));
    }
    const double prepare_ms = Ms(prepare_start);
    counts.Check(prepared->ok(), "DryRunChange failed");
    if (prepared->ok()) {
      counts.truncated_views +=
          prepared->value().diagnostics.truncated_views.size();
    }

    if (evolved->ok()) {
      // cvs.sync is the CVS work of the change alone: one SyncContext and
      // Synchronize for every affected view, as DryRunChange runs it.
      std::vector<const eve::ViewDefinition*> views;
      for (const std::string& name : affected) {
        views.push_back(&mirror->GetView(name).value()->definition);
      }
      eve::SyncContext context(mirror->mkb(), evolved->value().mkb);
      std::vector<eve::Result<eve::CvsResult>> synced;
      synced.reserve(views.size());
      {
        ScopedSpan sync_span(tracer, "cvs.sync", op);
        {
          ScopedSpan span(tracer, "hypergraph.join_graph", op);
          context.graph_prime();
        }
        for (const eve::ViewDefinition* view : views) {
          ScopedSpan span(tracer, "cvs.synchronize", op);
          synced.push_back(eve::Synchronize(*view, change, context));
        }
      }
      // Then the components CVS runs inside each synchronization, timed
      // on their own: the R-mapping of a deleted relation, and the Def. 1
      // legality check of every rewriting it returned.
      const bool is_delete =
          change.kind == eve::CapabilityChange::Kind::kDeleteRelation ||
          change.kind == eve::CapabilityChange::Kind::kDeleteAttribute;
      for (size_t i = 0; i < views.size(); ++i) {
        const eve::ViewDefinition& view = *views[i];
        if (is_delete) {
          ScopedSpan span(tracer, "cvs.r_mapping", op);
          counts.Check(eve::ComputeRMapping(view, step.relation, mirror->mkb())
                           .ok(),
                       "ComputeRMapping failed for " + view.name());
          ++counts.r_mapped_views;
        }
        counts.Check(synced[i].ok(), "Synchronize failed for " + view.name());
        if (!synced[i].ok()) continue;
        const eve::EnumerationStats& stats = synced[i].value().enumeration;
        counts.candidates_yielded += stats.candidates_yielded;
        counts.candidates_rejected += stats.candidates_rejected;
        counts.trees_expanded += stats.trees_expanded;
        ScopedSpan span(tracer, "cvs.legality", op);
        for (const eve::SynchronizedView& rewriting :
             synced[i].value().rewritings) {
          std::map<eve::AttributeRef, eve::ExprPtr> substitution;
          for (const eve::AttributeReplacement& replacement :
               rewriting.candidate.replacements) {
            substitution.emplace(replacement.original, replacement.replacement);
          }
          eve::CheckLegality(view, rewriting.view, change,
                             context.mkb_prime(),
                             rewriting.legality.inferred_extent, substitution);
        }
      }
    }

    if (whatif) {
      if (prepared->ok()) {
        ScopedSpan span(tracer, "eve.report_render", op);
        counts.report_outcomes += prepared->value().report.outcomes.size();
        prepared->value().ToString();
      }
    } else {
      mirror_records.clear();
      const int64_t apply_start = Tracer::NowNs();
      std::optional<eve::Result<eve::ChangeReport>> applied;
      {
        ScopedSpan span(tracer, "eve.apply", op);
        applied.emplace(mirror->ApplyChange(change));
      }
      counts.commit_ms_sum += Ms(apply_start) - prepare_ms;
      counts.Check(applied->ok(), "ApplyChange failed");
      std::string views_text;
      {
        ScopedSpan span(tracer, "eve.views_render", op);
        views_text = eve::SaveViews(*mirror);
      }
      auto tip = std::make_shared<const eve::Mkb>(mirror->mkb());
      {
        ScopedSpan span(tracer, "mkb.version_commit", op);
        scratch_store.Commit(tip, std::move(views_text), change.ToString());
      }
      // Keep the scratch chain at two versions: the commit above is timed
      // against a tip with the previous pool, never against a long chain.
      scratch_store.Reset(tip, eve::SaveViews(*mirror), "tip");
      if (applied->ok()) {
        ScopedSpan span(tracer, "eve.report_render", op);
        counts.report_outcomes += applied->value().outcomes.size();
        applied->value().ToString();
      }
      {
        ScopedSpan span(tracer, "eve.journal_append", op);
        for (const eve::JournalRecord& record : mirror_records) {
          counts.Check(
              scratch_journal.value().Append(record.kind, record.body).ok(),
              "Journal::Append failed");
        }
      }
      counts.journal_records += mirror_records.size();
      for (const eve::JournalRecord& record : mirror_records) {
        counts.journal_bytes += record.body.size() + 9;  // len, crc, kind
      }
    }

    // The statement itself, through the console eved serves it with.
    console_records.clear();
    std::string output;
    {
      ScopedSpan span(tracer, "net.console_change", op);
      output = RunStatement(console, step.change_statement, &ok);
    }
    counts.Check(ok, step.change_statement + " failed: " + output);
    counts.response_bytes += output.size();
    std::string why;
    if (whatif) {
      auto [it, first] = first_dry_run.emplace(step.relation, output);
      counts.Check(CheckDryRunHeader(output, &why) &&
                       CheckChangeReport(step, output, inputs.view_names.size(),
                                         /*allow_disabled=*/true, &why),
                   step.change_statement + ": " + why);
      counts.Check(first || it->second == output,
                   step.change_statement + ": differs from its first run");
    } else {
      counts.Check(CheckChangeReport(step, output, inputs.view_names.size(),
                                     /*allow_disabled=*/false, &why),
                   step.change_statement + ": " + why);
    }
    std::optional<eve::Result<eve::net::Response>> decoded;
    {
      ScopedSpan span(tracer, "net.codec", op);
      eve::net::Response response;
      response.id = op;
      response.output = output;
      eve::net::FrameDecoder decoder;
      decoder.Feed(eve::net::EncodeFrame(eve::net::FrameType::kResponse,
                                         eve::net::EncodeResponse(response)));
      std::optional<eve::net::Frame> frame = decoder.Next();
      if (frame.has_value()) decoded.emplace(eve::net::DecodeResponse(frame->payload));
    }
    counts.Check(decoded.has_value() && decoded->ok() &&
                     decoded->value().output == output,
                 "codec round trip changed the response");
    if (replica_applies) {
      ScopedSpan span(tracer, "repl.apply", op);
      for (const eve::JournalRecord& record : console_records) {
        counts.Check(replica.ApplyReplicatedRecord(record, &replayer).ok(),
                     "ApplyReplicatedRecord failed");
      }
    }

    // The same read through the console and over the wire. The second
    // read of a view finds warmer caches, so the order alternates per op.
    std::string read;
    const auto console_read = [&] {
      const int64_t start = Tracer::NowNs();
      ScopedSpan span(tracer, "net.console_read", op);
      std::ostringstream out, err;
      counts.Check(console.RunSnapshotRead(step.read_statement, out, err),
                   step.read_statement + " failed");
      read = out.str();
      counts.console_read_us.push_back(Ms(start) * 1e3);
    };
    std::string wire_read;
    const auto remote_read = [&] {
      const int64_t start = Tracer::NowNs();
      ScopedSpan span(tracer, "net.wire_read", op);
      eve::Result<eve::net::Response> response =
          wire.value().Run(step.read_statement);
      counts.wire_read_us.push_back(Ms(start) * 1e3);
      wire_read = response.ok() ? response.value().output : "";
    };
    if (op % 2 == 0) {
      console_read();
      remote_read();
    } else {
      remote_read();
      console_read();
    }
    counts.Check(wire_read == read,
                 step.read_statement + ": wire and console reads differ");
    if (whatif) {
      counts.Check(read == baseline_reads[step.read_view],
                   step.read_statement + ": view changed under a what-if");
    } else {
      counts.Check(CheckRenamedView(step, read, &why),
                   step.read_statement + ": " + why);
    }
  }
  counts.loop_seconds = NowSeconds() - loop_start;
  wire.value().Close();
  server.Stop();
  server.WaitUntilStopped();

  if (replica_applies) {
    for (const char* statement : {"SHOW MKB", "SHOW VIEWS"}) {
      bool primary_ok = false;
      bool replica_ok = false;
      const std::string primary_text =
          RunStatement(console, statement, &primary_ok);
      const std::string replica_text =
          RunStatement(replica, statement, &replica_ok);
      counts.Check(primary_ok && replica_ok && primary_text == replica_text,
                   std::string(statement) + " differs on the replica");
    }
  }
  uint64_t history_lines = 0;
  for (const std::string& name : mirror->ViewNames()) {
    history_lines += mirror->GetView(name).value()->history.size();
  }
  counts.history_lines_per_view =
      counts.views ? static_cast<double>(history_lines) /
                         static_cast<double>(counts.views)
                   : 0.0;
  counts.chain_mb =
      static_cast<double>(mirror->versions().ByteStats().retained_bytes) / 1e6;
  counts.versions = static_cast<double>(mirror->versions().NumVersions());
  mirror->AttachJournal(nullptr);
  return counts;
}

double PerChange(double total, uint64_t changes) {
  return changes ? total / static_cast<double>(changes) : 0.0;
}

double Ratio(uint64_t num, uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  out << "index\tname\top\tparent\tstart_ns\tend_ns\n";
  const int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    out << i << "\t" << span.name << "\t"
        << (span.op == kSetupOp ? -1 : static_cast<int64_t>(span.op)) << "\t"
        << span.parent << "\t" << span.start_ns - base << "\t"
        << span.end_ns - base << "\n";
  }
}

}  // namespace

RunResult RunTraced(const RunOptions& options, const Inputs& inputs) {
  // Room for every span of the run: per step a fixed set plus three per
  // affected view, per view two setup spans.
  size_t capacity = 64 + 2 * inputs.view_names.size();
  for (const Step& step : inputs.steps) capacity += 24 + 3 * step.affected.size();

  Tracer traced(capacity, /*enabled=*/true);
  const PassCounts on =
      RunPass(options, inputs, traced, options.work_dir + "/traced");
  Tracer untraced(0, /*enabled=*/false);
  const PassCounts off =
      RunPass(options, inputs, untraced, options.work_dir + "/untraced");
  std::filesystem::remove_all(options.work_dir + "/traced");
  std::filesystem::remove_all(options.work_dir + "/untraced");

  std::map<std::string, SpanTotals> totals = Aggregate(traced.spans());
  const uint64_t n = on.changes;
  const auto mean_ms = [&](const char* name) {
    return PerChange(totals[name].total_ms, n);
  };
  const auto per_view_us = [&](const char* name, uint64_t views) {
    return views ? totals[name].total_ms * 1e3 / static_cast<double>(views)
                 : 0.0;
  };
  const double console_read_us = Percentile(on.console_read_us, 50);
  const double wire_read_us = Percentile(on.wire_read_us, 50);
  const double overhead_pct =
      off.loop_seconds > 0.0
          ? 100.0 * (on.loop_seconds - off.loop_seconds) / off.loop_seconds
          : 0.0;

  RunResult result;
  result.attempted = on.checks + off.checks;
  result.failed = on.failed + off.failed + traced.dropped();
  result.correct = result.failed == 0;
  result.metrics = {
      {"net.console_change_ms", mean_ms("net.console_change"), "ms"},
      {"net.console_read_us", console_read_us, "us"},
      {"net.transport_read_us", wire_read_us - console_read_us, "us"},
      {"net.response_bytes_per_change", PerChange(static_cast<double>(on.response_bytes), n), "B"},
      {"net.codec_us_per_change", mean_ms("net.codec") * 1e3, "us"},
      {"mkb.evolve_us", mean_ms("mkb.evolve") * 1e3, "us"},
      {"mkb.version_commit_ms", mean_ms("mkb.version_commit"), "ms"},
      {"mkb.chain_mb", on.chain_mb, "MB"},
      {"mkb.versions", on.versions, "count"},
      {"eve.prepare_ms", mean_ms("eve.prepare"), "ms"},
      {"eve.commit_ms", PerChange(on.commit_ms_sum, n), "ms"},
      {"eve.affected_views_per_change", PerChange(static_cast<double>(on.affected_views), n), "count"},
      {"eve.affected_lookup_us", mean_ms("eve.affected_lookup") * 1e3, "us"},
      {"eve.views_render_ms", mean_ms("eve.views_render"), "ms"},
      {"eve.report_outcomes_per_change", PerChange(static_cast<double>(on.report_outcomes), n), "count"},
      {"eve.report_render_us", mean_ms("eve.report_render") * 1e3, "us"},
      {"eve.journal_append_us", mean_ms("eve.journal_append") * 1e3, "us"},
      {"eve.journal_fsyncs_per_change", PerChange(static_cast<double>(on.journal_records), n), "count"},
      {"eve.journal_bytes_per_change", PerChange(static_cast<double>(on.journal_bytes), n), "B"},
      {"eve.register_ms_per_view", on.views ? on.register_ms / static_cast<double>(on.views) : 0.0, "ms"},
      {"eve.history_lines_per_view", on.history_lines_per_view, "count"},
      {"sql.parse_us_per_view", per_view_us("sql.parse", on.views), "us"},
      {"esql.bind_us_per_view", per_view_us("esql.bind", on.views), "us"},
      {"cvs.sync_ms_per_change", mean_ms("cvs.sync"), "ms"},
      {"cvs.r_mapping_us_per_view", per_view_us("cvs.r_mapping", on.r_mapped_views), "us"},
      {"cvs.legality_us_per_view", per_view_us("cvs.legality", on.affected_views), "us"},
      {"cvs.candidates_per_view", Ratio(on.candidates_yielded, on.affected_views), "count"},
      {"cvs.trees_expanded_per_view", Ratio(on.trees_expanded, on.affected_views), "count"},
      {"cvs.rejected_frac", Ratio(on.candidates_rejected, on.candidates_yielded), "ratio"},
      {"cvs.truncated_view_frac", Ratio(on.truncated_views, on.affected_views), "ratio"},
      {"hypergraph.join_graph_us", mean_ms("hypergraph.join_graph") * 1e3, "us"},
      {"repl.apply_ms_per_change", mean_ms("repl.apply"), "ms"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };

  std::cout << "# per-layer metrics (traced in-process run, " << n
            << " changes; means per change unless named otherwise; 0 = the "
               "layer does no work on this workload)\n";
  for (const Metric& metric : result.metrics) {
    std::cout << "#" << MetricLine(metric) << "\n";
  }
  std::cout << "# spans (self = duration minus child spans), " << traced.spans().size()
            << " recorded, " << traced.dropped() << " dropped\n";
  std::cout << "#   span                        count     total ms      self ms   self ms/change\n";
  for (const auto& [name, span] : totals) {
    char line[160];
    std::snprintf(line, sizeof(line), "#   %-26s %7llu %12.3f %12.3f %12.4f",
                  name.c_str(), static_cast<unsigned long long>(span.count),
                  span.total_ms, span.self_ms, PerChange(span.self_ms, n));
    std::cout << line << "\n";
  }
  const double change_ms = mean_ms("net.console_change");
  if (options.spec.kind == WorkloadKind::kWhatifDeparture) {
    std::cout << "# prediction: cvs.sync_ms_per_change is most of eve.prepare_ms: "
              << mean_ms("cvs.sync") << " of " << mean_ms("eve.prepare")
              << " ms ("
              << (mean_ms("eve.prepare") > 0
                      ? 100.0 * mean_ms("cvs.sync") / mean_ms("eve.prepare")
                      : 0.0)
              << "%)\n";
  } else if (change_ms > 0) {
    std::cout << "# prediction: eve.commit_ms is most of the change: "
              << PerChange(on.commit_ms_sum, n) << " of " << change_ms
              << " ms (" << 100.0 * PerChange(on.commit_ms_sum, n) / change_ms
              << "%); cvs.sync_ms_per_change is under 5% of it: "
              << 100.0 * mean_ms("cvs.sync") / change_ms << "%\n";
  }
  std::cout << "# tracing overhead: loop " << on.loop_seconds << " s traced vs "
            << off.loop_seconds << " s untraced\n";
  for (const std::string& why : on.failures) std::cout << "# failure: " << why << "\n";
  for (const std::string& why : off.failures) std::cout << "# failure: " << why << "\n";
  WriteSpans(traced.spans(), options.work_dir + "/spans.tsv");
  return result;
}

}  // namespace evebench
