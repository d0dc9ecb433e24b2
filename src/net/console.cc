#include "net/console.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "algebra/executor.h"
#include "common/file_io.h"
#include "common/str_util.h"
#include "eve/view_pool_io.h"
#include "federation/membership.h"
#include "hypergraph/hypergraph.h"
#include "mkb/serializer.h"

namespace eve {
namespace net {

namespace {

// Splits a statement head into whitespace-separated words (enough for the
// non-SQL commands; CREATE VIEW statements go to the E-SQL parser whole).
std::vector<std::string> SplitWords(const std::string& statement) {
  std::vector<std::string> words;
  std::istringstream is(statement);
  std::string word;
  while (is >> word) words.push_back(word);
  return words;
}

// Strips surrounding single quotes from a path argument.
std::string Unquote(const std::string& word) {
  if (word.size() >= 2 && word.front() == '\'' && word.back() == '\'') {
    return word.substr(1, word.size() - 2);
  }
  return word;
}

}  // namespace

std::vector<Statement> SplitStatements(const std::string& script) {
  std::vector<Statement> statements;
  std::string current;
  size_t line = 1;           // current line in the script
  size_t start_line = 1;     // line of `current`'s first non-blank char
  const auto bump = [&](char c) {
    if (c == '\n') ++line;
  };
  for (size_t i = 0; i < script.size(); ++i) {
    const char c = script[i];
    if (c == '-' && i + 1 < script.size() && script[i + 1] == '-') {
      while (i < script.size() && script[i] != '\n') ++i;
      if (i < script.size()) bump(script[i]);
      current += ' ';
      continue;
    }
    if (c == '\'' || c == '"') {
      const char quote = c;
      if (Trim(current).empty()) start_line = line;
      current += c;
      ++i;
      while (i < script.size()) {
        bump(script[i]);
        current += script[i];
        if (script[i] == quote) {
          if (quote == '\'' && i + 1 < script.size() &&
              script[i + 1] == '\'') {
            current += script[++i];
          } else {
            break;
          }
        }
        ++i;
      }
      continue;
    }
    if (c == ';') {
      if (!Trim(current).empty()) {
        statements.push_back({std::string(Trim(current)), start_line});
      }
      current.clear();
      continue;
    }
    if (Trim(current).empty() && !std::isspace(static_cast<unsigned char>(c))) {
      start_line = line;
    }
    bump(c);
    current += c;
  }
  if (!Trim(current).empty()) {
    statements.push_back({std::string(Trim(current)), start_line});
  }
  return statements;
}

bool Console::IsSnapshotRead(const std::string& statement) {
  const std::vector<std::string> words = SplitWords(statement);
  if (words.empty() || !EqualsIgnoreCase(words[0], "SHOW")) return false;
  // Exactly the forms answered from the pinned tip; the AT VERSION
  // variants reparse older versions and are excluded by the size checks.
  if (words.size() == 2 && (EqualsIgnoreCase(words[1], "MKB") ||
                            EqualsIgnoreCase(words[1], "HYPERGRAPH") ||
                            EqualsIgnoreCase(words[1], "VIEWS"))) {
    return true;
  }
  return words.size() == 3 && EqualsIgnoreCase(words[1], "VIEW");
}

bool Console::RunSnapshotRead(const std::string& statement, std::ostream& out,
                              std::ostream& err) const {
  return SnapshotShow(SplitWords(statement), out, err);
}

bool Console::SnapshotShow(const std::vector<std::string>& words,
                           std::ostream& out, std::ostream& err) const {
  // Every form reads the pinned tip version: one pin under the store
  // mutex, then only the version's immutable bytes, byte-stable against
  // any later commit.
  const PinnedMkb tip = system_.PinTip();
  if (words.size() >= 2 && EqualsIgnoreCase(words[1], "MKB")) {
    out << tip.mkb->ToString();
    return true;
  }
  if (words.size() >= 2 && EqualsIgnoreCase(words[1], "HYPERGRAPH")) {
    out << Hypergraph::Build(*tip.mkb).Summary();
    return true;
  }
  if (words.size() >= 2 && EqualsIgnoreCase(words[1], "VIEWS")) {
    for (const ViewBlock& view : VersionViewBlocks(*tip.version)) {
      out << "  [" << (view.active ? "active" : "DISABLED") << "] "
          << view.name << "\n";
    }
    return true;
  }
  if (words.size() >= 3 && EqualsIgnoreCase(words[1], "VIEW")) {
    // Only the view's own bucket is parsed.
    const std::string& name = words[2];
    const std::vector<ViewBlock> bucket =
        SplitViewBlocks(tip.version->view_bucket(ViewBucketOf(name)).body);
    const auto found =
        std::find_if(bucket.begin(), bucket.end(),
                     [&](const ViewBlock& view) { return view.name == name; });
    if (found == bucket.end()) {
      err << "error: not_found: view not registered: " << name << "\n";
      return false;
    }
    out << found->definition << "\n";
    // History is live provenance (not part of the versioned bytes).
    const Result<const RegisteredView*> view = system_.GetView(name);
    if (view.ok()) {
      for (const std::string& event : view.value()->history) {
        out << "  history: " << event << "\n";
      }
    }
    return true;
  }
  err << "error: not a snapshot read\n";
  return false;
}

std::string Console::RenderSnapshotText() const {
  return RenderCheckpoint(system_);
}

Status Console::InstallSnapshotText(const std::string& text) {
  Result<EveSystem> loaded = LoadCheckpoint(text);
  if (!loaded.ok()) return loaded.status();
  ReplaceSystem(std::move(loaded.value()));
  return Status::OK();
}

void Console::ReplaceSystem(EveSystem system) {
  system_ = std::move(system);
  if (journal_.has_value() && system_journal_attached_) {
    system_.AttachJournal(&*journal_);
  }
  // The new system runs with its own (default) sync limits, and
  // RunWithLimits restores these after a per-request override.
  configured_deadline_micros_ = 0;
  configured_work_budget_ = 0;
}

Status Console::ApplyReplicatedRecord(const JournalRecord& record,
                                      JournalReplayer* replayer) {
  replayer->Apply(&system_, record, nullptr);
  return Status::OK();
}

void Console::SetSystemJournalAttached(bool attached) {
  system_journal_attached_ = attached;
  if (!journal_.has_value()) return;
  system_.AttachJournal(attached ? &*journal_ : nullptr);
}

bool Console::RunWithLimits(const std::string& statement,
                            uint64_t deadline_micros, uint64_t work_budget,
                            std::ostream& out, std::ostream& err) {
  const bool override_deadline = deadline_micros != 0;
  const bool override_budget = work_budget != 0;
  if (override_deadline) system_.SetSyncDeadlineMicros(deadline_micros);
  if (override_budget) system_.SetSyncWorkBudget(work_budget);
  // Run may itself execute SET SYNC DEADLINE/WORKBUDGET, updating the
  // configured values — restoring to them is still correct.
  const auto restore = [&] {
    if (override_deadline) {
      system_.SetSyncDeadlineMicros(configured_deadline_micros_);
    }
    if (override_budget) system_.SetSyncWorkBudget(configured_work_budget_);
  };
  bool ok = false;
  try {
    ok = Run(statement, out, err);
  } catch (...) {
    // A SimulatedCrash must not leave the per-request override behind:
    // the server survives error-mode injections and keeps serving.
    restore();
    throw;
  }
  restore();
  return ok;
}

bool Console::Run(const std::string& statement, std::ostream& out,
                  std::ostream& err) {
  out_ = &out;
  err_ = &err;
  const std::vector<std::string> words = SplitWords(statement);
  if (words.empty()) return true;
  const std::string head = ToLower(words[0]);

  if (head == "create") {
    return Report(system_.RegisterViewText(statement), statement);
  }
  if (head == "retract" && words.size() >= 2) {
    return Report(system_.RetractConstraint(words[1]), statement);
  }
  if (head == "define") {
    const std::string body(Trim(
        std::string_view(statement).substr(std::string("define").size())));
    return Report(system_.ExtendMkb(body), statement);
  }
  if (head == "load" && words.size() >= 3 &&
      EqualsIgnoreCase(words[1], "MISD")) {
    return LoadMisd(Unquote(words[2]));
  }
  if (head == "save" && words.size() >= 3 &&
      EqualsIgnoreCase(words[1], "MISD")) {
    return SaveMisd(Unquote(words[2]));
  }
  if (head == "load" && words.size() >= 3 &&
      EqualsIgnoreCase(words[1], "VIEWS")) {
    return LoadViewPool(Unquote(words[2]));
  }
  if (head == "save" && words.size() >= 3 &&
      EqualsIgnoreCase(words[1], "VIEWS")) {
    return SaveViewPool(Unquote(words[2]));
  }
  if (head == "journal" && words.size() >= 2) {
    return OpenJournal(Unquote(words[1]));
  }
  if (head == "checkpoint" && words.size() >= 2) {
    return Checkpoint(Unquote(words[1]));
  }
  if (head == "recover" && words.size() >= 3) {
    return Recover(Unquote(words[1]), Unquote(words[2]));
  }
  if (head == "set" && words.size() >= 4 &&
      EqualsIgnoreCase(words[1], "SYNC")) {
    return SetSync(words[2], words[3]);
  }
  if (head == "set" && words.size() >= 5 &&
      EqualsIgnoreCase(words[1], "SOURCE")) {
    return SetSource(words[2], words[3], words[4]);
  }
  if (head == "track" && words.size() >= 2 &&
      EqualsIgnoreCase(words[1], "SOURCES")) {
    return TrackSources();
  }
  if (head == "fault" && words.size() >= 8 &&
      EqualsIgnoreCase(words[1], "SOURCE") &&
      EqualsIgnoreCase(words[4], "FROM") && EqualsIgnoreCase(words[6], "TO")) {
    return FaultSource(words[2], words[3], words[5], words[7]);
  }
  if (head == "tick" && words.size() >= 2) {
    return Tick(words[1]);
  }
  if (head == "show") {
    return Show(words);
  }
  if (head == "read" && words.size() >= 3 &&
      EqualsIgnoreCase(words[1], "STALENESS")) {
    // Per-session staleness bound for snapshot reads. On a replicated eved
    // the server intercepts this and gates reads against the replica's
    // lag; the local console has no lag, so the knob is accepted and
    // echoed for script compatibility.
    if (EqualsIgnoreCase(words[2], "NONE")) {
      Out() << "read staleness bound = none\n";
      return true;
    }
    uint64_t bound = 0;
    if (!ParseTicks(words[2], &bound)) return false;
    Out() << "read staleness bound = " << bound << "\n";
    return true;
  }
  if (head == "enqueue" && words.size() >= 4) {
    const std::vector<std::string> rest(words.begin() + 1, words.end());
    const std::string sub = ToLower(rest[0]);
    if (sub == "delete" && rest.size() >= 3) {
      return Enqueue(MakeDelete(rest));
    }
    if (sub == "rename" && rest.size() >= 5 &&
        EqualsIgnoreCase(rest[3], "TO")) {
      return Enqueue(MakeRename(rest));
    }
    Err() << "error: ENQUEUE expects DELETE or RENAME\n";
    return false;
  }
  if (head == "drain") {
    return Drain();
  }
  if (head == "delete" && words.size() >= 3) {
    return Change(MakeDelete(words), /*preview=*/false);
  }
  if (head == "rename" && words.size() >= 5 &&
      EqualsIgnoreCase(words[3], "TO")) {
    return Change(MakeRename(words), /*preview=*/false);
  }
  if (head == "sync" && words.size() >= 5 &&
      EqualsIgnoreCase(words[1], "DRYRUN")) {
    return DryRun(std::vector<std::string>(words.begin() + 2, words.end()));
  }
  if (head == "rollback" && words.size() >= 4 &&
      EqualsIgnoreCase(words[1], "TO") &&
      EqualsIgnoreCase(words[2], "VERSION")) {
    return Rollback(words[3]);
  }
  if (head == "scrub") {
    return Scrub();
  }
  if (head == "preview" && words.size() >= 4) {
    const std::vector<std::string> rest(words.begin() + 1, words.end());
    const std::string sub = ToLower(rest[0]);
    if (sub == "delete" && rest.size() >= 3) {
      return Change(MakeDelete(rest), /*preview=*/true);
    }
    if (sub == "rename" && rest.size() >= 5 &&
        EqualsIgnoreCase(rest[3], "TO")) {
      return Change(MakeRename(rest), /*preview=*/true);
    }
    Err() << "error: PREVIEW expects DELETE or RENAME\n";
    return false;
  }
  Err() << "error: unrecognized statement: " << statement << "\n";
  return false;
}

bool Console::Report(const Status& status, const std::string& context) {
  if (!status.ok()) {
    Err() << "error: " << status << "\n  in: " << context << "\n";
    return false;
  }
  return true;
}

bool Console::LoadMisd(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    Err() << "error: cannot open " << path << "\n";
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const Result<Mkb> mkb = LoadMkb(buffer.str());
  if (!mkb.ok()) {
    Err() << "error: " << mkb.status() << "\n";
    return false;
  }
  ReplaceSystem(EveSystem(mkb.value()));
  Out() << "loaded " << mkb.value().catalog().NumRelations()
        << " relations, " << mkb.value().join_constraints().size()
        << " join constraints, "
        << mkb.value().function_of_constraints().size()
        << " function-of constraints, " << mkb.value().pc_constraints().size()
        << " PC constraints from " << path << "\n";
  return true;
}

bool Console::SaveMisd(const std::string& path) {
  const Status status = AtomicWriteFile(path, SaveMkb(system_.mkb()));
  if (!status.ok()) {
    Err() << "error: " << status << "\n";
    return false;
  }
  Out() << "saved MKB to " << path << "\n";
  return true;
}

bool Console::LoadViewPool(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    Err() << "error: cannot open " << path << "\n";
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const Status status = LoadViews(buffer.str(), &system_);
  if (!status.ok()) {
    Err() << "error: " << status << "\n";
    return false;
  }
  Out() << "loaded " << system_.NumViews() << " views from " << path << "\n";
  return true;
}

bool Console::SaveViewPool(const std::string& path) {
  const Status status = AtomicWriteFile(path, SaveViews(system_));
  if (!status.ok()) {
    Err() << "error: " << status << "\n";
    return false;
  }
  Out() << "saved " << system_.NumViews() << " views to " << path << "\n";
  return true;
}

bool Console::OpenJournal(const std::string& path) {
  Result<Journal> journal = Journal::Open(path);
  if (!journal.ok()) {
    Err() << "error: " << journal.status() << "\n";
    return false;
  }
  journal_ = std::move(journal.value());
  if (system_journal_attached_) system_.AttachJournal(&*journal_);
  Out() << "journaling to " << path << "\n";
  return true;
}

bool Console::Checkpoint(const std::string& path) {
  const Status status = WriteCheckpoint(system_, path);
  if (!status.ok()) {
    Err() << "error: " << status << "\n";
    return false;
  }
  // The checkpoint subsumes the journaled history.
  if (journal_.has_value()) {
    const Status reset = journal_->Reset();
    if (!reset.ok()) {
      Err() << "error: " << reset << "\n";
      return false;
    }
  }
  Out() << "checkpointed to " << path << "\n";
  return true;
}

bool Console::Recover(const std::string& checkpoint_path,
                      const std::string& journal_path) {
  RecoveryReport report;
  Result<EveSystem> recovered =
      RecoverFromFiles(checkpoint_path, journal_path, &report);
  if (!recovered.ok()) {
    Err() << "error: " << recovered.status() << "\n";
    return false;
  }
  ReplaceSystem(std::move(recovered.value()));
  Out() << report.ToString();
  Out() << "recovered " << system_.NumViews() << " views, "
        << system_.mkb().catalog().NumRelations() << " relations\n";
  return true;
}

bool Console::SetSync(const std::string& knob, const std::string& value) {
  uint64_t parsed = 0;
  if (!ParseDecimal(value, &parsed)) {
    Err() << "error: SET SYNC " << knob
          << " expects a non-negative integer, got " << value << "\n";
    return false;
  }
  if (EqualsIgnoreCase(knob, "BUDGET")) {
    system_.SetSyncCandidateBudget(static_cast<size_t>(parsed));
    Out() << "sync candidate budget = " << parsed << "\n";
    return true;
  }
  if (EqualsIgnoreCase(knob, "WORKBUDGET")) {
    system_.SetSyncWorkBudget(parsed);
    configured_work_budget_ = parsed;
    Out() << "sync work budget = " << parsed << " units/view\n";
    return true;
  }
  if (EqualsIgnoreCase(knob, "DEADLINE")) {
    system_.SetSyncDeadlineMicros(parsed);
    configured_deadline_micros_ = parsed;
    Out() << "sync deadline = " << parsed << " us\n";
    return true;
  }
  if (EqualsIgnoreCase(knob, "QUEUE")) {
    system_.SetSyncQueueLimit(static_cast<size_t>(parsed));
    Out() << "sync queue limit = " << parsed << "\n";
    return true;
  }
  Err() << "error: SET SYNC expects BUDGET, WORKBUDGET, DEADLINE or QUEUE\n";
  return false;
}

// A shed change is an EXPECTED admission outcome (the error is explicit,
// the counters account for it), so it does not fail the script; any
// other enqueue error does.
bool Console::Enqueue(const Result<CapabilityChange>& change) {
  if (!change.ok()) {
    Err() << "error: " << change.status() << "\n";
    return false;
  }
  const Status status = system_.EnqueueChange(change.value());
  if (status.ok()) {
    Out() << "enqueued (" << system_.queued_changes() << " queued)\n";
    return true;
  }
  // Any admission rejection (capacity or an injected fault) is counted
  // as shed by EnqueueChange, so it is an accounted-for outcome.
  Out() << "SHED: " << status << "\n";
  Out() << "admission: " << system_.admission_stats().ToString() << "\n";
  return true;
}

bool Console::Drain() {
  const Result<std::vector<ChangeReport>> reports = system_.DrainSyncQueue();
  if (!reports.ok()) {
    Err() << "error: " << reports.status() << "\n";
    return false;
  }
  for (const ChangeReport& report : reports.value()) {
    Out() << report.ToString();
  }
  Out() << "admission: " << system_.admission_stats().ToString() << "\n";
  return true;
}

bool Console::Show(const std::vector<std::string>& words) {
  if (words.size() >= 2 && EqualsIgnoreCase(words[1], "VERSIONS")) {
    Out() << system_.versions().Render();
    return true;
  }
  if (words.size() >= 3 && EqualsIgnoreCase(words[1], "SCRUB") &&
      EqualsIgnoreCase(words[2], "STATS")) {
    if (!last_scrub_.has_value()) {
      Out() << "no scrub has run yet (use SCRUB)\n";
      return true;
    }
    Out() << last_scrub_->ToString() << "\n";
    return true;
  }
  if (words.size() >= 5 && EqualsIgnoreCase(words[1], "MKB") &&
      EqualsIgnoreCase(words[2], "AT") &&
      EqualsIgnoreCase(words[3], "VERSION")) {
    uint64_t version = 0;
    if (!ParseTicks(words[4], &version)) return false;
    const Result<PinnedMkb> pinned = system_.PinVersion(version);
    if (!pinned.ok()) {
      Err() << "error: " << pinned.status() << "\n";
      return false;
    }
    Out() << "-- version " << pinned.value().id() << "\n"
          << pinned.value().mkb->ToString();
    return true;
  }
  if (words.size() >= 5 && EqualsIgnoreCase(words[1], "VIEWS") &&
      EqualsIgnoreCase(words[2], "AT") &&
      EqualsIgnoreCase(words[3], "VERSION")) {
    uint64_t version = 0;
    if (!ParseTicks(words[4], &version)) return false;
    const Result<std::string> views = system_.ViewsTextAt(version);
    if (!views.ok()) {
      Err() << "error: " << views.status() << "\n";
      return false;
    }
    Out() << "-- view pool at version " << version << "\n" << views.value();
    return true;
  }
  if (words.size() >= 3 && EqualsIgnoreCase(words[1], "EXECUTOR") &&
      EqualsIgnoreCase(words[2], "STATS")) {
    const ExecutorCounters& counters = GlobalExecutorCounters();
    Out() << "queries: " << counters.queries.load() << "; cartesian fallbacks "
          << counters.cartesian_fallbacks.load() << "\n";
    return true;
  }
  if (words.size() >= 3 && EqualsIgnoreCase(words[1], "SYNC") &&
      EqualsIgnoreCase(words[2], "STATS")) {
    Out() << "enumeration: " << system_.last_sync_stats().ToString() << "\n";
    // Per-view truncation/deadline lists for the last change or preview
    // (name-ordered, deterministic).
    const std::string diagnostics = system_.last_sync_diagnostics().ToString();
    if (!diagnostics.empty()) Out() << "sync: " << diagnostics << "\n";
    Out() << "admission: " << system_.admission_stats().ToString() << "\n";
    return true;
  }
  if (words.size() >= 2 && EqualsIgnoreCase(words[1], "SOURCES")) {
    return ShowSources();
  }
  if (words.size() >= 2 && EqualsIgnoreCase(words[1], "REPLICATION")) {
    // The replicated server intercepts this before the console; reaching
    // here means the node runs without a replication hub.
    Out() << "replication: disabled\n";
    return true;
  }
  if ((words.size() >= 2 && (EqualsIgnoreCase(words[1], "MKB") ||
                             EqualsIgnoreCase(words[1], "HYPERGRAPH") ||
                             EqualsIgnoreCase(words[1], "VIEWS"))) ||
      (words.size() >= 3 && EqualsIgnoreCase(words[1], "VIEW"))) {
    return SnapshotShow(words, Out(), Err());
  }
  Err() << "error: SHOW expects MKB, HYPERGRAPH, VIEWS, VIEW <name>, "
           "VERSIONS, MKB|VIEWS AT VERSION <n>, SCRUB STATS or SYNC "
           "STATS\n";
  return false;
}

// SYNC DRYRUN <change words> [AT VERSION n]: the full what-if pipeline.
bool Console::DryRun(std::vector<std::string> rest) {
  std::optional<uint64_t> at_version;
  if (rest.size() >= 3 && EqualsIgnoreCase(rest[rest.size() - 3], "AT") &&
      EqualsIgnoreCase(rest[rest.size() - 2], "VERSION")) {
    uint64_t version = 0;
    if (!ParseTicks(rest.back(), &version)) return false;
    at_version = version;
    rest.resize(rest.size() - 3);
  }
  Result<CapabilityChange> change =
      Status::InvalidArgument("SYNC DRYRUN expects DELETE or RENAME");
  if (rest.size() >= 3 && EqualsIgnoreCase(rest[0], "DELETE")) {
    change = MakeDelete(rest);
  } else if (rest.size() >= 5 && EqualsIgnoreCase(rest[0], "RENAME") &&
             EqualsIgnoreCase(rest[3], "TO")) {
    change = MakeRename(rest);
  }
  if (!change.ok()) {
    Err() << "error: " << change.status() << "\n";
    return false;
  }
  const Result<DryRunReport> report =
      at_version.has_value()
          ? system_.DryRunChangeAt(change.value(), *at_version)
          : system_.DryRunChange(change.value());
  if (!report.ok()) {
    Err() << "error: " << report.status() << "\n";
    return false;
  }
  Out() << report.value().ToString();
  return true;
}

bool Console::Rollback(const std::string& version_word) {
  uint64_t version = 0;
  if (!ParseTicks(version_word, &version)) return false;
  const Result<uint64_t> committed = system_.RollbackToVersion(version);
  if (!committed.ok()) {
    Err() << "error: " << committed.status() << "\n";
    return false;
  }
  Out() << "rolled back to version " << version << " (committed as v"
        << committed.value() << ")\n";
  return true;
}

// SCRUB fails the script on any detected corruption, so CI chaos jobs can
// gate on its exit code.
bool Console::Scrub() {
  last_scrub_ = system_.ScrubVersions();
  Out() << last_scrub_->ToString() << "\n";
  if (last_scrub_->corruptions > 0) {
    Err() << "error: scrub found " << last_scrub_->corruptions
          << " corruption(s)\n";
    return false;
  }
  return true;
}

Result<CapabilityChange> Console::MakeDelete(
    const std::vector<std::string>& words) {
  if (EqualsIgnoreCase(words[1], "RELATION")) {
    return CapabilityChange::DeleteRelation(words[2]);
  }
  if (EqualsIgnoreCase(words[1], "ATTRIBUTE")) {
    const std::vector<std::string> parts = Split(words[2], '.');
    if (parts.size() != 2) {
      return Status::InvalidArgument(
          "DELETE ATTRIBUTE expects <relation>.<attribute>");
    }
    return CapabilityChange::DeleteAttribute(parts[0], parts[1]);
  }
  return Status::InvalidArgument("DELETE expects RELATION or ATTRIBUTE");
}

Result<CapabilityChange> Console::MakeRename(
    const std::vector<std::string>& words) {
  if (EqualsIgnoreCase(words[1], "RELATION")) {
    return CapabilityChange::RenameRelation(words[2], words[4]);
  }
  if (EqualsIgnoreCase(words[1], "ATTRIBUTE")) {
    const std::vector<std::string> parts = Split(words[2], '.');
    if (parts.size() != 2) {
      return Status::InvalidArgument(
          "RENAME ATTRIBUTE expects <relation>.<attribute>");
    }
    return CapabilityChange::RenameAttribute(parts[0], parts[1], words[4]);
  }
  return Status::InvalidArgument("RENAME expects RELATION or ATTRIBUTE");
}

// Parses a non-negative integer command argument.
bool Console::ParseTicks(const std::string& word, uint64_t* out) {
  if (ParseDecimal(word, out)) return true;
  Err() << "error: expected a non-negative integer, got " << word << "\n";
  return false;
}

// A fresh monitor aligned to the console's federation clock. Stats are
// accumulated per command into fed_stats_.
federation::FederationMonitor Console::MakeMonitor() {
  federation::FederationMonitor monitor(&system_, &transport_);
  monitor.SetNow(federation_now_);
  return monitor;
}

bool Console::TrackSources() {
  federation::FederationMonitor monitor = MakeMonitor();
  const Status status = monitor.TrackSources();
  if (!status.ok()) {
    Err() << "error: " << status << "\n";
    return false;
  }
  Out() << "tracking " << system_.source_membership().size()
        << " sources at tick " << federation_now_ << "\n";
  return true;
}

bool Console::ShowSources() {
  if (system_.source_membership().empty()) {
    Out() << "no tracked sources (use TRACK SOURCES)\n";
    return true;
  }
  for (const auto& [source, m] : system_.source_membership()) {
    Out() << "  " << source << "  "
          << federation::SourceStateToString(m.state)
          << "  breaker=" << federation::BreakerStateToString(m.breaker)
          << " failures=" << m.consecutive_failures;
    if (m.state == federation::SourceState::kDeparted) {
      Out() << " lease=departed";
    } else if (m.lease_expires > federation_now_) {
      Out() << " lease=+" << (m.lease_expires - federation_now_)
            << " next_probe=+"
            << (m.next_probe > federation_now_ ? m.next_probe - federation_now_
                                               : 0);
    } else {
      Out() << " lease=EXPIRED";
    }
    Out() << "\n";
  }
  return true;
}

bool Console::SetSource(const std::string& source, const std::string& knob,
                        const std::string& value) {
  uint64_t ticks = 0;
  if (!ParseTicks(value, &ticks)) return false;
  const std::vector<std::string> sources =
      system_.mkb().catalog().SourceNames();
  if (std::find(sources.begin(), sources.end(), source) == sources.end()) {
    Err() << "error: unknown source " << source << "\n";
    return false;
  }
  const auto& table = system_.source_membership();
  const auto it = table.find(source);
  federation::SourceMembership m =
      it != table.end() ? it->second
                        : federation::MakeHealthy({}, federation_now_);
  if (EqualsIgnoreCase(knob, "LEASE")) {
    m.config.lease_ticks = ticks;
    m.lease_expires = federation_now_ + ticks;
  } else if (EqualsIgnoreCase(knob, "PROBE")) {
    m.config.probe_interval_ticks = ticks;
    m.next_probe = federation_now_ + ticks;
  } else if (EqualsIgnoreCase(knob, "BREAKER")) {
    m.config.breaker_open_ticks = ticks;
  } else {
    Err() << "error: SET SOURCE expects LEASE, PROBE or BREAKER\n";
    return false;
  }
  const Status status = system_.SetSourceMembership(source, m);
  if (!status.ok()) {
    Err() << "error: " << status << "\n";
    return false;
  }
  Out() << "source " << source << " " << ToLower(knob) << " = " << ticks
        << " ticks\n";
  return true;
}

bool Console::FaultSource(const std::string& source,
                          const std::string& kind_word,
                          const std::string& from_word,
                          const std::string& to_word) {
  const Result<federation::SimulatedTransport::FaultKind> kind =
      federation::ParseFaultKind(kind_word);
  if (!kind.ok()) {
    Err() << "error: " << kind.status() << "\n";
    return false;
  }
  federation::SimulatedTransport::FaultWindow window;
  if (!ParseTicks(from_word, &window.from) ||
      !ParseTicks(to_word, &window.to)) {
    return false;
  }
  window.kind = kind.value();
  transport_.AddFault(source, window);
  Out() << "fault " << federation::FaultKindToString(window.kind) << " on "
        << source << " for ticks [" << window.from << ", " << window.to
        << ")\n";
  return true;
}

bool Console::Tick(const std::string& count_word) {
  uint64_t count = 0;
  if (!ParseTicks(count_word, &count)) return false;
  federation::FederationMonitor monitor = MakeMonitor();
  const Status status = monitor.AdvanceTo(federation_now_ + count);
  if (!status.ok()) {
    Err() << "error: " << status << "\n";
    return false;
  }
  federation_now_ += count;
  const federation::MonitorStats& stats = monitor.stats();
  Out() << "tick " << federation_now_ << ": probes=" << stats.probes
        << " ok=" << stats.successes << " failed=" << stats.failures
        << " transitions=" << stats.state_transitions
        << " departures=" << stats.departures << "\n";
  // A departure ran the DepartSource cascade: show its reports.
  if (stats.departures > 0) {
    const auto& log = system_.change_log();
    const size_t shown = std::min<size_t>(log.size(), stats.departures);
    for (size_t i = log.size() - shown; i < log.size(); ++i) {
      Out() << log[i].ToString();
    }
  }
  return true;
}

bool Console::Change(const Result<CapabilityChange>& change, bool preview) {
  if (!change.ok()) {
    Err() << "error: " << change.status() << "\n";
    return false;
  }
  // PREVIEW prints a dry run's report: the report the change would
  // commit, with nothing applied.
  const auto run = [&]() -> Result<ChangeReport> {
    if (!preview) return system_.ApplyChange(change.value());
    EVE_ASSIGN_OR_RETURN(DryRunReport dry,
                         system_.DryRunChange(change.value()));
    return std::move(dry.report);
  };
  const Result<ChangeReport> report = run();
  if (!report.ok()) {
    Err() << "error: " << report.status() << "\n";
    return false;
  }
  if (preview) Out() << "(preview — nothing applied)\n";
  Out() << report.value().ToString();
  // Enumeration counters ride along after the report (never inside it:
  // ChangeReport bytes are journaled/checkpointed and must not change).
  const EnumerationStats& stats = system_.last_sync_stats();
  if (stats.combos_generated > 0 || stats.candidates_yielded > 0) {
    Out() << "enumeration: " << stats.ToString() << "\n";
  }
  const std::string diagnostics = system_.last_sync_diagnostics().ToString();
  if (!diagnostics.empty()) Out() << "sync: " << diagnostics << "\n";
  return true;
}

}  // namespace net
}  // namespace eve
