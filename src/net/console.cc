#include "net/console.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/file_io.h"
#include "common/str_util.h"
#include "eve/view_pool_io.h"
#include "federation/membership.h"
#include "hypergraph/hypergraph.h"
#include "mkb/serializer.h"

namespace eve {
namespace net {

namespace {

// The end of the quoted token that starts at text[start] (a ' or "): the
// index past its closing quote, or text.size() when it is unterminated.
// Inside '...', '' stands for one quote.
size_t QuotedEnd(std::string_view text, size_t start) {
  const char quote = text[start];
  for (size_t i = start + 1; i < text.size(); ++i) {
    if (text[i] != quote) continue;
    if (quote != '\'' || i + 1 >= text.size() || text[i + 1] != '\'') {
      return i + 1;
    }
    ++i;
  }
  return text.size();
}

// Splits a statement into words on whitespace outside quotes; a quoted
// token keeps its quotes (CREATE VIEW and DEFINE statements go to their
// parsers whole).
std::vector<std::string> SplitWords(std::string_view statement) {
  std::vector<std::string> words;
  std::string word;
  for (size_t i = 0; i < statement.size();) {
    const char c = statement[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!word.empty()) words.push_back(std::move(word));
      word.clear();
      ++i;
      continue;
    }
    const size_t end =
        c == '\'' || c == '"' ? QuotedEnd(statement, i) : i + 1;
    word += statement.substr(i, end - i);
    i = end;
  }
  if (!word.empty()) words.push_back(std::move(word));
  return words;
}

// Strips the quotes of a '...' path argument, turning each '' into '.
std::string Unquote(const std::string& word) {
  if (word.size() < 2 || word.front() != '\'' || word.back() != '\'') {
    return word;
  }
  const std::string_view inner(word.data() + 1, word.size() - 2);
  std::string text;
  for (size_t i = 0; i < inner.size(); ++i) {
    text += inner[i];
    if (inner[i] == '\'' && i + 1 < inner.size() && inner[i + 1] == '\'') ++i;
  }
  return text;
}

// Parses a non-negative integer command argument.
bool ParseCount(const std::string& word, uint64_t* out, std::ostream& err) {
  if (ParseDecimal(word, out)) return true;
  err << "error: expected a non-negative integer, got " << word << "\n";
  return false;
}

// The change phrase of DELETE, RENAME, ENQUEUE, PREVIEW and SYNC DRYRUN:
//   DELETE RELATION <r> | DELETE ATTRIBUTE <r>.<a>
//   RENAME RELATION <r> TO <s> | RENAME ATTRIBUTE <r>.<a> TO <b>
// nullopt when `phrase` has not that shape (a word short, no TO).
std::optional<Result<CapabilityChange>> ParseChange(
    std::span<const std::string> phrase) {
  const bool is_delete =
      phrase.size() >= 3 && EqualsIgnoreCase(phrase[0], "DELETE");
  const bool is_rename = phrase.size() >= 5 &&
                         EqualsIgnoreCase(phrase[0], "RENAME") &&
                         EqualsIgnoreCase(phrase[3], "TO");
  if (!is_delete && !is_rename) return std::nullopt;
  const std::string verb = is_delete ? "DELETE" : "RENAME";
  if (EqualsIgnoreCase(phrase[1], "RELATION")) {
    return is_delete ? CapabilityChange::DeleteRelation(phrase[2])
                     : CapabilityChange::RenameRelation(phrase[2], phrase[4]);
  }
  if (!EqualsIgnoreCase(phrase[1], "ATTRIBUTE")) {
    return Status::InvalidArgument(verb + " expects RELATION or ATTRIBUTE");
  }
  const std::vector<std::string> parts = Split(phrase[2], '.');
  if (parts.size() != 2) {
    return Status::InvalidArgument(verb +
                                   " ATTRIBUTE expects <relation>.<attribute>");
  }
  return is_delete
             ? CapabilityChange::DeleteAttribute(parts[0], parts[1])
             : CapabilityChange::RenameAttribute(parts[0], parts[1], phrase[4]);
}

}  // namespace

ParsedStatement ParseStatement(std::string_view statement) {
  ParsedStatement parsed;
  parsed.words = SplitWords(statement);
  const std::vector<std::string>& words = parsed.words;
  const auto is = [&words](size_t i, std::string_view word) {
    return i < words.size() && EqualsIgnoreCase(words[i], word);
  };
  if (is(0, "SHOW")) {
    // The forms Console::Show would answer from the tip: AT VERSION pins
    // an older version instead.
    const bool at_version =
        words.size() >= 5 && is(2, "AT") && is(3, "VERSION");
    if (is(1, "HYPERGRAPH") ||
        ((is(1, "MKB") || is(1, "VIEWS")) && !at_version)) {
      parsed.route = Route::kSnapshotRead;
    } else if (is(1, "VIEW") && words.size() >= 3) {
      parsed.route = Route::kPointRead;
    } else if (words.size() == 3 && is(1, "SERVER") && is(2, "STATS")) {
      // Exactly three words: the console itself has no such SHOW form.
      parsed.route = Route::kServerStats;
    } else if (is(1, "REPLICATION")) {
      parsed.route = Route::kShowReplication;
    } else {
      parsed.route = Route::kReadOnly;
    }
  } else if (is(0, "SCRUB")) {
    // The integrity scan reads the version chain and mutates nothing
    // durable, and operators need it on every node.
    parsed.route = Route::kReadOnly;
  } else if (is(0, "READ") && is(1, "STALENESS") && words.size() >= 3) {
    parsed.route = Route::kReadStaleness;
  }
  return parsed;
}

std::string QuoteArgument(std::string_view text) {
  std::string quoted = "'";
  for (const char c : text) {
    quoted += c;
    if (c == '\'') quoted += c;
  }
  return quoted + "'";
}

bool ReadStalenessBound(const std::string& word, uint64_t* bound,
                        std::ostream& out, std::ostream& err) {
  if (EqualsIgnoreCase(word, "NONE")) {
    *bound = UINT64_MAX;
    out << "read staleness bound = none\n";
    return true;
  }
  if (!ParseCount(word, bound, err)) return false;
  out << "read staleness bound = " << *bound << "\n";
  return true;
}

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
      if (Trim(current).empty()) start_line = line;
      const std::string_view quoted =
          std::string_view(script).substr(i, QuotedEnd(script, i) - i);
      line += std::count(quoted.begin(), quoted.end(), '\n');
      current += quoted;
      i += quoted.size() - 1;
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

bool Console::RunSnapshotRead(const ParsedStatement& parsed,
                              std::ostream& out, std::ostream& err) const {
  if (parsed.route != Route::kSnapshotRead &&
      parsed.route != Route::kPointRead) {
    err << "error: not a snapshot read\n";
    return false;
  }
  return SnapshotShow(parsed.words, out, err);
}

bool Console::RunSnapshotRead(const std::string& statement, std::ostream& out,
                              std::ostream& err) const {
  return RunSnapshotRead(ParseStatement(statement), out, err);
}

bool Console::SnapshotShow(const std::vector<std::string>& words,
                           std::ostream& out, std::ostream& err) const {
  // Every form reads the pinned tip version: one pin under the store
  // mutex, then only the version's immutable bytes, byte-stable against
  // any later commit.
  const PinnedMkb tip = system_.PinTip();
  if (EqualsIgnoreCase(words[1], "MKB")) {
    out << tip.mkb->ToString();
    return true;
  }
  if (EqualsIgnoreCase(words[1], "HYPERGRAPH")) {
    out << Hypergraph::Build(*tip.mkb).Summary();
    return true;
  }
  if (EqualsIgnoreCase(words[1], "VIEWS")) {
    for (const ViewBlock& view : VersionViewBlocks(*tip.version)) {
      out << "  [" << (view.active ? "active" : "DISABLED") << "] "
          << view.name << "\n";
    }
    return true;
  }
  // SHOW VIEW <name>: only the view's own bucket is parsed.
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

bool Console::Run(const std::string& statement, std::ostream& out,
                  std::ostream& err) {
  out_ = &out;
  err_ = &err;
  const ParsedStatement parsed = ParseStatement(statement);
  const std::vector<std::string>& words = parsed.words;
  switch (parsed.route) {
    case Route::kSnapshotRead:
    case Route::kPointRead:
      return SnapshotShow(words, out, err);
    case Route::kShowReplication:
      // A replicated eved answers this from its hub; the console has none.
      Out() << "replication: disabled\n";
      return true;
    case Route::kReadStaleness: {
      // The server enforces the bound against a replica's lag; the local
      // console has no lag, so it only echoes it.
      uint64_t bound = 0;
      return ReadStalenessBound(words[2], &bound, out, err);
    }
    default:
      break;
  }
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
  if ((head == "enqueue" || head == "preview") && words.size() >= 4) {
    const std::optional<Result<CapabilityChange>> change =
        ParseChange(std::span(words).subspan(1));
    if (!change.has_value()) {
      Err() << "error: " << (head == "enqueue" ? "ENQUEUE" : "PREVIEW")
            << " expects DELETE or RENAME\n";
      return false;
    }
    return head == "enqueue" ? Enqueue(*change)
                             : Change(*change, /*preview=*/true);
  }
  if (head == "drain") {
    return Drain();
  }
  if (head == "delete" || head == "rename") {
    const std::optional<Result<CapabilityChange>> change = ParseChange(words);
    if (change.has_value()) return Change(*change, /*preview=*/false);
  }
  if (head == "sync" && words.size() >= 5 &&
      EqualsIgnoreCase(words[1], "DRYRUN")) {
    return DryRun(std::span(words).subspan(2));
  }
  if (head == "rollback" && words.size() >= 4 &&
      EqualsIgnoreCase(words[1], "TO") &&
      EqualsIgnoreCase(words[2], "VERSION")) {
    return Rollback(words[3]);
  }
  if (head == "scrub") {
    return Scrub();
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
  // A load adds every view of the file or none (names already in the pool
  // are refused), so the pool grows by exactly the file's views.
  const size_t before = system_.NumViews();
  const Status status = LoadViews(buffer.str(), &system_);
  if (!status.ok()) {
    Err() << "error: " << status << "\n";
    return false;
  }
  Out() << "loaded " << system_.NumViews() - before << " views from " << path
        << "\n";
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
    Out() << "sync work budget = " << parsed << " units/view\n";
    return true;
  }
  if (EqualsIgnoreCase(knob, "DEADLINE")) {
    system_.SetSyncDeadlineMicros(parsed);
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
    if (!ParseCount(words[4], &version, Err())) return false;
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
    if (!ParseCount(words[4], &version, Err())) return false;
    const Result<std::string> views = system_.ViewsTextAt(version);
    if (!views.ok()) {
      Err() << "error: " << views.status() << "\n";
      return false;
    }
    Out() << "-- view pool at version " << version << "\n" << views.value();
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
  Err() << "error: SHOW expects MKB, HYPERGRAPH, VIEWS, VIEW <name>, "
           "VERSIONS, MKB|VIEWS AT VERSION <n>, SCRUB STATS or SYNC "
           "STATS\n";
  return false;
}

// SYNC DRYRUN <change words> [AT VERSION n]: the full what-if pipeline.
bool Console::DryRun(std::span<const std::string> rest) {
  std::optional<uint64_t> at_version;
  if (rest.size() >= 3 && EqualsIgnoreCase(rest[rest.size() - 3], "AT") &&
      EqualsIgnoreCase(rest[rest.size() - 2], "VERSION")) {
    uint64_t version = 0;
    if (!ParseCount(rest.back(), &version, Err())) return false;
    at_version = version;
    rest = rest.first(rest.size() - 3);
  }
  const Result<CapabilityChange> change = ParseChange(rest).value_or(
      Status::InvalidArgument("SYNC DRYRUN expects DELETE or RENAME"));
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
  if (!ParseCount(version_word, &version, Err())) return false;
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
  if (!ParseCount(value, &ticks, Err())) return false;
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
  if (!ParseCount(from_word, &window.from, Err()) ||
      !ParseCount(to_word, &window.to, Err())) {
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
  if (!ParseCount(count_word, &count, Err())) return false;
  federation::FederationMonitor monitor = MakeMonitor();
  const size_t logged = system_.change_log().size();
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
  // Each departure ran the DepartSource cascade: show every report the
  // cascades logged, one per relation a source exported.
  const auto& log = system_.change_log();
  for (size_t i = logged; i < log.size(); ++i) Out() << log[i].ToString();
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
