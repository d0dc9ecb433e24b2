// The EVE statement console: parses and executes the ';'-terminated
// command language (LOAD/SAVE, CREATE VIEW, capability changes, admission,
// versioning, federation, journaling — see tools/evectl.cc for the full
// statement reference) against one EveSystem.
//
// Extracted from evectl so the SAME dispatch serves two front ends:
//  * evectl runs statements from a script file or stdin, writing to the
//    process's stdout/stderr;
//  * eved (net/server.h) runs statements for remote sessions, capturing
//    each statement's output into the response frame.
// Both produce byte-identical output for the same statement stream.
//
// ParseStatement is the one reader of statement text: Run, RunSnapshotRead
// and the server (which picks its lock and replica gates from the route)
// all work from its words.
//
// Threading: Run() mutates system state and console-local state; callers
// with concurrent sessions must serialize it (the server holds an
// exclusive lock). RunSnapshotRead() serves the Route::kSnapshotRead and
// Route::kPointRead statements — reads answered from the pinned tip
// version (PinTip) — without touching any console state, so any number
// may run concurrently with each other (the server holds a shared lock).
// No second publication pointer is needed: mutations run only under the
// exclusive lock, so a reader never sees a half-applied statement, and a
// pin stays byte-stable on its own.

#ifndef EVE_NET_CONSOLE_H_
#define EVE_NET_CONSOLE_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "eve/eve_system.h"
#include "eve/journal.h"
#include "federation/monitor.h"
#include "federation/transport.h"

namespace eve {
namespace net {

// One statement plus the 1-based line where it starts in the script, so
// failures can be reported as "<file>:<line>: ...".
struct Statement {
  std::string text;
  size_t line = 1;
};

// Splits a script into ';'-terminated statements, honoring single-quoted
// strings, double-quoted identifiers, and "--" comments.
std::vector<Statement> SplitStatements(const std::string& script);

// How a statement is served.
enum class Route {
  kSnapshotRead,     // SHOW MKB|HYPERGRAPH|VIEWS, no AT: the pinned tip,
                     // under a shared lock; O(MKB) or O(pool)
  kPointRead,        // SHOW VIEW <name>, no AT: one view bucket of the
                     // pinned tip, under a shared lock
  kReadOnly,         // every other SHOW (SHOW <what> AT ... included), and
                     // SCRUB: the exclusive lock, allowed on a replica
  kServerStats,      // SHOW SERVER STATS: answered by the server
  kShowReplication,  // SHOW REPLICATION: answered by the server
  kReadStaleness,    // READ STALENESS <n>|NONE: answered by the server
  kWrite,            // everything else: the exclusive lock, refused on a
                     // replica
};

// A statement read once. `words` are split on whitespace outside quotes:
// a '...' or "..." token stays whole with its quotes, and inside '...'
// the pair '' stands for one quote (as in SplitStatements). Reads no
// console state.
struct ParsedStatement {
  std::vector<std::string> words;
  Route route = Route::kWrite;
};
ParsedStatement ParseStatement(std::string_view statement);

// Quotes `text` as one '...' statement argument (each ' doubled): the
// inverse of the unquoting of LOAD, SAVE, JOURNAL, CHECKPOINT and RECOVER
// paths.
std::string QuoteArgument(std::string_view text);

// READ STALENESS <n>|NONE: the one reading of a session's staleness bound,
// shared by the console (which has no lag and only echoes it) and the
// server (which enforces it). Sets *bound (UINT64_MAX for NONE) and echoes
// it on `out`; refuses on `err` a bound that is not a plain decimal.
bool ReadStalenessBound(const std::string& word, uint64_t* bound,
                        std::ostream& out, std::ostream& err);

class Console {
 public:
  // Executes one statement, writing its report to `out` and diagnostics
  // to `err`. Returns false when the statement failed.
  bool Run(const std::string& statement, std::ostream& out,
           std::ostream& err);

  // Runs a Route::kSnapshotRead or Route::kPointRead statement against the
  // pinned tip. Does not mutate console state. Returns false when the
  // statement failed (e.g. SHOW VIEW on an unknown view) or has another
  // route. The server passes the parse it routed by; the text form parses.
  bool RunSnapshotRead(const ParsedStatement& parsed, std::ostream& out,
                       std::ostream& err) const;
  bool RunSnapshotRead(const std::string& statement, std::ostream& out,
                       std::ostream& err) const;

  // The serving system, exposed for the server's stats plumbing.
  const EveSystem& system() const { return system_; }

  // --- Replication plumbing (net/replication.h) ----------------------------
  // All of these require the caller to hold the server's exclusive console
  // lock (except CurrentVersion, which reads one atomic-ish counter and is
  // safe under the shared lock too).

  // The committed version id (the replication unit).
  uint64_t CurrentVersion() const { return system_.current_version(); }

  // Renders the complete durable state as checkpoint text (the replication
  // bootstrap payload).
  std::string RenderSnapshotText() const;

  // Replaces the in-memory system with a parsed checkpoint. Does NOT touch
  // durable files — the replica agent has already installed them (journal
  // reset + checkpoint write) before calling this.
  Status InstallSnapshotText(const std::string& text);

  // Applies one shipped journal record through `replayer` (batch-buffering,
  // tolerant — the recovery semantics).
  Status ApplyReplicatedRecord(const JournalRecord& record,
                               JournalReplayer* replayer);

  // The journal opened by JOURNAL <path> (nullptr when none). Replicas
  // append shipped records to it verbatim.
  Journal* attached_journal() { return journal_.has_value() ? &*journal_ : nullptr; }

  // Detach (replica) or reattach (promotion) the journal from the serving
  // system. Detached, local mutations do NOT journal — a replica's journal
  // is written only by the agent, with the primary's exact bytes.
  void SetSystemJournalAttached(bool attached);

 private:
  bool Report(const Status& status, const std::string& context);

  // Installs a freshly built system (LOAD MISD, RECOVER, snapshot install)
  // and re-attaches the journal. The new system starts without the old
  // one's SET SYNC limits.
  void ReplaceSystem(EveSystem system);

  // The snapshot-read SHOW forms (Route::kSnapshotRead and kPointRead);
  // const and stream-parameterized so the server can run it under a shared
  // lock.
  bool SnapshotShow(const std::vector<std::string>& words, std::ostream& out,
                    std::ostream& err) const;

  bool LoadMisd(const std::string& path);
  bool SaveMisd(const std::string& path);
  bool LoadViewPool(const std::string& path);
  bool SaveViewPool(const std::string& path);
  bool OpenJournal(const std::string& path);
  bool Checkpoint(const std::string& path);
  bool Recover(const std::string& checkpoint_path,
               const std::string& journal_path);
  bool SetSync(const std::string& knob, const std::string& value);
  bool Enqueue(const Result<CapabilityChange>& change);
  bool Drain();
  bool Show(const std::vector<std::string>& words);
  bool DryRun(std::span<const std::string> rest);
  bool Rollback(const std::string& version_word);
  bool Scrub();
  federation::FederationMonitor MakeMonitor();
  bool TrackSources();
  bool ShowSources();
  bool SetSource(const std::string& source, const std::string& knob,
                 const std::string& value);
  bool FaultSource(const std::string& source, const std::string& kind_word,
                   const std::string& from_word, const std::string& to_word);
  bool Tick(const std::string& count_word);
  bool Change(const Result<CapabilityChange>& change, bool preview);

  // The statement's output streams, valid only inside Run (set on entry).
  std::ostream& Out() { return *out_; }
  std::ostream& Err() { return *err_; }
  std::ostream* out_ = nullptr;
  std::ostream* err_ = nullptr;

  EveSystem system_{Mkb()};
  std::optional<Journal> journal_;
  // False on a replica: journal_ stays open (the agent appends shipped
  // records) but the serving system must not journal its own replayed
  // mutations on top.
  bool system_journal_attached_ = true;
  std::optional<VersionScrubStats> last_scrub_;
  // Federation console state: one simulated transport and a logical clock
  // that persists across TICK commands (monitors are per-command).
  federation::SimulatedTransport transport_;
  uint64_t federation_now_ = 0;
};

}  // namespace net
}  // namespace eve

#endif  // EVE_NET_CONSOLE_H_
