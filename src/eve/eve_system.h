// EveSystem: the end-to-end EVE facade implementing the paper's three-step
// strategy (Sec. 4): on a capability change it (1) evolves the MKB,
// (2) detects affected views, (3) synchronizes each affected view with CVS,
// replacing definitions of curable views and disabling the rest.

#ifndef EVE_EVE_EVE_SYSTEM_H_
#define EVE_EVE_EVE_SYSTEM_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "cvs/cvs.h"
#include "esql/view_definition.h"
#include "federation/membership.h"
#include "mkb/capability_change.h"
#include "mkb/mkb.h"
#include "mkb/version_store.h"

namespace eve {

class Journal;
struct JournalRecord;

enum class ViewState { kActive, kDisabled };

struct RegisteredView {
  ViewDefinition definition;
  ViewState state = ViewState::kActive;
  // One line per synchronization event ("rewritten under delete-relation
  // Customer", ...).
  std::vector<std::string> history;
  // Degraded-mode marker: sources this view's current rewriting depends on
  // that were SUSPECT/QUARANTINED when the rewriting was chosen. The
  // rewriting used last-known (possibly stale) constraints from those
  // sources; the marks clear when every listed source heals to HEALTHY.
  std::set<std::string> provisional_sources;
  // The MKB version this view's definition was last validated or
  // synchronized against: the version created by its registration, by the
  // ApplyChange that last rewrote it, or carried verbatim through a
  // rollback. ScrubVersions checks it always names a retained version.
  uint64_t synced_at_version = 0;
};

enum class ViewOutcomeKind { kUnaffected, kRewritten, kDisabled };

struct ViewOutcome {
  std::string view_name;
  ViewOutcomeKind kind = ViewOutcomeKind::kUnaffected;
  // For kRewritten: the chosen rewriting's description; for kDisabled: the
  // failure diagnostics.
  std::string detail;
  // Degraded sources the rewriting leaned on (see
  // RegisteredView::provisional_sources). Un-marked in place when the
  // sources heal, so a healed-within-lease run's report log converges to
  // the fault-free log byte for byte.
  std::vector<std::string> provisional_sources;
};

// The views active when a change was prepared, name-sorted, with the
// report line of each as unaffected ("  view <name>: unaffected\n")
// rendered once, when the list is built: a report copies the lines of its
// unaffected views in ranges around its affected ones.
struct ActiveViews {
  std::vector<std::string> names;
  std::string unaffected_lines;    // every name's line, in name order
  std::vector<size_t> line_ends;   // names[i]'s line ends at line_ends[i]

  size_t size() const { return names.size(); }
};

struct ChangeReport {
  CapabilityChange change;
  std::vector<std::string> dropped_constraints;
  std::vector<std::string> weakened_constraints;
  // The affected views' outcomes (kRewritten or kDisabled), name-sorted.
  std::vector<ViewOutcome> outcomes;
  // The views active when the change was prepared; each one without an
  // outcome is unaffected. Immutable and shared by every report prepared
  // while the active set stayed the same, so a report costs O(affected
  // views). Null in a change-log entry restored from a checkpoint, which
  // keeps only the change.
  std::shared_ptr<const ActiveViews> active_views;

  // kUnaffected counts the active views without an outcome.
  size_t CountOutcome(ViewOutcomeKind kind) const;
  // "change: ..." plus one line per active view: the unaffected ones
  // first, then the outcomes, each group in name order.
  std::string ToString() const;
};

// Per-view incompleteness lists for the most recent change. Deterministic:
// assembled on the calling thread in view-name order, so the lists are
// byte-identical at any sync parallelism.
// Observability only — not part of ChangeReport, not journaled.
struct SyncDiagnostics {
  // Views whose candidate enumeration was cut by a count bound
  // (max_cover_combinations, max_results before exhaustion, or
  // search_sets_cut) — their result may be incomplete. Sorted by name.
  std::vector<std::string> truncated_views;
  // Views whose search was stopped by the deadline token (work budget or
  // wall deadline): their rewriting list is a valid best-under-budget
  // prefix. Sorted by name.
  std::vector<std::string> deadline_views;

  // "truncated views: A, B; deadline views: C" — empty when clean.
  std::string ToString() const;
};

// Admission accounting for the bounded sync queue. The shedding invariant
// (checked by tests and the CI stress job): submitted == completed + shed
// + queued_now — every submitted change is either applied (completed,
// successfully or with an explicit per-change error), rejected with an
// explicit ResourceExhausted (shed), or still waiting. Nothing disappears
// silently.
struct AdmissionStats {
  uint64_t submitted = 0;  // EnqueueChange calls
  uint64_t shed = 0;       // rejected: queue at limit (or injected fault)
  uint64_t completed = 0;  // drained and applied (includes explicit
                           // per-change failures; see failed)
  uint64_t failed = 0;     // of completed: ApplyChange returned an error
  size_t queued_now = 0;   // currently waiting

  // "submitted 5, completed 3 (1 failed), shed 2, queued 0".
  std::string ToString() const;
};

// What Recover did with the journal, for operator diagnostics.
struct RecoveryReport {
  size_t replayed = 0;       // records applied successfully
  size_t skipped = 0;        // records whose replay failed (e.g. the change
                             // also failed in the original run)
  size_t discarded = 0;      // records in uncommitted batches
  bool torn_tail = false;    // journal ended in a torn record
  size_t torn_bytes = 0;     // bytes dropped with the torn tail
  std::vector<std::string> notes;

  std::string ToString() const;
};

// The outcome of a what-if synchronization (DryRunChange / DryRunChangeAt):
// exactly the ChangeReport a commit from `base_version` would produce, plus
// the sync diagnostics of the run — with zero side effects on the system.
struct DryRunReport {
  uint64_t base_version = 0;  // the pinned version the CVS run read
  ChangeReport report;
  SyncDiagnostics diagnostics;

  std::string ToString() const;
};

class EveSystem {
 public:
  // `options` configures every view's CVS run, except that top_k is always
  // 1: a change commits only the best rewriting, and the top-1 bound
  // proves that rewriting without ranking the rest.
  explicit EveSystem(Mkb mkb, CvsOptions options = {});

  // The live (tip) MKB. Reads through the pinned tip snapshot, so copies
  // of the returned reference stay valid while a caller holds PinTip().
  const Mkb& mkb() const { return *mkb_tip_; }

  // --- Versioning ----------------------------------------------------------
  //
  // Every journaled mutation (MKB extension/retraction, view registration
  // and state flips, capability changes, rollbacks) commits a new immutable
  // version into the copy-on-write chain; reads can pin any retained
  // version in O(1) and are never blocked (or torn) by a running
  // synchronization. A version holds the whole view pool, but a commit
  // re-renders only the VIEWS buckets of views changed since the last
  // commit and shares the rest, so it costs O(MKB + changed views).
  // Federation membership rows are deliberately NOT versioned: a healed
  // run must stay byte-identical to a fault-free run.

  const MkbVersionStore& versions() const { return versions_; }
  uint64_t current_version() const { return versions_.tip_id(); }

  // O(1) snapshot of the tip (shared_ptr swap, no copy, no parse).
  PinnedMkb PinTip() const { return versions_.Tip(); }
  // Pins an arbitrary retained version (non-tip versions reparse).
  Result<PinnedMkb> PinVersion(uint64_t version) const {
    return versions_.Pin(version);
  }
  // The serialized view pool frozen at `version` (AT VERSION n reads).
  Result<std::string> ViewsTextAt(uint64_t version) const {
    return versions_.ViewsAt(version);
  }

  // What-if synchronization: runs the full prepare phase (MKB evolution,
  // affected-view detection, CVS) against the pinned tip and ABORTS —
  // nothing is journaled, no version is created, MKB and views are
  // byte-unchanged. The report matches what ApplyChange would commit.
  Result<DryRunReport> DryRunChange(const CapabilityChange& change) const;
  // Same, against retained version `version`: the report a
  // RollbackToVersion(version) followed by ApplyChange(change) would
  // produce, again with zero side effects.
  Result<DryRunReport> DryRunChangeAt(const CapabilityChange& change,
                                      uint64_t version) const;

  // Restores MKB and view pool to retained version `version`, committed as
  // a NEW journaled version (kRollback) — history is never truncated, so a
  // rollback can itself be rolled back. Surviving views keep their full
  // history plus a rollback marker. Returns the new version's id.
  Result<uint64_t> RollbackToVersion(uint64_t version);

  // Integrity scrub: the whole version chain (segment checksums, version
  // checksums, id sequence, parent links — see MkbVersionStore::Scrub)
  // plus every view's synced_at_version naming a retained version and the
  // live MKB re-rendering byte-identically to the tip version's segments.
  VersionScrubStats ScrubVersions() const;

  // Checkpoint loading only: replaces the version chain (the live MKB must
  // re-render to the store's tip, else the checkpoint is inconsistent).
  Status RestoreVersionStore(MkbVersionStore store);

  // Additive MKB evolution: a (new or existing) source publishes MISD
  // statements — relations, join constraints, function-of constraints, PC
  // constraints. Purely additive, so no view is affected (paper Sec. 5:
  // add-relation / add-attribute leave views valid). Atomic: on failure
  // the MKB is unchanged.
  Status ExtendMkb(std::string_view misd_text);

  // A source withdraws a published constraint. Views stay valid (they
  // never reference constraints directly), but future synchronizations
  // lose the retracted semantics.
  Status RetractConstraint(const std::string& id);

  // Binds `view` against the current MKB and registers it (RegisterViews,
  // a batch of one).
  Status RegisterView(const ViewDefinition& view);
  // Parses, binds and registers an E-SQL CREATE VIEW statement.
  Status RegisterViewText(std::string_view text);
  // The one registration: registers `batch` — its views' definitions,
  // states and provisional marks — as ONE journal record (kRegisterViewsBulk,
  // the batch's SaveViews blocks without stamps) and ONE committed version,
  // and stamps every view with that version. Active views must bind
  // against mkb().catalog() as they are (ParseViewPool and RegisterView
  // bind them). Names are checked against the pool and the batch before
  // anything is journaled: a bad batch leaves system and journal untouched.
  // However large, a batch is one journal fsync, and it fails whole when
  // its record exceeds the journal's limit (kMaxRecordSize).
  Status RegisterViews(std::vector<RegisteredView> batch);

  Result<const RegisteredView*> GetView(const std::string& name) const;

  // Flags a registered view (used by view-pool persistence and operators
  // manually disabling a view). Re-enabling binds the definition against
  // the current MKB first, as RegisterView does; if it no longer binds
  // (a capability it reads changed while it was disabled), returns the
  // binder's error, journals and commits nothing, and the view stays
  // disabled.
  Status SetViewState(const std::string& name, ViewState state);
  std::vector<std::string> ViewNames() const;
  size_t NumViews() const { return views_.size(); }
  size_t NumActiveViews() const;

  // Detects the views step 2 flags as affected by `change` against the
  // current MKB (directly: they reference the deleted/renamed element).
  // Served from the inverted relation/attribute → views index, so the cost
  // scales with the number of dependent views, not the pool size. Returns
  // names in sorted order.
  std::vector<std::string> AffectedViews(const CapabilityChange& change) const;

  // How many threads (including the calling one) step 3 uses to
  // synchronize the affected views of one change: AvailableCpus() unless
  // SetSyncParallelism overrides it with exactly `threads` (0 and 1 both
  // mean fully sequential). Only a delete-relation or delete-attribute
  // with two or more affected views fans out, since only deletes run CVS
  // enumeration; a rename's per-view rewrite takes a few microseconds, no
  // more than waking a worker. The pool starts with the first fan-out, so
  // a system that only registers, loads or renames never starts a thread.
  // Reports, journal records and all observable state are byte-identical
  // at every setting: workers only compute per-view CVS results into
  // private slots; assembly, journaling and commit stay on the calling
  // thread in view-name order.
  void SetSyncParallelism(size_t threads);
  size_t sync_parallelism() const { return sync_pool_->threads; }

  // The pull cap (RReplacementOptions::max_results, default 32): the most
  // candidates one view's CVS run pulls, in every run including the
  // parallel batch path (it only narrows each view's private search, so
  // reports stay byte-identical across thread counts). 0 means no cap.
  void SetSyncCandidateBudget(size_t budget) {
    options_.replacement.max_results = budget;
  }
  size_t sync_candidate_budget() const {
    return options_.replacement.max_results;
  }

  // --- Deadlines -------------------------------------------------------------
  //
  // Two independent stopping mechanisms, both cooperative (checked at
  // enumeration-step safe points, so a search never overruns by more than
  // one step); each affected view gets its own token carrying both:
  //
  //  * The logical work budget is DETERMINISTIC: it counts enumerator
  //    expansions and candidate emissions per view, each view's token is
  //    spent entirely on the thread running that view, and every stopped
  //    layer returns its best-so-far prefix. Reports, stats and journal
  //    bytes are therefore byte-identical at any sync parallelism.
  //  * The wall-clock deadline is BEST EFFORT: where a run stops depends
  //    on machine speed, so results under a wall deadline are valid
  //    partial results but not reproducible bytes. Tests pin the clock
  //    with SetClockForTesting.

  // Per-view logical work budget (0 = unlimited). One unit is one join-tree
  // frontier expansion or one candidate emission.
  void SetSyncWorkBudget(uint64_t units) { sync_work_budget_ = units; }
  uint64_t sync_work_budget() const { return sync_work_budget_; }

  // Wall-clock deadline per change (0 = none), measured from the start of
  // ApplyChange on the configured clock.
  void SetSyncDeadlineMicros(uint64_t micros) { sync_deadline_micros_ = micros; }
  uint64_t sync_deadline_micros() const { return sync_deadline_micros_; }

  // Clock the deadline token reads (tests install a ManualClock; nullptr
  // restores the steady clock). Non-owning; must outlive the system.
  void SetClockForTesting(const Clock* clock) { sync_clock_ = clock; }

  // --- Admission control ---------------------------------------------------
  //
  // A bounded FIFO of pending changes with explicit load-shedding. Each
  // drained change runs under a fresh deadline token built from the knobs
  // above. Invariant: submitted == completed + shed + queued_now.
  //
  // Thread safety: EnqueueChange, queued_changes and admission_stats may
  // be called concurrently from any number of threads (the network front
  // end admits from many sessions at once). Drains are serialized among
  // themselves, and a change being applied still counts as queued until
  // its outcome is recorded, so the invariant above holds at EVERY
  // observable instant, not just at rest.

  // Queue bound for EnqueueChange (0 = unbounded).
  void SetSyncQueueLimit(size_t limit) { sync_queue_limit_ = limit; }
  size_t sync_queue_limit() const { return sync_queue_limit_; }

  // Admits `change` into the pending queue. When the queue is at its
  // limit, the NEWEST submission (this one) is rejected with an explicit
  // kResourceExhausted — never silently dropped.
  Status EnqueueChange(const CapabilityChange& change);

  // Applies every queued change in FIFO order, each under its own deadline
  // built from the current knobs. Stops at the first failing change with
  // its error; the remainder stays queued for a later drain.
  Result<std::vector<ChangeReport>> DrainSyncQueue();

  size_t queued_changes() const {
    std::lock_guard<std::mutex> lock(*admission_mu_);
    return sync_queue_.size();
  }
  // A consistent snapshot of the counters (all four fields are updated
  // under one lock, so a sampled snapshot always satisfies the invariant).
  AdmissionStats admission_stats() const {
    std::lock_guard<std::mutex> lock(*admission_mu_);
    return admission_stats_;
  }

  // Per-view truncation/deadline lists for the most recent ApplyChange or
  // DryRunChange (same lifecycle as last_sync_stats()).
  const SyncDiagnostics& last_sync_diagnostics() const {
    return last_sync_diagnostics_;
  }

  // Enumeration counters aggregated (in view-name order, on the calling
  // thread) across the affected views of the most recent ApplyChange or
  // DryRunChange. Observability only — not part of ChangeReport, not
  // journaled, not restored by recovery.
  const EnumerationStats& last_sync_stats() const { return last_sync_stats_; }

  // The three-step strategy. On success the MKB is evolved and every
  // affected view is either rewritten in place (keeping its registered
  // name) or disabled.
  Result<ChangeReport> ApplyChange(const CapabilityChange& change);

  // --- Federation membership ----------------------------------------------
  //
  // EveSystem is the durable home of the per-source membership table (see
  // federation/membership.h); the probe scheduler that drives transitions
  // lives above it in federation/monitor.h.

  const std::map<std::string, federation::SourceMembership>&
  source_membership() const {
    return membership_;
  }

  // Journals (kSourceMembership) and commits one source's membership row.
  // When the row heals to HEALTHY, the source's provisional marks are
  // removed from every live view and every logged outcome — the degraded
  // rewritings are thereby confirmed, and the state converges to what a
  // fault-free run would have produced.
  Status SetSourceMembership(const std::string& source,
                             const federation::SourceMembership& membership);

  // Lease expiry: an information source leaves the environment (paper
  // Sec. 1). Applies delete-relation for every relation the source
  // exports, one change at a time, so views can hop between the departing
  // source's relations while some still exist, and marks a tracked source
  // DEPARTED. Returns one report per deleted relation. The
  // whole cascade is one batch, journaled with one append: a failure
  // mid-way undoes every relation, so the source is either fully present
  // or fully departed — never half-left. A source that exports no
  // relations departs with an empty cascade. This is the only path from
  // probe faults to rewriting churn.
  Result<std::vector<ChangeReport>> DepartSource(const std::string& source);

  // Checkpoint loading only: replaces the membership table verbatim, no
  // journaling, no heal side effects.
  void RestoreSourceMembership(
      std::map<std::string, federation::SourceMembership> table) {
    membership_ = std::move(table);
  }

  const std::vector<ChangeReport>& change_log() const { return change_log_; }

  // --- Durability ----------------------------------------------------------

  // Attaches a write-ahead journal (non-owning; pass nullptr to detach).
  // While attached, every state mutation is journaled before it commits,
  // so RecoverFromFiles can rebuild the system after a crash.
  void AttachJournal(Journal* journal) { journal_ = journal; }
  Journal* journal() const { return journal_; }

  // Replaces the view pool with `pool` (ParseViewPool's views, so names
  // are unique) as it is: stamps, marks and histories included. Journals
  // nothing and commits no version; the next commit renders every bucket
  // afresh. Checkpoint load and RollbackToVersion install pools this way.
  void RestoreViews(std::vector<RegisteredView> pool);

  // Replaces the change log wholesale (checkpoint loading only).
  void RestoreChangeLog(std::vector<ChangeReport> log) {
    change_log_ = std::move(log);
  }

  // Rebuilds a system from a checkpoint document plus scanned journal
  // records by idempotent replay: records whose application fails (they
  // failed identically before the crash) are skipped, and batch records
  // without a commit marker are discarded. The result is deterministically
  // the pre- or post-operation state of the interrupted run, never a third
  // state. The recovered system has no journal attached.
  static Result<EveSystem> Recover(std::string_view checkpoint_text,
                                   const std::vector<JournalRecord>& records,
                                   RecoveryReport* report = nullptr);

 private:
  // The incremental replay loop (eve/journal.h) feeds ReplayRecord one
  // record at a time — recovery and replication replicas share it.
  friend class JournalReplayer;
  // Commits the restored pool of a checkpoint without a VERSIONS section.
  friend Result<EveSystem> LoadCheckpoint(std::string_view text);

  // The abortable first phase of a capability change: MKB evolution,
  // affected-view detection and the full CVS fan-out, all against the
  // pinned tip version and all into private state. Discarding the result
  // IS the dry-run/abort path; CommitPrepared is the commit path.
  struct PreparedChange {
    CapabilityChange change;
    uint64_t base_version = 0;  // tip id the prepare ran against
    std::shared_ptr<const Mkb> next_mkb;
    // The affected views, name-sorted; report.outcomes[i] is affected[i]'s
    // outcome and, when it is kRewritten, rewritings[i] its new definition.
    // No view is copied: prepare stays O(affected) on million-view pools.
    std::vector<std::string> affected;
    std::vector<ViewDefinition> rewritings;
    ChangeReport report;
    // The MISD segments the evolution changed (MkbEvolutionReport).
    MkbSegmentSet changed_segments;
  };
  Result<PreparedChange> PrepareChange(const CapabilityChange& change) const;
  // Journals kApplyChange and kVersionCommit with one write and one fsync,
  // swaps the tip pointer, writes the affected views in place (definition,
  // state, history line, provisional marks, stamp) and commits the new
  // version. Fails with kFailedPrecondition if the tip advanced since the
  // prepare, and with the journal's error (nothing journaled, nothing
  // changed) if the append fails.
  Result<ChangeReport> CommitPrepared(PreparedChange prepared);

  // Commits the current live state as a new version. Only the blocks of
  // dirty views are rendered; the rest of their buckets is copied from the
  // tip version, and every other bucket is shared with it. Of the MISD
  // segments only `changed_segments` are rendered (see
  // MkbVersionStore::Commit).
  uint64_t CommitVersion(const std::string& change_desc,
                         MkbSegmentSet changed_segments = kAllMkbSegments);

  // The view pool's write path. AddView registers a view; MutableView is
  // the one way to write a registered view in place (RestoreViews
  // replaces the pool wholesale). Both mark the view dirty, so
  // the next commit re-renders its block — including changes that commit
  // no version of their own (heal un-marking), which the next commit then
  // picks up. Inside a batch, MutableView also saves
  // the view's pre-batch state the first time the batch writes it.
  void AddView(const std::string& name, RegisteredView view);
  RegisteredView& MutableView(const std::string& name);

  // Journals `records` with one append to the attached journal, if any.
  // Inside a batch they go to the batch's record buffer instead, which
  // DepartSource appends whole when the batch commits.
  Status JournalAppendAll(std::span<const JournalRecord> records);
  Status JournalAppend(const JournalRecord& record);
  // The name-sorted active views for reports (see ChangeReport), built on
  // first use after InvalidateActiveViews.
  std::shared_ptr<const ActiveViews> ActiveViewList() const;
  // Called wherever the set of active views may have changed.
  void InvalidateActiveViews() { active_views_.reset(); }
  // Replays one journal record onto this system (no journaling).
  Status ReplayRecord(const JournalRecord& record);

  // Sources whose membership row is Degraded() among those owning a
  // relation `definition` references in `catalog` (sorted, deduped).
  std::vector<std::string> DegradedSourcesOf(const ViewDefinition& definition,
                                             const Catalog& catalog) const;

  // Inverted-index maintenance. Every registered view is indexed under
  // each relation and attribute it references, regardless of state
  // (AffectedViews filters on kActive, so a re-enabled view needs no
  // re-indexing).
  void IndexView(const std::string& name, const ViewDefinition& definition);
  void UnindexView(const std::string& name, const ViewDefinition& definition);
  void RebuildViewIndex();

  // The live MKB is the immutable snapshot behind the version-store tip;
  // commits swap the pointer, so pinned readers keep the old snapshot.
  MkbVersionStore versions_;
  std::shared_ptr<const Mkb> mkb_tip_;
  CvsOptions options_;
  std::map<std::string, RegisteredView> views_;
  // relation name / "rel\x1f attr" key → names of views referencing it.
  // std::set values keep AffectedViews output name-sorted.
  std::unordered_map<std::string, std::set<std::string>> views_by_relation_;
  std::unordered_map<std::string, std::set<std::string>> views_by_attribute_;
  // Views whose rendered block may differ from the tip version's. `all`
  // is set when the pool (RestoreViews) or the chain (checkpoint load)
  // was replaced wholesale: the next commit renders every bucket afresh.
  struct DirtyViews {
    std::set<std::string> names;
    bool all = false;
  };
  DirtyViews dirty_;
  // What undoing the running batch restores, and the records it journals.
  // A batch body writes the pool only through MutableView, which saves each
  // view's pre-batch state on the batch's first write to it; the rest is
  // saved when the batch opens.
  struct BatchUndo {
    PinnedMkb tip;  // the pre-batch tip version and its MKB
    size_t log_size = 0;
    DirtyViews dirty;
    std::map<std::string, federation::SourceMembership> membership;
    std::map<std::string, RegisteredView> views;
    // kBeginBatch, then every record the batch journaled so far.
    std::vector<JournalRecord> records;
  };
  // Restores the pre-batch state `undo` holds: re-indexes only the views
  // the batch wrote and drops the versions and log entries it added.
  void UndoBatch(BatchUndo& undo);
  // The running batch's undo record; null outside DepartSource.
  BatchUndo* batch_ = nullptr;
  // Cache behind ActiveViewList(); null until built. mutable: a dry run
  // builds it too. Guarded by active_views_mu_ (shared across copies, like
  // the other mutexes) against concurrent const callers.
  mutable std::shared_ptr<const ActiveViews> active_views_;
  std::shared_ptr<std::mutex> active_views_mu_ = std::make_shared<std::mutex>();
  std::vector<ChangeReport> change_log_;
  std::map<std::string, federation::SourceMembership> membership_;
  Journal* journal_ = nullptr;  // non-owning
  // The step-3 worker pool, started by the first fan-out that needs one.
  class SyncPool {
   public:
    explicit SyncPool(size_t threads) : threads(threads) {}
    // The pool, started on the first call; nullptr when threads <= 1.
    ThreadPool* Get();

    const size_t threads;

   private:
    std::once_flag started_;
    std::unique_ptr<ThreadPool> pool_;
  };
  // Shared (not per-copy) so DryRunChangeAt scratch copies and copies made
  // before the first fan-out use one pool; ParallelFor keeps per-call
  // completion state, so concurrent use is safe.
  std::shared_ptr<SyncPool> sync_pool_ =
      std::make_shared<SyncPool>(AvailableCpus());
  // mutable: DryRunChange is logically const but still reports how much
  // of the candidate space its run explored.
  mutable EnumerationStats last_sync_stats_;
  mutable SyncDiagnostics last_sync_diagnostics_;
  uint64_t sync_work_budget_ = 0;
  uint64_t sync_deadline_micros_ = 0;
  const Clock* sync_clock_ = nullptr;  // non-owning; nullptr = steady clock
  size_t sync_queue_limit_ = 0;
  std::deque<CapabilityChange> sync_queue_;
  AdmissionStats admission_stats_;
  // Guards sync_queue_ + admission_stats_ against concurrent producers
  // (EnqueueChange from many sessions) racing the drain. Shared across
  // copies — like active_views_mu_ — so EveSystem stays copyable.
  std::shared_ptr<std::mutex> admission_mu_ = std::make_shared<std::mutex>();
  // Serializes DrainSyncQueue callers (two drains applying the same change
  // twice would corrupt the accounting; enqueues stay concurrent).
  std::shared_ptr<std::mutex> drain_mu_ = std::make_shared<std::mutex>();
};

}  // namespace eve

#endif  // EVE_EVE_EVE_SYSTEM_H_
