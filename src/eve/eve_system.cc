#include "eve/eve_system.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <span>
#include <sstream>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "esql/binder.h"
#include "eve/journal.h"
#include "eve/view_pool_io.h"
#include "mkb/evolution.h"
#include "mkb/serializer.h"
#include "sql/parser.h"

namespace eve {

namespace {

// Splits a "<word>\n<rest>" journal body.
Status SplitRecordBody(const std::string& body, std::string* head,
                       std::string* rest) {
  const size_t newline = body.find('\n');
  if (newline == std::string::npos) {
    return Status::ParseError("malformed journal record body");
  }
  *head = body.substr(0, newline);
  *rest = body.substr(newline + 1);
  return Status::OK();
}

// Key for the attribute → views index ('\x1f' cannot occur in identifiers).
std::string AttrKey(const std::string& relation, const std::string& attribute) {
  return relation + '\x1f' + attribute;
}

// A count bound (max_cover_combinations, max_extra_relations, candidate
// budget / max results) cut this view's enumeration short: the result may
// be incomplete for a reason other than the top-k bound or the deadline
// token (those stop conditions are reported separately).
bool CountBoundTruncated(const EnumerationStats& stats) {
  if (stats.combos_truncated > 0 || stats.search_sets_cut > 0) return true;
  return !stats.exhausted && !stats.terminated_early && !stats.deadline.partial;
}

// The detail of a view's kRewritten outcome line: the kind of rewriting,
// its extent, how many attributes it replaced and dropped, and the
// relations it joined in.
std::string RewrittenDetail(const ViewDefinition& original,
                            const SynchronizedView& best) {
  const ViewDefinition& rewritten = best.view;
  std::string detail = best.is_drop ? "drop-based" : "replacement-based";
  detail += ", extent ";
  detail += ExtentRelationToString(best.legality.inferred_extent);
  if (!best.candidate.replacements.empty()) {
    detail += "; replaced " +
              std::to_string(best.candidate.replacements.size()) +
              " attribute(s)";
  }
  const auto dropped = std::count_if(
      original.select().begin(), original.select().end(),
      [&](const ViewSelectItem& item) {
        return std::none_of(rewritten.select().begin(),
                            rewritten.select().end(),
                            [&](const ViewSelectItem& kept) {
                              return kept.output_name == item.output_name;
                            });
      });
  if (dropped > 0) {
    detail += "; dropped " + std::to_string(dropped) + " attribute(s)";
  }
  bool joined = false;
  for (const ViewRelation& rel : rewritten.from()) {
    if (original.HasFromRelation(rel.name)) continue;
    if (!joined) detail += "; joined in";
    joined = true;
    detail += ' ';
    detail += rel.name;
  }
  return detail;
}

// Joins `names` with ", ".
std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace

std::string SyncDiagnostics::ToString() const {
  std::string out;
  if (!truncated_views.empty()) {
    out += "truncated views: " + JoinNames(truncated_views);
  }
  if (!deadline_views.empty()) {
    if (!out.empty()) out += "; ";
    out += "deadline views: " + JoinNames(deadline_views);
  }
  return out;
}

std::string AdmissionStats::ToString() const {
  std::string out = "submitted " + std::to_string(submitted) + ", completed " +
                    std::to_string(completed);
  if (failed > 0) out += " (" + std::to_string(failed) + " failed)";
  out += ", shed " + std::to_string(shed) + ", queued " +
         std::to_string(queued_now);
  return out;
}

size_t ChangeReport::CountOutcome(ViewOutcomeKind kind) const {
  if (kind == ViewOutcomeKind::kUnaffected) {
    // Every outcome belongs to an affected, hence active, view.
    return active_views == nullptr ? 0 : active_views->size() - outcomes.size();
  }
  size_t count = 0;
  for (const ViewOutcome& outcome : outcomes) {
    if (outcome.kind == kind) ++count;
  }
  return count;
}

std::string ChangeReport::ToString() const {
  std::string out = "change: " + change.ToString() + "\n";
  if (!dropped_constraints.empty()) {
    out += "  dropped constraints:";
    for (const std::string& id : dropped_constraints) out += " " + id;
    out += "\n";
  }
  if (!weakened_constraints.empty()) {
    out += "  weakened constraints:";
    for (const std::string& id : weakened_constraints) out += " " + id;
    out += "\n";
  }
  if (active_views != nullptr) {
    // Both lists are name-sorted: copy the unaffected lines between the
    // affected views in ranges.
    const std::vector<std::string>& names = active_views->names;
    const std::string& lines = active_views->unaffected_lines;
    size_t bytes = out.size() + lines.size();
    for (const ViewOutcome& outcome : outcomes) {
      bytes += outcome.view_name.size() + outcome.detail.size() + 64;
    }
    out.reserve(bytes);
    size_t copied = 0;  // the lines before this offset are out
    auto next = names.begin();
    for (const ViewOutcome& outcome : outcomes) {
      next = std::lower_bound(next, names.end(), outcome.view_name);
      if (next == names.end() || *next != outcome.view_name) continue;
      const size_t i = static_cast<size_t>(next - names.begin());
      const size_t start = i == 0 ? 0 : active_views->line_ends[i - 1];
      out.append(lines, copied, start - copied);
      copied = active_views->line_ends[i];
    }
    out.append(lines, copied, std::string::npos);
  }
  for (const ViewOutcome& outcome : outcomes) {
    out += "  view ";
    out += outcome.view_name;
    switch (outcome.kind) {
      case ViewOutcomeKind::kUnaffected:
        out += ": unaffected";
        break;
      case ViewOutcomeKind::kRewritten:
        out += ": rewritten";
        break;
      case ViewOutcomeKind::kDisabled:
        out += ": DISABLED";
        break;
    }
    if (!outcome.detail.empty()) out += " — " + outcome.detail;
    if (!outcome.provisional_sources.empty()) {
      out += " [provisional:";
      for (const std::string& source : outcome.provisional_sources) {
        out += " " + source;
      }
      out += "]";
    }
    out += "\n";
  }
  return out;
}

std::string RecoveryReport::ToString() const {
  std::ostringstream os;
  os << "recovery: replayed " << replayed << ", skipped " << skipped
     << ", discarded " << discarded;
  if (torn_tail) {
    os << ", journal tail was torn (" << torn_bytes << " byte(s) dropped)";
  }
  os << "\n";
  for (const std::string& note : notes) os << "  " << note << "\n";
  return os.str();
}

std::string DryRunReport::ToString() const {
  std::string out = "dry-run against version " + std::to_string(base_version) +
                    " (nothing applied)\n" + report.ToString();
  const std::string sync = diagnostics.ToString();
  if (!sync.empty()) out += "sync: " + sync + "\n";
  return out;
}

EveSystem::EveSystem(Mkb mkb, CvsOptions options)
    : options_(std::move(options)) {
  mkb_tip_ = std::make_shared<const Mkb>(std::move(mkb));
  versions_.Reset(mkb_tip_, SaveViews(*this), "initial");
}

uint64_t EveSystem::CommitVersion(const std::string& change_desc,
                                  MkbSegmentSet changed_segments) {
  ViewBucketBodies buckets;
  if (dirty_.all) {
    for (size_t bucket = 0; bucket < kViewBuckets; ++bucket) buckets[bucket];
    for (const auto& [name, view] : views_) {
      AppendViewBlock(view, &buckets[ViewBucketOf(name)]);
    }
  } else {
    // The tip's buckets hold every clean view's current block, so a dirty
    // bucket is its tip body with the dirty views' blocks re-rendered in
    // name order; blocks of clean views are copied, not rendered.
    std::map<size_t, std::vector<const std::string*>> dirty_by_bucket;
    for (const std::string& name : dirty_.names) {
      dirty_by_bucket[ViewBucketOf(name)].push_back(&name);
    }
    const PinnedMkb tip = versions_.Tip();
    for (const auto& [bucket, dirty] : dirty_by_bucket) {
      std::string& body = buckets[bucket];
      const std::vector<ViewBlock> old =
          SplitViewBlocks(tip.version->view_bucket(bucket).body);
      auto next = old.begin();
      for (const std::string* name : dirty) {
        for (; next != old.end() && next->name < *name; ++next) {
          body.append(next->text);
        }
        if (next != old.end() && next->name == *name) ++next;
        AppendViewBlock(views_.at(*name), &body);
      }
      for (; next != old.end(); ++next) body.append(next->text);
    }
  }
  dirty_ = DirtyViews();
  return versions_.Commit(mkb_tip_, std::move(buckets), change_desc,
                          changed_segments);
}

void EveSystem::AddView(const std::string& name, RegisteredView view) {
  // Into an empty pool (whose tip buckets are all empty) every view is
  // new: render the buckets afresh instead of tracking each name.
  if (views_.empty()) dirty_ = DirtyViews{{}, true};
  const auto [it, inserted] = views_.emplace(name, std::move(view));
  IndexView(name, it->second.definition);
  if (it->second.state == ViewState::kActive) InvalidateActiveViews();
  if (!dirty_.all) dirty_.names.insert(name);
}

RegisteredView& EveSystem::MutableView(const std::string& name) {
  RegisteredView& view = views_.at(name);
  if (batch_ != nullptr) batch_->views.try_emplace(name, view);
  if (!dirty_.all) dirty_.names.insert(name);
  return view;
}

Status EveSystem::JournalAppendAll(std::span<const JournalRecord> records) {
  if (journal_ == nullptr) return Status::OK();
  if (batch_ != nullptr) {
    batch_->records.insert(batch_->records.end(), records.begin(),
                           records.end());
    return Status::OK();
  }
  return journal_->AppendAll(records);
}

Status EveSystem::JournalAppend(const JournalRecord& record) {
  return JournalAppendAll({&record, 1});
}

std::shared_ptr<const ActiveViews> EveSystem::ActiveViewList() const {
  std::lock_guard<std::mutex> lock(*active_views_mu_);
  if (active_views_ == nullptr) {
    auto active = std::make_shared<ActiveViews>();
    for (const auto& [name, view] : views_) {
      if (view.state != ViewState::kActive) continue;
      active->names.push_back(name);
      active->unaffected_lines += "  view ";
      active->unaffected_lines += name;
      active->unaffected_lines += ": unaffected\n";
      active->line_ends.push_back(active->unaffected_lines.size());
    }
    active_views_ = std::move(active);
  }
  return active_views_;
}

Status EveSystem::ExtendMkb(std::string_view misd_text) {
  Mkb extended = *mkb_tip_;
  EVE_RETURN_IF_ERROR(AppendMisd(&extended, misd_text));
  EVE_RETURN_IF_ERROR(JournalAppend(
      {JournalRecordKind::kExtendMkb, std::string(misd_text)}));
  mkb_tip_ = std::make_shared<const Mkb>(std::move(extended));
  CommitVersion("extend-mkb");
  EVE_FAILPOINT(fp::kExtendMkbAfterJournal);
  return Status::OK();
}

Status EveSystem::RetractConstraint(const std::string& id) {
  Mkb next = *mkb_tip_;
  EVE_RETURN_IF_ERROR(next.RemoveConstraint(id));
  EVE_RETURN_IF_ERROR(
      JournalAppend({JournalRecordKind::kRetractConstraint, id}));
  mkb_tip_ = std::make_shared<const Mkb>(std::move(next));
  CommitVersion("retract " + id);
  EVE_FAILPOINT(fp::kRetractConstraintAfterJournal);
  return Status::OK();
}

Status EveSystem::RegisterView(const ViewDefinition& view) {
  if (view.name().empty()) {
    return Status::InvalidArgument("view needs a non-empty name");
  }
  std::vector<RegisteredView> batch(1);
  EVE_ASSIGN_OR_RETURN(batch[0].definition,
                       BindView(view.ToParsedView(), mkb().catalog()));
  return RegisterViews(std::move(batch));
}

Status EveSystem::RegisterViewText(std::string_view text) {
  EVE_ASSIGN_OR_RETURN(const ParsedView parsed, ParseView(text));
  std::vector<RegisteredView> batch(1);
  EVE_ASSIGN_OR_RETURN(batch[0].definition, BindView(parsed, mkb().catalog()));
  return RegisterViews(std::move(batch));
}

Status EveSystem::RegisterViews(std::vector<RegisteredView> batch) {
  if (batch.empty()) return Status::OK();
  std::set<std::string_view> batch_names;
  for (RegisteredView& view : batch) {
    const std::string& name = view.definition.name();
    if (name.empty()) {
      return Status::InvalidArgument("view needs a non-empty name");
    }
    if (views_.count(name) > 0 || !batch_names.insert(name).second) {
      return Status::AlreadyExists("view already registered: " + name);
    }
    // The registration stamps every view below; the record carries none.
    view.synced_at_version = 0;
  }
  // One record for the whole batch, in the SaveViews block format, so
  // replay reads it with ParseViewPool like every other pool text.
  // Rendered only when a journal will take it.
  if (journal_ != nullptr) {
    std::string body;
    for (const RegisteredView& view : batch) AppendViewBlock(view, &body);
    EVE_RETURN_IF_ERROR(JournalAppend(
        {JournalRecordKind::kRegisterViewsBulk, std::move(body)}));
  }
  // The registration commits the version every view is validated against;
  // replay re-stamps the same id because version commits replay
  // deterministically.
  const uint64_t stamp = versions_.NextId();
  const std::string change_desc =
      batch.size() == 1
          ? "register view " + batch.front().definition.name()
          : "register " + std::to_string(batch.size()) + " views (bulk)";
  for (RegisteredView& view : batch) {
    view.synced_at_version = stamp;
    std::string name = view.definition.name();
    AddView(name, std::move(view));
  }
  CommitVersion(change_desc);
  EVE_FAILPOINT(fp::kRegisterViewAfterJournal);
  return Status::OK();
}

void EveSystem::RestoreViews(std::vector<RegisteredView> pool) {
  views_.clear();
  for (RegisteredView& view : pool) {
    std::string name = view.definition.name();
    views_.emplace(std::move(name), std::move(view));
  }
  RebuildViewIndex();
  InvalidateActiveViews();
  dirty_ = DirtyViews{{}, true};
}

Result<const RegisteredView*> EveSystem::GetView(
    const std::string& name) const {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("view not registered: " + name);
  }
  return &it->second;
}

Status EveSystem::SetViewState(const std::string& name, ViewState state) {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("view not registered: " + name);
  }
  // Re-enabling re-validates against the current MKB, as registration
  // does: a view disabled across a change to a capability it reads stays
  // disabled rather than coming back with a dead reference.
  std::optional<ViewDefinition> rebound;
  if (state == ViewState::kActive) {
    EVE_ASSIGN_OR_RETURN(
        rebound, BindView(it->second.definition.ToParsedView(),
                          mkb().catalog()));
  }
  EVE_RETURN_IF_ERROR(
      JournalAppend({JournalRecordKind::kSetViewState,
                     std::string(state == ViewState::kActive ? "active"
                                                             : "disabled") +
                         "\n" + name}));
  RegisteredView& view = MutableView(name);
  view.state = state;
  if (rebound.has_value()) {
    UnindexView(name, view.definition);
    view.definition = std::move(*rebound);
    IndexView(name, view.definition);
  }
  InvalidateActiveViews();
  CommitVersion("set view state " + name);
  return Status::OK();
}

std::vector<std::string> EveSystem::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [name, view] : views_) names.push_back(name);
  return names;
}

size_t EveSystem::NumActiveViews() const {
  size_t count = 0;
  for (const auto& [name, view] : views_) {
    if (view.state == ViewState::kActive) ++count;
  }
  return count;
}

void EveSystem::IndexView(const std::string& name,
                          const ViewDefinition& definition) {
  for (const std::string& relation : definition.ReferencedRelations()) {
    views_by_relation_[relation].insert(name);
  }
  for (const AttributeRef& ref : definition.ReferencedAttributes()) {
    views_by_attribute_[AttrKey(ref.relation, ref.attribute)].insert(name);
  }
}

void EveSystem::UnindexView(const std::string& name,
                            const ViewDefinition& definition) {
  for (const std::string& relation : definition.ReferencedRelations()) {
    const auto it = views_by_relation_.find(relation);
    if (it == views_by_relation_.end()) continue;
    it->second.erase(name);
    if (it->second.empty()) views_by_relation_.erase(it);
  }
  for (const AttributeRef& ref : definition.ReferencedAttributes()) {
    const auto it =
        views_by_attribute_.find(AttrKey(ref.relation, ref.attribute));
    if (it == views_by_attribute_.end()) continue;
    it->second.erase(name);
    if (it->second.empty()) views_by_attribute_.erase(it);
  }
}

void EveSystem::RebuildViewIndex() {
  views_by_relation_.clear();
  views_by_attribute_.clear();
  for (const auto& [name, view] : views_) IndexView(name, view.definition);
}

std::vector<std::string> EveSystem::AffectedViews(
    const CapabilityChange& change) const {
  std::vector<std::string> affected;
  const std::set<std::string>* candidates = nullptr;
  switch (change.kind) {
    case CapabilityChange::Kind::kDeleteRelation:
    case CapabilityChange::Kind::kRenameRelation: {
      const auto it = views_by_relation_.find(change.relation);
      if (it != views_by_relation_.end()) candidates = &it->second;
      break;
    }
    case CapabilityChange::Kind::kDeleteAttribute:
    case CapabilityChange::Kind::kRenameAttribute: {
      const auto it = views_by_attribute_.find(
          AttrKey(change.relation, change.attribute));
      if (it != views_by_attribute_.end()) candidates = &it->second;
      break;
    }
    case CapabilityChange::Kind::kAddRelation:
    case CapabilityChange::Kind::kAddAttribute:
      break;  // purely additive changes affect no view
  }
  if (candidates == nullptr) return affected;
  affected.reserve(candidates->size());
  for (const std::string& name : *candidates) {  // std::set: name-sorted
    const auto it = views_.find(name);
    if (it != views_.end() && it->second.state == ViewState::kActive) {
      affected.push_back(name);
    }
  }
  return affected;
}

void EveSystem::SetSyncParallelism(size_t threads) {
  sync_pool_ = std::make_shared<SyncPool>(threads);
}

ThreadPool* EveSystem::SyncPool::Get() {
  if (threads <= 1) return nullptr;
  // The calling thread participates in ParallelFor, so the pool carries
  // one worker fewer than the parallelism.
  std::call_once(started_,
                 [this] { pool_ = std::make_unique<ThreadPool>(threads - 1); });
  return pool_.get();
}

Result<EveSystem::PreparedChange> EveSystem::PrepareChange(
    const CapabilityChange& change) const {
  EVE_FAILPOINT(fp::kApplyChangeBeforeJournal);
  PreparedChange prepared;
  prepared.change = change;
  ChangeReport& report = prepared.report;
  report.change = change;

  // Pin the tip: the whole prepare reads this one immutable version, so a
  // concurrent reader (or the dry-run caller) can never observe a torn MKB.
  const PinnedMkb base = versions_.Tip();
  prepared.base_version = base.id();

  // Step 1: evolve the MKB.
  EVE_ASSIGN_OR_RETURN(MkbEvolutionReport evolution,
                       EvolveMkb(*base.mkb, change));
  report.dropped_constraints = std::move(evolution.dropped_constraints);
  report.weakened_constraints = std::move(evolution.weakened_constraints);
  prepared.changed_segments = evolution.changed_segments;
  EVE_FAILPOINT(fp::kApplyChangeAfterMkbEvolve);

  // Step 2: detect affected views. The report lists the unaffected ones
  // through the shared active-view list, not one outcome per view.
  prepared.affected = AffectedViews(change);
  const std::vector<std::string>& affected = prepared.affected;
  report.active_views = ActiveViewList();

  // Step 3: synchronize each affected view. The results stay in the
  // PreparedChange, so discarding it (the dry-run/abort path) leaves this
  // system untouched and a prepare costs O(affected), not O(pool); the
  // rewritings, the evolved MKB and the log entry commit together in
  // CommitPrepared, which writes them into the pool in place.
  //
  // The per-view work is independent across views: each view's CVS run
  // reads the shared SyncContext (MKB, MKB', the lazily built join graph
  // of MKB' and its shared join-tree searches), and the view's half of
  // its outcome (detail line, renamed rewriting, degraded sources) reads
  // only that run, so a delete's views fan out across the sync pool into
  // private slots. Everything order-dependent — merging the stats, the
  // outcome appends, journaling, the commit — happens on this thread in
  // view-name order, making the result byte-identical at any parallelism.
  prepared.next_mkb = std::make_shared<const Mkb>(std::move(evolution.mkb));
  // `base` and `prepared` hold both MKBs for as long as the context lives.
  const SyncContext context(*base.mkb, *prepared.next_mkb);

  // Deadline tokens: one per affected view, carrying the logical work
  // budget and the change's wall deadline. Each view's token is spent
  // entirely by the thread running that view, so budget stops land on the
  // same enumeration step at any parallelism. Tokens are created here, on
  // the calling thread, in slot (name) order.
  std::vector<DeadlineToken> tokens(affected.size());
  if (sync_work_budget_ != 0 || sync_deadline_micros_ != 0) {
    const Clock* clock = sync_clock_ != nullptr ? sync_clock_ : SteadyClock();
    const uint64_t absolute_deadline =
        sync_deadline_micros_ != 0 ? clock->NowMicros() + sync_deadline_micros_
                                   : 0;
    for (DeadlineToken& token : tokens) {
      token = DeadlineToken::Root({sync_work_budget_, absolute_deadline},
                                  clock);
    }
  }

  // Only deletes run CVS enumeration; a rename's per-view rewrite is
  // cheaper than waking a worker, and one view needs no pool at all.
  const bool fan_out =
      (change.kind == CapabilityChange::Kind::kDeleteRelation ||
       change.kind == CapabilityChange::Kind::kDeleteAttribute) &&
      affected.size() >= 2;
  ThreadPool* const pool = fan_out ? sync_pool_->Get() : nullptr;
  // One affected view's synchronization, finished on the thread that ran
  // it: everything of its outcome that reads no other view.
  struct ViewSync {
    Status status;  // the CVS run's error, or an injected one
    EnumerationStats enumeration;
    bool preserved = false;
    std::string detail;                 // the outcome line's detail
    std::vector<std::string> degraded;  // degraded sources it leans on
  };
  const Catalog& next_catalog = prepared.next_mkb->catalog();
  std::vector<ViewSync> slots(affected.size());
  prepared.rewritings.resize(affected.size());
  // Whether a rewriting can lean on a degraded source at all.
  const bool any_degraded =
      std::any_of(membership_.begin(), membership_.end(),
                  [](const auto& row) { return row.second.Degraded(); });
  std::vector<std::exception_ptr> crashes(affected.size());
  ParallelFor(pool, affected.size(), [&](size_t i) {
    try {
      // Failpoint at the top of every per-view task: an injected error
      // fails just this view's synchronization; an injected crash is
      // parked here and rethrown on the calling thread (lowest slot first)
      // once the fan-out has drained — tasks must never let exceptions
      // escape into the pool.
      ViewSync& slot = slots[i];
      slot.status = Failpoints::Instance().Hit(fp::kSyncViewStart);
      if (!slot.status.ok()) return;
      // Only the front rewriting is committed, and the top-1 bound stops
      // the search once it is proven to be the exhaustive run's front.
      CvsOptions view_options = options_;
      view_options.top_k = 1;
      view_options.replacement.token = tokens[i];
      const ViewDefinition& original = views_.at(affected[i]).definition;
      Result<CvsResult> synced =
          Synchronize(original, change, context, view_options);
      slot.status = synced.status();
      if (!slot.status.ok()) return;
      CvsResult result = synced.MoveValue();
      slot.enumeration = result.enumeration;
      slot.preserved = result.ViewPreserved();
      if (slot.preserved) {
        SynchronizedView& best = result.rewritings.front();
        slot.detail = RewrittenDetail(original, best);
        ViewDefinition& rewriting = prepared.rewritings[i];
        rewriting = std::move(best.view);
        rewriting.set_name(affected[i]);  // keep the registered name
        // Degraded-mode bookkeeping: when the chosen rewriting leans on a
        // SUSPECT/QUARANTINED source, its constraints came from that
        // source's last-known snapshot, so the rewriting is provisional
        // until the source heals (SetSourceMembership clears the marks)
        // or departs.
        if (any_degraded) {
          slot.degraded = DegradedSourcesOf(rewriting, next_catalog);
        }
      } else {
        for (const std::string& diagnostic : result.diagnostics) {
          if (!slot.detail.empty()) slot.detail += "; ";
          slot.detail += diagnostic;
        }
      }
    } catch (...) {
      crashes[i] = std::current_exception();
    }
  });
  for (std::exception_ptr& crash : crashes) {
    if (crash != nullptr) std::rethrow_exception(crash);
  }

  EnumerationStats sync_stats;
  sync_stats.exhausted = true;  // MergeFrom ANDs; vacuously true for none
  SyncDiagnostics diagnostics;
  for (size_t slot = 0; slot < affected.size(); ++slot) {
    const std::string& name = affected[slot];
    ViewSync& synced = slots[slot];
    EVE_RETURN_IF_ERROR(synced.status);
    sync_stats.MergeFrom(synced.enumeration);
    // `affected` is name-sorted, so both lists come out deterministic.
    if (synced.enumeration.deadline.partial) {
      diagnostics.deadline_views.push_back(name);
      EVE_FAILPOINT(fp::kSyncDeadlineExpired);
    } else if (CountBoundTruncated(synced.enumeration)) {
      diagnostics.truncated_views.push_back(name);
    }
    report.outcomes.push_back(ViewOutcome{
        name,
        synced.preserved ? ViewOutcomeKind::kRewritten
                         : ViewOutcomeKind::kDisabled,
        std::move(synced.detail), std::move(synced.degraded)});
  }
  last_sync_stats_ = sync_stats;
  last_sync_diagnostics_ = std::move(diagnostics);
  EVE_FAILPOINT(fp::kPrepareChangeComplete);
  return prepared;
}

Result<ChangeReport> EveSystem::CommitPrepared(PreparedChange prepared) {
  if (prepared.base_version != versions_.tip_id()) {
    return Status::FailedPrecondition(
        "MKB advanced since prepare: prepared against version " +
        std::to_string(prepared.base_version) + ", tip is " +
        std::to_string(versions_.tip_id()));
  }
  // Write-ahead: the change record and its (validation-only) version
  // marker must be durable before any of the in-memory state commits. They
  // go out with one write and one fsync; a failed append keeps neither, so
  // memory stays untouched.
  EVE_FAILPOINT(fp::kApplyChangeBeforeCommit);
  if (journal_ != nullptr) {
    const JournalRecord records[] = {
        {JournalRecordKind::kApplyChange, SerializeChange(prepared.change)},
        {JournalRecordKind::kVersionCommit,
         std::to_string(prepared.base_version + 1)}};
    EVE_RETURN_IF_ERROR(JournalAppendAll(records));
  }
  // Once the records are durable, replay WILL commit — so an injected
  // ERROR at the swap site must not stop the in-memory commit: the error is
  // deferred past the swap and models a response lost after commit. A
  // simulated CRASH may throw here: recovery replays to the post state.
  Status deferred = Failpoints::Instance().Hit(fp::kVersionBeforeSwap);
  // Write each affected view's synchronization into the pool in place. A
  // rewritten view is re-indexed under its new definition; a disabled one
  // keeps its definition and thus its index entries.
  mkb_tip_ = prepared.next_mkb;
  const std::string change_text = prepared.change.ToString();
  for (size_t i = 0; i < prepared.affected.size(); ++i) {
    const std::string& name = prepared.affected[i];
    const ViewOutcome& outcome = prepared.report.outcomes[i];
    RegisteredView& view = MutableView(name);
    if (outcome.kind == ViewOutcomeKind::kRewritten) {
      UnindexView(name, view.definition);
      view.definition = std::move(prepared.rewritings[i]);
      IndexView(name, view.definition);
      view.history.push_back("rewritten under " + change_text);
      view.provisional_sources =
          std::set<std::string>(outcome.provisional_sources.begin(),
                                outcome.provisional_sources.end());
    } else {
      InvalidateActiveViews();
      view.state = ViewState::kDisabled;
      view.provisional_sources.clear();
      view.history.push_back("disabled under " + change_text);
    }
    // Rewritten or disabled, the view was synchronized against the base
    // version and carries the version this change commits.
    view.synced_at_version = prepared.base_version + 1;
  }
  change_log_.push_back(prepared.report);
  CommitVersion(change_text, prepared.changed_segments);
  const Status after = Failpoints::Instance().Hit(fp::kVersionAfterSwap);
  if (deferred.ok()) deferred = after;
  // Past this point the change is committed both durably and in memory; an
  // injected error here models a response lost after commit.
  EVE_FAILPOINT(fp::kApplyChangeAfterJournal);
  if (!deferred.ok()) return deferred;
  return std::move(prepared.report);
}

Result<ChangeReport> EveSystem::ApplyChange(const CapabilityChange& change) {
  EVE_ASSIGN_OR_RETURN(PreparedChange prepared, PrepareChange(change));
  return CommitPrepared(std::move(prepared));
}

Result<DryRunReport> EveSystem::DryRunChange(
    const CapabilityChange& change) const {
  // The prepare phase IS the dry run: full CVS into private state, then
  // the result is discarded instead of committed. No scratch copy, no
  // journal writes, no version churn.
  EVE_ASSIGN_OR_RETURN(PreparedChange prepared, PrepareChange(change));
  DryRunReport dry;
  dry.base_version = prepared.base_version;
  dry.report = std::move(prepared.report);
  dry.diagnostics = last_sync_diagnostics_;
  return dry;
}

Result<DryRunReport> EveSystem::DryRunChangeAt(const CapabilityChange& change,
                                               uint64_t version) const {
  if (version == versions_.tip_id()) return DryRunChange(change);
  // A what-if against an older version: rehearse the real flow (rollback,
  // then apply) on a scratch copy. The scratch shares the immutable version
  // segments, detaches the journal, and is discarded wholesale.
  EveSystem scratch(*this);
  scratch.journal_ = nullptr;
  EVE_RETURN_IF_ERROR(scratch.RollbackToVersion(version).status());
  EVE_ASSIGN_OR_RETURN(PreparedChange prepared, scratch.PrepareChange(change));
  last_sync_stats_ = scratch.last_sync_stats_;
  last_sync_diagnostics_ = scratch.last_sync_diagnostics_;
  DryRunReport dry;
  // The scratch rollback minted a fresh version id; report the version the
  // caller asked about, since that is whose content the run was based on.
  dry.base_version = version;
  dry.report = std::move(prepared.report);
  dry.diagnostics = last_sync_diagnostics_;
  return dry;
}

Result<uint64_t> EveSystem::RollbackToVersion(uint64_t version) {
  if (!versions_.HasVersion(version)) {
    return Status::NotFound("no retained version " + std::to_string(version) +
                            " (tip is " + std::to_string(versions_.tip_id()) +
                            ")");
  }
  EVE_FAILPOINT(fp::kRollbackBeforeJournal);
  // Stage everything fallible BEFORE the journal append: parse the
  // version's pool, bound against its pinned MKB, so a reparse failure (or
  // an injected fault inside the reader) aborts with zero side effects and
  // nothing durable. Past the append, the commit is pure pointer/map swaps
  // that cannot fail — memory can never fall behind a durable kRollback
  // record.
  EVE_ASSIGN_OR_RETURN(const PinnedMkb pinned, versions_.Pin(version));
  EVE_ASSIGN_OR_RETURN(const std::string views_text,
                       versions_.ViewsAt(version));
  EVE_ASSIGN_OR_RETURN(std::vector<RegisteredView> pool,
                       ParseViewPool(views_text, pinned.mkb->catalog()));
  // Surviving views keep their history: SaveViews does not persist it, so
  // the restored pool alone would come back blank. The live map is the
  // deterministic source — replay rebuilds the same histories.
  for (RegisteredView& view : pool) {
    const auto it = views_.find(view.definition.name());
    if (it != views_.end()) view.history = it->second.history;
    view.history.push_back("rolled back to version " +
                           std::to_string(version));
  }
  EVE_RETURN_IF_ERROR(JournalAppend(
      {JournalRecordKind::kRollback, std::to_string(version)}));
  // Journaled but not yet applied: an injected ERROR must still apply
  // (replay would), so it is deferred past the restore; a CRASH throws and
  // recovery replays the rollback.
  Status deferred = Failpoints::Instance().Hit(fp::kRollbackAfterJournal);
  mkb_tip_ = pinned.mkb;
  RestoreViews(std::move(pool));
  const uint64_t new_version =
      CommitVersion("rollback to version " + std::to_string(version));
  const Status after = Failpoints::Instance().Hit(fp::kRollbackAfterRestore);
  if (deferred.ok()) deferred = after;
  if (!deferred.ok()) return deferred;
  return new_version;
}

VersionScrubStats EveSystem::ScrubVersions() const {
  VersionScrubStats stats = versions_.Scrub();
  // Every view's synced-at stamp must name a retained version.
  for (const auto& [name, view] : views_) {
    if (view.synced_at_version >= versions_.NextId()) {
      ++stats.corruptions;
      stats.findings.push_back(
          "view " + name + ": synced_at_version " +
          std::to_string(view.synced_at_version) +
          " names a version that was never committed (next id " +
          std::to_string(versions_.NextId()) + ")");
    }
  }
  // The live MKB must re-render byte-identically to the tip version's MISD
  // segments — catches a tip pointer / version chain split-brain.
  const std::array<std::string, kNumMkbSegments> live =
      RenderMkbSegments(*mkb_tip_);
  const PinnedMkb tip = versions_.Tip();
  if (tip.version != nullptr) {
    for (size_t i = 0; i < live.size(); ++i) {
      const auto& segment = tip.version->misd[i];
      if (segment != nullptr && segment->Text() != live[i]) {
        ++stats.corruptions;
        stats.findings.push_back("live MKB diverges from tip version " +
                                 std::to_string(tip.id()) + " segment " +
                                 segment->name);
      }
    }
  }
  return stats;
}

Status EveSystem::RestoreVersionStore(MkbVersionStore store) {
  // The checkpoint's MKB section and its VERSIONS tip must agree; view
  // text may legitimately diverge (heal-time provisional un-marking does
  // not commit versions), so only the MKB is cross-checked.
  const PinnedMkb tip = store.Tip();
  if (tip.mkb == nullptr || SaveMkb(*tip.mkb) != SaveMkb(*mkb_tip_)) {
    return Status::ParseError(
        "checkpoint VERSIONS tip does not re-render to the MKB section");
  }
  versions_ = store;
  mkb_tip_ = versions_.Tip().mkb;
  dirty_ = DirtyViews{{}, true};
  return Status::OK();
}

Status EveSystem::EnqueueChange(const CapabilityChange& change) {
  // Producers from any thread share admission_mu_ with the drain's
  // bookkeeping, so every counter transition is atomic with its queue
  // transition and the shedding invariant holds at every instant.
  std::lock_guard<std::mutex> lock(*admission_mu_);
  ++admission_stats_.submitted;
  // Failpoint before the capacity check: an injected error models an
  // admission layer rejecting under external pressure — the change is shed
  // (counted, explicit error), never half-admitted.
  const Status injected = Failpoints::Instance().Hit(fp::kAdmissionEnqueue);
  if (!injected.ok()) {
    ++admission_stats_.shed;
    return injected;
  }
  if (sync_queue_limit_ != 0 && sync_queue_.size() >= sync_queue_limit_) {
    ++admission_stats_.shed;
    return Status::ResourceExhausted(
        "sync queue full (limit " + std::to_string(sync_queue_limit_) +
        "): change shed — drain the queue or raise the limit");
  }
  sync_queue_.push_back(change);
  admission_stats_.queued_now = sync_queue_.size();
  return Status::OK();
}

Result<std::vector<ChangeReport>> EveSystem::DrainSyncQueue() {
  // One drainer at a time; enqueues stay concurrent. The change being
  // applied is popped only when its outcome is recorded, so a sampled
  // admission_stats() never sees it half-accounted.
  std::lock_guard<std::mutex> drain_lock(*drain_mu_);
  std::vector<ChangeReport> reports;
  while (true) {
    CapabilityChange change;
    {
      std::lock_guard<std::mutex> lock(*admission_mu_);
      if (sync_queue_.empty()) break;
      // Failpoint before each application: an injected error stops the
      // drain with the change (and the rest of the queue) still admitted
      // for a retry.
      const Status injected = Failpoints::Instance().Hit(fp::kAdmissionDrain);
      if (!injected.ok()) {
        admission_stats_.queued_now = sync_queue_.size();
        return injected;
      }
      change = sync_queue_.front();
    }
    // Each drained change runs under its own fresh deadline (ApplyChange
    // builds the token tree from the current knobs). Runs outside
    // admission_mu_ so producers are never blocked by a long sync.
    Result<ChangeReport> report = ApplyChange(change);
    {
      std::lock_guard<std::mutex> lock(*admission_mu_);
      sync_queue_.pop_front();
      ++admission_stats_.completed;
      if (!report.ok()) {
        // The change was consumed (completed, failed); the remainder stays
        // queued for a later drain.
        ++admission_stats_.failed;
      }
      admission_stats_.queued_now = sync_queue_.size();
    }
    if (!report.ok()) return report.status();
    reports.push_back(report.MoveValue());
  }
  return reports;
}

void EveSystem::UndoBatch(BatchUndo& undo) {
  for (auto& [name, saved] : undo.views) {
    RegisteredView& view = views_.at(name);
    UnindexView(name, view.definition);
    IndexView(name, saved.definition);
    view = std::move(saved);
  }
  change_log_.erase(change_log_.begin() + undo.log_size, change_log_.end());
  versions_.RevertTo(undo.tip);
  mkb_tip_ = undo.tip.mkb;
  dirty_ = std::move(undo.dirty);
  membership_ = std::move(undo.membership);
  InvalidateActiveViews();
}

Result<std::vector<ChangeReport>> EveSystem::DepartSource(
    const std::string& source) {
  std::vector<CapabilityChange> changes;
  for (const std::string& relation :
       mkb().catalog().RelationsOfSource(source)) {
    changes.push_back(CapabilityChange::DeleteRelation(relation));
  }
  // The batch journals nothing until it commits: its records collect in
  // `undo.records` and go out in one append, bracketed by kBeginBatch and
  // kCommitBatch. A failure before or in that append leaves nothing of the
  // batch on disk, and memory undoes what the batch wrote; a crash inside
  // the append leaves a batch without its commit marker, which replay
  // discards.
  BatchUndo undo{versions_.Tip(), change_log_.size(), dirty_, membership_,
                 {}, {{JournalRecordKind::kBeginBatch, ""}}};
  batch_ = &undo;
  // Closes the batch on every exit, a simulated crash unwinding out of it
  // included.
  struct Close {
    BatchUndo** batch;
    ~Close() { *batch = nullptr; }
  } close{&batch_};
  std::vector<ChangeReport> reports;
  reports.reserve(changes.size());
  const Status status = [&]() -> Status {
    for (const CapabilityChange& change : changes) {
      const Status between =
          reports.empty()
              ? Status::OK()
              : Failpoints::Instance().Hit(fp::kSourceLeavesBetweenChanges);
      Result<ChangeReport> report =
          between.ok() ? ApplyChange(change) : Result<ChangeReport>(between);
      if (!report.ok()) {
        return Status(report.status().code(),
                      "source-leave cascade aborted at '" + change.relation +
                          "': " + report.status().message());
      }
      reports.push_back(report.MoveValue());
    }
    if (membership_.count(source) > 0) {
      // The monitor must not keep probing a departed source; the row rides
      // in the batch so it vanishes with an undone cascade.
      federation::SourceMembership departed = membership_.at(source);
      departed.state = federation::SourceState::kDeparted;
      EVE_RETURN_IF_ERROR(SetSourceMembership(source, departed));
    }
    EVE_FAILPOINT(fp::kSourceLeavesBeforeCommit);
    if (journal_ == nullptr) return Status::OK();
    undo.records.push_back({JournalRecordKind::kCommitBatch, ""});
    return journal_->AppendAll(undo.records);
  }();
  if (status.ok()) return reports;
  UndoBatch(undo);
  return status;
}

Status EveSystem::SetSourceMembership(
    const std::string& source,
    const federation::SourceMembership& membership) {
  if (source.empty()) {
    return Status::InvalidArgument("source needs a non-empty name");
  }
  EVE_RETURN_IF_ERROR(
      JournalAppend({JournalRecordKind::kSourceMembership,
                     federation::SerializeMembership(source, membership)}));
  membership_[source] = membership;
  if (membership.state == federation::SourceState::kHealthy) {
    // The source healed: every rewriting that provisionally leaned on its
    // last-known constraints is now confirmed. Clearing the marks from the
    // live views AND the logged outcomes makes the state converge to what
    // a fault-free run would have produced; replaying the same journal
    // repeats the same un-marking at the same position, so recovery agrees.
    for (const auto& [name, view] : views_) {
      if (view.provisional_sources.count(source) > 0) {
        MutableView(name).provisional_sources.erase(source);
      }
    }
    for (ChangeReport& report : change_log_) {
      for (ViewOutcome& outcome : report.outcomes) {
        auto& provisional = outcome.provisional_sources;
        provisional.erase(
            std::remove(provisional.begin(), provisional.end(), source),
            provisional.end());
      }
    }
  }
  EVE_FAILPOINT(fp::kSetMembershipAfterJournal);
  return Status::OK();
}

std::vector<std::string> EveSystem::DegradedSourcesOf(
    const ViewDefinition& definition, const Catalog& catalog) const {
  std::set<std::string> degraded;
  for (const std::string& relation : definition.ReferencedRelations()) {
    const Result<const RelationDef*> def = catalog.GetRelation(relation);
    if (!def.ok()) continue;
    const auto it = membership_.find((*def)->source);
    if (it != membership_.end() && it->second.Degraded()) {
      degraded.insert((*def)->source);
    }
  }
  return std::vector<std::string>(degraded.begin(), degraded.end());
}

Status EveSystem::ReplayRecord(const JournalRecord& record) {
  switch (record.kind) {
    case JournalRecordKind::kExtendMkb:
      return ExtendMkb(record.body);
    case JournalRecordKind::kRetractConstraint:
      return RetractConstraint(record.body);
    case JournalRecordKind::kRegisterView: {
      // One view, "<state>[@<stamp>]\n<E-SQL text>": what registrations
      // journaled before kRegisterViewsBulk carried them all. Read as a
      // one-block pool; the stamp named a version of another chain, so
      // the view takes its registration's.
      std::string head, text;
      EVE_RETURN_IF_ERROR(SplitRecordBody(record.body, &head, &text));
      const size_t at = head.find('@');
      uint64_t stamp = 0;
      if (at != std::string::npos &&
          !ParseDecimal(std::string_view(head).substr(at + 1), &stamp)) {
        return Status::ParseError("malformed synced-at suffix: " + head);
      }
      EVE_ASSIGN_OR_RETURN(
          std::vector<RegisteredView> batch,
          ParseViewPool("-- VIEW " + head.substr(0, at) + "\n" + text + ";\n",
                        mkb().catalog()));
      return RegisterViews(std::move(batch));
    }
    case JournalRecordKind::kRegisterViewsBulk: {
      EVE_ASSIGN_OR_RETURN(std::vector<RegisteredView> batch,
                           ParseViewPool(record.body, mkb().catalog()));
      return RegisterViews(std::move(batch));
    }
    case JournalRecordKind::kSetViewState: {
      std::string state_word, name;
      EVE_RETURN_IF_ERROR(SplitRecordBody(record.body, &state_word, &name));
      return SetViewState(name, state_word == "active"
                                    ? ViewState::kActive
                                    : ViewState::kDisabled);
    }
    case JournalRecordKind::kApplyChange: {
      EVE_ASSIGN_OR_RETURN(const CapabilityChange change,
                           ParseChange(record.body));
      const Result<ChangeReport> report = ApplyChange(change);
      return report.status();
    }
    case JournalRecordKind::kSourceMembership: {
      EVE_ASSIGN_OR_RETURN(const federation::NamedMembership named,
                           federation::ParseMembership(record.body));
      return SetSourceMembership(named.source, named.membership);
    }
    case JournalRecordKind::kVersionCommit: {
      // Validation marker: the replayed chain must have reached exactly the
      // version the original commit created, else checkpoint and journal
      // come from diverged histories.
      uint64_t expected = 0;
      if (!ParseDecimal(record.body, &expected)) {
        return Status::ParseError("malformed version-commit record: " +
                                  record.body);
      }
      if (versions_.tip_id() != expected) {
        return Status::Internal(
            "version divergence on replay: journal committed version " +
            std::to_string(expected) + ", replay reached " +
            std::to_string(versions_.tip_id()));
      }
      return Status::OK();
    }
    case JournalRecordKind::kRollback: {
      uint64_t target = 0;
      if (!ParseDecimal(record.body, &target)) {
        return Status::ParseError("malformed rollback record: " + record.body);
      }
      return RollbackToVersion(target).status();
    }
    case JournalRecordKind::kBeginBatch:
    case JournalRecordKind::kCommitBatch:
    case JournalRecordKind::kAbortBatch:
      return Status::Internal("batch marker reached record replay");
  }
  return Status::Internal("unknown journal record kind");
}

Result<EveSystem> EveSystem::Recover(
    std::string_view checkpoint_text,
    const std::vector<JournalRecord>& records, RecoveryReport* report) {
  RecoveryReport local;
  RecoveryReport& out = report != nullptr ? *report : local;
  EVE_ASSIGN_OR_RETURN(EveSystem system, LoadCheckpoint(checkpoint_text));

  // The batch-buffering tolerant replay loop lives in JournalReplayer so
  // replication replicas can run the SAME semantics one record at a time
  // against a live system (see eve/journal.h).
  JournalReplayer replayer;
  for (const JournalRecord& record : records) {
    replayer.Apply(&system, record, &out);
  }
  replayer.Finish(&out);
  return system;
}

}  // namespace eve
