#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>

#include "esql/view_definition.h"
#include "mkb/serializer.h"

namespace evebench {
namespace {

std::string Rel(size_t i) { return "R" + std::to_string(i); }
std::string Payload(size_t i) { return "P" + std::to_string(i); }

std::vector<size_t> Range(size_t first, size_t last) {
  std::vector<size_t> out;
  for (size_t i = first; i <= last; ++i) out.push_back(i);
  return out;
}

std::vector<WorkloadSpec> AllWorkloads() {
  // commit_churn: renames of cold relations on a large pool. Each commit
  // renders the whole pool, commits a version and lists every unaffected
  // view in its report; CVS work is a few in-place renames.
  WorkloadSpec churn;
  churn.name = "commit_churn";
  churn.kind = WorkloadKind::kCommitChurn;
  churn.mkb.length = 32;
  churn.mkb.cover_distance = 1;
  churn.num_views = 1000;
  churn.max_span = 2;
  churn.change_relations = Range(16, 31);
  churn.steps_per_second = 16.0;
  churn.deployments = 16;

  // whatif_departure: what-if deletes of hot relations whose covers sit
  // four joins away, so candidate enumeration and legality inference do
  // nearly all the work and nothing is journaled or committed.
  WorkloadSpec whatif;
  whatif.name = "whatif_departure";
  whatif.kind = WorkloadKind::kWhatifDeparture;
  whatif.mkb.length = 32;
  whatif.mkb.cover_distance = 4;
  whatif.mkb.pc_constraints = true;
  whatif.num_views = 500;
  whatif.max_span = 3;
  whatif.stratified_pool = true;
  whatif.change_relations = Range(1, 5);
  whatif.steps_per_second = 10.0;
  whatif.deployments = 5;

  // replicated_commit: the commit_churn stream against a semi-sync
  // primary with two replicas.
  WorkloadSpec repl = churn;
  repl.name = "replicated_commit";
  repl.kind = WorkloadKind::kReplicatedCommit;
  repl.steps_per_second = 24.0;
  return {churn, whatif, repl};
}

// The pool with exactly the zipf share of views per anchor position and an
// even split of spans per anchor; the seed only decides which name goes
// with which shape.
eve::Result<std::vector<eve::ViewDefinition>> MakeStratifiedPool(
    const eve::Mkb& mkb, const WorkloadSpec& spec, uint64_t seed) {
  const size_t chain = spec.mkb.length;
  std::vector<double> share(chain);
  double mass = 0.0;
  for (size_t r = 0; r < chain; ++r) {
    share[r] = 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_s);
    mass += share[r];
  }
  // Largest-remainder apportionment of num_views over the anchors.
  std::vector<size_t> count(chain);
  std::vector<std::pair<double, size_t>> remainders;
  size_t assigned = 0;
  for (size_t r = 0; r < chain; ++r) {
    const double exact =
        share[r] / mass * static_cast<double>(spec.num_views);
    count[r] = static_cast<size_t>(std::floor(exact));
    assigned += count[r];
    remainders.push_back({exact - std::floor(exact), r});
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; assigned < spec.num_views; ++i, ++assigned) {
    ++count[remainders[i % chain].second];
  }

  std::vector<std::pair<size_t, size_t>> shapes;  // (start, span)
  for (size_t r = 0; r < chain; ++r) {
    for (size_t i = 0; i < count[r]; ++i) {
      const size_t span =
          std::min<size_t>(1 + i % spec.max_span, chain - std::min(r, chain - 1));
      shapes.push_back({std::min(r, chain - span), span});
    }
  }
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::shuffle(shapes.begin(), shapes.end(), rng);

  std::vector<eve::ViewDefinition> pool;
  pool.reserve(shapes.size());
  for (size_t v = 0; v < shapes.size(); ++v) {
    eve::Result<eve::ViewDefinition> chain_view =
        eve::MakeChainView(mkb, shapes[v].first, shapes[v].second);
    if (!chain_view.ok()) return chain_view.status();
    const eve::ViewDefinition& shape = chain_view.value();
    pool.push_back(eve::ViewDefinition("wv" + std::to_string(v),
                                       shape.extent(), shape.select(),
                                       shape.from(), shape.where()));
  }
  return pool;
}

// Splits SaveMkb text into single MISD statements: a statement starts on
// an unindented, non-comment line and runs until the next one.
std::vector<std::string> SplitMisd(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.rfind("--", 0) == 0) continue;
    if (line[0] != ' ' && line[0] != '\t') {
      out.push_back(line);
    } else if (!out.empty()) {
      out.back() += "\n" + line;
    }
  }
  return out;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  for (const WorkloadSpec& candidate : AllWorkloads()) {
    if (candidate.name == name) {
      *spec = candidate;
      return true;
    }
  }
  return false;
}

WorkloadSpec SmokeSpec(WorkloadSpec spec) {
  // A quarter of the pool, and the first relations of the cycle only, so
  // each still has views at this size.
  spec.num_views /= 4;
  spec.deployments = 1;
  spec.change_relations.resize(std::min<size_t>(spec.change_relations.size(), 3));
  return spec;
}

size_t StepCount(const WorkloadSpec& spec, double seconds) {
  const size_t lap = spec.change_relations.size();
  const double wanted = std::max(1.0, std::round(seconds * spec.steps_per_second));
  const size_t laps =
      static_cast<size_t>(std::ceil(wanted / static_cast<double>(lap)));
  return laps * lap;
}

eve::Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                               size_t steps) {
  eve::Result<eve::Mkb> mkb = eve::MakeChainMkb(spec.mkb);
  if (!mkb.ok()) return mkb.status();

  eve::Result<std::vector<eve::ViewDefinition>> pool =
      eve::Status::Internal("unset");
  if (spec.stratified_pool) {
    pool = MakeStratifiedPool(mkb.value(), spec, seed);
  } else {
    eve::ViewPoolSpec pool_spec;
    pool_spec.num_views = spec.num_views;
    pool_spec.zipf_s = spec.zipf_s;
    pool_spec.max_span = spec.max_span;
    pool_spec.seed = seed;
    pool = eve::MakeViewPool(mkb.value(), pool_spec);
  }
  if (!pool.ok()) return pool.status();

  Inputs inputs;
  inputs.misd_text = eve::SaveMkb(mkb.value());
  inputs.misd_statements = SplitMisd(inputs.misd_text);

  // Views by name (sorted), and which views reference each relation.
  std::vector<const eve::ViewDefinition*> by_name;
  for (const eve::ViewDefinition& view : pool.value()) by_name.push_back(&view);
  std::sort(by_name.begin(), by_name.end(),
            [](const auto* a, const auto* b) { return a->name() < b->name(); });
  std::ostringstream pool_text;
  for (const eve::ViewDefinition* view : by_name) {
    const std::string text = view->ToString();
    pool_text << "-- VIEW active\n" << text << ";\n\n";
    inputs.view_names.push_back(view->name());
    inputs.view_texts.push_back(text);
  }
  inputs.pool_text = pool_text.str();

  const auto referencing = [&](const std::string& relation) {
    std::vector<std::string> names;
    for (const eve::ViewDefinition* view : by_name) {
      for (const eve::ViewRelation& from : view->from()) {
        if (from.name == relation) {
          names.push_back(view->name());
          break;
        }
      }
    }
    return names;
  };

  std::mt19937_64 rng(seed);
  const size_t lap_size = spec.change_relations.size();
  for (size_t lap = 0; inputs.steps.size() < steps; ++lap) {
    std::vector<size_t> order = spec.change_relations;
    std::shuffle(order.begin(), order.end(), rng);
    for (size_t i = 0; i < lap_size && inputs.steps.size() < steps; ++i) {
      const size_t k = order[i];
      Step step;
      step.relation = Rel(k);
      step.affected = referencing(step.relation);
      if (step.affected.empty()) {
        return eve::Status::InvalidArgument("no view references " +
                                            step.relation);
      }
      if (spec.kind == WorkloadKind::kWhatifDeparture) {
        step.change = eve::CapabilityChange::DeleteRelation(step.relation);
        step.change_statement = "SYNC DRYRUN DELETE RELATION " + step.relation;
      } else {
        // Lap parity decides the direction: P<k> -> P<k>x, then back.
        step.old_attribute = Payload(k) + (lap % 2 == 0 ? "" : "x");
        step.new_attribute = Payload(k) + (lap % 2 == 0 ? "x" : "");
        step.change = eve::CapabilityChange::RenameAttribute(
            step.relation, step.old_attribute, step.new_attribute);
        step.change_statement = "RENAME ATTRIBUTE " + step.relation + "." +
                                step.old_attribute + " TO " +
                                step.new_attribute;
      }
      std::uniform_int_distribution<size_t> pick(0, step.affected.size() - 1);
      step.read_view = step.affected[pick(rng)];
      step.read_statement = "SHOW VIEW " + step.read_view;
      inputs.steps.push_back(std::move(step));
    }
  }
  return inputs;
}

}  // namespace evebench
