#include "algebra/executor.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

#include "storage/column.h"

namespace eve {

namespace {

// Join state: one row-id vector per bound relation, all the same length.
// Row i of the intermediate relation is the concatenation of base rows
// rowids[0][i], rowids[1][i], ... Base columns are gathered only when an
// expression actually touches them.
struct Batch {
  std::vector<std::string> rels;
  std::vector<const Table*> tables;
  std::vector<const Schema*> schemas;
  std::vector<std::vector<uint32_t>> rowids;
  // identity[r]: rowids[r] is exactly [0, tables[r]->NumRows()) — lets
  // bare-column reads borrow the base chunk instead of gathering.
  std::vector<bool> identity;
  size_t num_rows = 0;

  // (relation index, column index) of a qualified column, if bound.
  bool Resolve(const AttributeRef& ref, size_t* rel_idx,
               size_t* col_idx) const {
    for (size_t r = 0; r < rels.size(); ++r) {
      if (rels[r] != ref.relation) continue;
      auto idx = schemas[r]->IndexOf(ref.attribute);
      if (!idx) return false;
      *rel_idx = r;
      *col_idx = *idx;
      return true;
    }
    return false;
  }
};

// A column of expression results over the batch: either one cell per batch
// row, or a single broadcast constant (literal subtrees).
struct VecSlot {
  std::shared_ptr<const ColumnChunk> chunk;
  bool is_const = false;

  size_t CellIndex(size_t row) const { return is_const ? 0 : row; }
};

VecSlot GatherColumn(const Batch& batch, size_t rel_idx, size_t col_idx) {
  const std::shared_ptr<const ColumnChunk>& base =
      batch.tables[rel_idx]->column_handle(col_idx);
  if (batch.identity[rel_idx]) {
    return VecSlot{base, false};  // zero-copy borrow
  }
  return VecSlot{
      std::make_shared<ColumnChunk>(base->Gather(batch.rowids[rel_idx])),
      false};
}

// --- Expression evaluation over a batch -------------------------------------

Result<VecSlot> EvalExprVec(const Expr& expr, const Batch& batch,
                            const FunctionRegistry* registry);

// Typed comparison kernel: both sides int/double plain chunks. Produces a
// bool chunk with NULL where either input is NULL (3VL).
bool NumericKernelApplies(const ColumnChunk& c) {
  return c.plain() &&
         (c.type() == DataType::kInt || c.type() == DataType::kDouble);
}

double NumericAt(const ColumnChunk& c, size_t i) {
  return c.type() == DataType::kInt ? static_cast<double>(c.ints()[i])
                                    : c.doubles()[i];
}

bool CompareOutcome(BinaryOp op, int cmp) {
  switch (op) {
    case BinaryOp::kEq:
      return cmp == 0;
    case BinaryOp::kNe:
      return cmp != 0;
    case BinaryOp::kLt:
      return cmp < 0;
    case BinaryOp::kLe:
      return cmp <= 0;
    case BinaryOp::kGt:
      return cmp > 0;
    default:
      return cmp >= 0;  // kGe
  }
}

Result<VecSlot> EvalComparisonVec(BinaryOp op, const VecSlot& lhs,
                                  const VecSlot& rhs, size_t n) {
  const ColumnChunk& a = *lhs.chunk;
  const ColumnChunk& b = *rhs.chunk;
  auto out = std::make_shared<ColumnChunk>(DataType::kBool);
  out->Reserve(n);
  // Typed numeric fast path (covers int/double columns and literals).
  if (NumericKernelApplies(a) && NumericKernelApplies(b)) {
    for (size_t i = 0; i < n; ++i) {
      const size_t ia = lhs.CellIndex(i);
      const size_t ib = rhs.CellIndex(i);
      if (a.IsNull(ia) || b.IsNull(ib)) {
        out->AppendNull();
        continue;
      }
      const double va = NumericAt(a, ia);
      const double vb = NumericAt(b, ib);
      const int cmp = va < vb ? -1 : (va > vb ? 1 : 0);
      out->Append(Value::Bool(CompareOutcome(op, cmp)));
    }
    return VecSlot{std::move(out), false};
  }
  // Same-type string/date fast path.
  if (a.plain() && b.plain() && a.type() == b.type() &&
      (a.type() == DataType::kString || a.type() == DataType::kDate)) {
    for (size_t i = 0; i < n; ++i) {
      const size_t ia = lhs.CellIndex(i);
      const size_t ib = rhs.CellIndex(i);
      if (a.IsNull(ia) || b.IsNull(ib)) {
        out->AppendNull();
        continue;
      }
      int cmp;
      if (a.type() == DataType::kString) {
        const int c = a.strings()[ia].compare(b.strings()[ib]);
        cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
      } else {
        const int64_t da = a.dates()[ia], db = b.dates()[ib];
        cmp = da < db ? -1 : (da > db ? 1 : 0);
      }
      out->Append(Value::Bool(CompareOutcome(op, cmp)));
    }
    return VecSlot{std::move(out), false};
  }
  // Generic fallback: shared scalar kernel per row (preserves TypeError
  // and bool-equality semantics exactly).
  for (size_t i = 0; i < n; ++i) {
    EVE_ASSIGN_OR_RETURN(
        Value v, EvalBinaryValues(op, a.GetValue(lhs.CellIndex(i)),
                                  b.GetValue(rhs.CellIndex(i))));
    out->Append(v);
  }
  return VecSlot{std::move(out), false};
}

Result<VecSlot> EvalExprVec(const Expr& expr, const Batch& batch,
                            const FunctionRegistry* registry) {
  const size_t n = batch.num_rows;
  switch (expr.kind()) {
    case ExprKind::kColumn: {
      size_t rel_idx = 0, col_idx = 0;
      if (!batch.Resolve(expr.column(), &rel_idx, &col_idx)) {
        return Status::NotFound("unbound attribute: " +
                                expr.column().ToString());
      }
      return GatherColumn(batch, rel_idx, col_idx);
    }
    case ExprKind::kLiteral: {
      auto chunk = std::make_shared<ColumnChunk>(expr.literal().type());
      chunk->Append(expr.literal());
      return VecSlot{std::move(chunk), true};
    }
    case ExprKind::kUnary: {
      EVE_ASSIGN_OR_RETURN(const VecSlot operand,
                           EvalExprVec(*expr.child(0), batch, registry));
      auto out = std::make_shared<ColumnChunk>(operand.chunk->type());
      const size_t rows = operand.is_const ? 1 : n;
      out->Reserve(rows);
      for (size_t i = 0; i < rows; ++i) {
        EVE_ASSIGN_OR_RETURN(
            Value v,
            EvalUnaryValue(expr.unary_op(), operand.chunk->GetValue(i)));
        out->Append(v);
      }
      return VecSlot{std::move(out), operand.is_const};
    }
    case ExprKind::kBinary: {
      EVE_ASSIGN_OR_RETURN(const VecSlot lhs,
                           EvalExprVec(*expr.child(0), batch, registry));
      EVE_ASSIGN_OR_RETURN(const VecSlot rhs,
                           EvalExprVec(*expr.child(1), batch, registry));
      const BinaryOp op = expr.binary_op();
      if (lhs.is_const && rhs.is_const) {
        EVE_ASSIGN_OR_RETURN(
            Value v, EvalBinaryValues(op, lhs.chunk->GetValue(0),
                                      rhs.chunk->GetValue(0)));
        auto chunk = std::make_shared<ColumnChunk>(v.type());
        chunk->Append(v);
        return VecSlot{std::move(chunk), true};
      }
      if (IsComparisonOp(op)) return EvalComparisonVec(op, lhs, rhs, n);
      // Arithmetic / logic: shared scalar kernel per row.
      auto out = std::make_shared<ColumnChunk>(DataType::kNull);
      out->Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        EVE_ASSIGN_OR_RETURN(
            Value v,
            EvalBinaryValues(op, lhs.chunk->GetValue(lhs.CellIndex(i)),
                             rhs.chunk->GetValue(rhs.CellIndex(i))));
        out->Append(v);
      }
      return VecSlot{std::move(out), false};
    }
    case ExprKind::kFunctionCall: {
      if (registry == nullptr) {
        return Status::FailedPrecondition(
            "function call without a registry: " + expr.function_name());
      }
      std::vector<VecSlot> args;
      args.reserve(expr.children().size());
      bool all_const = true;
      for (const ExprPtr& child : expr.children()) {
        EVE_ASSIGN_OR_RETURN(VecSlot slot,
                             EvalExprVec(*child, batch, registry));
        all_const = all_const && slot.is_const;
        args.push_back(std::move(slot));
      }
      const size_t rows = all_const ? 1 : n;
      auto out = std::make_shared<ColumnChunk>(DataType::kNull);
      out->Reserve(rows);
      std::vector<Value> arg_values(args.size());
      for (size_t i = 0; i < rows; ++i) {
        for (size_t k = 0; k < args.size(); ++k) {
          arg_values[k] = args[k].chunk->GetValue(args[k].CellIndex(i));
        }
        EVE_ASSIGN_OR_RETURN(
            Value v, registry->Call(expr.function_name(), arg_values));
        out->Append(v);
      }
      return VecSlot{std::move(out), all_const};
    }
  }
  return Status::Internal("unexpected expression kind");
}

// Filters the batch down to rows where `pred` is TRUE (NULL = drop),
// compacting every row-id vector.
Status ApplyPredicateVec(const Expr& pred, Batch* batch,
                         const FunctionRegistry* registry) {
  EVE_ASSIGN_OR_RETURN(const VecSlot slot,
                       EvalExprVec(pred, *batch, registry));
  const ColumnChunk& c = *slot.chunk;
  if (slot.is_const) {
    // Constant predicate: keep all or none.
    if (c.IsNull(0)) {
      for (auto& ids : batch->rowids) ids.clear();
      batch->num_rows = 0;
      std::fill(batch->identity.begin(), batch->identity.end(), false);
      return Status::OK();
    }
    if (c.type() != DataType::kBool) {
      return Status::TypeError("predicate did not evaluate to boolean: " +
                               pred.ToString());
    }
    if (!c.GetValue(0).bool_value()) {
      for (auto& ids : batch->rowids) ids.clear();
      batch->num_rows = 0;
      std::fill(batch->identity.begin(), batch->identity.end(), false);
    }
    return Status::OK();
  }
  std::vector<uint32_t> sel;
  sel.reserve(batch->num_rows);
  for (size_t i = 0; i < batch->num_rows; ++i) {
    if (c.IsNull(i)) continue;
    if (c.type() != DataType::kBool && !c.boxed()) {
      return Status::TypeError("predicate did not evaluate to boolean: " +
                               pred.ToString());
    }
    const Value v = c.GetValue(i);
    if (v.type() != DataType::kBool) {
      return Status::TypeError("predicate did not evaluate to boolean: " +
                               pred.ToString());
    }
    if (v.bool_value()) sel.push_back(static_cast<uint32_t>(i));
  }
  const bool all_kept = sel.size() == batch->num_rows;
  if (all_kept) return Status::OK();
  for (size_t r = 0; r < batch->rowids.size(); ++r) {
    std::vector<uint32_t> next;
    next.reserve(sel.size());
    const std::vector<uint32_t>& ids = batch->rowids[r];
    if (batch->identity[r]) {
      // Identity row ids were implicit; materialize through the selection.
      for (uint32_t s : sel) next.push_back(s);
    } else {
      for (uint32_t s : sel) next.push_back(ids[s]);
    }
    batch->rowids[r] = std::move(next);
    batch->identity[r] = false;
  }
  batch->num_rows = sel.size();
  return Status::OK();
}

// FNV-style combine of per-column cell hashes.
uint64_t CombineHash(uint64_t h, uint64_t cell) {
  h ^= cell + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

Result<Table> Execute(const ConjunctiveQuery& query, const Database& db,
                      const Catalog& catalog,
                      const FunctionRegistry* registry) {
  if (query.relations.empty()) {
    return Status::InvalidArgument("query has no relations");
  }
  if (query.projections.size() != query.output_names.size()) {
    return Status::InvalidArgument(
        "projection list and output name list differ in size");
  }
  {
    std::set<std::string> seen;
    for (const std::string& rel : query.relations) {
      if (!seen.insert(rel).second) {
        return Status::InvalidArgument(
            "relation appears more than once in FROM: " + rel);
      }
    }
  }

  // Output schema from inferred projection types.
  std::vector<AttributeDef> out_attrs;
  out_attrs.reserve(query.projections.size());
  for (size_t i = 0; i < query.projections.size(); ++i) {
    EVE_ASSIGN_OR_RETURN(const DataType t,
                         InferType(*query.projections[i], catalog));
    out_attrs.push_back(AttributeDef{query.output_names[i], t});
  }
  EVE_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(std::move(out_attrs)));

  // slots[i]: the conjuncts (in query order) evaluable once relations[0..i]
  // are bound. Scheduling and resolving every relation up front reports a
  // bad conjunct or a missing table even when an early step leaves no rows.
  std::vector<std::vector<size_t>> slots(query.relations.size());
  for (size_t c = 0; c < query.conjuncts.size(); ++c) {
    size_t slot = 0;
    for (const std::string& rel : query.conjuncts[c]->ReferencedRelations()) {
      const auto it =
          std::find(query.relations.begin(), query.relations.end(), rel);
      if (it == query.relations.end()) {
        return Status::InvalidArgument(
            "conjunct references relation not in FROM: " + rel + " in " +
            query.conjuncts[c]->ToString());
      }
      slot = std::max(slot,
                      static_cast<size_t>(it - query.relations.begin()));
    }
    slots[slot].push_back(c);
  }
  std::vector<const Table*> tables;
  std::vector<const Schema*> schemas;
  for (const std::string& rel : query.relations) {
    EVE_ASSIGN_OR_RETURN(const Table* table, db.GetTable(rel));
    EVE_ASSIGN_OR_RETURN(const RelationDef* def, catalog.GetRelation(rel));
    tables.push_back(table);
    schemas.push_back(&def->schema);
  }

  Batch batch;
  for (size_t depth = 0; depth < query.relations.size(); ++depth) {
    const std::string& rel = query.relations[depth];
    const Table& table = *tables[depth];
    const Schema& schema = *schemas[depth];
    std::vector<size_t> filters;

    if (depth == 0) {
      batch.rowids.emplace_back();  // implicit while identity
      batch.identity.push_back(true);
      batch.num_rows = table.NumRows();
      filters = slots[0];
    } else {
      // Equi-join conjuncts linking `rel` to bound relations:
      // Column(rel.X) = Column(bound.Y) in either orientation. The other
      // conjuncts of this slot filter the joined batch.
      struct JoinKey {
        size_t build_col;  // column index in `rel`
        size_t probe_rel;  // bound relation index in batch
        size_t probe_col;  // column index in that relation
      };
      std::vector<JoinKey> keys;
      for (const size_t c : slots[depth]) {
        const Expr& e = *query.conjuncts[c];
        const AttributeRef* new_side = nullptr;
        const AttributeRef* old_side = nullptr;
        if (e.kind() == ExprKind::kBinary && e.binary_op() == BinaryOp::kEq &&
            e.child(0)->kind() == ExprKind::kColumn &&
            e.child(1)->kind() == ExprKind::kColumn) {
          const AttributeRef& lhs = e.child(0)->column();
          const AttributeRef& rhs = e.child(1)->column();
          if (lhs.relation == rel && rhs.relation != rel) {
            new_side = &lhs;
            old_side = &rhs;
          } else if (rhs.relation == rel && lhs.relation != rel) {
            new_side = &rhs;
            old_side = &lhs;
          }
        }
        std::optional<size_t> new_idx;
        if (new_side != nullptr) new_idx = schema.IndexOf(new_side->attribute);
        size_t probe_rel = 0, probe_col = 0;
        if (!new_idx || !batch.Resolve(*old_side, &probe_rel, &probe_col)) {
          // Not an equi-join key (an unknown column fails as a filter).
          filters.push_back(c);
          continue;
        }
        keys.push_back(JoinKey{*new_idx, probe_rel, probe_col});
      }

      std::vector<std::vector<uint32_t>> next_ids(batch.rowids.size() + 1);
      size_t next_rows = 0;

      if (keys.empty()) {
        // No equi link: cartesian extension. Correct but quadratic.
        const size_t right_n = table.NumRows();
        for (auto& ids : next_ids) ids.reserve(batch.num_rows * right_n);
        for (size_t i = 0; i < batch.num_rows; ++i) {
          for (size_t r = 0; r < right_n; ++r) {
            for (size_t b = 0; b < batch.rowids.size(); ++b) {
              next_ids[b].push_back(batch.identity[b]
                                        ? static_cast<uint32_t>(i)
                                        : batch.rowids[b][i]);
            }
            next_ids.back().push_back(static_cast<uint32_t>(r));
          }
        }
        next_rows = batch.num_rows * right_n;
      } else {
        // Build: hash the new relation's key columns.
        std::unordered_map<uint64_t, std::vector<uint32_t>> ht;
        ht.reserve(table.NumRows() * 2);
        std::vector<const ColumnChunk*> build_chunks;
        build_chunks.reserve(keys.size());
        for (const JoinKey& k : keys) {
          build_chunks.push_back(&table.column(k.build_col));
        }
        for (size_t r = 0; r < table.NumRows(); ++r) {
          uint64_t h = 0;
          bool has_null = false;
          for (const ColumnChunk* c : build_chunks) {
            if (c->IsNull(r)) {
              has_null = true;
              break;
            }
            h = CombineHash(h, c->HashRow(r));
          }
          if (has_null) continue;  // NULL never equi-joins
          ht[h].push_back(static_cast<uint32_t>(r));
        }
        // Probe: gather probe-side key columns once, then stream.
        std::vector<VecSlot> probe_slots;
        probe_slots.reserve(keys.size());
        for (const JoinKey& k : keys) {
          probe_slots.push_back(
              GatherColumn(batch, k.probe_rel, k.probe_col));
        }
        for (size_t i = 0; i < batch.num_rows; ++i) {
          uint64_t h = 0;
          bool has_null = false;
          for (const VecSlot& s : probe_slots) {
            if (s.chunk->IsNull(i)) {
              has_null = true;
              break;
            }
            h = CombineHash(h, s.chunk->HashRow(i));
          }
          if (has_null) continue;
          auto it = ht.find(h);
          if (it == ht.end()) continue;
          for (uint32_t r : it->second) {
            // Verify (hash collisions, int/double widening handled by
            // CompareRows' numeric cross-compare).
            bool match = true;
            for (size_t k = 0; k < keys.size(); ++k) {
              if (probe_slots[k].chunk->CompareRows(
                      i, *build_chunks[k], r) != 0) {
                match = false;
                break;
              }
            }
            if (!match) continue;
            for (size_t b = 0; b < batch.rowids.size(); ++b) {
              next_ids[b].push_back(batch.identity[b]
                                        ? static_cast<uint32_t>(i)
                                        : batch.rowids[b][i]);
            }
            next_ids.back().push_back(r);
            ++next_rows;
          }
        }
      }
      batch.rowids = std::move(next_ids);
      batch.identity.assign(batch.rowids.size(), false);
      batch.num_rows = next_rows;
    }

    batch.rels.push_back(rel);
    batch.tables.push_back(&table);
    batch.schemas.push_back(&schema);
    for (const size_t c : filters) {
      if (batch.num_rows == 0) break;
      EVE_RETURN_IF_ERROR(
          ApplyPredicateVec(*query.conjuncts[c], &batch, registry));
    }
    if (batch.num_rows == 0) {
      // Nothing left to join, filter or project: expressions are never
      // evaluated over rows that do not exist.
      Table empty(std::move(out_schema));
      if (query.distinct) empty.Deduplicate();
      return empty;
    }
  }

  // Projection: late materialization — bare columns on an identity batch
  // come back as zero-copy borrows of the base chunks.
  std::vector<std::shared_ptr<const ColumnChunk>> out_cols;
  out_cols.reserve(query.projections.size());
  for (const ExprPtr& proj : query.projections) {
    EVE_ASSIGN_OR_RETURN(VecSlot slot,
                         EvalExprVec(*proj, batch, registry));
    if (slot.is_const) {
      // Broadcast the constant to the batch length.
      auto chunk = std::make_shared<ColumnChunk>(slot.chunk->type());
      chunk->Reserve(batch.num_rows);
      const Value v = slot.chunk->GetValue(0);
      for (size_t i = 0; i < batch.num_rows; ++i) chunk->Append(v);
      slot.chunk = std::move(chunk);
    }
    out_cols.push_back(std::move(slot.chunk));
  }
  Table result = Table::FromColumns(std::move(out_schema),
                                    std::move(out_cols), batch.num_rows);
  if (query.distinct) result.Deduplicate();
  return result;
}

}  // namespace eve
