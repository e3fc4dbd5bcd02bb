#include "wrapper/wrapper.h"

#include "query/evaluator.h"

namespace codb {

Result<std::unique_ptr<Wrapper>> Wrapper::ForDatabase(
    Database* ldb, DatabaseSchema exported) {
  if (ldb == nullptr) {
    return Status::InvalidArgument(
        "ForDatabase needs a database; use ForMediator for LDB-less nodes");
  }
  auto wrapper = std::unique_ptr<Wrapper>(new Wrapper());
  DatabaseSchema catalog = ldb->Schema();
  CODB_RETURN_IF_ERROR(wrapper->dbs_.SetExported(std::move(exported),
                                                 &catalog));
  wrapper->ldb_ = ldb;
  wrapper->storage_ = ldb;
  wrapper->PrecreateProvenance();
  return wrapper;
}

Result<std::unique_ptr<Wrapper>> Wrapper::ForMediator(
    DatabaseSchema exported) {
  auto wrapper = std::unique_ptr<Wrapper>(new Wrapper());
  wrapper->is_mediator_ = true;
  wrapper->transient_ = std::make_unique<Database>();
  for (const RelationSchema& rel : exported.relations()) {
    CODB_RETURN_IF_ERROR(wrapper->transient_->CreateRelation(rel));
  }
  CODB_RETURN_IF_ERROR(wrapper->dbs_.SetExported(std::move(exported),
                                                 /*full_catalog=*/nullptr));
  wrapper->storage_ = wrapper->transient_.get();
  wrapper->PrecreateProvenance();
  return wrapper;
}

void Wrapper::PrecreateProvenance() {
  // Create the provenance entry of every exported relation up front so
  // ApplyHeadTuples never mutates the *structure* of imported_ — a
  // concurrent ImportedCount then only races on the vectors, which the
  // store lock already mediates.
  for (const RelationSchema& rel : dbs_.exported().relations()) {
    imported_[rel.name()];
  }
}

Result<std::map<std::string, std::vector<Tuple>>> Wrapper::ApplyHeadTuples(
    const std::vector<HeadTuple>& tuples) {
  // Writer side of the store lock: exclusive on exactly the shards of the
  // relations this batch touches, so query overlays copying other
  // relations can proceed (readers take all shards shared, so they still
  // exclude every writer).
  std::vector<const std::string*> names;
  names.reserve(tuples.size());
  for (const HeadTuple& ht : tuples) names.push_back(&ht.relation);
  ShardedRWLock::WriteSetGuard write_guard(
      store_lock_,
      store_lock_.SortedShardsOf(
          names.begin(), names.end(),
          [](const std::string* name) -> const std::string& {
            return *name;
          }));
  // A batch touches only a handful of relations. Senders group its rows by
  // relation, but any order is valid input, so resolve each relation name
  // once into a slot and pick the slot per tuple with a short linear scan
  // — cheaper than a map lookup and a grouping copy per tuple.
  struct Slot {
    const std::string* name;
    Relation* rel;
    std::vector<char>* provenance;
    std::vector<Tuple> added;
  };
  std::vector<Slot> slots;
  for (const HeadTuple& ht : tuples) {
    Slot* slot = nullptr;
    for (Slot& s : slots) {
      if (*s.name == ht.relation) {
        slot = &s;
        break;
      }
    }
    if (slot == nullptr) {
      CODB_ASSIGN_OR_RETURN(Relation * rel, storage_->Get(ht.relation));
      // Upper bound (the whole batch could target this relation); keeps
      // the dedup set and built indexes from rehashing mid-burst.
      rel->Reserve(rel->size() + tuples.size());
      slots.push_back(Slot{&ht.relation, rel, &imported_[ht.relation], {}});
      slot = &slots.back();
    }
    if (slot->rel->Insert(ht.tuple)) {
      // The fresh tuple is the last row; flag its position as imported.
      slot->provenance->resize(slot->rel->size(), 0);
      slot->provenance->back() = 1;
      if (journal_ != nullptr) {
        // Sinks assume serialized appends; the sharded store lock does
        // not guarantee that across disjoint-relation writers.
        std::lock_guard<std::mutex> journal_lock(journal_mu_);
        journal_->LogInsert(ht.relation, ht.tuple);
      }
      slot->added.push_back(ht.tuple);
    }
  }
  std::map<std::string, std::vector<Tuple>> fresh;
  for (Slot& slot : slots) {
    if (!slot.added.empty()) fresh.emplace(*slot.name, std::move(slot.added));
  }
  return fresh;
}

Status Wrapper::InsertLocal(const std::string& relation,
                            const std::vector<Tuple>& rows) {
  std::vector<Tuple> added;
  {
    const std::string* name = &relation;
    ShardedRWLock::WriteSetGuard write_guard(
        store_lock_,
        store_lock_.SortedShardsOf(
            &name, &name + 1,
            [](const std::string* n) -> const std::string& { return *n; }));
    CODB_ASSIGN_OR_RETURN(Relation * rel, storage_->Get(relation));
    rel->Reserve(rel->size() + rows.size());
    added.reserve(rows.size());
    for (const Tuple& row : rows) {
      // Insert without touching imported_: the provenance vector stays
      // short, so DropImported treats these rows as local and keeps them.
      if (!rel->Insert(row)) continue;
      if (journal_ != nullptr) {
        std::lock_guard<std::mutex> journal_lock(journal_mu_);
        journal_->LogInsert(relation, row);
      }
      added.push_back(row);
    }
  }
  if (!added.empty()) {
    std::lock_guard<std::mutex> delta_lock(delta_mu_);
    std::vector<Tuple>& pending = pending_delta_[relation];
    pending.insert(pending.end(), added.begin(), added.end());
  }
  return Status::Ok();
}

std::map<std::string, std::vector<Tuple>> Wrapper::TakePendingDelta() {
  std::lock_guard<std::mutex> delta_lock(delta_mu_);
  std::map<std::string, std::vector<Tuple>> taken;
  taken.swap(pending_delta_);
  return taken;
}

void Wrapper::DropImported() {
  ShardedRWLock::WriteAllGuard write_guard(store_lock_);
  for (auto& [relation_name, provenance] : imported_) {
    Relation* relation = storage_->Find(relation_name);
    if (relation == nullptr || provenance.empty()) continue;
    std::vector<Tuple> kept;
    kept.reserve(relation->size());
    const std::vector<Tuple>& rows = relation->rows();
    for (size_t row = 0; row < rows.size(); ++row) {
      if (row >= provenance.size() || provenance[row] == 0) {
        kept.push_back(rows[row]);
      }
    }
    relation->Clear();
    for (const Tuple& tuple : kept) relation->Insert(tuple);
  }
  // Reset the flags but keep the map structure (see PrecreateProvenance).
  for (auto& [relation_name, provenance] : imported_) provenance.clear();
}

size_t Wrapper::ImportedCount() const {
  ShardedRWLock::ReadAllGuard read_guard(store_lock_);
  size_t total = 0;
  for (const auto& [relation, provenance] : imported_) {
    for (char flag : provenance) total += flag != 0;
  }
  return total;
}

Result<std::vector<Tuple>> Wrapper::EvaluateQuery(
    const ConjunctiveQuery& query) const {
  if (query.head.size() != 1) {
    return Status::InvalidArgument(
        "node queries must have a single head atom");
  }
  if (!query.ExistentialVars().empty()) {
    return Status::InvalidArgument(
        "node queries must have a safe head (no existential variables)");
  }
  std::vector<std::string> output;
  for (const Term& term : query.head[0].terms) {
    if (term.is_var()) output.push_back(term.var());
  }
  ShardedRWLock::ReadAllGuard read_guard(store_lock_);
  DatabaseSchema schema = storage_->Schema();
  CODB_ASSIGN_OR_RETURN(CompiledQuery compiled,
                        CompiledQuery::Compile(query, schema, output));
  return compiled.Evaluate(*storage_);
}

}  // namespace codb
