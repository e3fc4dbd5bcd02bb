#include "core/oracle.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_set>

#include "core/link_graph.h"
#include "relation/database.h"

namespace codb {

namespace {

// Marked nulls minted by the oracle use a reserved peer id so they can
// never collide with nulls minted by real peers.
constexpr uint32_t kOraclePeer = 0xFFFFFFF0;

struct World {
  std::map<std::string, std::unique_ptr<Database>> stores;
  std::map<std::string, CoordinationRule> rules;  // compiled, by id
};

Result<World> BuildWorld(const NetworkConfig& config,
                         const NetworkInstance& initial) {
  World world;
  for (const NodeDecl& node : config.nodes()) {
    auto db = std::make_unique<Database>();
    for (const RelationSchema& rel : node.relations) {
      CODB_RETURN_IF_ERROR(db->CreateRelation(rel));
    }
    auto seed = initial.find(node.name);
    if (seed != initial.end()) {
      for (const auto& [relation, tuples] : seed->second) {
        CODB_ASSIGN_OR_RETURN(Relation * r, db->Get(relation));
        for (const Tuple& t : tuples) r->Insert(t);
      }
    }
    world.stores.emplace(node.name, std::move(db));
  }
  for (const CoordinationRule& rule : config.rules()) {
    CoordinationRule compiled = rule;
    CODB_RETURN_IF_ERROR(
        compiled.Compile(config.SchemaOf(rule.exporter()),
                         config.SchemaOf(rule.importer())));
    world.rules.emplace(rule.id(), std::move(compiled));
  }
  return world;
}

NetworkInstance Snapshot(const World& world) {
  NetworkInstance out;
  for (const auto& [name, db] : world.stores) {
    out.emplace(name, db->Snapshot());
  }
  return out;
}

}  // namespace

Result<NetworkInstance> Oracle::PathBounded(const NetworkConfig& config,
                                            const NetworkInstance& initial) {
  CODB_RETURN_IF_ERROR(config.Validate());
  CODB_ASSIGN_OR_RETURN(World world, BuildWorld(config, initial));
  LinkGraph graph = LinkGraph::Build(config);
  NullMinter minter(kOraclePeer);

  // Per-rule sent-sets (each rule has a unique exporter, so one set each).
  std::map<std::string, std::unordered_set<Tuple, TupleHash>> sent;

  struct Item {
    std::string rule_id;
    std::vector<Tuple> frontiers;          // already dedupped
    std::vector<std::string> path;         // node names, ending w/ exporter
  };
  std::deque<Item> worklist;

  // Initial firing: every incoming link of every node, over the seed data.
  // Node order mirrors the breadth-first flavour of the network run.
  for (const NodeDecl& node : config.nodes()) {
    for (const CoordinationRule* rule : config.IncomingOf(node.name)) {
      const CoordinationRule& compiled = world.rules.at(rule->id());
      std::vector<Tuple> fresh;
      for (Tuple& frontier :
           compiled.EvaluateFrontier(*world.stores.at(node.name))) {
        if (sent[rule->id()].insert(frontier).second) {
          fresh.push_back(std::move(frontier));
        }
      }
      if (!fresh.empty()) {
        worklist.push_back({rule->id(), std::move(fresh), {node.name}});
      }
    }
  }

  while (!worklist.empty()) {
    Item item = std::move(worklist.front());
    worklist.pop_front();
    const CoordinationRule& rule = world.rules.at(item.rule_id);
    const std::string& importer = rule.importer();
    Database& store = *world.stores.at(importer);

    // Deliver: instantiate heads and insert; collect the delta.
    std::map<std::string, std::vector<Tuple>> delta;
    for (const Tuple& frontier : item.frontiers) {
      for (const HeadTuple& ht : rule.InstantiateHead(frontier, minter)) {
        CODB_ASSIGN_OR_RETURN(Relation * r, store.Get(ht.relation));
        if (r->Insert(ht.tuple)) delta[ht.relation].push_back(ht.tuple);
      }
    }
    if (delta.empty()) continue;

    std::vector<std::string> extended = item.path;
    extended.push_back(importer);

    for (const std::string& dependent : graph.DependentOn(item.rule_id)) {
      const CoordinationRule& next = world.rules.at(dependent);
      // Simple-path constraint: never towards a node already on the path.
      if (std::find(item.path.begin(), item.path.end(), next.importer()) !=
          item.path.end()) {
        continue;
      }
      std::vector<Tuple> frontiers = next.EvaluateFrontierDelta(store, delta);
      std::vector<Tuple> fresh;
      for (Tuple& frontier : frontiers) {
        if (sent[dependent].insert(frontier).second) {
          fresh.push_back(std::move(frontier));
        }
      }
      if (!fresh.empty()) {
        worklist.push_back({dependent, std::move(fresh), extended});
      }
    }
  }
  return Snapshot(world);
}

Result<NetworkInstance> Oracle::NaiveFixpoint(const NetworkConfig& config,
                                              const NetworkInstance& initial,
                                              int max_rounds) {
  CODB_RETURN_IF_ERROR(config.Validate());
  CODB_ASSIGN_OR_RETURN(World world, BuildWorld(config, initial));
  NullMinter minter(kOraclePeer);
  std::map<std::string, std::unordered_set<Tuple, TupleHash>> fired;

  for (int round = 0; round < max_rounds; ++round) {
    bool changed = false;
    for (const CoordinationRule& decl : config.rules()) {
      const CoordinationRule& rule = world.rules.at(decl.id());
      const Database& exporter_db = *world.stores.at(rule.exporter());
      Database& importer_db = *world.stores.at(rule.importer());
      for (const Tuple& frontier : rule.EvaluateFrontier(exporter_db)) {
        // One firing per (rule, frontier): existentials are witnessed once.
        if (!fired[decl.id()].insert(frontier).second) continue;
        for (const HeadTuple& ht : rule.InstantiateHead(frontier, minter)) {
          CODB_ASSIGN_OR_RETURN(Relation * r, importer_db.Get(ht.relation));
          if (r->Insert(ht.tuple)) changed = true;
        }
      }
    }
    if (!changed) return Snapshot(world);
  }
  return Status::FailedPrecondition(
      "naive fixpoint did not converge after " +
      std::to_string(max_rounds) + " rounds");
}

}  // namespace codb
