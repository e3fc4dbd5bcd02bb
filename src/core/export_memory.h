// Per-link export memory: which frontiers this node has already shipped
// to each importer, persisted ACROSS global updates (DESIGN.md §14).
//
// The per-update sent-sets inside UpdateManager dedup re-derivations
// within one update; incremental (semi-naive) updates additionally need
// to know what every PREVIOUS update exported, or a delta firing would
// re-ship — and, for rules with existential head variables, re-mint nulls
// for — frontiers the importer already holds. The memory lives in the
// Node (like the update sequence counter) so it survives the manager
// rebuilds a reconfiguration performs.
//
// Invariant: a recorded frontier has been handed to the reliability
// layer for shipment to the importer. On a send failure the caller
// Forget()s the batch, trading a possible future re-ship (harmless:
// importers store sets) for never silently missing an export. A refresh
// update Reset()s the memory network-wide — its drop-and-rederive
// semantics restate every export from scratch, which is also how the
// memory recovers from an importer that lost its store.

#ifndef CODB_CORE_EXPORT_MEMORY_H_
#define CODB_CORE_EXPORT_MEMORY_H_

#include <map>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "relation/tuple.h"

namespace codb {

class ExportMemory {
 public:
  // Reconciles the memory with the current rule set: entries for rules
  // that disappeared are dropped, and an entry whose rule *definition*
  // changed (fingerprint mismatch) is cleared — frontiers recorded for
  // the old body say nothing about the new one. Called by the update
  // manager's Init on every reconfiguration.
  void SyncRules(const std::map<std::string, std::string>& fingerprints);

  // Records `frontier` as exported on `rule_id`; returns true when it
  // was not recorded before.
  bool Record(const std::string& rule_id, const Tuple& frontier);

  // True when `frontier` was already recorded as exported on `rule_id`.
  bool Seen(const std::string& rule_id, const Tuple& frontier) const;

  // Un-records a batch whose shipment failed, so a later update may
  // re-derive and re-ship it.
  void Forget(const std::string& rule_id,
              const std::vector<Tuple>& frontiers);

  // Drops everything (refresh updates: every export is restated).
  void Reset();

 private:
  struct RuleMemory {
    std::string fingerprint;
    std::unordered_set<Tuple, TupleHash> sent;
  };

  // Own mutex (not the manager's): after a reconfiguration the old
  // manager may still drain in-flight flows on strands while the new one
  // is already live, and both point here.
  mutable std::mutex mu_;
  std::map<std::string, RuleMemory> rules_;
};

}  // namespace codb

#endif  // CODB_CORE_EXPORT_MEMORY_H_
