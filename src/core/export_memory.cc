#include "core/export_memory.h"

namespace codb {

void ExportMemory::SyncRules(
    const std::map<std::string, std::string>& fingerprints) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = rules_.begin(); it != rules_.end();) {
    auto want = fingerprints.find(it->first);
    if (want == fingerprints.end()) {
      it = rules_.erase(it);
      continue;
    }
    if (it->second.fingerprint != want->second) {
      it->second.sent.clear();
      it->second.fingerprint = want->second;
    }
    ++it;
  }
  for (const auto& [rule_id, fingerprint] : fingerprints) {
    auto [it, inserted] = rules_.try_emplace(rule_id);
    if (inserted) it->second.fingerprint = fingerprint;
  }
}

bool ExportMemory::Record(const std::string& rule_id, const Tuple& frontier) {
  std::lock_guard<std::mutex> lock(mu_);
  return rules_[rule_id].sent.insert(frontier).second;
}

bool ExportMemory::Seen(const std::string& rule_id,
                        const Tuple& frontier) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rules_.find(rule_id);
  return it != rules_.end() && it->second.sent.count(frontier) != 0;
}

void ExportMemory::Forget(const std::string& rule_id,
                          const std::vector<Tuple>& frontiers) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rules_.find(rule_id);
  if (it == rules_.end()) return;
  for (const Tuple& frontier : frontiers) it->second.sent.erase(frontier);
}

void ExportMemory::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [rule_id, memory] : rules_) memory.sent.clear();
}

}  // namespace codb
