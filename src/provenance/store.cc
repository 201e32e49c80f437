#include "provenance/store.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

namespace evorec::provenance {

std::string SourceKindName(SourceKind kind) {
  switch (kind) {
    case SourceKind::kObservation:
      return "observation";
    case SourceKind::kInference:
      return "inference";
    case SourceKind::kBeliefAdoption:
      return "belief_adoption";
  }
  return "unknown";
}

Result<RecordId> ProvenanceStore::Append(ProvRecord record) {
  for (RecordId input : record.inputs) {
    if (input >= records_.size()) {
      return InvalidArgumentError(
          "derivation input " + std::to_string(input) +
          " does not reference an existing record");
    }
  }
  const RecordId id = records_.size();
  record.id = id;
  by_entity_[record.entity].push_back(id);
  by_agent_[record.agent].push_back(id);
  records_.push_back(std::move(record));
  return id;
}

Result<ProvRecord> ProvenanceStore::Get(RecordId id) const {
  if (id >= records_.size()) {
    return NotFoundError("no provenance record " + std::to_string(id));
  }
  return records_[id];
}

std::vector<ProvRecord> ProvenanceStore::ForEntity(
    std::string_view entity) const {
  auto it = by_entity_.find(std::string(entity));
  if (it == by_entity_.end()) return {};
  std::vector<ProvRecord> out;
  out.reserve(it->second.size());
  for (RecordId id : it->second) out.push_back(records_[id]);
  return out;
}

std::vector<ProvRecord> ProvenanceStore::ByAgent(
    std::string_view agent) const {
  auto it = by_agent_.find(std::string(agent));
  if (it == by_agent_.end()) return {};
  std::vector<ProvRecord> out;
  out.reserve(it->second.size());
  for (RecordId id : it->second) out.push_back(records_[id]);
  return out;
}

Result<std::vector<ProvRecord>> ProvenanceStore::DerivationChain(
    RecordId id) const {
  if (id >= records_.size()) {
    return NotFoundError("no provenance record " + std::to_string(id));
  }
  std::vector<ProvRecord> chain;
  std::unordered_set<RecordId> seen;
  std::deque<RecordId> queue(records_[id].inputs.begin(),
                             records_[id].inputs.end());
  while (!queue.empty()) {
    const RecordId current = queue.front();
    queue.pop_front();
    if (!seen.insert(current).second) continue;
    chain.push_back(records_[current]);
    for (RecordId input : records_[current].inputs) {
      queue.push_back(input);
    }
  }
  return chain;
}

Result<size_t> ProvenanceStore::DerivationDepth(RecordId id) const {
  if (id >= records_.size()) {
    return NotFoundError("no provenance record " + std::to_string(id));
  }
  // ids are topologically ordered (inputs < id), so one forward pass
  // over the chain suffices; memoise depth per record.
  std::unordered_map<RecordId, size_t> depth;
  // Collect the subgraph below `id` and process in ascending id order.
  std::vector<RecordId> nodes{id};
  std::unordered_set<RecordId> seen{id};
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (RecordId input : records_[nodes[i]].inputs) {
      if (seen.insert(input).second) nodes.push_back(input);
    }
  }
  std::sort(nodes.begin(), nodes.end());
  for (RecordId node : nodes) {
    size_t d = 0;
    for (RecordId input : records_[node].inputs) {
      d = std::max(d, depth[input] + 1);
    }
    depth[node] = d;
  }
  return depth[id];
}

}  // namespace evorec::provenance
