#ifndef EVOREC_PROVENANCE_STORE_H_
#define EVOREC_PROVENANCE_STORE_H_

#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "provenance/record.h"

namespace evorec::provenance {

/// Append-only provenance store. Records reference earlier records as
/// derivation inputs, so the derivation graph is acyclic by
/// construction. Answers the transparency questions of §III.b:
/// who created an item and when, who modified it, and through which
/// process it was derived.
class ProvenanceStore {
 public:
  ProvenanceStore() = default;

  /// Appends a record. `record.id` is assigned by the store; inputs
  /// must reference existing records.
  Result<RecordId> Append(ProvRecord record);

  /// Record by id.
  Result<ProvRecord> Get(RecordId id) const;

  /// All records producing or touching `entity`, in append order —
  /// "who created/modified this item and when".
  std::vector<ProvRecord> ForEntity(std::string_view entity) const;

  /// All records by `agent`, in append order.
  std::vector<ProvRecord> ByAgent(std::string_view agent) const;

  /// Transitive derivation inputs of `id` (the full "how"), in
  /// topological order from the queried record backwards; excludes
  /// `id` itself.
  Result<std::vector<ProvRecord>> DerivationChain(RecordId id) const;

  /// Length of the longest derivation path below `id` (0 for source
  /// records).
  Result<size_t> DerivationDepth(RecordId id) const;

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// All records (append order).
  const std::vector<ProvRecord>& records() const { return records_; }

 private:
  std::vector<ProvRecord> records_;
  std::unordered_map<std::string, std::vector<RecordId>> by_entity_;
  std::unordered_map<std::string, std::vector<RecordId>> by_agent_;
};

}  // namespace evorec::provenance

#endif  // EVOREC_PROVENANCE_STORE_H_
