#ifndef EVOREC_SCHEMA_HIERARCHY_H_
#define EVOREC_SCHEMA_HIERARCHY_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rdf/term.h"

namespace evorec::schema {

/// The subsumption DAG of a snapshot (rdfs:subClassOf edges), with
/// reachability utilities. Consumed by:
///  - interest propagation in the relatedness scorer (interests flow to
///    sub/superclasses with decay),
///  - generalisation hierarchies for k-anonymity.
class ClassHierarchy {
 public:
  ClassHierarchy() = default;

  /// Builds from explicit child→parent edges.
  static ClassHierarchy FromEdges(
      const std::vector<std::pair<rdf::TermId, rdf::TermId>>& child_parent);

  /// Adds one subclass edge (child rdfs:subClassOf parent).
  void AddEdge(rdf::TermId child, rdf::TermId parent);

  /// Direct superclasses of `cls` (empty when unknown).
  const std::vector<rdf::TermId>& Parents(rdf::TermId cls) const;

  /// Direct subclasses of `cls` (empty when unknown).
  const std::vector<rdf::TermId>& Children(rdf::TermId cls) const;

  /// All transitive subclasses (not including `cls` itself).
  std::vector<rdf::TermId> Descendants(rdf::TermId cls) const;

  /// True iff `cls` ⊑ `ancestor` (transitively, reflexively).
  bool IsSubclassOf(rdf::TermId cls, rdf::TermId ancestor) const;

  /// Classes with no parents (among classes that appear in any edge or
  /// were registered via Touch).
  std::vector<rdf::TermId> Roots() const;

  /// Registers a class with no edges (so it appears in Roots()).
  void Touch(rdf::TermId cls);

  /// True iff the subsumption relation is cycle-free.
  bool IsAcyclic() const;

  /// All registered classes.
  std::vector<rdf::TermId> AllClasses() const;

  size_t edge_count() const { return edge_count_; }

 private:
  std::unordered_map<rdf::TermId, std::vector<rdf::TermId>> parents_;
  std::unordered_map<rdf::TermId, std::vector<rdf::TermId>> children_;
  std::unordered_set<rdf::TermId> known_;
  size_t edge_count_ = 0;
  static const std::vector<rdf::TermId> kEmpty;
};

}  // namespace evorec::schema

#endif  // EVOREC_SCHEMA_HIERARCHY_H_
