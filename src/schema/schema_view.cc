#include "schema/schema_view.h"

#include <algorithm>

namespace evorec::schema {

namespace {

void SortedInsert(std::vector<rdf::TermId>& v, rdf::TermId id) {
  auto it = std::lower_bound(v.begin(), v.end(), id);
  if (it == v.end() || *it != id) v.insert(it, id);
}

}  // namespace

SchemaView SchemaView::Build(const rdf::KnowledgeBase& kb) {
  SchemaView view;
  const rdf::Vocabulary& voc = kb.vocabulary();
  const rdf::TripleStore& store = kb.store();

  auto note_class = [&](rdf::TermId id) {
    if (view.class_set_.insert(id).second) {
      view.hierarchy_.Touch(id);
    }
  };
  auto note_property = [&](rdf::TermId id) { view.property_set_.insert(id); };

  // All three passes stream the store in SPO order via full merged
  // scans, so a segmented snapshot is never flattened.

  // Pass 1: schema-level triples establish classes and properties.
  store.ScanT(rdf::TriplePattern{}, [&](const rdf::Triple& t) {
    if (t.predicate == voc.rdf_type) {
      if (t.object == voc.rdfs_class || t.object == voc.owl_class) {
        note_class(t.subject);
      } else if (t.object == voc.rdf_property) {
        note_property(t.subject);
      } else {
        // Instance typing: the object is being used as a class.
        note_class(t.object);
      }
    } else if (t.predicate == voc.rdfs_subclass_of) {
      note_class(t.subject);
      note_class(t.object);
      view.hierarchy_.AddEdge(t.subject, t.object);
    } else if (t.predicate == voc.rdfs_domain) {
      note_property(t.subject);
      note_class(t.object);
      view.domains_[t.subject].push_back(t.object);
    } else if (t.predicate == voc.rdfs_range) {
      note_property(t.subject);
      // Ranges may be datatypes (literals' types); only IRI-classes
      // participate in the class graph, but we record all.
      view.ranges_[t.subject].push_back(t.object);
      note_class(t.object);
    }
    return true;
  });

  // Pass 2: instance typing and property usage.
  store.ScanT(rdf::TriplePattern{}, [&](const rdf::Triple& t) {
    if (t.predicate == voc.rdf_type) {
      if (view.class_set_.count(t.object) &&
          !view.class_set_.count(t.subject)) {
        view.instances_[t.object].push_back(t.subject);
        view.instance_type_.emplace(t.subject, t.object);
      }
      return true;
    }
    if (voc.IsSchemaPredicate(t.predicate)) return true;
    // A non-schema predicate used between resources is a property.
    note_property(t.predicate);
    return true;
  });

  // Pass 3: instance-level connection statistics per
  // (property, subject-class, object-class).
  std::unordered_map<rdf::TermId,
                     std::unordered_map<uint64_t, PropertyConnection>>
      conn_acc;
  store.ScanT(rdf::TriplePattern{}, [&](const rdf::Triple& t) {
    if (voc.IsSchemaPredicate(t.predicate)) return true;
    if (!view.property_set_.count(t.predicate)) return true;
    auto ts = view.instance_type_.find(t.subject);
    auto to = view.instance_type_.find(t.object);
    if (ts == view.instance_type_.end() || to == view.instance_type_.end()) {
      return true;
    }
    const ClassPair pair{ts->second, to->second};
    const uint64_t pair_key =
        (static_cast<uint64_t>(pair.from) << 32) | pair.to;
    auto& slot = conn_acc[t.predicate][pair_key];
    if (slot.instance_count == 0) {
      slot.property = t.predicate;
      slot.classes = pair;
    }
    ++slot.instance_count;
    ++view.total_connections_[pair.from];
    if (pair.to != pair.from) {
      ++view.total_connections_[pair.to];
    }
    view.property_adjacent_[pair.from].insert(pair.to);
    view.property_adjacent_[pair.to].insert(pair.from);
    return true;
  });
  for (auto& [prop, by_pair] : conn_acc) {
    (void)prop;
    for (auto& [key, conn] : by_pair) {
      (void)key;
      view.connections_.push_back(conn);
    }
  }
  std::sort(view.connections_.begin(), view.connections_.end(),
            [](const PropertyConnection& a, const PropertyConnection& b) {
              if (a.property != b.property) return a.property < b.property;
              if (a.classes.from != b.classes.from) {
                return a.classes.from < b.classes.from;
              }
              return a.classes.to < b.classes.to;
            });

  // Domain/range declarations also induce class adjacency.
  for (const auto& [prop, domain_list] : view.domains_) {
    auto range_it = view.ranges_.find(prop);
    if (range_it == view.ranges_.end()) continue;
    for (rdf::TermId d : domain_list) {
      for (rdf::TermId r : range_it->second) {
        if (d == r) continue;
        view.property_adjacent_[d].insert(r);
        view.property_adjacent_[r].insert(d);
      }
    }
  }

  view.classes_.assign(view.class_set_.begin(), view.class_set_.end());
  std::sort(view.classes_.begin(), view.classes_.end());
  view.properties_.assign(view.property_set_.begin(),
                          view.property_set_.end());
  std::sort(view.properties_.begin(), view.properties_.end());
  return view;
}

std::vector<rdf::TermId> SchemaView::DomainsOf(rdf::TermId property) const {
  auto it = domains_.find(property);
  if (it == domains_.end()) return {};
  return it->second;
}

std::vector<rdf::TermId> SchemaView::RangesOf(rdf::TermId property) const {
  auto it = ranges_.find(property);
  if (it == ranges_.end()) return {};
  return it->second;
}

size_t SchemaView::InstanceCount(rdf::TermId cls) const {
  auto it = instances_.find(cls);
  return it == instances_.end() ? 0 : it->second.size();
}

std::vector<rdf::TermId> SchemaView::InstancesOf(rdf::TermId cls) const {
  auto it = instances_.find(cls);
  if (it == instances_.end()) return {};
  return it->second;
}

rdf::TermId SchemaView::TypeOf(rdf::TermId instance) const {
  auto it = instance_type_.find(instance);
  return it == instance_type_.end() ? rdf::kAnyTerm : it->second;
}

size_t SchemaView::ConnectionCount(rdf::TermId property, rdf::TermId from,
                                   rdf::TermId to) const {
  for (const PropertyConnection& c : connections_) {
    if (c.property == property && c.classes.from == from &&
        c.classes.to == to) {
      return c.instance_count;
    }
  }
  return 0;
}

size_t SchemaView::TotalConnectionsOf(rdf::TermId cls) const {
  auto it = total_connections_.find(cls);
  return it == total_connections_.end() ? 0 : it->second;
}

std::vector<rdf::TermId> SchemaView::Neighborhood(rdf::TermId n) const {
  std::vector<rdf::TermId> out;
  for (rdf::TermId parent : hierarchy_.Parents(n)) SortedInsert(out, parent);
  for (rdf::TermId child : hierarchy_.Children(n)) SortedInsert(out, child);
  auto it = property_adjacent_.find(n);
  if (it != property_adjacent_.end()) {
    for (rdf::TermId other : it->second) SortedInsert(out, other);
  }
  out.erase(std::remove(out.begin(), out.end(), n), out.end());
  return out;
}

const std::vector<std::vector<rdf::TermId>>& SchemaView::NeighborhoodLists()
    const {
  NeighborhoodMemo& memo = *neighborhood_memo_;
  std::call_once(memo.once, [&] {
    memo.lists.resize(classes_.size());
    for (size_t i = 0; i < classes_.size(); ++i) {
      memo.lists[i] = Neighborhood(classes_[i]);
    }
  });
  return memo.lists;
}

std::vector<rdf::TermId> SchemaView::PropertyNeighbors(rdf::TermId n) const {
  auto it = property_adjacent_.find(n);
  if (it == property_adjacent_.end()) return {};
  std::vector<rdf::TermId> out(it->second.begin(), it->second.end());
  std::sort(out.begin(), out.end());
  out.erase(std::remove(out.begin(), out.end(), n), out.end());
  return out;
}

}  // namespace evorec::schema
