#include "schema/hierarchy.h"

#include <algorithm>
#include <deque>

namespace evorec::schema {

const std::vector<rdf::TermId> ClassHierarchy::kEmpty = {};

ClassHierarchy ClassHierarchy::FromEdges(
    const std::vector<std::pair<rdf::TermId, rdf::TermId>>& child_parent) {
  ClassHierarchy h;
  for (const auto& [child, parent] : child_parent) {
    h.AddEdge(child, parent);
  }
  return h;
}

void ClassHierarchy::AddEdge(rdf::TermId child, rdf::TermId parent) {
  if (child == parent) return;
  auto& ps = parents_[child];
  if (std::find(ps.begin(), ps.end(), parent) != ps.end()) return;
  ps.push_back(parent);
  children_[parent].push_back(child);
  known_.insert(child);
  known_.insert(parent);
  ++edge_count_;
}

void ClassHierarchy::Touch(rdf::TermId cls) { known_.insert(cls); }

const std::vector<rdf::TermId>& ClassHierarchy::Parents(
    rdf::TermId cls) const {
  auto it = parents_.find(cls);
  return it == parents_.end() ? kEmpty : it->second;
}

const std::vector<rdf::TermId>& ClassHierarchy::Children(
    rdf::TermId cls) const {
  auto it = children_.find(cls);
  return it == children_.end() ? kEmpty : it->second;
}

namespace {

std::vector<rdf::TermId> Reach(
    rdf::TermId start,
    const std::unordered_map<rdf::TermId, std::vector<rdf::TermId>>& adj) {
  std::vector<rdf::TermId> out;
  std::unordered_set<rdf::TermId> seen{start};
  std::deque<rdf::TermId> queue{start};
  while (!queue.empty()) {
    const rdf::TermId node = queue.front();
    queue.pop_front();
    auto it = adj.find(node);
    if (it == adj.end()) continue;
    for (rdf::TermId next : it->second) {
      if (seen.insert(next).second) {
        out.push_back(next);
        queue.push_back(next);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<rdf::TermId> ClassHierarchy::Descendants(rdf::TermId cls) const {
  return Reach(cls, children_);
}

bool ClassHierarchy::IsSubclassOf(rdf::TermId cls, rdf::TermId ancestor) const {
  if (cls == ancestor) return true;
  std::unordered_set<rdf::TermId> seen{cls};
  std::deque<rdf::TermId> queue{cls};
  while (!queue.empty()) {
    const rdf::TermId node = queue.front();
    queue.pop_front();
    for (rdf::TermId parent : Parents(node)) {
      if (parent == ancestor) return true;
      if (seen.insert(parent).second) queue.push_back(parent);
    }
  }
  return false;
}

std::vector<rdf::TermId> ClassHierarchy::Roots() const {
  std::vector<rdf::TermId> roots;
  for (rdf::TermId cls : known_) {
    if (Parents(cls).empty()) roots.push_back(cls);
  }
  std::sort(roots.begin(), roots.end());
  return roots;
}

bool ClassHierarchy::IsAcyclic() const {
  // Kahn's algorithm over child→parent edges.
  std::unordered_map<rdf::TermId, size_t> indegree;
  for (rdf::TermId cls : known_) indegree[cls] = 0;
  for (const auto& [child, parents] : parents_) {
    (void)child;
    for (rdf::TermId parent : parents) {
      ++indegree[parent];
    }
  }
  std::deque<rdf::TermId> queue;
  for (const auto& [cls, deg] : indegree) {
    if (deg == 0) queue.push_back(cls);
  }
  size_t processed = 0;
  while (!queue.empty()) {
    const rdf::TermId node = queue.front();
    queue.pop_front();
    ++processed;
    auto it = parents_.find(node);
    if (it == parents_.end()) continue;
    for (rdf::TermId parent : it->second) {
      if (--indegree[parent] == 0) queue.push_back(parent);
    }
  }
  return processed == known_.size();
}

std::vector<rdf::TermId> ClassHierarchy::AllClasses() const {
  std::vector<rdf::TermId> out(known_.begin(), known_.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace evorec::schema
