#include "workload/evolution_generator.h"

#include <algorithm>
#include <unordered_set>

#include "common/random.h"
#include "rdf/triple.h"
#include "schema/schema_view.h"

namespace evorec::workload {

ChangeMix ChangeMix::SchemaHeavy() {
  ChangeMix mix;
  mix.add_class = 0.12;
  mix.delete_class = 0.08;
  mix.move_class = 0.30;
  mix.add_property = 0.10;
  mix.change_domain = 0.15;
  mix.add_instance = 0.08;
  mix.delete_instance = 0.05;
  mix.add_edge = 0.06;
  mix.delete_edge = 0.03;
  mix.retype_instance = 0.03;
  return mix;
}

ChangeMix ChangeMix::InstanceChurn() {
  ChangeMix mix;
  mix.add_class = 0.0;
  mix.delete_class = 0.0;
  mix.move_class = 0.0;
  mix.add_property = 0.0;
  mix.change_domain = 0.0;
  mix.add_instance = 0.38;
  mix.delete_instance = 0.22;
  mix.add_edge = 0.25;
  mix.delete_edge = 0.10;
  mix.retype_instance = 0.05;
  return mix;
}

namespace {

// Buffered, state-consistent triple edits: re-adding a triple removed
// this epoch cancels the removal, removing a triple added this epoch
// cancels the addition, and removals only ever name triples that exist
// in the base snapshot.
class ChangeBuffer {
 public:
  explicit ChangeBuffer(const rdf::TripleStore& base) : base_(base) {}

  void Add(const rdf::Triple& t) {
    if (removals_.erase(t) > 0) return;
    if (base_.Contains(t)) return;
    additions_.insert(t);
  }

  void Remove(const rdf::Triple& t) {
    if (additions_.erase(t) > 0) return;
    if (base_.Contains(t)) removals_.insert(t);
  }

  version::ChangeSet Finish() const {
    version::ChangeSet cs;
    cs.additions.assign(additions_.begin(), additions_.end());
    cs.removals.assign(removals_.begin(), removals_.end());
    std::sort(cs.additions.begin(), cs.additions.end());
    std::sort(cs.removals.begin(), cs.removals.end());
    return cs;
  }

 private:
  const rdf::TripleStore& base_;
  std::unordered_set<rdf::Triple, rdf::TripleHash> additions_;
  std::unordered_set<rdf::Triple, rdf::TripleHash> removals_;
};

struct InstanceEdge {
  rdf::Triple triple;
  rdf::TermId subject_class;
  rdf::TermId object_class;
};

}  // namespace

EvolutionOutcome GenerateEvolution(const rdf::KnowledgeBase& current,
                                   rdf::Dictionary& dictionary,
                                   const EvolutionOptions& options) {
  Rng rng(options.seed);
  EvolutionOutcome out;
  const rdf::Vocabulary& voc = current.vocabulary();
  const schema::SchemaView view = schema::SchemaView::Build(current);
  ChangeBuffer buffer(current.store());

  std::vector<rdf::TermId> classes = view.classes();
  if (classes.empty()) return out;

  // Working copies of instance lists and the instance-edge pool.
  std::unordered_map<rdf::TermId, std::vector<rdf::TermId>> instances;
  std::unordered_map<rdf::TermId, rdf::TermId> type_of;
  for (rdf::TermId cls : classes) {
    instances[cls] = view.InstancesOf(cls);
    for (rdf::TermId inst : instances[cls]) type_of[inst] = cls;
  }
  std::vector<InstanceEdge> edges;
  current.store().ScanT(rdf::TriplePattern{}, [&](const rdf::Triple& t) {
    if (voc.IsSchemaPredicate(t.predicate)) return true;
    auto s = type_of.find(t.subject);
    auto o = type_of.find(t.object);
    if (s == type_of.end() || o == type_of.end()) return true;
    edges.push_back({t, s->second, o->second});
    return true;
  });

  // Plant hot classes, preferring classes that actually have data.
  std::vector<rdf::TermId> with_instances;
  for (rdf::TermId cls : classes) {
    if (!instances[cls].empty()) with_instances.push_back(cls);
  }
  std::vector<rdf::TermId>& hot_pool =
      with_instances.size() >= options.hotspot_count ? with_instances
                                                     : classes;
  for (size_t index : rng.SampleWithoutReplacement(
           hot_pool.size(),
           std::min(options.hotspot_count, hot_pool.size()))) {
    out.hot_classes.push_back(hot_pool[index]);
  }

  auto pick_target = [&]() -> rdf::TermId {
    if (!out.hot_classes.empty() && rng.Bernoulli(options.hotspot_fraction)) {
      return out.hot_classes[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(out.hot_classes.size()) - 1))];
    }
    return classes[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(classes.size()) - 1))];
  };
  auto random_class = [&]() -> rdf::TermId {
    return classes[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(classes.size()) - 1))];
  };
  auto attribute = [&](rdf::TermId cls) { ++out.ops_per_class[cls]; };

  const std::vector<double> weights = {
      options.mix.add_class,    options.mix.delete_class,
      options.mix.move_class,   options.mix.add_property,
      options.mix.change_domain, options.mix.add_instance,
      options.mix.delete_instance, options.mix.add_edge,
      options.mix.delete_edge,  options.mix.retype_instance};

  size_t fresh_counter = 0;
  // Classes/instances created this epoch are excluded from deletion so
  // removals always reference the base snapshot.
  std::unordered_set<rdf::TermId> created_this_epoch;

  for (size_t op = 0; op < options.operations; ++op) {
    const size_t kind = rng.WeightedIndex(weights);
    const rdf::TermId target = pick_target();
    switch (kind) {
      case 0: {  // add_class under target
        const std::string iri = options.fresh_prefix + "GenClass_e" +
                                std::to_string(options.epoch) + "_" +
                                std::to_string(fresh_counter++);
        const rdf::TermId cls = dictionary.InternIri(iri);
        buffer.Add(rdf::Triple(cls, voc.rdf_type, voc.rdfs_class));
        buffer.Add(rdf::Triple(cls, voc.rdfs_subclass_of, target));
        created_this_epoch.insert(cls);
        attribute(target);
        break;
      }
      case 1: {  // delete_class: leaf classes of the base snapshot only
        if (created_this_epoch.count(target) > 0) break;
        if (!view.hierarchy().Children(target).empty()) break;
        if (!instances[target].empty()) break;  // keep data consistent
        buffer.Remove(rdf::Triple(target, voc.rdf_type, voc.rdfs_class));
        for (rdf::TermId parent : view.hierarchy().Parents(target)) {
          buffer.Remove(
              rdf::Triple(target, voc.rdfs_subclass_of, parent));
        }
        attribute(target);
        break;
      }
      case 2: {  // move_class: reparent target
        const auto& parents = view.hierarchy().Parents(target);
        if (parents.empty()) break;
        const rdf::TermId new_parent = random_class();
        if (new_parent == target || new_parent == parents[0]) break;
        buffer.Remove(
            rdf::Triple(target, voc.rdfs_subclass_of, parents[0]));
        buffer.Add(rdf::Triple(target, voc.rdfs_subclass_of, new_parent));
        attribute(target);
        attribute(new_parent);
        break;
      }
      case 3: {  // add_property with domain = target
        const std::string iri = options.fresh_prefix + "genProp_e" +
                                std::to_string(options.epoch) + "_" +
                                std::to_string(fresh_counter++);
        const rdf::TermId property = dictionary.InternIri(iri);
        buffer.Add(rdf::Triple(property, voc.rdf_type, voc.rdf_property));
        buffer.Add(rdf::Triple(property, voc.rdfs_domain, target));
        buffer.Add(rdf::Triple(property, voc.rdfs_range, random_class()));
        attribute(target);
        break;
      }
      case 4: {  // change_domain of a random property to target
        if (view.properties().empty()) break;
        const rdf::TermId property =
            view.properties()[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(view.properties().size()) - 1))];
        const auto domains = view.DomainsOf(property);
        if (domains.empty() || domains[0] == target) break;
        buffer.Remove(rdf::Triple(property, voc.rdfs_domain, domains[0]));
        buffer.Add(rdf::Triple(property, voc.rdfs_domain, target));
        attribute(target);
        attribute(domains[0]);
        break;
      }
      case 5: {  // add_instance of target
        const std::string iri = options.fresh_prefix + "genInst_e" +
                                std::to_string(options.epoch) + "_" +
                                std::to_string(fresh_counter++);
        const rdf::TermId instance = dictionary.InternIri(iri);
        buffer.Add(rdf::Triple(instance, voc.rdf_type, target));
        instances[target].push_back(instance);
        type_of[instance] = target;
        created_this_epoch.insert(instance);
        attribute(target);
        break;
      }
      case 6: {  // delete_instance of target (base-snapshot instances)
        auto& pool = instances[target];
        if (pool.empty()) break;
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1));
        const rdf::TermId instance = pool[pick];
        if (created_this_epoch.count(instance) > 0) break;
        buffer.Remove(rdf::Triple(instance, voc.rdf_type, target));
        // Drop the instance's edges with it.
        for (auto it = edges.begin(); it != edges.end();) {
          if (it->triple.subject == instance ||
              it->triple.object == instance) {
            buffer.Remove(it->triple);
            it = edges.erase(it);
          } else {
            ++it;
          }
        }
        pool.erase(pool.begin() + static_cast<ptrdiff_t>(pick));
        type_of.erase(instance);
        attribute(target);
        break;
      }
      case 7: {  // add_edge touching target where possible
        if (view.properties().empty()) break;
        const rdf::TermId property =
            view.properties()[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(view.properties().size()) - 1))];
        const auto domains = view.DomainsOf(property);
        const auto ranges = view.RangesOf(property);
        // Prefer an edge out of the target class when the property
        // allows it; otherwise use the declared domain.
        const rdf::TermId source_class =
            (!instances[target].empty() &&
             (domains.empty() || rng.Bernoulli(0.5)))
                ? target
                : (domains.empty() ? target : domains[0]);
        const rdf::TermId target_class = ranges.empty() ? target : ranges[0];
        auto& sources = instances[source_class];
        auto& targets = instances[target_class];
        if (sources.empty() || targets.empty()) break;
        const rdf::TermId s = sources[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(sources.size()) - 1))];
        const rdf::TermId o = targets[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(targets.size()) - 1))];
        const rdf::Triple t(s, property, o);
        buffer.Add(t);
        edges.push_back({t, source_class, target_class});
        attribute(source_class);
        if (target_class != source_class) attribute(target_class);
        break;
      }
      case 8: {  // delete_edge touching target
        std::vector<size_t> touching;
        for (size_t i = 0; i < edges.size(); ++i) {
          if (edges[i].subject_class == target ||
              edges[i].object_class == target) {
            touching.push_back(i);
          }
        }
        if (touching.empty()) break;
        const size_t pick = touching[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(touching.size()) - 1))];
        buffer.Remove(edges[pick].triple);
        attribute(edges[pick].subject_class);
        if (edges[pick].object_class != edges[pick].subject_class) {
          attribute(edges[pick].object_class);
        }
        edges.erase(edges.begin() + static_cast<ptrdiff_t>(pick));
        break;
      }
      case 9: {  // retype_instance from target to a random class
        auto& pool = instances[target];
        if (pool.empty()) break;
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1));
        const rdf::TermId instance = pool[pick];
        const rdf::TermId new_class = random_class();
        if (new_class == target) break;
        buffer.Remove(rdf::Triple(instance, voc.rdf_type, target));
        buffer.Add(rdf::Triple(instance, voc.rdf_type, new_class));
        pool.erase(pool.begin() + static_cast<ptrdiff_t>(pick));
        instances[new_class].push_back(instance);
        type_of[instance] = new_class;
        attribute(target);
        attribute(new_class);
        break;
      }
      default:
        break;
    }
  }
  out.changes = buffer.Finish();
  return out;
}

}  // namespace evorec::workload
