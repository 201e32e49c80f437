// diff_tool: a command-line utility that diffs two KB states — given
// as N-Triples text or as binary storage snapshots (auto-detected by
// file magic, so `diff_tool saved.evsnap after.nt` works) — and
// prints (a) the low-level delta, (b) the detected high-level change
// patterns, and (c) the most affected classes under every registered
// evolution measure. The version pair is served through the engine
// layer (RecommendationService) like social_feed/curator_dashboard,
// so the measure table reads the engine's memoized reports instead of
// recomputing each measure. With no arguments it runs on a built-in
// demo pair so it stays runnable out of the box.
//
//   $ ./diff_tool before.{nt|evsnap} after.{nt|evsnap} [top_k]

#include <cstdio>
#include <iostream>

#include "evorec.h"

namespace {

using namespace evorec;

// A small built-in example pair so `./diff_tool` works standalone.
constexpr const char* kDemoBefore = R"(
<http://ex/Person> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2000/01/rdf-schema#Class> .
<http://ex/Student> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2000/01/rdf-schema#Class> .
<http://ex/Worker> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2000/01/rdf-schema#Class> .
<http://ex/Student> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/Person> .
<http://ex/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .
<http://ex/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Student> .
)";

constexpr const char* kDemoAfter = R"(
<http://ex/Person> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2000/01/rdf-schema#Class> .
<http://ex/Student> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2000/01/rdf-schema#Class> .
<http://ex/Worker> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2000/01/rdf-schema#Class> .
<http://ex/Student> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/Worker> .
<http://ex/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .
<http://ex/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Student> .
<http://ex/carol> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Student> .
)";

// Loads one input — binary snapshot or N-Triples text — into `kb`,
// re-encoding snapshot ids against the shared dictionary so both
// sides speak the same TermIds (the invariant every measure needs).
Status LoadInput(const std::string& label, const std::string& bytes,
                 rdf::KnowledgeBase& kb) {
  if (storage::LooksLikeSnapshot(bytes)) {
    auto decoded = storage::DecodeSnapshot(bytes);
    if (!decoded.ok()) {
      return Status(decoded.status().code(),
                    label + ": " + decoded.status().message());
    }
    std::printf("%s: binary snapshot of version %u (%llu triples)\n",
                label.c_str(), decoded->info.version_id,
                static_cast<unsigned long long>(decoded->info.triple_count));
    decoded->store.ScanT(rdf::TriplePattern{}, [&](const rdf::Triple& t) {
      kb.store().Add(
          rdf::Triple(kb.dictionary().Intern(decoded->dictionary->term(t.subject)),
                      kb.dictionary().Intern(decoded->dictionary->term(t.predicate)),
                      kb.dictionary().Intern(decoded->dictionary->term(t.object))));
      return true;
    });
    kb.store().Compact();
    return OkStatus();
  }
  return rdf::ParseNTriples(bytes, kb.dictionary(), kb.store());
}

int Run(const std::string& before_text, const std::string& after_text,
        size_t top_k) {
  auto dict = std::make_shared<rdf::Dictionary>();
  rdf::KnowledgeBase before(dict);
  rdf::KnowledgeBase after(dict);
  if (Status s = LoadInput("before", before_text, before); !s.ok()) {
    std::fprintf(stderr, "before: %s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = LoadInput("after", after_text, after); !s.ok()) {
    std::fprintf(stderr, "after: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("before: %zu triples, after: %zu triples\n", before.size(),
              after.size());

  // Lift the pair into a two-version KB and serve it through the
  // engine: the context and every measure report are built once and
  // memoized, exactly like the serving examples.
  version::VersionedKnowledgeBase vkb(before);
  version::ChangeSet changes;
  changes.additions = rdf::TripleStore::Difference(after.store(),
                                                   before.store());
  changes.removals = rdf::TripleStore::Difference(before.store(),
                                                  after.store());
  if (auto committed = vkb.Commit(std::move(changes), "diff_tool", "after");
      !committed.ok()) {
    std::fprintf(stderr, "%s\n", committed.status().ToString().c_str());
    return 1;
  }

  const measures::MeasureRegistry registry = measures::ExtendedRegistry();
  engine::RecommendationService service(registry);
  auto evaluation = service.engine().Evaluate(vkb, 0, 1);
  if (!evaluation.ok()) {
    std::fprintf(stderr, "%s\n", evaluation.status().ToString().c_str());
    return 1;
  }
  const measures::EvolutionContext& ctx = (*evaluation)->context();

  const delta::LowLevelDelta& delta = ctx.low_level_delta();
  std::printf("\nlow-level delta: |d+|=%zu |d-|=%zu |d|=%zu\n",
              delta.added.size(), delta.removed.size(), delta.size());

  const delta::HighLevelDelta hld = delta::DetectHighLevelChanges(
      delta, ctx.view_before(), ctx.view_after(), ctx.vocabulary());
  std::printf("high-level patterns (coverage %.0f%%):\n",
              hld.coverage * 100.0);
  for (const auto& [kind, count] : hld.CountsByKind()) {
    std::printf("  %-22s %zu\n",
                delta::HighLevelChangeKindName(kind).c_str(), count);
  }

  std::printf("\nmost affected terms per measure (top %zu):\n", top_k);
  auto reports = (*evaluation)->AllReports();
  if (!reports.ok()) {
    std::fprintf(stderr, "%s\n", reports.status().ToString().c_str());
    return 1;
  }
  const std::vector<measures::MeasureInfo> infos = registry.List();
  TablePrinter table({"measure", "term", "score"});
  for (size_t i = 0; i < reports->size() && i < infos.size(); ++i) {
    for (const auto& scored : (*reports)[i]->TopK(top_k)) {
      if (scored.score <= 0.0) continue;
      table.AddRow({infos[i].name, dict->term(scored.term).lexical,
                    TablePrinter::Cell(scored.score, 4)});
    }
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  size_t top_k = 3;
  if (argc >= 4) {
    top_k = static_cast<size_t>(std::atoi(argv[3]));
    if (top_k == 0) top_k = 3;
  }
  if (argc >= 3) {
    auto before = evorec::ReadFileToString(argv[1]);
    auto after = evorec::ReadFileToString(argv[2]);
    if (!before.ok() || !after.ok()) {
      std::fprintf(stderr,
                   "usage: %s before.{nt|evsnap} after.{nt|evsnap} [top_k]\n",
                   argv[0]);
      return 1;
    }
    return Run(*before, *after, top_k);
  }
  std::printf("no input files given — running the built-in demo pair\n");
  return Run(kDemoBefore, kDemoAfter, top_k);
}
