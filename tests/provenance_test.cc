#include "provenance/store.h"

#include <gtest/gtest.h>

#include "provenance/trust.h"
#include "provenance/workflow.h"

namespace evorec::provenance {
namespace {

ProvRecord Make(const std::string& entity, const std::string& agent,
                SourceKind source, std::vector<RecordId> inputs = {},
                uint64_t timestamp = 0) {
  ProvRecord r;
  r.entity = entity;
  r.activity = "activity/" + entity;
  r.agent = agent;
  r.source = source;
  r.inputs = std::move(inputs);
  r.timestamp = timestamp;
  return r;
}

TEST(ProvenanceStoreTest, AppendAssignsSequentialIds) {
  ProvenanceStore store;
  auto a = store.Append(Make("e1", "ann", SourceKind::kObservation));
  auto b = store.Append(Make("e2", "bob", SourceKind::kInference, {*a}));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 1u);
  EXPECT_EQ(store.size(), 2u);
}

TEST(ProvenanceStoreTest, RejectsDanglingInputs) {
  ProvenanceStore store;
  auto bad = store.Append(Make("e", "a", SourceKind::kInference, {42}));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(store.size(), 0u);
}

TEST(ProvenanceStoreTest, WhoCreatedAndWhen) {
  ProvenanceStore store;
  (void)store.Append(Make("doc", "ann", SourceKind::kObservation, {}, 10));
  (void)store.Append(Make("doc", "bob", SourceKind::kInference, {0}, 20));
  (void)store.Append(Make("other", "ann", SourceKind::kObservation, {}, 30));

  // Who touched "doc" and when — §III.b's transparency question.
  const auto doc_records = store.ForEntity("doc");
  ASSERT_EQ(doc_records.size(), 2u);
  EXPECT_EQ(doc_records[0].agent, "ann");
  EXPECT_EQ(doc_records[0].timestamp, 10u);
  EXPECT_EQ(doc_records[1].agent, "bob");

  const auto by_ann = store.ByAgent("ann");
  EXPECT_EQ(by_ann.size(), 2u);
  EXPECT_TRUE(store.ForEntity("nothing").empty());
}

TEST(ProvenanceStoreTest, DerivationChainIsTransitive) {
  ProvenanceStore store;
  auto base1 = store.Append(Make("raw1", "a", SourceKind::kObservation));
  auto base2 = store.Append(Make("raw2", "a", SourceKind::kObservation));
  auto mid =
      store.Append(Make("mid", "a", SourceKind::kInference, {*base1}));
  auto top = store.Append(
      Make("top", "a", SourceKind::kInference, {*mid, *base2}));

  auto chain = store.DerivationChain(*top);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->size(), 3u);  // mid, raw1, raw2

  auto depth_top = store.DerivationDepth(*top);
  ASSERT_TRUE(depth_top.ok());
  EXPECT_EQ(*depth_top, 2u);
  EXPECT_EQ(*store.DerivationDepth(*base1), 0u);
  EXPECT_FALSE(store.DerivationChain(99).ok());
}

TEST(TrustTest, SourceKindOrdering) {
  ProvenanceStore store;
  auto obs = store.Append(Make("o", "a", SourceKind::kObservation));
  auto inf = store.Append(Make("i", "a", SourceKind::kInference));
  auto belief = store.Append(Make("b", "a", SourceKind::kBeliefAdoption));
  const TrustModel model;
  EXPECT_GT(*TrustOf(store, *obs, model), *TrustOf(store, *inf, model));
  EXPECT_GT(*TrustOf(store, *inf, model), *TrustOf(store, *belief, model));
}

TEST(TrustTest, ChainsDecayAndWeakestLinkDominates) {
  ProvenanceStore store;
  auto strong = store.Append(Make("s", "a", SourceKind::kObservation));
  auto weak = store.Append(Make("w", "a", SourceKind::kBeliefAdoption));
  auto from_strong =
      store.Append(Make("fs", "a", SourceKind::kInference, {*strong}));
  auto from_both = store.Append(
      Make("fb", "a", SourceKind::kInference, {*strong, *weak}));

  const TrustModel model;
  // Derivation is less trusted than its source.
  EXPECT_LT(*TrustOf(store, *from_strong, model),
            *TrustOf(store, *strong, model));
  // Mixing in a weak input drags trust down to the weakest link.
  EXPECT_LT(*TrustOf(store, *from_both, model),
            *TrustOf(store, *from_strong, model));
  // Deeper chains decay further.
  auto deeper =
      store.Append(Make("d", "a", SourceKind::kInference, {*from_strong}));
  EXPECT_LT(*TrustOf(store, *deeper, model),
            *TrustOf(store, *from_strong, model));
}

TEST(TrustTest, UnknownRecordErrors) {
  ProvenanceStore store;
  EXPECT_FALSE(TrustOf(store, 3).ok());
}

TEST(WorkflowTest, StagesChainAutomatically) {
  ProvenanceStore store;
  Workflow workflow("pipeline", "evorec", store);
  auto input = workflow.RecordInput("raw_data", "loaded 10 triples");
  ASSERT_TRUE(input.ok());
  auto stage1 = workflow.RunStage("parse", "parsed_data",
                                  SourceKind::kInference, {*input},
                                  [] { return std::string("parsed"); });
  ASSERT_TRUE(stage1.ok());
  auto stage2 = workflow.RunStage("analyze", "analysis",
                                  SourceKind::kInference, {*stage1},
                                  [] { return std::string("analyzed"); });
  ASSERT_TRUE(stage2.ok());

  EXPECT_EQ(workflow.stage_records().size(), 3u);
  // Logical clock increments per stage.
  EXPECT_LT(store.records()[*stage1].timestamp,
            store.records()[*stage2].timestamp);
  // Activities carry the workflow name.
  EXPECT_EQ(store.records()[*stage2].activity, "pipeline/analyze");
  // The final artefact's chain reaches the raw input.
  auto chain = store.DerivationChain(*stage2);
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain->size(), 2u);
  EXPECT_EQ(chain->back().entity, "raw_data");
}

TEST(WorkflowTest, StageFnRunsExactlyOnce) {
  ProvenanceStore store;
  Workflow workflow("wf", "agent", store);
  int runs = 0;
  (void)workflow.RunStage("s", "e", SourceKind::kObservation, {}, [&] {
    ++runs;
    return std::string("note");
  });
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(store.records()[0].note, "note");
}

TEST(SourceKindTest, NamesAreStable) {
  EXPECT_EQ(SourceKindName(SourceKind::kObservation), "observation");
  EXPECT_EQ(SourceKindName(SourceKind::kInference), "inference");
  EXPECT_EQ(SourceKindName(SourceKind::kBeliefAdoption), "belief_adoption");
}

}  // namespace
}  // namespace evorec::provenance
