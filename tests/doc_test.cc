#include <gtest/gtest.h>

#include "common/rng.h"
#include "doc/builder.h"
#include "doc/component.h"
#include "doc/document.h"
#include "doc/presentation.h"
#include "doc/presentation_view.h"

namespace mmconf::doc {
namespace {

using cpnet::Assignment;

TEST(PresentationTest, CostModelOrdering) {
  const size_t full = 1 << 20;
  MMPresentation hidden{"hidden", PresentationKind::kHidden, 0};
  MMPresentation icon{"icon", PresentationKind::kIcon, 0};
  MMPresentation thumb{"thumb", PresentationKind::kThumbnail, 2};
  MMPresentation flat{"flat", PresentationKind::kImage, 0};
  MMPresentation seg{"seg", PresentationKind::kSegmentedImage, 0};
  EXPECT_EQ(PresentationCostBytes(hidden, full), 0u);
  EXPECT_LT(PresentationCostBytes(icon, full),
            PresentationCostBytes(thumb, full));
  EXPECT_LT(PresentationCostBytes(thumb, full),
            PresentationCostBytes(flat, full));
  EXPECT_LT(PresentationCostBytes(flat, full),
            PresentationCostBytes(seg, full));
}

TEST(ComponentTest, FlattenIsPreOrder) {
  auto root = std::make_unique<CompositeMultimediaComponent>("root");
  auto group = std::make_unique<CompositeMultimediaComponent>("group");
  group->AddChild(std::make_unique<PrimitiveMultimediaComponent>(
      "leaf1", ContentRef{"Text", 1, 10}, TextPresentations()));
  root->AddChild(std::move(group));
  root->AddChild(std::make_unique<PrimitiveMultimediaComponent>(
      "leaf2", ContentRef{"Text", 2, 10}, TextPresentations()));
  std::vector<const MultimediaComponent*> flat = FlattenTree(root.get());
  ASSERT_EQ(flat.size(), 4u);
  EXPECT_EQ(flat[0]->name(), "root");
  EXPECT_EQ(flat[1]->name(), "group");
  EXPECT_EQ(flat[2]->name(), "leaf1");
  EXPECT_EQ(flat[3]->name(), "leaf2");
}

TEST(DocumentTest, DuplicateNamesRejected) {
  auto root = std::make_unique<CompositeMultimediaComponent>("root");
  root->AddChild(std::make_unique<PrimitiveMultimediaComponent>(
      "x", ContentRef{"Text", 1, 10}, TextPresentations()));
  root->AddChild(std::make_unique<PrimitiveMultimediaComponent>(
      "x", ContentRef{"Text", 2, 10}, TextPresentations()));
  EXPECT_TRUE(MultimediaDocument::Create(std::move(root))
                  .status()
                  .IsInvalidArgument());
}

TEST(DocumentTest, NullRootRejected) {
  EXPECT_TRUE(
      MultimediaDocument::Create(nullptr).status().IsInvalidArgument());
}

class MedicalRecordTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<MultimediaDocument> document = MakeMedicalRecordDocument();
    ASSERT_TRUE(document.ok()) << document.status();
    document_ = std::make_unique<MultimediaDocument>(
        std::move(document).value());
  }
  std::unique_ptr<MultimediaDocument> document_;
};

TEST_F(MedicalRecordTest, StructureMatchesBuilder) {
  EXPECT_EQ(document_->num_components(), 10u);  // root + 3 groups + 6 leaves
  EXPECT_TRUE(document_->Find("CT").ok());
  EXPECT_TRUE(document_->Find("XRay").ok());
  EXPECT_TRUE(document_->Find("Nonexistent").status().IsNotFound());
}

TEST_F(MedicalRecordTest, DefaultShowsCtHidesXray) {
  Assignment config = document_->DefaultPresentation().value();
  EXPECT_EQ(document_->PresentationFor(config, "CT").value().name, "flat");
  // CT shown -> author prefers the correlated X-ray hidden.
  EXPECT_EQ(document_->PresentationFor(config, "XRay").value().name,
            "hidden");
  // Voice of expertise accompanies the CT.
  EXPECT_EQ(document_->PresentationFor(config, "ExpertVoice").value().name,
            "audio");
}

TEST_F(MedicalRecordTest, HidingCtSurfacesXray) {
  Assignment config =
      document_->ReconfigPresentation({{"CT", "hidden"}}).value();
  EXPECT_EQ(document_->PresentationFor(config, "CT").value().name, "hidden");
  EXPECT_EQ(document_->PresentationFor(config, "XRay").value().name, "flat");
  // Voice drops to summary without the CT.
  EXPECT_EQ(document_->PresentationFor(config, "ExpertVoice").value().name,
            "summary");
}

TEST_F(MedicalRecordTest, ReleaseChoiceRestoresDefault) {
  Assignment with_choice =
      document_->ReconfigPresentation({{"CT", "hidden"}}).value();
  Assignment released =
      document_->ReconfigPresentation({{"CT", "hidden"}, {"CT", ""}})
          .value();
  EXPECT_EQ(released, document_->DefaultPresentation().value());
  EXPECT_NE(with_choice, released);
}

TEST_F(MedicalRecordTest, UnknownChoiceRejected) {
  EXPECT_TRUE(document_->ReconfigPresentation({{"CT", "sepia"}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(document_->ReconfigPresentation({{"Nope", "flat"}})
                  .status()
                  .IsNotFound());
}

TEST_F(MedicalRecordTest, VisibilityFollowsAncestors) {
  Assignment config =
      document_->ReconfigPresentation({{"Imaging", "hidden"}}).value();
  EXPECT_FALSE(document_->IsVisible(config, "CT").value());
  EXPECT_FALSE(document_->IsVisible(config, "XRay").value());
  EXPECT_TRUE(document_->IsVisible(config, "TestResults").value());
  Assignment default_config = document_->DefaultPresentation().value();
  EXPECT_TRUE(document_->IsVisible(default_config, "CT").value());
  // XRay hidden by its own presentation, not its ancestor.
  EXPECT_FALSE(document_->IsVisible(default_config, "XRay").value());
}

TEST_F(MedicalRecordTest, BulkVisibilityMatchesPerComponentQueries) {
  for (const std::vector<ViewerChoice>& choices :
       std::vector<std::vector<ViewerChoice>>{
           {},
           {{"CT", "hidden"}},
           {{"Imaging", "hidden"}},
           {{"CT", "hidden"}, {"XRay", "icon"}}}) {
    Result<cpnet::Assignment> config =
        document_->ReconfigPresentation(choices);
    ASSERT_TRUE(config.ok()) << config.status();
    std::vector<char> bulk;
    ASSERT_TRUE(document_->ComputeVisibility(*config, &bulk).ok());
    ASSERT_EQ(bulk.size(), document_->num_components());
    for (size_t i = 0; i < document_->num_components(); ++i) {
      const std::string& name = document_->components()[i]->name();
      EXPECT_EQ(static_cast<bool>(bulk[i]),
                document_->IsVisible(*config, name).value())
          << name;
    }
  }
  std::vector<char> bulk;
  cpnet::Assignment partial(document_->num_variables());
  EXPECT_FALSE(document_->ComputeVisibility(partial, &bulk).ok());
}

TEST_F(MedicalRecordTest, BulkVisibilityRandomParity) {
  Rng rng(404);
  MultimediaDocument document =
      MakeRandomDocument(/*num_groups=*/4, /*num_leaves=*/12, rng).value();
  for (int trial = 0; trial < 10; ++trial) {
    // A random full configuration, not necessarily optimal.
    cpnet::Assignment config(document.num_variables());
    for (size_t v = 0; v < document.num_variables(); ++v) {
      cpnet::VarId var = static_cast<cpnet::VarId>(v);
      uint64_t domain = static_cast<uint64_t>(document.net().DomainSize(var));
      config.Set(var, static_cast<cpnet::ValueId>(rng.NextBelow(domain)));
    }
    std::vector<char> bulk;
    ASSERT_TRUE(document.ComputeVisibility(config, &bulk).ok());
    for (size_t i = 0; i < document.num_components(); ++i) {
      const std::string& name = document.components()[i]->name();
      EXPECT_EQ(static_cast<bool>(bulk[i]),
                document.IsVisible(config, name).value())
          << name << " trial " << trial;
    }
  }
}

TEST_F(MedicalRecordTest, PresentationViewTracksConfiguration) {
  PresentationView view(document_.get());
  cpnet::Assignment config = document_->DefaultPresentation().value();
  ASSERT_TRUE(view.Rebuild(config).ok());
  ASSERT_EQ(view.num_components(), document_->num_components());
  for (size_t i = 0; i < document_->num_components(); ++i) {
    cpnet::VarId var = static_cast<cpnet::VarId>(i);
    const MultimediaComponent* component = document_->ComponentAt(var);
    const std::string& name = component->name();
    EXPECT_EQ(view.visible(var), document_->IsVisible(config, name).value());
    if (const PrimitiveMultimediaComponent* primitive =
            component->AsPrimitive()) {
      ASSERT_NE(view.presentation(var), nullptr);
      EXPECT_EQ(view.presentation(var)->name,
                document_->PresentationFor(config, name).value().name);
      EXPECT_EQ(view.cost_bytes(var),
                PresentationCostBytes(*view.presentation(var),
                                      primitive->content().content_bytes));
    } else {
      EXPECT_EQ(view.primitive(var), nullptr);
      EXPECT_EQ(view.cost_bytes(var), 0u);
    }
  }
  // Incremental update after a reconfiguration.
  cpnet::Assignment next =
      document_->ReconfigPresentation({{"CT", "hidden"}}).value();
  MultimediaDocument::ConfigurationDelta delta =
      document_->DiffConfigurations(config, next).value();
  ASSERT_TRUE(view.Update(next, delta.changed_vars).ok());
  for (size_t i = 0; i < document_->num_components(); ++i) {
    cpnet::VarId var = static_cast<cpnet::VarId>(i);
    const std::string& name = document_->ComponentAt(var)->name();
    EXPECT_EQ(view.visible(var), document_->IsVisible(next, name).value());
    if (view.primitive(var) != nullptr) {
      EXPECT_EQ(view.presentation(var)->name,
                document_->PresentationFor(next, name).value().name);
    }
  }
}

TEST_F(MedicalRecordTest, PresentationViewRebuildsAfterStructureChange) {
  PresentationView view(document_.get());
  cpnet::Assignment config = document_->DefaultPresentation().value();
  ASSERT_TRUE(view.Rebuild(config).ok());
  uint64_t version_before = document_->structure_version();
  ASSERT_TRUE(document_
                  ->AddComponent(
                      "Imaging",
                      std::make_unique<PrimitiveMultimediaComponent>(
                          "MRI", ContentRef{"Image", 77, 1 << 18},
                          ImagePresentations()))
                  .ok());
  EXPECT_GT(document_->structure_version(), version_before);
  // Update with an empty delta must detect the rebinding and rebuild
  // rather than serve stale pointers.
  cpnet::Assignment rebound = document_->DefaultPresentation().value();
  ASSERT_TRUE(view.Update(rebound, {}).ok());
  EXPECT_EQ(view.num_components(), document_->num_components());
  cpnet::VarId mri = document_->VarOf("MRI").value();
  ASSERT_NE(view.primitive(mri), nullptr);
  EXPECT_EQ(view.primitive(mri)->name(), "MRI");
}

TEST_F(MedicalRecordTest, DeliveryCostTracksChoices) {
  Assignment default_config = document_->DefaultPresentation().value();
  size_t default_cost =
      document_->DeliveryCostBytes(default_config).value();
  EXPECT_GT(default_cost, 0u);
  // Hiding the imaging group removes the CT payload.
  Assignment imaging_hidden =
      document_->ReconfigPresentation({{"Imaging", "hidden"}}).value();
  EXPECT_LT(document_->DeliveryCostBytes(imaging_hidden).value(),
            default_cost);
  // Showing everything flat costs more than the default.
  Assignment all_flat = document_
                            ->ReconfigPresentation({{"CT", "flat"},
                                                    {"XRay", "flat"},
                                                    {"TrendGraph", "flat"}})
                            .value();
  EXPECT_GT(document_->DeliveryCostBytes(all_flat).value(), default_cost);
}

TEST_F(MedicalRecordTest, DiffConfigurations) {
  Assignment before = document_->DefaultPresentation().value();
  Assignment after =
      document_->ReconfigPresentation({{"CT", "hidden"}}).value();
  auto delta = document_->DiffConfigurations(before, after).value();
  // CT, XRay and ExpertVoice all change; only visible ones cost bytes.
  EXPECT_EQ(delta.changed_components.size(), 3u);
  EXPECT_GT(delta.redisplay_cost_bytes, 0u);
  // Identity diff is empty.
  auto none = document_->DiffConfigurations(after, after).value();
  EXPECT_TRUE(none.changed_components.empty());
  EXPECT_EQ(none.redisplay_cost_bytes, 0u);
  // A shorter `before` (extension variable added in between) marks the
  // unseen components as changed rather than crashing.
  document_->AddOperationVariable("CT", "flat", "CT.seg2").value();
  Assignment grown = document_->DefaultPresentation().value();
  EXPECT_TRUE(document_->DiffConfigurations(before, grown).ok());
  // `after` must span the current network.
  EXPECT_TRUE(document_->DiffConfigurations(grown, before)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(MedicalRecordTest, EncodeDecodePreservesBehaviour) {
  Bytes encoded = document_->Encode();
  Result<MultimediaDocument> decoded = MultimediaDocument::Decode(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->num_components(), document_->num_components());
  EXPECT_EQ(decoded->DefaultPresentation().value(),
            document_->DefaultPresentation().value());
  Assignment a = decoded->ReconfigPresentation({{"CT", "hidden"}}).value();
  Assignment b =
      document_->ReconfigPresentation({{"CT", "hidden"}}).value();
  EXPECT_EQ(a, b);
}

TEST_F(MedicalRecordTest, DecodeRejectsGarbage) {
  EXPECT_TRUE(
      MultimediaDocument::Decode({1, 2, 3}).status().IsCorruption());
}

TEST_F(MedicalRecordTest, OperationVariableExtendsConfiguration) {
  size_t before = document_->num_variables();
  cpnet::VarId op =
      document_->AddOperationVariable("CT", "flat", "CT.segmentation")
          .value();
  EXPECT_EQ(document_->num_variables(), before + 1);
  EXPECT_EQ(document_->num_components(), 10u);  // unchanged
  Assignment config = document_->DefaultPresentation().value();
  EXPECT_EQ(config.size(), before + 1);
  // CT defaults to flat -> operation applied.
  EXPECT_EQ(config.Get(op), 0);
  Assignment hidden_ct =
      document_->ReconfigPresentation({{"CT", "hidden"}}).value();
  EXPECT_EQ(hidden_ct.Get(op), 1);  // plain
  // Duplicate op name rejected.
  EXPECT_TRUE(
      document_->AddOperationVariable("CT", "flat", "CT.segmentation")
          .status()
          .IsAlreadyExists());
}

TEST_F(MedicalRecordTest, EncodeDecodeWithOperationVariable) {
  document_->AddOperationVariable("CT", "flat", "CT.seg").value();
  Result<MultimediaDocument> decoded =
      MultimediaDocument::Decode(document_->Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->num_variables(), document_->num_variables());
  EXPECT_EQ(decoded->DefaultPresentation().value(),
            document_->DefaultPresentation().value());
}

TEST_F(MedicalRecordTest, AddComponentPreservesPreferences) {
  auto mri = std::make_unique<PrimitiveMultimediaComponent>(
      "MRI", ContentRef{"Image", 9, 262144}, ImagePresentations());
  cpnet::VarId var =
      document_->AddComponent("Imaging", std::move(mri)).value();
  EXPECT_EQ(document_->num_components(), 11u);
  EXPECT_EQ(document_->net().VariableName(var), "MRI");
  // The new component defaults to its first option...
  Assignment config = document_->DefaultPresentation().value();
  EXPECT_EQ(document_->PresentationFor(config, "MRI").value().name, "flat");
  // ...and every pre-existing preference still holds (CT shown -> XRay
  // hidden, etc).
  EXPECT_EQ(document_->PresentationFor(config, "CT").value().name, "flat");
  EXPECT_EQ(document_->PresentationFor(config, "XRay").value().name,
            "hidden");
  Assignment hidden_ct =
      document_->ReconfigPresentation({{"CT", "hidden"}}).value();
  EXPECT_EQ(document_->PresentationFor(hidden_ct, "XRay").value().name,
            "flat");
}

TEST_F(MedicalRecordTest, AddComponentValidation) {
  auto dup = std::make_unique<PrimitiveMultimediaComponent>(
      "CT", ContentRef{"Image", 9, 1}, ImagePresentations());
  EXPECT_TRUE(document_->AddComponent("Imaging", std::move(dup))
                  .status()
                  .IsAlreadyExists());
  auto orphan = std::make_unique<PrimitiveMultimediaComponent>(
      "Orphan", ContentRef{"Image", 9, 1}, ImagePresentations());
  EXPECT_TRUE(document_->AddComponent("NoSuchGroup", std::move(orphan))
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(
      document_->AddComponent("Imaging", nullptr).status()
          .IsInvalidArgument());
}

TEST_F(MedicalRecordTest, AddComponentKeepsOperationVariables) {
  document_->AddOperationVariable("CT", "flat", "CT.seg").value();
  auto mri = std::make_unique<PrimitiveMultimediaComponent>(
      "MRI", ContentRef{"Image", 9, 1024}, ImagePresentations());
  document_->AddComponent("Imaging", std::move(mri)).value();
  // Operation variable survived the rebinding and still triggers.
  cpnet::VarId op = document_->VarOf("CT.seg").value();
  Assignment config = document_->DefaultPresentation().value();
  EXPECT_EQ(config.Get(op), 0);  // CT flat -> applied
}

TEST_F(MedicalRecordTest, RemoveComponentRestrictsDependents) {
  // XRay and ExpertVoice both condition on the CT. Removing the CT
  // restricts them to the CT=hidden context: XRay surfaces flat, voice
  // degrades to summary.
  ASSERT_TRUE(document_->RemoveComponent("CT").ok());
  EXPECT_EQ(document_->num_components(), 9u);
  EXPECT_TRUE(document_->Find("CT").status().IsNotFound());
  Assignment config = document_->DefaultPresentation().value();
  EXPECT_EQ(document_->PresentationFor(config, "XRay").value().name,
            "flat");
  EXPECT_EQ(document_->PresentationFor(config, "ExpertVoice").value().name,
            "summary");
}

TEST_F(MedicalRecordTest, RemoveComponentValidation) {
  EXPECT_TRUE(document_->RemoveComponent("MedicalRecord")
                  .IsInvalidArgument());  // root
  EXPECT_TRUE(document_->RemoveComponent("Imaging")
                  .IsFailedPrecondition());  // non-empty composite
  EXPECT_TRUE(document_->RemoveComponent("Ghost").IsNotFound());
  // An emptied composite can go.
  ASSERT_TRUE(document_->RemoveComponent("CT").ok());
  ASSERT_TRUE(document_->RemoveComponent("XRay").ok());
  EXPECT_TRUE(document_->RemoveComponent("Imaging").ok());
  EXPECT_EQ(document_->num_components(), 7u);
  EXPECT_TRUE(document_->DefaultPresentation().ok());
}

TEST_F(MedicalRecordTest, AddThenRemoveRoundTrips) {
  Assignment before = document_->DefaultPresentation().value();
  auto mri = std::make_unique<PrimitiveMultimediaComponent>(
      "MRI", ContentRef{"Image", 9, 1024}, ImagePresentations());
  document_->AddComponent("Imaging", std::move(mri)).value();
  ASSERT_TRUE(document_->RemoveComponent("MRI").ok());
  EXPECT_EQ(document_->DefaultPresentation().value(), before);
}

TEST(RandomDocumentTest, GeneratorProducesValidDocuments) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    Result<MultimediaDocument> document = MakeRandomDocument(4, 12, rng);
    ASSERT_TRUE(document.ok()) << "seed " << seed << ": "
                               << document.status();
    EXPECT_EQ(document->num_components(), 17u);  // 1 root + 4 + 12
    Assignment config = document->DefaultPresentation().value();
    EXPECT_TRUE(config.IsComplete());
    EXPECT_TRUE(document->DeliveryCostBytes(config).ok());
  }
}

TEST(TreeBuilderTest, UnknownParentDeferredError) {
  TreeBuilder builder("root");
  builder.Leaf("missing", "x", {"Text", 1, 10}, TextPresentations());
  EXPECT_TRUE(builder.Build().status().IsNotFound());
}

}  // namespace
}  // namespace mmconf::doc
