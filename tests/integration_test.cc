// Full-system integration tests: the Fig. 1 architecture end-to-end —
// documents in the BLOB database, an interaction server, multiple clients
// on asymmetric links, presentation reconfiguration, media operations and
// the layered codec for multi-resolution delivery (Fig. 9).

#include <gtest/gtest.h>

#include "client/client.h"
#include "compress/layered_codec.h"
#include "search/text_index.h"
#include "doc/builder.h"
#include "imaging/ops.h"
#include "media/synthetic.h"
#include "net/reliable.h"
#include "server/interaction_server.h"
#include "sim/loop.h"
#include "storage/database.h"

namespace mmconf {
namespace {

using compress::LayeredCodec;
using doc::MakeMedicalRecordDocument;
using doc::MultimediaDocument;
using server::ClientEndpoint;
using server::InteractionServer;
using server::ReconfigResult;
using server::Room;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::Network>(&clock_);
    server_node_ = network_->AddNode("interaction-server");
    db_node_ = network_->AddNode("oracle");
    fast_client_ = network_->AddNode("workstation");
    slow_client_ = network_->AddNode("home-dsl");
    ASSERT_TRUE(
        network_->SetDuplexLink(server_node_, db_node_, {50e6, 500}).ok());
    ASSERT_TRUE(network_
                    ->SetDuplexLink(server_node_, fast_client_,
                                    {10e6, 10000})
                    .ok());
    ASSERT_TRUE(network_
                    ->SetDuplexLink(server_node_, slow_client_,
                                    {4e3, 80000})  // 4 KB/s mobile link
                    .ok());
    ASSERT_TRUE(db_.RegisterStandardTypes().ok());
    transport_ = std::make_unique<net::ReliableTransport>(network_.get());
    server_ = std::make_unique<InteractionServer>(&db_, transport_.get(),
                                                  server_node_, db_node_);
    loop_ = std::make_unique<sim::Loop>(transport_.get());
    loop_->Register(server_.get());
  }

  Clock clock_;
  storage::DatabaseServer db_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::ReliableTransport> transport_;
  std::unique_ptr<InteractionServer> server_;
  std::unique_ptr<sim::Loop> loop_;
  net::NodeId server_node_ = 0, db_node_ = 0, fast_client_ = 0,
              slow_client_ = 0;
};

TEST_F(IntegrationTest, FullConsultationScenario) {
  // 1. A medical record document and its CT image go into the database.
  Rng rng(1);
  media::Image ct = media::MakePhantomCt({256, 256, 5, 3.0}, rng);
  storage::ObjectRef ct_ref =
      db_.Store("Image",
                {{"FLD_QUALITY", int64_t{95}},
                 {"FLD_TEXTS", std::string("chest ct")},
                 {"FLD_CM", std::string("slice 42")}},
                {{"FLD_DATA", ct.Encode()}})
          .value();
  MultimediaDocument document = MakeMedicalRecordDocument().value();
  storage::ObjectRef doc_ref =
      server_->StoreDocument(document, "patient-9").value();

  // 2. Open a room and let two physicians join.
  server_->OpenRoom("tumor-board", doc_ref).value();
  client::ClientModule fast("dr-cohen", fast_client_);
  client::ClientModule slow("dr-levi", slow_client_);
  MicrosT fast_joined =
      server_->Join("tumor-board", {"dr-cohen", fast_client_}).value();
  MicrosT slow_joined =
      server_->Join("tumor-board", {"dr-levi", slow_client_}).value();
  EXPECT_LT(fast_joined, slow_joined);

  std::vector<net::Delivery> deliveries = loop_->Drain();
  fast.HandleDeliveries(deliveries);
  slow.HandleDeliveries(deliveries);
  EXPECT_GT(fast.bytes_received(), 0u);
  // The 4 KB/s member receives a §4.4-transcoded (smaller) rendition of
  // the same shared view.
  EXPECT_GT(slow.bytes_received(), 0u);
  EXPECT_LT(slow.bytes_received(), fast.bytes_received());
  EXPECT_GT(slow.last_delivery_at(), fast.last_delivery_at());

  // 3. dr-cohen hides the CT; dr-levi sees the X-ray surface.
  ReconfigResult result =
      server_->SubmitChoice("tumor-board", "dr-cohen", "CT", "hidden")
          .value();
  EXPECT_FALSE(result.changed_components.empty());
  deliveries = loop_->Drain();
  slow.HandleDeliveries(deliveries);
  EXPECT_GT(slow.deliveries_received(), 1u);

  // 4. The room's rendered view reflects the choice.
  Room* room = server_->GetRoom("tumor-board").value();
  std::string view =
      client::RenderDocumentView(room->document(), room->configuration())
          .value();
  EXPECT_NE(view.find("XRay  [flat]"), std::string::npos);
  EXPECT_NE(view.find("CT  [hidden]"), std::string::npos);

  // 5. dr-levi freezes the CT and segments it (a real image op against
  // the stored object).
  ASSERT_TRUE(room->Freeze("dr-levi", "CT").ok());
  Bytes ct_bytes = db_.FetchBlob(ct_ref, "FLD_DATA").value();
  media::Image fetched = media::Image::Decode(ct_bytes).value();
  media::Image segmented = imaging::SegmentedView(fetched, 4).value();
  ASSERT_TRUE(
      db_.Modify(ct_ref, {}, {{"FLD_DATA", segmented.Encode()}}).ok());
  server::UserAction op;
  op.type = server::ActionType::kSegmentOp;
  op.viewer = "dr-levi";
  op.component = "CT";
  EXPECT_TRUE(server_->ApplyOperation("tumor-board", op, true).ok());

  // 6. The modified image is what later fetches see.
  media::Image refetched =
      media::Image::Decode(db_.FetchBlob(ct_ref, "FLD_DATA").value())
          .value();
  EXPECT_EQ(refetched.pixels(), segmented.pixels());
}

TEST_F(IntegrationTest, MultiResolutionDeliveryPerBandwidth) {
  // Fig. 9: "the same image is shown with different resolutions to the
  // various partners in the chat room" — encode the CT with the layered
  // codec and give each client the number of layers its downlink can
  // carry within a 2-second interactive deadline.
  Rng rng(2);
  media::Image ct = media::MakePhantomCt({256, 256, 5, 3.0}, rng);
  LayeredCodec codec;
  Bytes stream = codec.Encode(ct).value();

  const double kDeadlineSeconds = 2.0;
  auto budget_for = [&](net::NodeId client) {
    double bandwidth = network_->GetLink(server_node_, client)
                           .value()
                           .bandwidth_bytes_per_sec;
    return static_cast<size_t>(bandwidth * kDeadlineSeconds);
  };
  int fast_layers =
      LayeredCodec::LayersWithinBudget(stream, budget_for(fast_client_))
          .value();
  int slow_layers =
      LayeredCodec::LayersWithinBudget(stream, budget_for(slow_client_))
          .value();
  EXPECT_EQ(fast_layers, 3);        // full quality
  EXPECT_LT(slow_layers, 3);        // degraded for the slow link
  EXPECT_GE(slow_layers, 0);

  media::Image fast_view =
      LayeredCodec::Decode(stream, fast_layers).value();
  double fast_psnr = media::Image::Psnr(ct, fast_view).value();
  if (slow_layers > 0) {
    media::Image slow_view =
        LayeredCodec::Decode(stream, slow_layers).value();
    EXPECT_GT(fast_psnr, media::Image::Psnr(ct, slow_view).value());
  } else {
    // Even the base layer does not fit: fall back to a thumbnail.
    media::Image thumb = LayeredCodec::DecodeThumbnail(stream, 2).value();
    EXPECT_EQ(thumb.width(), 64);
  }
}

TEST_F(IntegrationTest, CorruptedDocumentBlobDetected) {
  MultimediaDocument document = MakeMedicalRecordDocument().value();
  storage::ObjectRef ref =
      server_->StoreDocument(document, "patient-1").value();
  // Flip a byte inside the stored BLOB's pages.
  storage::ObjectRecord record = db_.FetchRecord(ref).value();
  storage::BlobId blob =
      std::get<storage::BlobId>(record.fields.at("FLD_DATA"));
  ASSERT_TRUE(db_.mutable_blob_store().CorruptForTesting(blob, 100).ok());
  EXPECT_TRUE(server_->OpenRoom("r", ref).status().IsCorruption());
}

TEST_F(IntegrationTest, DocumentSurvivesStorageRoundTripWithOperations) {
  MultimediaDocument document = MakeMedicalRecordDocument().value();
  document.AddOperationVariable("CT", "flat", "CT.seg").value();
  storage::ObjectRef ref =
      server_->StoreDocument(document, "patient-2").value();
  Room* room = server_->OpenRoom("r2", ref).value();
  EXPECT_EQ(room->document().num_variables(), document.num_variables());
  EXPECT_EQ(room->document().DefaultPresentation().value(),
            document.DefaultPresentation().value());
}

TEST_F(IntegrationTest, ArchivedMinutesAreSearchable) {
  // The intro's closing loop: a consultation happens, its minutes are
  // stored, and a later physician finds them by keyword.
  MultimediaDocument document = MakeMedicalRecordDocument().value();
  storage::ObjectRef doc_ref =
      server_->StoreDocument(document, "patient-3").value();
  server_->OpenRoom("board", doc_ref).value();
  server_->Join("board", {"dr-cohen", fast_client_}).value();
  server_->SubmitChoice("board", "dr-cohen", "CT", "segmented").value();
  Room* room = server_->GetRoom("board").value();
  ASSERT_TRUE(room->Freeze("dr-cohen", "CT").ok());

  storage::ObjectRef minutes =
      server_->ArchiveRoomLog("board").value();
  EXPECT_TRUE(server_->ArchiveRoomLog("ghost").status().IsNotFound());

  search::TextIndex index(&db_);
  ASSERT_TRUE(index.AddText(minutes).ok());
  // Find the consultation that segmented a CT.
  std::vector<search::TextHit> hits =
      index.Query("choice CT segmented", 5).value();
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].ref, minutes);
  // The stored text names the actors.
  Bytes payload = db_.FetchBlob(minutes, "FLD_DATA").value();
  std::string text(payload.begin(), payload.end());
  EXPECT_NE(text.find("dr-cohen"), std::string::npos);
  EXPECT_NE(text.find("freeze"), std::string::npos);
}

TEST_F(IntegrationTest, AudioObjectLifecycle) {
  // Voice fragments travel the same storage path as images.
  Rng rng(3);
  std::vector<media::SpeakerProfile> speakers = media::MakeSpeakers(2, rng);
  std::vector<media::Word> vocab = media::MakeVocabulary(3, 3, 6, rng);
  media::ConversationOptions options;
  options.num_turns = 4;
  media::Conversation conv =
      media::MakeConversation(speakers, vocab, options, rng);
  storage::ObjectRef ref =
      db_.Store("Audio",
                {{"FLD_FILENAME", std::string("consult.pcm")},
                 {"FLD_SECTORS",
                  static_cast<int64_t>(conv.signal.size())}},
                {{"FLD_DATA", conv.signal.Encode()}})
          .value();
  media::AudioSignal fetched =
      media::AudioSignal::Decode(db_.FetchBlob(ref, "FLD_DATA").value())
          .value();
  EXPECT_EQ(fetched.size(), conv.signal.size());
  EXPECT_EQ(fetched.sample_rate(), conv.signal.sample_rate());
}

}  // namespace
}  // namespace mmconf
