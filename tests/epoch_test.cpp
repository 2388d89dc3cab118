// Epoch pipeline contract tests: delta validation (all-or-nothing, every
// invariant named), rollover equivalence against a cold rebuild on the
// cumulative trip set (exact doubles — the tentpole acceptance bar),
// old-epoch handle safety across the swap + cache eviction, the empty
// rollover (epoch advances, the served set and its cache entry survive),
// auto-trigger boundaries, and the server-level `ingest`/`rollover` ops
// on both the JSON and binary protocols.
#include <gtest/gtest.h>

#ifdef __linux__
#include <sys/resource.h>

#include <filesystem>
#include <fstream>
#endif

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/epoch.h"
#include "api/model_cache.h"
#include "api/registry.h"
#include "graph/delta.h"
#include "server/frame.h"
#include "server/protocol.h"
#include "server/server.h"

namespace habit {
namespace {

// One dense lane of trips (the model_cache_test fixture shape): `count`
// trips with ids starting at `first_id`, so disjoint batches can be
// staged as deltas without tripping duplicate-id validation.
std::vector<ais::Trip> MakeTrips(int64_t first_id, int count) {
  std::vector<ais::Trip> trips;
  for (int t = 0; t < count; ++t) {
    ais::Trip trip;
    trip.trip_id = first_id + t;
    trip.mmsi = 100 + first_id + t;
    trip.type = ais::VesselType::kPassenger;
    for (int i = 0; i < 90; ++i) {
      ais::AisRecord r;
      r.mmsi = trip.mmsi;
      r.ts = 1000000 + i * 60;
      r.pos = {55.0 + i * 0.003,
               11.0 + 0.0004 * ((first_id + t) % 3)};
      r.sog = 12.0;
      r.type = trip.type;
      trip.points.push_back(r);
    }
    trips.push_back(trip);
  }
  return trips;
}

api::ImputeRequest LaneRequest() {
  api::ImputeRequest req;
  req.gap_start = {55.06, 11.0};
  req.gap_end = {55.08, 11.0};
  req.t_start = 1000000;
  req.t_end = 1003600;
  return req;
}

// Exact-doubles comparison: the acceptance bar is byte identity, not
// tolerance — any divergence between the epoch path and a cold rebuild
// means the rebuild is not actually running on the same cumulative set.
void ExpectIdenticalResponses(const api::ImputeResponse& a,
                              const api::ImputeResponse& b) {
  ASSERT_EQ(a.path.size(), b.path.size());
  for (size_t i = 0; i < a.path.size(); ++i) {
    EXPECT_EQ(a.path[i].lat, b.path[i].lat);
    EXPECT_EQ(a.path[i].lng, b.path[i].lng);
  }
  EXPECT_EQ(a.timestamps, b.timestamps);
  EXPECT_EQ(a.expanded, b.expanded);
}

TEST(GraphDeltaTest, ValidationNamesEveryBrokenInvariant) {
  graph::GraphDelta delta;
  const auto expect_invalid = [&](ais::Trip trip, const char* what) {
    const Status status = delta.Validate(trip);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << what;
  };

  ais::Trip short_trip = MakeTrips(1, 1).front();
  short_trip.points.resize(1);
  expect_invalid(short_trip, "fewer than two points");

  ais::Trip bad_id = MakeTrips(1, 1).front();
  bad_id.trip_id = 0;
  expect_invalid(bad_id, "non-positive trip id");

  ais::Trip bad_lat = MakeTrips(1, 1).front();
  bad_lat.points[3].pos.lat = 91.0;
  expect_invalid(bad_lat, "latitude out of range");

  ais::Trip unsorted = MakeTrips(1, 1).front();
  unsorted.points[5].ts = unsorted.points[4].ts;  // not strictly increasing
  expect_invalid(unsorted, "non-increasing timestamps");

  // A staged id is a duplicate forever after (drains keep it registered).
  ASSERT_TRUE(delta.Add(MakeTrips(7, 1).front()).ok());
  EXPECT_EQ(delta.Validate(MakeTrips(7, 1).front()).code(),
            StatusCode::kAlreadyExists);
  (void)delta.Drain();
  EXPECT_EQ(delta.Validate(MakeTrips(7, 1).front()).code(),
            StatusCode::kAlreadyExists);
}

TEST(GraphDeltaTest, BaseIdsCountAsStagedAndRequeueRestoresOrder) {
  graph::GraphDelta delta;
  const auto base = MakeTrips(1, 3);
  delta.NoteBaseTrips(base);
  EXPECT_EQ(delta.Validate(base.front()).code(), StatusCode::kAlreadyExists);

  ASSERT_TRUE(delta.Add(MakeTrips(10, 1).front()).ok());
  ASSERT_TRUE(delta.Add(MakeTrips(11, 1).front()).ok());
  std::vector<ais::Trip> drained = delta.Drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(delta.pending_trips(), 0u);

  // A failed build hands the drained batch back; a later Add must land
  // AFTER the requeued trips so the cumulative ingest order is stable.
  ASSERT_TRUE(delta.Add(MakeTrips(12, 1).front()).ok());
  delta.Requeue(std::move(drained));
  std::vector<ais::Trip> again = delta.Drain();
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again[0].trip_id, 10);
  EXPECT_EQ(again[1].trip_id, 11);
  EXPECT_EQ(again[2].trip_id, 12);
}

TEST(EpochPipelineTest, RolloverMatchesColdRebuildExactly) {
  api::ModelCache cache(1ull << 30);
  api::EpochPipeline::Options options;
  options.spec = "habit:r=9";
  auto pipeline =
      api::EpochPipeline::Make(&cache, options, MakeTrips(1, 3));
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  uint64_t accepted = 0, pending = 0, epoch = 0;
  ASSERT_TRUE(pipeline.value()
                  ->Ingest(MakeTrips(4, 3), &accepted, &pending, &epoch)
                  .ok());
  EXPECT_EQ(accepted, 3u);
  EXPECT_EQ(pending, 3u);
  EXPECT_EQ(epoch, 0u);  // still serving the base epoch

  auto rolled = pipeline.value()->Rollover();
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
  EXPECT_EQ(rolled.value(), 1u);

  const auto spec = api::MethodSpec::Parse("habit:r=9");
  ASSERT_TRUE(spec.ok());
  auto live = pipeline.value()->Resolve(spec.value());
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(live.value().epoch, 1u);

  // The cold rebuild: the same cumulative set in ingest order.
  std::vector<ais::Trip> cumulative = MakeTrips(1, 3);
  for (ais::Trip& trip : MakeTrips(4, 3)) cumulative.push_back(trip);
  auto cold = api::MakeModel("habit:r=9", cumulative);
  ASSERT_TRUE(cold.ok());

  auto live_answer = live.value().model->Impute(LaneRequest());
  auto cold_answer = cold.value()->Impute(LaneRequest());
  ASSERT_TRUE(live_answer.ok());
  ASSERT_TRUE(cold_answer.ok());
  ExpectIdenticalResponses(live_answer.value(), cold_answer.value());

  const api::EpochPipeline::Stats stats = pipeline.value()->stats();
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.rollovers, 1u);
  EXPECT_EQ(stats.ingested_trips, 3u);
  EXPECT_EQ(stats.epoch_trips, 6u);
  EXPECT_EQ(stats.pending_trips, 0u);
}

TEST(EpochPipelineTest, OldHandleSurvivesSwapAndCacheEviction) {
  api::ModelCache cache(1ull << 30);
  api::EpochPipeline::Options options;
  options.spec = "habit:r=9";
  auto pipeline =
      api::EpochPipeline::Make(&cache, options, MakeTrips(1, 3));
  ASSERT_TRUE(pipeline.ok());
  const auto spec = api::MethodSpec::Parse("habit:r=9");
  ASSERT_TRUE(spec.ok());

  auto old_epoch = pipeline.value()->Resolve(spec.value());
  ASSERT_TRUE(old_epoch.ok());
  EXPECT_EQ(old_epoch.value().epoch, 0u);
  auto before = old_epoch.value().model->Impute(LaneRequest());
  ASSERT_TRUE(before.ok());

  uint64_t accepted, pending, epoch;
  ASSERT_TRUE(pipeline.value()
                  ->Ingest(MakeTrips(4, 2), &accepted, &pending, &epoch)
                  .ok());
  ASSERT_TRUE(pipeline.value()->Rollover().ok());

  // The swap re-keyed the cache: epoch 0's entry is evicted, epoch 1's
  // pre-warmed entry replaces it — never both.
  EXPECT_EQ(cache.num_models(), 1u);
  auto new_epoch = pipeline.value()->Resolve(spec.value());
  ASSERT_TRUE(new_epoch.ok());
  EXPECT_EQ(new_epoch.value().epoch, 1u);
  EXPECT_NE(new_epoch.value().model.get(), old_epoch.value().model.get());

  // The old handle keeps answering from a fully consistent old epoch —
  // this is the in-flight-batch-across-the-swap guarantee.
  auto after = old_epoch.value().model->Impute(LaneRequest());
  ASSERT_TRUE(after.ok());
  ExpectIdenticalResponses(before.value(), after.value());
}

TEST(EpochPipelineTest, EmptyRolloverAdvancesEpochAndKeepsTheModel) {
  api::ModelCache cache(1ull << 30);
  api::EpochPipeline::Options options;
  options.spec = "habit:r=9";
  auto pipeline =
      api::EpochPipeline::Make(&cache, options, MakeTrips(1, 3));
  ASSERT_TRUE(pipeline.ok());
  const auto spec = api::MethodSpec::Parse("habit:r=9");
  ASSERT_TRUE(spec.ok());
  auto before = pipeline.value()->Resolve(spec.value());
  ASSERT_TRUE(before.ok());

  auto rolled = pipeline.value()->Rollover();
  ASSERT_TRUE(rolled.ok());
  EXPECT_EQ(rolled.value(), 1u);

  // Same cumulative set => same cache entry, same model — nothing was
  // rebuilt or evicted.
  auto after = pipeline.value()->Resolve(spec.value());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().epoch, 1u);
  EXPECT_EQ(after.value().model.get(), before.value().model.get());
  EXPECT_EQ(cache.num_models(), 1u);
}

TEST(EpochPipelineTest, IngestValidationIsAllOrNothing) {
  api::ModelCache cache(1ull << 30);
  api::EpochPipeline::Options options;
  options.spec = "habit:r=9";
  auto pipeline = api::EpochPipeline::Make(&cache, options, {});
  ASSERT_TRUE(pipeline.ok());

  std::vector<ais::Trip> batch = MakeTrips(1, 3);
  batch[1].points.clear();  // poison the middle trip
  uint64_t accepted, pending, epoch;
  const Status status =
      pipeline.value()->Ingest(batch, &accepted, &pending, &epoch);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("trips[1]"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(pipeline.value()->stats().pending_trips, 0u);

  // Intra-batch duplicates reject the whole batch too.
  std::vector<ais::Trip> dupes = MakeTrips(5, 1);
  dupes.push_back(dupes.front());
  EXPECT_EQ(pipeline.value()
                ->Ingest(dupes, &accepted, &pending, &epoch)
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(pipeline.value()->stats().pending_trips, 0u);

  // Cross-batch duplicates as well: the first batch stages, the replay
  // is refused without unstaging anything.
  ASSERT_TRUE(pipeline.value()
                  ->Ingest(MakeTrips(5, 1), &accepted, &pending, &epoch)
                  .ok());
  EXPECT_EQ(pipeline.value()
                ->Ingest(MakeTrips(5, 1), &accepted, &pending, &epoch)
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(pipeline.value()->stats().pending_trips, 1u);
}

TEST(EpochPipelineTest, BacklogCapRefusesWithOutOfRange) {
  api::ModelCache cache(1ull << 30);
  api::EpochPipeline::Options options;
  options.spec = "habit:r=9";
  options.max_pending_bytes = 1;  // everything overflows
  auto pipeline = api::EpochPipeline::Make(&cache, options, {});
  ASSERT_TRUE(pipeline.ok());
  uint64_t accepted, pending, epoch;
  EXPECT_EQ(pipeline.value()
                ->Ingest(MakeTrips(1, 1), &accepted, &pending, &epoch)
                .code(),
            StatusCode::kOutOfRange);
}

TEST(EpochPipelineTest, EmptyEpochResolvesNotFoundUntilFirstRollover) {
  api::ModelCache cache(1ull << 30);
  api::EpochPipeline::Options options;
  options.spec = "habit:r=9";
  auto pipeline = api::EpochPipeline::Make(&cache, options, {});
  ASSERT_TRUE(pipeline.ok());
  const auto spec = api::MethodSpec::Parse("habit:r=9");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(pipeline.value()->Resolve(spec.value()).status().code(),
            StatusCode::kNotFound);

  uint64_t accepted, pending, epoch;
  ASSERT_TRUE(pipeline.value()
                  ->Ingest(MakeTrips(1, 3), &accepted, &pending, &epoch)
                  .ok());
  ASSERT_TRUE(pipeline.value()->Rollover().ok());
  EXPECT_TRUE(pipeline.value()->Resolve(spec.value()).ok());
}

TEST(EpochPipelineTest, CountTriggerRollsOverWithoutAnExplicitOp) {
  api::ModelCache cache(1ull << 30);
  api::EpochPipeline::Options options;
  options.spec = "habit:r=9";
  options.epoch_trips = 2;
  auto pipeline = api::EpochPipeline::Make(&cache, options, {});
  ASSERT_TRUE(pipeline.ok());

  uint64_t accepted, pending, epoch;
  ASSERT_TRUE(pipeline.value()
                  ->Ingest(MakeTrips(1, 2), &accepted, &pending, &epoch)
                  .ok());
  // The builder swaps on its own; bounded wait, no explicit rollover.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (pipeline.value()->stats().epoch == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(pipeline.value()->stats().epoch, 1u);
  EXPECT_EQ(pipeline.value()->stats().epoch_trips, 2u);
}

TEST(EpochPipelineTest, RejectsArtifactAndConcurrencyParams) {
  api::ModelCache cache(1ull << 30);
  // With an empty base nothing is built, so the factory's own parsing is
  // what must refuse a bad spec at Make, not at the first rollover.
  for (const char* spec :
       {"habit:load=/tmp/x.snap", "habit:save=/tmp/x.snap",
        "habit:r=9,threads=4", "habit:threads=2", "habit_typed:threads=2",
        "habit:rr=9", "habit:r=abc", "habit:r=9,bogus=1", "warpdrive"}) {
    api::EpochPipeline::Options options;
    options.spec = spec;
    auto pipeline = api::EpochPipeline::Make(&cache, options, {});
    ASSERT_FALSE(pipeline.ok()) << spec;
    EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument)
        << spec;
  }
  // With a base the pre-warm build refuses the same keys.
  for (const char* spec : {"habit:threads=2", "habit_typed:threads=2"}) {
    api::EpochPipeline::Options options;
    options.spec = spec;
    auto pipeline =
        api::EpochPipeline::Make(&cache, options, MakeTrips(1, 3));
    ASSERT_FALSE(pipeline.ok()) << spec;
    EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument)
        << spec;
  }
  EXPECT_EQ(cache.num_models(), 0u);
  // Valid trips-built specs with an empty base are still accepted: their
  // build refuses zero trips with NotFound, which Make lets through.
  for (const char* spec : {"habit:r=9", "habit_typed:r=9", "gti", "palmto",
                           "sli"}) {
    api::EpochPipeline::Options options;
    options.spec = spec;
    auto pipeline = api::EpochPipeline::Make(&cache, options, {});
    EXPECT_TRUE(pipeline.ok()) << spec << ": "
                               << pipeline.status().ToString();
  }
}

#ifdef __linux__
// The nice value of the thread named "epoch-builder", polled until it
// equals `want` or 10 s pass (the builder sets its own priority once it
// starts); -100 when no such thread shows up.
int PollBuilderNice(int want) {
  int seen = -100;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
      std::ifstream comm(task.path() / "comm");
      std::string name;
      if (!std::getline(comm, name) || name != "epoch-builder") continue;
      std::ifstream stat_file(task.path() / "stat");
      std::string stat;
      std::getline(stat_file, stat);
      // Fields after the ")" closing comm start at field 3; nice is 19.
      std::istringstream fields(stat.substr(stat.rfind(')') + 2));
      std::string field;
      for (int i = 3; i <= 19; ++i) fields >> field;
      seen = std::stoi(field);
      if (seen == want) return seen;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (std::chrono::steady_clock::now() < deadline);
  return seen;
}

TEST(EpochPipelineTest, BuilderThreadRunsAtLoweredPriority) {
  const int own = getpriority(PRIO_PROCESS, 0);
  api::ModelCache cache(1ull << 30);
  api::EpochPipeline::Options options;
  options.spec = "habit:r=9";
  auto pipeline = api::EpochPipeline::Make(&cache, options, {});
  ASSERT_TRUE(pipeline.ok());
  const int want = std::min(own + api::EpochPipeline::kBuilderNice, 19);
  EXPECT_EQ(PollBuilderNice(want), want);
  // The caller's own priority is untouched.
  EXPECT_EQ(getpriority(PRIO_PROCESS, 0), own);
}
#endif

// ---------------------------------------------------------------------
// Server surface: the `ingest`/`rollover` ops over both protocols.

TEST(ServerIngestTest, ServeStreamIngestRolloverStatsAndEquivalence) {
  server::ServerOptions options;
  options.threads = 2;
  server::Server server(options);
  api::EpochPipeline::Options ingest;
  ingest.spec = "habit:r=8";
  ASSERT_TRUE(server.EnableIngest(ingest, MakeTrips(1, 3)).ok());

  std::string lines = server::EncodeIngestRequest(MakeTrips(4, 2)) + "\n";
  lines += "{\"op\":\"rollover\",\"id\":7}\n";
  lines += "{\"op\":\"stats\"}\n";
  lines +=
      "{\"op\":\"impute\",\"model\":\"habit:r=8\",\"request\":"
      "{\"gap_start\":{\"lat\":55.06,\"lng\":11.0},"
      "\"gap_end\":{\"lat\":55.08,\"lng\":11.0},"
      "\"t_start\":1000000,\"t_end\":1003600}}\n";
  std::istringstream in(lines);
  std::ostringstream out;
  server.ServeStream(in, out);

  std::istringstream replies(out.str());
  std::string ack;
  ASSERT_TRUE(std::getline(replies, ack));
  EXPECT_EQ(ack,
            "{\"ok\":true,\"op\":\"ingest\",\"epoch\":0,\"accepted\":2,"
            "\"pending\":2}");
  std::string rollover;
  ASSERT_TRUE(std::getline(replies, rollover));
  EXPECT_EQ(rollover,
            "{\"ok\":true,\"op\":\"rollover\",\"epoch\":1,\"accepted\":0,"
            "\"pending\":0,\"id\":7}");
  std::string stats;
  ASSERT_TRUE(std::getline(replies, stats));
  EXPECT_NE(stats.find("\"epoch\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"rollovers\":1"), std::string::npos) << stats;
  std::string impute;
  ASSERT_TRUE(std::getline(replies, impute));

  // Byte identity at the protocol level: a cold server seeded with the
  // full cumulative set answers with the same bytes.
  server::Server cold(options);
  api::EpochPipeline::Options cold_ingest;
  cold_ingest.spec = "habit:r=8";
  std::vector<ais::Trip> cumulative = MakeTrips(1, 3);
  for (ais::Trip& trip : MakeTrips(4, 2)) cumulative.push_back(trip);
  ASSERT_TRUE(cold.EnableIngest(cold_ingest, cumulative).ok());
  std::istringstream cold_in(
      "{\"op\":\"impute\",\"model\":\"habit:r=8\",\"request\":"
      "{\"gap_start\":{\"lat\":55.06,\"lng\":11.0},"
      "\"gap_end\":{\"lat\":55.08,\"lng\":11.0},"
      "\"t_start\":1000000,\"t_end\":1003600}}\n");
  std::ostringstream cold_out;
  cold.ServeStream(cold_in, cold_out);
  EXPECT_EQ(impute + "\n", cold_out.str());
}

TEST(ServerIngestTest, IngestWithoutThePipelineIsRejected) {
  server::Server server(server::ServerOptions{});
  const std::string reply =
      server.HandleLine("{\"op\":\"rollover\"}");
  EXPECT_NE(reply.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(reply.find("ingest is not enabled"), std::string::npos)
      << reply;
}

TEST(ServerIngestTest, BinaryFrameIngestMatchesJsonAck) {
  server::ServerOptions options;
  server::Server server(options);
  api::EpochPipeline::Options ingest;
  ingest.spec = "habit:r=8";
  ASSERT_TRUE(server.EnableIngest(ingest, {}).ok());

  server::Request request;
  request.op = server::Request::Op::kIngest;
  request.trips = MakeTrips(1, 2);
  request.id = server::Json::Number(42);
  const std::string frame = server::frame::EncodeRequestFrame(request);
  const std::string payload =
      frame.substr(server::frame::kHeaderBytes);
  const std::string reply = server.HandleFrame(payload);
  auto decoded = server::frame::DecodeResponsePayload(
      std::string_view(reply).substr(server::frame::kHeaderBytes));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().tag, server::frame::ResponseTag::kAck);
  EXPECT_EQ(decoded.value().epoch, 0u);
  EXPECT_EQ(decoded.value().accepted, 2u);
  EXPECT_EQ(decoded.value().pending, 2u);

  // The binary ack re-renders to the exact JSON line the JSON path emits.
  EXPECT_EQ(server::frame::ResponseToJsonLine(decoded.value()),
            server::AckResponseLine("ingest", 0, 2, 2,
                                    server::Json::Number(42)));
}

TEST(ServerIngestTest, BinaryIngestRoundTripsThroughDecode) {
  server::Request request;
  request.op = server::Request::Op::kIngest;
  request.trips = MakeTrips(3, 2);
  const std::string frame = server::frame::EncodeRequestFrame(request);
  auto decoded = server::frame::DecodeRequestPayload(
      std::string_view(frame).substr(server::frame::kHeaderBytes),
      /*max_batch=*/16, /*require_model=*/false);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_FALSE(decoded.value().is_json);
  const server::Request& back = decoded.value().request;
  ASSERT_EQ(back.trips.size(), request.trips.size());
  for (size_t t = 0; t < back.trips.size(); ++t) {
    EXPECT_EQ(back.trips[t].trip_id, request.trips[t].trip_id);
    EXPECT_EQ(back.trips[t].mmsi, request.trips[t].mmsi);
    EXPECT_EQ(back.trips[t].type, request.trips[t].type);
    ASSERT_EQ(back.trips[t].points.size(), request.trips[t].points.size());
    for (size_t i = 0; i < back.trips[t].points.size(); ++i) {
      EXPECT_EQ(back.trips[t].points[i].pos.lat,
                request.trips[t].points[i].pos.lat);
      EXPECT_EQ(back.trips[t].points[i].pos.lng,
                request.trips[t].points[i].pos.lng);
      EXPECT_EQ(back.trips[t].points[i].ts, request.trips[t].points[i].ts);
      EXPECT_EQ(back.trips[t].points[i].sog,
                request.trips[t].points[i].sog);
      EXPECT_EQ(back.trips[t].points[i].cog,
                request.trips[t].points[i].cog);
    }
  }
}

}  // namespace
}  // namespace habit
