// Tests for the serve wire protocol (src/serve/protocol): request and
// response frame round-trips, refusal rendering, and rejection of
// malformed frames — the parsing layer the daemon's chaos resilience
// rests on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/protocol.h"

namespace tgdkit {
namespace {

TEST(ServeProtocol, RequestRoundTripsThroughRenderAndParse) {
  ServeRequest request;
  request.id = "r-42";
  request.command = "classify";
  request.args = {"deps.tgd", "--threads", "2"};
  request.file_names = {"deps.tgd"};
  request.file_contents = {"p(X) -> q(X) .\nline with \"quotes\"\n"};
  request.deadline_ms = 1500;
  request.memory_mb = 64;

  std::string frame = RenderServeRequest(request);
  EXPECT_EQ(frame.find('\n'), std::string::npos) << frame;

  ServeRequest parsed;
  ASSERT_TRUE(ParseServeRequest(frame, &parsed).ok()) << frame;
  EXPECT_EQ(parsed.id, request.id);
  EXPECT_EQ(parsed.command, request.command);
  EXPECT_EQ(parsed.args, request.args);
  EXPECT_EQ(parsed.file_names, request.file_names);
  EXPECT_EQ(parsed.file_contents, request.file_contents);
  EXPECT_EQ(parsed.deadline_ms, request.deadline_ms);
  EXPECT_EQ(parsed.memory_mb, request.memory_mb);
}

TEST(ServeProtocol, MinimalRequestOmitsOptionalFields) {
  ServeRequest request;
  request.id = "a";
  request.command = "ping";
  ServeRequest parsed;
  ASSERT_TRUE(ParseServeRequest(RenderServeRequest(request), &parsed).ok());
  EXPECT_EQ(parsed.id, "a");
  EXPECT_EQ(parsed.command, "ping");
  EXPECT_TRUE(parsed.args.empty());
  EXPECT_EQ(parsed.deadline_ms, 0u);
  EXPECT_EQ(parsed.memory_mb, 0u);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  ServeRequest out;
  // Not JSON at all.
  EXPECT_FALSE(ParseServeRequest("hello", &out).ok());
  // Valid JSON, no id.
  EXPECT_FALSE(ParseServeRequest("{\"command\":\"lint\"}", &out).ok());
  // Valid JSON, no command.
  EXPECT_FALSE(ParseServeRequest("{\"id\":\"x\"}", &out).ok());
  // Mismatched file arrays.
  EXPECT_FALSE(
      ParseServeRequest("{\"id\":\"x\",\"command\":\"lint\","
                        "\"file_names\":[\"a\"],\"file_contents\":[]}",
                        &out)
          .ok());
  // Nested objects are outside the flat-JSON grammar.
  EXPECT_FALSE(
      ParseServeRequest("{\"id\":\"x\",\"command\":\"lint\","
                        "\"extra\":{\"nested\":1}}",
                        &out)
          .ok());
}

TEST(ServeProtocol, InvalidFrameStillSurfacesTheId) {
  ServeRequest out;
  Status status = ParseServeRequest("{\"id\":\"r9\"}", &out);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(out.id, "r9");
}

TEST(ServeProtocol, OkResponseRoundTrips) {
  ServeResponse response;
  response.id = "r1";
  response.status = ServeStatus::kOk;
  response.exit_code = 3;
  response.duration_ms = 12;
  response.out = "verdict line\n";
  response.err = "warning: something\n";

  ServeResponse parsed;
  ASSERT_TRUE(
      ParseServeResponse(RenderServeResponse(response), &parsed).ok());
  EXPECT_EQ(parsed.id, "r1");
  EXPECT_EQ(parsed.status, ServeStatus::kOk);
  EXPECT_EQ(parsed.exit_code, 3);
  EXPECT_EQ(parsed.duration_ms, 12u);
  EXPECT_EQ(parsed.out, response.out);
  EXPECT_EQ(parsed.err, response.err);
}

TEST(ServeProtocol, FramesFromOlderDaemonsWithACachedFieldStillParse) {
  // Older daemons kept a response cache and sent `"cached":...` in every
  // ok frame; captures and ledgers from them must still parse.
  ServeResponse parsed;
  ASSERT_TRUE(ParseServeResponse(
                  "{\"id\":\"r1\",\"status\":\"ok\",\"exit\":0,"
                  "\"cached\":true,\"duration_ms\":0,"
                  "\"stdout\":\"x\\n\",\"stderr\":\"\"}",
                  &parsed)
                  .ok());
  EXPECT_EQ(parsed.id, "r1");
  EXPECT_EQ(parsed.status, ServeStatus::kOk);
  EXPECT_EQ(parsed.exit_code, 0);
  EXPECT_EQ(parsed.out, "x\n");
  // This daemon never writes the field.
  EXPECT_EQ(RenderServeResponse(parsed).find("cached"), std::string::npos);
}

TEST(ServeProtocol, RefusalRoundTripsWithRetryHint) {
  ServeResponse refusal =
      MakeRefusal("r2", ServeStatus::kOverloaded, "capacity committed");
  refusal.retry_after_ms = 50;
  ServeResponse parsed;
  ASSERT_TRUE(
      ParseServeResponse(RenderServeResponse(refusal), &parsed).ok());
  EXPECT_EQ(parsed.id, "r2");
  EXPECT_EQ(parsed.status, ServeStatus::kOverloaded);
  EXPECT_EQ(parsed.error, "capacity committed");
  EXPECT_EQ(parsed.retry_after_ms, 50u);
}

TEST(ServeProtocol, EveryStatusHasAStableWireName) {
  for (ServeStatus status :
       {ServeStatus::kOk, ServeStatus::kBadRequest, ServeStatus::kOverloaded,
        ServeStatus::kQuarantined, ServeStatus::kTimeout,
        ServeStatus::kDraining}) {
    ServeStatus parsed;
    ASSERT_TRUE(ParseServeStatus(ToString(status), &parsed))
        << ToString(status);
    EXPECT_EQ(parsed, status);
  }
  ServeStatus parsed;
  EXPECT_FALSE(ParseServeStatus("no_such_status", &parsed));
}

}  // namespace
}  // namespace tgdkit
