// Wire-protocol unit tests: framing round trips over a socketpair, strict
// request decoding, and the Status -> wire-error-code mapping
// (docs/SERVING.md).
#include "server/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <thread>

#include "common/status.h"
#include "gtest/gtest.h"

namespace rq {
namespace server {
namespace {

class SocketPair {
 public:
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0); }
  ~SocketPair() {
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  int a() const { return fds_[0]; }
  int b() const { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
};

TEST(FramingTest, RoundTripsPayloads) {
  SocketPair pair;
  // The last payload spans more than one read chunk; a socketpair buffers
  // far less than that, so it is written from a second thread.
  std::string large((1u << 20) + 3, 'y');
  large.front() = '<';
  large.back() = '>';
  for (const std::string& payload : {std::string(""), std::string("{}"),
                                     std::string(1000, 'x'), large}) {
    std::thread writer([&pair, &payload] {
      EXPECT_TRUE(WriteFrame(pair.a(), payload).ok());
    });
    std::string got;
    bool clean_eof = true;
    Status status = ReadFrame(pair.b(), &got, &clean_eof);
    if (!status.ok()) ::shutdown(pair.b(), SHUT_RDWR);  // unblock the writer
    writer.join();
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_FALSE(clean_eof);
    EXPECT_EQ(got, payload);
  }
}

TEST(FramingTest, BackToBackFramesStayDelimited) {
  SocketPair pair;
  ASSERT_TRUE(WriteFrame(pair.a(), "first").ok());
  ASSERT_TRUE(WriteFrame(pair.a(), "second").ok());
  std::string got;
  bool clean_eof = false;
  ASSERT_TRUE(ReadFrame(pair.b(), &got, &clean_eof).ok());
  EXPECT_EQ(got, "first");
  ASSERT_TRUE(ReadFrame(pair.b(), &got, &clean_eof).ok());
  EXPECT_EQ(got, "second");
}

TEST(FramingTest, ABigFramesBufferIsReleasedBeforeTheNextFrame) {
  SocketPair pair;
  std::string big(1u << 20, 'x');
  std::thread writer([&pair, &big] {
    EXPECT_TRUE(WriteFrame(pair.a(), big).ok());
    EXPECT_TRUE(WriteFrame(pair.a(), "0123456789").ok());
  });
  // One buffer for both frames, as a server connection reuses it.
  std::string payload;
  bool clean_eof = false;
  Status first = ReadFrame(pair.b(), &payload, &clean_eof);
  if (!first.ok()) ::shutdown(pair.b(), SHUT_RDWR);  // unblock the writer
  ASSERT_TRUE(first.ok()) << first.ToString();
  EXPECT_EQ(payload.size(), big.size());
  Status second = ReadFrame(pair.b(), &payload, &clean_eof);
  writer.join();
  ASSERT_TRUE(second.ok()) << second.ToString();
  EXPECT_EQ(payload, "0123456789");
  EXPECT_LE(payload.capacity(), 64u << 10);
}

TEST(FramingTest, CleanPeerCloseIsNotAnError) {
  SocketPair pair;
  ::shutdown(pair.a(), SHUT_WR);
  std::string got = "stale";
  bool clean_eof = false;
  ASSERT_TRUE(ReadFrame(pair.b(), &got, &clean_eof).ok());
  EXPECT_TRUE(clean_eof);
  EXPECT_TRUE(got.empty());
}

TEST(FramingTest, EofMidFrameIsAnError) {
  // A header announcing 100 bytes, and one announcing one byte under the
  // frame limit, each followed by only 3 bytes, then close. The buffer
  // must grow with the bytes that arrived, not with the announcement.
  for (uint32_t announced : {uint32_t{100},
                             static_cast<uint32_t>(kMaxFrameBytes - 1)}) {
    SocketPair pair;
    char header[4] = {static_cast<char>(announced >> 24),
                      static_cast<char>(announced >> 16),
                      static_cast<char>(announced >> 8),
                      static_cast<char>(announced)};
    ASSERT_EQ(::send(pair.a(), header, 4, 0), 4);
    ASSERT_EQ(::send(pair.a(), "abc", 3, 0), 3);
    ::shutdown(pair.a(), SHUT_WR);
    std::string got;
    bool clean_eof = false;
    Status status = ReadFrame(pair.b(), &got, &clean_eof);
    EXPECT_FALSE(status.ok()) << announced;
    EXPECT_FALSE(clean_eof) << announced;
    EXPECT_LT(got.capacity(), size_t{1} << 20) << announced;
  }
}

TEST(FramingTest, OversizedAnnouncementIsRejectedWithoutAllocating) {
  SocketPair pair;
  char header[4] = {0x7F, 0, 0, 0};  // ~2 GiB announced
  ASSERT_EQ(::send(pair.a(), header, 4, 0), 4);
  std::string got;
  bool clean_eof = false;
  Status status = ReadFrame(pair.b(), &got, &clean_eof);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ParseRequestTest, DecodesEveryField) {
  auto parsed = ParseRequest(
      R"({"type":"containment","id":7,"class":"rpq","q1":"a","q2":"a*",)"
      R"("query":"knows+","graph":"a knows b\n","timeout_ms":250,)"
      R"("memory_budget_mb":64,"max_tuples":10,"sleep_ms":5})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->type, RequestType::kContainment);
  EXPECT_EQ(parsed->id.number_value(), 7);
  EXPECT_EQ(parsed->cls, "rpq");
  EXPECT_EQ(parsed->q1, "a");
  EXPECT_EQ(parsed->q2, "a*");
  EXPECT_EQ(parsed->query, "knows+");
  EXPECT_EQ(parsed->graph, "a knows b\n");
  EXPECT_EQ(parsed->timeout_ms, 250);
  EXPECT_EQ(parsed->memory_budget_mb, 64);
  EXPECT_EQ(parsed->max_tuples, 10);
  EXPECT_EQ(parsed->sleep_ms, 5);
}

TEST(ParseRequestTest, DefaultsWhenFieldsAbsent) {
  auto parsed = ParseRequest(R"({"type":"health"})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->type, RequestType::kHealth);
  EXPECT_TRUE(parsed->id.is_null());
  EXPECT_EQ(parsed->timeout_ms, 0);
  EXPECT_EQ(parsed->memory_budget_mb, 0);
}

TEST(ParseRequestTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest("[1,2]").ok());            // not an object
  EXPECT_FALSE(ParseRequest(R"({"id":1})").ok());      // no type
  EXPECT_FALSE(ParseRequest(R"({"type":42})").ok());   // non-string type
  EXPECT_FALSE(ParseRequest(R"({"type":"nope"})").ok());
  EXPECT_FALSE(
      ParseRequest(R"({"type":"eval","timeout_ms":-5})").ok());
  EXPECT_FALSE(ParseRequest(R"({"type":"eval","q1":12})").ok());
}

TEST(ParseRequestTest, EveryTypeNameRoundTrips) {
  for (const char* name :
       {"containment", "equivalence", "eval", "stats", "health", "sleep"}) {
    auto parsed =
        ParseRequest(std::string(R"({"type":")") + name + R"("})");
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_STREQ(RequestTypeName(parsed->type), name);
  }
}

TEST(ErrorCodeTest, MapsStatusCodesToWireVocabulary) {
  EXPECT_STREQ(ErrorCodeForStatus(InvalidArgumentError("x")),
               "invalid_request");
  EXPECT_STREQ(ErrorCodeForStatus(NotFoundError("x")), "invalid_request");
  EXPECT_STREQ(ErrorCodeForStatus(UnimplementedError("x")), "unimplemented");
  EXPECT_STREQ(ErrorCodeForStatus(DeadlineExceededError("x")),
               "deadline_exceeded");
  EXPECT_STREQ(ErrorCodeForStatus(ResourceExhaustedError("x")),
               "resource_exhausted");
  EXPECT_STREQ(ErrorCodeForStatus(CancelledError("x")), "cancelled");
  EXPECT_STREQ(ErrorCodeForStatus(InternalError("x")), "internal");
}

TEST(ResponseTest, SkeletonsCarryIdAndOkFlag) {
  obs::JsonValue ok = OkResponse(obs::JsonValue::Number(int64_t{3}));
  EXPECT_EQ(ok.Find("id")->number_value(), 3);
  EXPECT_TRUE(ok.Find("ok")->bool_value());

  obs::JsonValue err =
      ErrorResponse(obs::JsonValue::Null(), "overloaded", "queue full");
  EXPECT_TRUE(err.Find("id")->is_null());
  EXPECT_FALSE(err.Find("ok")->bool_value());
  EXPECT_EQ(err.Find("error")->string_value(), "overloaded");
  EXPECT_EQ(err.Find("message")->string_value(), "queue full");
}

}  // namespace
}  // namespace server
}  // namespace rq
