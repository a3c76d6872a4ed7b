#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "fault/fault.h"
#include "net/inproc_transport.h"
#include "net/router.h"
#include "net/rpc.h"
#include "net/tcp_transport.h"

using namespace hamr;
using namespace hamr::net;

namespace {

NetConfig fast_net() {
  NetConfig config;
  config.enabled = false;
  return config;
}

// Collects delivered messages per node.
struct Sink {
  std::mutex mu;
  std::vector<Message> messages;
  std::condition_variable cv;

  MessageHandler handler() {
    return [this](Message&& m) {
      std::lock_guard<std::mutex> lock(mu);
      messages.push_back(std::move(m));
      cv.notify_all();
    };
  }

  size_t wait_for(size_t n, Duration timeout = std::chrono::seconds(10)) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, timeout, [&] { return messages.size() >= n; });
    return messages.size();
  }
};

}  // namespace

// --- InProcTransport ---------------------------------------------------------

TEST(InProc, DeliversBetweenNodes) {
  InProcTransport fabric(2, fast_net());
  Sink sink;
  fabric.endpoint(0)->set_handler([](Message&&) {});
  fabric.endpoint(1)->set_handler(sink.handler());
  fabric.start();
  fabric.endpoint(0)->send(1, 7, "payload");
  ASSERT_EQ(sink.wait_for(1), 1u);
  EXPECT_EQ(sink.messages[0].type, 7u);
  EXPECT_EQ(sink.messages[0].src, 0u);
  EXPECT_EQ(sink.messages[0].payload.view(), "payload");
}

TEST(InProc, SelfSendWorks) {
  InProcTransport fabric(1, fast_net());
  Sink sink;
  fabric.endpoint(0)->set_handler(sink.handler());
  fabric.start();
  fabric.endpoint(0)->send(0, 1, "self");
  ASSERT_EQ(sink.wait_for(1), 1u);
  EXPECT_EQ(sink.messages[0].payload.view(), "self");
}

TEST(InProc, FifoPerSenderSingleThread) {
  InProcTransport fabric(2, fast_net());
  Sink sink;
  fabric.endpoint(0)->set_handler([](Message&&) {});
  fabric.endpoint(1)->set_handler(sink.handler());
  fabric.start();
  for (int i = 0; i < 200; ++i) {
    fabric.endpoint(0)->send(1, 1, std::to_string(i));
  }
  ASSERT_EQ(sink.wait_for(200), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(sink.messages[i].payload.view(), std::to_string(i));
}

TEST(InProc, LatencyModelDelaysDelivery) {
  NetConfig config;
  config.latency = millis(50);
  config.bandwidth_bytes_per_sec = 1e12;
  InProcTransport fabric(2, config);
  Sink sink;
  fabric.endpoint(0)->set_handler([](Message&&) {});
  fabric.endpoint(1)->set_handler(sink.handler());
  fabric.start();
  Stopwatch w;
  fabric.endpoint(0)->send(1, 1, "x");
  ASSERT_EQ(sink.wait_for(1), 1u);
  EXPECT_GE(w.elapsed_seconds(), 0.045);
}

TEST(InProc, BandwidthModelSerializesBytes) {
  NetConfig config;
  config.latency = Duration::zero();
  config.bandwidth_bytes_per_sec = 10e6;  // 10 MB/s
  InProcTransport fabric(2, config);
  Sink sink;
  fabric.endpoint(0)->set_handler([](Message&&) {});
  fabric.endpoint(1)->set_handler(sink.handler());
  fabric.start();
  Stopwatch w;
  // 1 MB pays tx serialization + rx serialization at 10 MB/s => >= ~200 ms.
  fabric.endpoint(0)->send(1, 1, std::string(1 << 20, 'x'));
  ASSERT_EQ(sink.wait_for(1), 1u);
  EXPECT_GE(w.elapsed_seconds(), 0.18);
}

TEST(InProc, SelfSendSkipsCostModel) {
  NetConfig config;
  config.latency = millis(200);
  InProcTransport fabric(1, config);
  Sink sink;
  fabric.endpoint(0)->set_handler(sink.handler());
  fabric.start();
  Stopwatch w;
  fabric.endpoint(0)->send(0, 1, "fast");
  ASSERT_EQ(sink.wait_for(1), 1u);
  EXPECT_LT(w.elapsed_seconds(), 0.1);
}

TEST(InProc, IngressBackpressureBlocksSender) {
  NetConfig config;
  config.enabled = false;
  config.ingress_capacity_bytes = 1024;  // room for exactly two 512 B messages
  InProcTransport fabric(2, config);
  // Receiver parks the delivery thread in the handler until released.
  std::mutex handler_mu;
  std::condition_variable handler_cv;
  bool release = false;
  fabric.endpoint(0)->set_handler([](Message&&) {});
  fabric.endpoint(1)->set_handler([&](Message&&) {
    std::unique_lock<std::mutex> lock(handler_mu);
    handler_cv.wait(lock, [&] { return release; });
  });
  fabric.start();

  std::mutex sent_mu;
  std::condition_variable sent_cv;
  int sent = 0;
  std::thread sender([&] {
    for (int i = 0; i < 50; ++i) {
      fabric.endpoint(0)->send(1, 1, std::string(512, 'x'));
      {
        std::lock_guard<std::mutex> lock(sent_mu);
        ++sent;
      }
      sent_cv.notify_all();
    }
  });

  // A message's ingress bytes are released when it is DEQUEUED, so with the
  // first message parked in the handler the queue admits exactly two more:
  // the sender must reach 3 sends and then stall on the fourth. Waiting on
  // the condition variable (not sleeping) makes the positive half exact; the
  // bounded negative wait can only fail if a fourth send actually happens.
  {
    std::unique_lock<std::mutex> lock(sent_mu);
    ASSERT_TRUE(sent_cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return sent >= 3; }));
    EXPECT_FALSE(
        sent_cv.wait_for(lock, millis(100), [&] { return sent > 3; }))
        << "sender advanced past the ingress bound while the receiver was held";
  }

  {
    std::lock_guard<std::mutex> lock(handler_mu);
    release = true;
  }
  handler_cv.notify_all();
  sender.join();
  std::lock_guard<std::mutex> lock(sent_mu);
  EXPECT_EQ(sent, 50);
}

TEST(InProc, CountsMetrics) {
  Metrics m0, m1;
  NetConfig config;
  config.enabled = false;
  InProcTransport fabric(2, config, {&m0, &m1});
  Sink sink;
  fabric.endpoint(0)->set_handler([](Message&&) {});
  fabric.endpoint(1)->set_handler(sink.handler());
  fabric.start();
  fabric.endpoint(0)->send(1, 1, "12345");
  sink.wait_for(1);
  EXPECT_EQ(m0.value("net.tx_bytes"), 5u);
  EXPECT_EQ(m1.value("net.rx_bytes"), 5u);
  EXPECT_EQ(m0.value("net.tx_msgs"), 1u);
}

// --- Payload: one shared body from send to handler ---------------------------

TEST(Payload, SuffixSlicesTheBodyWithoutCopying) {
  const auto body = std::make_shared<const std::string>("0123456789");
  const Payload frame = Payload::with_body("hdr", body);
  EXPECT_EQ(frame.size(), 13u);
  EXPECT_EQ(frame.view(), "hdr");  // a two-segment payload reads its head
  const Payload inner = frame.suffix(3);
  EXPECT_EQ(inner.view(), "0123456789");
  EXPECT_EQ(inner.view().data(), body->data());
  const Payload tail = inner.suffix(4);
  EXPECT_EQ(tail.view(), "456789");
  EXPECT_EQ(tail.view().data(), body->data() + 4);
  EXPECT_EQ(frame.suffix(1).view(), "dr");  // head bytes past the offset
  EXPECT_EQ(frame.suffix(1).size(), 12u);
  EXPECT_EQ(frame.suffix(13).size(), 0u);
}

namespace {

// Sends one shared body from node 0 to `dst` (2-node fabric) and returns the
// data pointers of the `expect` deliveries the handler saw.
std::vector<const char*> delivered_body_pointers(
    NodeId dst, const std::shared_ptr<const std::string>& body, size_t expect,
    fault::FaultInjector* injector = nullptr) {
  InProcTransport fabric(2, fast_net());
  Sink sink0, sink1;
  fabric.endpoint(0)->set_handler(sink0.handler());
  fabric.endpoint(1)->set_handler(sink1.handler());
  fabric.set_fault_injector(injector);
  fabric.start();
  fabric.endpoint(0)->send(dst, 7, Payload::with_body(std::string(), body));
  Sink& sink = dst == 0 ? sink0 : sink1;
  EXPECT_EQ(sink.wait_for(expect), expect);
  fabric.stop();
  std::vector<const char*> pointers;
  for (const Message& m : sink.messages) {
    EXPECT_EQ(m.payload.view(), *body);
    pointers.push_back(m.payload.view().data());
  }
  return pointers;
}

}  // namespace

TEST(InProcZeroCopy, RemoteSendDeliversTheSendersBody) {
  const auto body = std::make_shared<const std::string>(std::string(4096, 'r'));
  EXPECT_EQ(delivered_body_pointers(1, body, 1),
            std::vector<const char*>{body->data()});
}

TEST(InProcZeroCopy, SelfSendDeliversTheSendersBody) {
  const auto body = std::make_shared<const std::string>(std::string(4096, 's'));
  EXPECT_EQ(delivered_body_pointers(0, body, 1),
            std::vector<const char*>{body->data()});
}

TEST(InProcZeroCopy, FaultDuplicatedSendDeliversTheSendersBodyTwice) {
  fault::FaultPlan plan;
  plan.faultable_types = {7};
  plan.default_link.duplicate = 1.0;
  fault::FaultInjector injector(plan);
  const auto body = std::make_shared<const std::string>(std::string(4096, 'd'));
  EXPECT_EQ(delivered_body_pointers(1, body, 2, &injector),
            (std::vector<const char*>{body->data(), body->data()}));
  EXPECT_EQ(injector.stats().messages_duplicated, 1u);
}

// --- Router --------------------------------------------------------------------

TEST(Router, DispatchesByTypeAndDropsUnknown) {
  InProcTransport fabric(2, fast_net());
  fabric.endpoint(0)->set_handler([](Message&&) {});
  Router router(fabric.endpoint(1));
  Sink a, b;
  router.register_type(10, a.handler());
  router.register_type(20, b.handler());
  fabric.start();
  fabric.endpoint(0)->send(1, 10, "to-a");
  fabric.endpoint(0)->send(1, 20, "to-b");
  fabric.endpoint(0)->send(1, 99, "dropped");
  fabric.endpoint(0)->send(1, 10, "to-a-2");
  ASSERT_EQ(a.wait_for(2), 2u);
  ASSERT_EQ(b.wait_for(1), 1u);
  EXPECT_EQ(a.messages[1].payload.view(), "to-a-2");
}

TEST(Router, DuplicateRegistrationThrows) {
  InProcTransport fabric(1, fast_net());
  Router router(fabric.endpoint(0));
  router.register_type(5, [](Message&&) {});
  EXPECT_THROW(router.register_type(5, [](Message&&) {}), std::logic_error);
}

// --- Rpc ----------------------------------------------------------------------

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : fabric_(2, fast_net()) {
    for (int i = 0; i < 2; ++i) {
      routers_.push_back(std::make_unique<Router>(fabric_.endpoint(i)));
      rpcs_.push_back(std::make_unique<Rpc>(routers_.back().get()));
    }
    fabric_.start();
  }

  // Stop delivery before routers/rpcs are destroyed (members die in reverse
  // order, so fabric_ — and its delivery threads — would otherwise outlive
  // the handlers they dispatch into).
  ~RpcTest() override { fabric_.stop(); }

  InProcTransport fabric_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<Rpc>> rpcs_;
};

TEST_F(RpcTest, EchoRoundTrip) {
  rpcs_[1]->register_method(1, [](NodeId caller, std::string_view arg) {
    return "echo:" + std::to_string(caller) + ":" + std::string(arg);
  });
  auto result = rpcs_[0]->call_sync(1, 1, "hello");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), "echo:0:hello");
}

TEST_F(RpcTest, SelfCallWorks) {
  rpcs_[0]->register_method(1, [](NodeId, std::string_view arg) {
    return std::string(arg) + "!";
  });
  EXPECT_EQ(rpcs_[0]->call_sync(0, 1, "self").value(), "self!");
}

TEST_F(RpcTest, UnknownMethodReturnsError) {
  auto result = rpcs_[0]->call_sync(1, 99, "x");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST_F(RpcTest, HandlerExceptionPropagatesAsError) {
  rpcs_[1]->register_method(1, [](NodeId, std::string_view) -> std::string {
    throw std::runtime_error("kaboom");
  });
  auto result = rpcs_[0]->call_sync(1, 1, "");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("kaboom"), std::string::npos);
}

TEST_F(RpcTest, ManyConcurrentCallsResolveToMatchingResponses) {
  rpcs_[1]->register_method(1, [](NodeId, std::string_view arg) {
    return std::string(arg) + std::string(arg);
  });
  std::vector<std::future<Result<std::string>>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(rpcs_[0]->call(1, 1, std::to_string(i)));
  }
  for (int i = 0; i < 64; ++i) {
    auto result = futures[i].get();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value(), std::to_string(i) + std::to_string(i));
  }
}

TEST_F(RpcTest, LargePayloadRoundTrip) {
  rpcs_[1]->register_method(1, [](NodeId, std::string_view arg) {
    return std::string(arg);
  });
  const std::string big(3 << 20, 'z');
  auto result = rpcs_[0]->call_sync(1, 1, big, std::chrono::seconds(30));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), big);
}

// A malformed envelope is logged and dropped on the delivery thread; it must
// neither end the process nor wedge the RPC layer for later calls.
TEST_F(RpcTest, TruncatedRequestIsDroppedAndLaterCallsSucceed) {
  rpcs_[1]->register_method(1, [](NodeId, std::string_view arg) {
    return "echo:" + std::string(arg);
  });
  // A request id and nothing else: the method id is missing.
  fabric_.endpoint(0)->send(1, msg_type::kRpcRequest, std::string("\x05", 1));
  auto result = rpcs_[0]->call_sync(1, 1, "after");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), "echo:after");
}

TEST_F(RpcTest, TruncatedResponseIsDroppedAndLaterCallsSucceed) {
  rpcs_[1]->register_method(1, [](NodeId, std::string_view arg) {
    return "echo:" + std::string(arg);
  });
  // A request id and nothing else: the ok flag is missing.
  fabric_.endpoint(1)->send(0, msg_type::kRpcResponse, std::string("\x05", 1));
  auto result = rpcs_[0]->call_sync(1, 1, "after");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), "echo:after");
}

// --- TcpTransport ----------------------------------------------------------------

TEST(Tcp, EchoAcrossRealSockets) {
  TcpTransport fabric(2);
  Sink sink0, sink1;
  fabric.endpoint(0)->set_handler(sink0.handler());
  fabric.endpoint(1)->set_handler(sink1.handler());
  fabric.start();

  fabric.endpoint(0)->send(1, 42, "over tcp");
  ASSERT_EQ(sink1.wait_for(1), 1u);
  EXPECT_EQ(sink1.messages[0].type, 42u);
  EXPECT_EQ(sink1.messages[0].src, 0u);
  EXPECT_EQ(sink1.messages[0].payload.view(), "over tcp");

  fabric.endpoint(1)->send(0, 43, "reply");
  ASSERT_EQ(sink0.wait_for(1), 1u);
  EXPECT_EQ(sink0.messages[0].payload.view(), "reply");
  fabric.stop();
}

TEST(Tcp, LargeFrameAndOrdering) {
  TcpTransport fabric(2);
  Sink sink;
  fabric.endpoint(0)->set_handler([](Message&&) {});
  fabric.endpoint(1)->set_handler(sink.handler());
  fabric.start();
  const std::string big(2 << 20, 'b');
  fabric.endpoint(0)->send(1, 1, big);
  for (int i = 0; i < 20; ++i) fabric.endpoint(0)->send(1, 2, std::to_string(i));
  ASSERT_EQ(sink.wait_for(21), 21u);
  EXPECT_EQ(sink.messages[0].payload.size(), big.size());
  for (int i = 0; i < 20; ++i) EXPECT_EQ(sink.messages[i + 1].payload.view(), std::to_string(i));
  fabric.stop();
}

TEST(Tcp, MultiMegabyteFrameSurvivesShortReadsIntact) {
  // An 8MB patterned frame is far beyond what one send()/recv() moves on
  // loopback, so this only passes if both sides loop over partial transfers
  // without shearing the byte stream. A trailing small frame proves the
  // stream stayed framed.
  TcpTransport fabric(2);
  Sink sink;
  fabric.endpoint(0)->set_handler([](Message&&) {});
  fabric.endpoint(1)->set_handler(sink.handler());
  fabric.start();
  std::string big(8 << 20, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>((i * 31 + 7) & 0xff);
  }
  fabric.endpoint(0)->send(1, 9, big);
  fabric.endpoint(0)->send(1, 10, "tail");
  ASSERT_EQ(sink.wait_for(2, std::chrono::seconds(30)), 2u);
  EXPECT_EQ(sink.messages[0].type, 9u);
  ASSERT_EQ(sink.messages[0].payload.size(), big.size());
  EXPECT_EQ(sink.messages[0].payload.view(), big);  // every byte, in order
  EXPECT_EQ(sink.messages[1].payload.view(), "tail");
  fabric.stop();
}

TEST(Tcp, HeadPlusBodyPayloadArrivesIntact) {
  // Head and body go to the socket as two writes and arrive as one
  // contiguous buffer; a reader slices past the head without copying.
  TcpTransport fabric(2);
  Sink sink;
  fabric.endpoint(0)->set_handler([](Message&&) {});
  fabric.endpoint(1)->set_handler(sink.handler());
  fabric.start();
  std::string bytes(100000, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>((i * 13 + 5) & 0xff);
  }
  const auto body = std::make_shared<const std::string>(bytes);
  fabric.endpoint(0)->send(1, 4, Payload::with_body("head:", body));
  ASSERT_EQ(sink.wait_for(1), 1u);
  const Payload& got = sink.messages[0].payload;
  ASSERT_EQ(got.size(), 5 + bytes.size());
  EXPECT_EQ(got.view(), "head:" + bytes);
  EXPECT_EQ(got.suffix(5).view(), bytes);
  EXPECT_EQ(got.suffix(5).view().data(), got.view().data() + 5);
  fabric.stop();
}

TEST(Tcp, RpcOverRealSockets) {
  TcpTransport fabric(2);
  Router r0(fabric.endpoint(0)), r1(fabric.endpoint(1));
  Rpc rpc0(&r0), rpc1(&r1);
  rpc1.register_method(1, [](NodeId, std::string_view arg) {
    return "tcp:" + std::string(arg);
  });
  fabric.start();
  auto result = rpc0.call_sync(1, 1, "ping");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), "tcp:ping");
  fabric.stop();
}

TEST(Tcp, EmptyPayloadFrame) {
  TcpTransport fabric(2);
  Sink sink;
  fabric.endpoint(0)->set_handler([](Message&&) {});
  fabric.endpoint(1)->set_handler(sink.handler());
  fabric.start();
  fabric.endpoint(0)->send(1, 5, "");
  ASSERT_EQ(sink.wait_for(1), 1u);
  EXPECT_EQ(sink.messages[0].payload.view(), "");
  fabric.stop();
}

// --- Fault injection at the transport layer ---------------------------------

TEST(InProcFaults, DroppedRpcRequestTimesOutInsteadOfHanging) {
  fault::FaultPlan plan;
  plan.faultable_types = {msg_type::kRpcRequest};
  plan.default_link.drop = 1.0;
  fault::FaultInjector injector(plan);

  InProcTransport fabric(2, fast_net());
  Router r0(fabric.endpoint(0)), r1(fabric.endpoint(1));
  Rpc rpc0(&r0), rpc1(&r1);
  rpc1.register_method(1, [](NodeId, std::string_view arg) {
    return std::string(arg);
  });
  fabric.set_fault_injector(&injector);
  fabric.start();

  auto result = rpc0.call_sync(1, 1, "lost", millis(200));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(injector.stats().messages_dropped, 1u);
  fabric.stop();
}

TEST(InProcFaults, DuplicatedMessageIsDeliveredTwice) {
  fault::FaultPlan plan;
  plan.faultable_types = {7};
  plan.default_link.duplicate = 1.0;
  fault::FaultInjector injector(plan);

  InProcTransport fabric(2, fast_net());
  Sink sink;
  fabric.endpoint(0)->set_handler([](Message&&) {});
  fabric.endpoint(1)->set_handler(sink.handler());
  fabric.set_fault_injector(&injector);
  fabric.start();

  fabric.endpoint(0)->send(1, 7, "twin");
  ASSERT_EQ(sink.wait_for(2), 2u);
  EXPECT_EQ(sink.messages[0].payload.view(), "twin");
  EXPECT_EQ(sink.messages[1].payload.view(), "twin");
  EXPECT_EQ(injector.stats().messages_duplicated, 1u);
  fabric.stop();
}

TEST(InProcFaults, DelayedMessageArrivesOutOfOrder) {
  // Message "slow" is delayed in-network; "fast", sent immediately after on
  // the same link, overtakes it. (The engine's reliable channel reorders by
  // sequence number above this layer.)
  fault::FaultPlan plan;
  plan.faultable_types = {7};
  fault::LinkFaults lf;
  lf.delay = 1.0;
  lf.delay_by = millis(100);
  plan.links[{0, 1}] = lf;
  fault::FaultInjector injector(plan);

  InProcTransport fabric(2, fast_net());
  Sink sink;
  fabric.endpoint(0)->set_handler([](Message&&) {});
  fabric.endpoint(1)->set_handler(sink.handler());
  fabric.set_fault_injector(&injector);
  fabric.start();

  fabric.endpoint(0)->send(1, 7, "slow");
  fabric.endpoint(0)->send(1, 8, "fast");  // type 8 is not faultable
  ASSERT_EQ(sink.wait_for(2), 2u);
  EXPECT_EQ(sink.messages[0].payload.view(), "fast");
  EXPECT_EQ(sink.messages[1].payload.view(), "slow");
  EXPECT_EQ(injector.stats().messages_delayed, 1u);
  fabric.stop();
}

TEST(InProcFaults, RpcToleratesDuplicatedResponse) {
  fault::FaultPlan plan;
  plan.faultable_types = {msg_type::kRpcResponse};
  plan.default_link.duplicate = 1.0;
  fault::FaultInjector injector(plan);

  InProcTransport fabric(2, fast_net());
  Router r0(fabric.endpoint(0)), r1(fabric.endpoint(1));
  Rpc rpc0(&r0), rpc1(&r1);
  rpc1.register_method(1, [](NodeId, std::string_view arg) {
    return "echo:" + std::string(arg);
  });
  fabric.set_fault_injector(&injector);
  fabric.start();

  auto result = rpc0.call_sync(1, 1, "x", std::chrono::seconds(5));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), "echo:x");
  fabric.stop();
}
