#include "nectarine/marshal.hpp"

#include <gtest/gtest.h>

#include "net/system.hpp"

namespace nectar::nectarine {
namespace {

struct Fixture {
  net::NectarSystem sys{2};

  void run_on_cab(int node, std::function<void(core::CabRuntime&)> body) {
    sys.runtime(node).fork_app("t", [this, node, body = std::move(body)] {
      body(sys.runtime(node));
    });
    sys.engine().run();
  }
};

TEST(Marshal, ScalarRoundTrip) {
  Fixture f;
  f.run_on_cab(0, [](core::CabRuntime& rt) {
    core::Mailbox& mb = rt.create_mailbox("m");
    core::Message m = mb.begin_put(256);
    Marshaller::Encoder enc(rt, m);
    enc.put_u32(0xDEADBEEF).put_i64(-123456789012345LL).put_u32(7);
    core::Message msg = enc.finish();

    Marshaller::Decoder dec(rt, msg);
    EXPECT_EQ(dec.get_u32(), 0xDEADBEEFu);
    EXPECT_EQ(dec.get_i64(), -123456789012345LL);
    EXPECT_EQ(dec.get_u32(), 7u);
    EXPECT_TRUE(dec.done());
    mb.end_put(msg);
    core::Message g = mb.begin_get();
    mb.end_get(g);
  });
}

TEST(Marshal, StringsAndOpaquePadToFourBytes) {
  Fixture f;
  f.run_on_cab(0, [](core::CabRuntime& rt) {
    core::Mailbox& mb = rt.create_mailbox("m");
    core::Message m = mb.begin_put(512);
    Marshaller::Encoder enc(rt, m);
    std::vector<std::uint8_t> blob{1, 2, 3, 4, 5};
    enc.put_string("ab").put_opaque(blob).put_string("");
    EXPECT_EQ(enc.bytes_used() % 4, 0u);  // everything stays aligned
    core::Message msg = enc.finish();

    Marshaller::Decoder dec(rt, msg);
    EXPECT_EQ(dec.get_string(), "ab");
    EXPECT_EQ(dec.get_opaque(), blob);
    EXPECT_EQ(dec.get_string(), "");
    EXPECT_TRUE(dec.done());
    mb.end_put(msg);
    mb.end_get(mb.begin_get());
  });
}

TEST(Marshal, EmptyStringDecodesAlone) {
  // Decoding "" reads zero bytes into an empty buffer whose data() is null.
  Fixture f;
  f.run_on_cab(0, [](core::CabRuntime& rt) {
    core::Mailbox& mb = rt.create_mailbox("m");
    core::Message m = mb.begin_put(64);
    Marshaller::Encoder enc(rt, m);
    enc.put_string("");
    core::Message msg = enc.finish();
    Marshaller::Decoder dec(rt, msg);
    EXPECT_EQ(dec.get_string(), "");
    EXPECT_TRUE(dec.done());
    mb.end_put(msg);
    mb.end_get(mb.begin_get());
  });
}

TEST(Marshal, ArraysRoundTrip) {
  Fixture f;
  f.run_on_cab(0, [](core::CabRuntime& rt) {
    core::Mailbox& mb = rt.create_mailbox("m");
    core::Message m = mb.begin_put(512);
    std::vector<std::uint32_t> values{0, 1, 0xFFFFFFFF, 42};
    Marshaller::Encoder enc(rt, m);
    enc.put_array_u32(values);
    core::Message msg = enc.finish();
    Marshaller::Decoder dec(rt, msg);
    EXPECT_EQ(dec.get_array_u32(), values);
    mb.end_put(msg);
    mb.end_get(mb.begin_get());
  });
}

TEST(Marshal, TagMismatchThrows) {
  Fixture f;
  f.run_on_cab(0, [](core::CabRuntime& rt) {
    core::Mailbox& mb = rt.create_mailbox("m");
    core::Message m = mb.begin_put(64);
    Marshaller::Encoder enc(rt, m);
    enc.put_u32(1);
    core::Message msg = enc.finish();
    Marshaller::Decoder dec(rt, msg);
    EXPECT_THROW(dec.get_string(), std::invalid_argument);
    mb.end_put(msg);
    mb.end_get(mb.begin_get());
  });
}

TEST(Marshal, TruncatedMessageThrows) {
  Fixture f;
  f.run_on_cab(0, [](core::CabRuntime& rt) {
    core::Mailbox& mb = rt.create_mailbox("m");
    core::Message m = mb.begin_put(8);  // room for a tag + length only
    Marshaller::Encoder enc(rt, m);
    EXPECT_THROW(enc.put_string("this will not fit"), std::length_error);
    mb.end_put(m);
    mb.end_get(mb.begin_get());
  });
}

TEST(Marshal, MarshaledRpcAcrossTheNetwork) {
  // The §5.3 scenario end to end: marshal arguments on one CAB, ship them
  // with the request-response protocol, unmarshal and execute remotely.
  Fixture f;
  core::Mailbox& svc = f.sys.runtime(1).create_mailbox("sum-svc");
  // Server: sum(array) + offset.
  f.sys.runtime(1).fork_system("server", [&] {
    core::CabRuntime& rt = f.sys.runtime(1);
    core::Message req = svc.begin_get();
    auto info = nproto::ReqResp::parse_request(rt, req);
    core::Message args = nproto::ReqResp::payload_of(req);
    Marshaller::Decoder dec(rt, args);
    std::vector<std::uint32_t> values = dec.get_array_u32();
    std::uint32_t offset = dec.get_u32();
    std::string label = dec.get_string();
    std::uint32_t sum = offset;
    for (auto v : values) sum += v;
    svc.end_get(args);

    core::Message rsp = svc.begin_put(64);
    Marshaller::Encoder enc(rt, rsp);
    enc.put_string(label).put_u32(sum);
    f.sys.stack(1).reqresp.respond(info, enc.finish());
  });
  std::uint32_t got_sum = 0;
  std::string got_label;
  f.sys.runtime(0).fork_app("client", [&] {
    core::CabRuntime& rt = f.sys.runtime(0);
    core::Mailbox& scratch = rt.create_mailbox("scratch");
    core::Message req = scratch.begin_put(256);
    std::vector<std::uint32_t> values{10, 20, 30};
    Marshaller::Encoder enc(rt, req);
    enc.put_array_u32(values).put_u32(5).put_string("total");
    core::Message rsp = f.sys.stack(0).reqresp.call(svc.address(), enc.finish());
    Marshaller::Decoder dec(rt, rsp);
    got_label = dec.get_string();
    got_sum = dec.get_u32();
    scratch.end_get(rsp);
  });
  f.sys.engine().run();
  EXPECT_EQ(got_label, "total");
  EXPECT_EQ(got_sum, 65u);
}

TEST(Marshal, ChargesCpuPerByte) {
  Fixture f;
  sim::SimTime cost = 0;
  f.run_on_cab(0, [&cost](core::CabRuntime& rt) {
    core::Mailbox& mb = rt.create_mailbox("m");
    core::Message m = mb.begin_put(8192);
    std::vector<std::uint8_t> blob(4096, 0xAA);
    sim::SimTime t0 = rt.engine().now();
    Marshaller::Encoder enc(rt, m);
    enc.put_opaque(blob);
    cost = rt.engine().now() - t0;
    mb.end_put(enc.finish());
    mb.end_get(mb.begin_get());
  });
  // ~180 ns/byte over 4 KB: marshaling is real CPU work (§5.3's motivation).
  EXPECT_GE(cost, sim::usec(700));
}

}  // namespace
}  // namespace nectar::nectarine
