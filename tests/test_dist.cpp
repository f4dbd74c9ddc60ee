// Tests for the distributed substrate: serialization round trips, active
// messages (actions), AGAS ownership + migration, gid-addressed channels,
// and the two parcelports — exactly-once delivery, accounting, and the
// structural properties the paper attributes to each (§5.2).

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "dist/locality.hpp"
#include "dist/serialize.hpp"
#include "net/model.hpp"
#include "net/parcelport.hpp"
#include "support/error.hpp"

namespace {

using namespace octo;
using namespace octo::dist;

TEST(Serialize, RoundTripScalarsStringsVectors) {
    oarchive out;
    out.write(42);
    out.write(3.14);
    out.write_string("halo exchange");
    std::vector<double> v(100);
    std::iota(v.begin(), v.end(), 0.5);
    out.write_vector(v);
    const auto buf = out.take();

    iarchive in(buf);
    EXPECT_EQ(in.read<int>(), 42);
    EXPECT_DOUBLE_EQ(in.read<double>(), 3.14);
    EXPECT_EQ(in.read_string(), "halo exchange");
    EXPECT_EQ(in.read_vector<double>(), v);
    EXPECT_EQ(in.remaining(), 0u);
}

TEST(Serialize, TruncatedPayloadThrows) {
    oarchive out;
    out.write(7);
    const auto buf = out.take();
    iarchive in(buf);
    EXPECT_EQ(in.read<int>(), 7);
    EXPECT_THROW(in.read<double>(), octo::error);
}

class PortSuite : public ::testing::TestWithParam<bool> {
  protected:
    parcelport_factory factory() const {
        return GetParam() ? net::make_libfabric_port() : net::make_mpi_port();
    }
};

TEST_P(PortSuite, ActiveMessageRunsOnDestination) {
    runtime rt(4, factory());
    std::atomic<int> sum{0};
    std::atomic<int> where{-1};
    const auto act = rt.register_action("add", [&](int here, iarchive a) {
        sum.fetch_add(a.read<int>());
        where = here;
    });
    oarchive args;
    args.write(17);
    rt.apply(2, act, std::move(args));
    rt.wait_quiet();
    EXPECT_EQ(sum.load(), 17);
    EXPECT_EQ(where.load(), 2);
}

TEST_P(PortSuite, EveryParcelDeliveredExactlyOnce) {
    runtime rt(3, factory());
    std::atomic<long> total{0};
    std::atomic<int> count{0};
    const auto act = rt.register_action("acc", [&](int, iarchive a) {
        total.fetch_add(a.read<int>());
        count.fetch_add(1);
    });
    constexpr int n = 300;
    long expect = 0;
    for (int i = 0; i < n; ++i) {
        oarchive args;
        args.write(i);
        expect += i;
        rt.apply(i % 3, act, std::move(args));
    }
    rt.wait_quiet();
    EXPECT_EQ(count.load(), n);
    EXPECT_EQ(total.load(), expect);
    EXPECT_EQ(rt.port().stats().parcels_sent, static_cast<std::uint64_t>(n));
}

TEST_P(PortSuite, ChannelsDeliverInOrderAcrossLocalities) {
    runtime rt(2, factory());
    const gid g = rt.register_object(1); // owned by locality 1
    // Receiver fetches two slots ahead (the paper's N-timesteps-ahead idiom).
    auto f0 = rt.channel_get(g);
    auto f1 = rt.channel_get(g);
    rt.channel_set(g, {1.0, 2.0});
    rt.channel_set(g, {3.0});
    EXPECT_EQ(f0.get(), (std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(f1.get(), (std::vector<double>{3.0}));
}

TEST_P(PortSuite, MigrationIsTransparentToSenders) {
    runtime rt(3, factory());
    const gid g = rt.register_object(0);
    rt.channel_set(g, {10.0});
    rt.wait_quiet();
    // Move the object; a sender using the same gid keeps working and the
    // buffered value is still readable ("the runtime manages the updated
    // destination address transparently", §5.2).
    rt.migrate(g, 2);
    EXPECT_EQ(rt.owner_of(g), 2);
    rt.channel_set(g, {20.0});
    EXPECT_EQ(rt.channel_get(g).get(), (std::vector<double>{10.0}));
    EXPECT_EQ(rt.channel_get(g).get(), (std::vector<double>{20.0}));
}

TEST_P(PortSuite, StatsAccumulateBytes) {
    runtime rt(2, factory());
    const gid g = rt.register_object(1);
    rt.channel_set(g, std::vector<double>(1000, 1.0));
    rt.wait_quiet();
    const auto s = rt.port().stats();
    EXPECT_EQ(s.parcels_sent, 1u);
    EXPECT_GT(s.bytes_sent, 8000u);
    EXPECT_GT(s.modeled_latency_total, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Ports, PortSuite, ::testing::Values(false, true),
                         [](const auto& info) {
                             return info.param ? "libfabric" : "mpi";
                         });

TEST(PortComparison, LibfabricModelIsFasterPerMessage) {
    // The protocol-level model: one-sided beats two-sided on latency,
    // per-message CPU and progress delay (paper §6.3's bullet list).
    const auto mpi = net::mpi_like();
    const auto lf = net::libfabric_like();
    for (std::size_t bytes : {256u, 4096u, 65536u, 1048576u}) {
        EXPECT_LT(net::modeled_message_seconds(lf, bytes),
                  net::modeled_message_seconds(mpi, bytes))
            << bytes;
        EXPECT_LT(net::modeled_cpu_seconds(lf, bytes),
                  net::modeled_cpu_seconds(mpi, bytes))
            << bytes;
    }
    // Bandwidth-dominated regime: the advantage shrinks relatively.
    const double r_small = net::modeled_message_seconds(mpi, 64) /
                           net::modeled_message_seconds(lf, 64);
    const double r_big = net::modeled_message_seconds(mpi, 1 << 22) /
                         net::modeled_message_seconds(lf, 1 << 22);
    EXPECT_GT(r_small, r_big);
}

TEST(RmaRegistration, AmortizesPinningCost) {
    // Paper §7 future work: registered buffer size classes skip the
    // per-message pin/registration cost on the one-sided port.
    const auto lf = net::libfabric_like();
    const std::size_t bytes = 35000;
    EXPECT_GT(net::registration_seconds(lf, bytes), 0.0);
    EXPECT_LT(net::modeled_message_seconds(lf, bytes, true),
              net::modeled_message_seconds(lf, bytes, false));
    // Two-sided transports stage through pre-pinned buffers: no pin cost.
    EXPECT_DOUBLE_EQ(net::registration_seconds(net::mpi_like(), bytes), 0.0);

    // End to end: the port accumulates less modeled latency once the halo
    // size class is registered.
    runtime rt(2, net::make_libfabric_port());
    auto* port = dynamic_cast<net::libfabric_parcelport*>(&rt.port());
    ASSERT_NE(port, nullptr);
    const gid g = rt.register_object(1);
    rt.channel_set(g, std::vector<double>(1000, 1.0));
    rt.wait_quiet();
    const double unregistered = rt.port().stats().modeled_latency_total;

    // Register the exact payload size observed and send again.
    port->register_size_class(rt.port().stats().bytes_sent);
    EXPECT_TRUE(port->is_registered(rt.port().stats().bytes_sent));
    rt.channel_set(g, std::vector<double>(1000, 2.0));
    rt.wait_quiet();
    const double registered_delta =
        rt.port().stats().modeled_latency_total - unregistered;
    EXPECT_LT(registered_delta, unregistered);
}

TEST(PortComparison, OneSidedCompletesInlineWithLowerModeledLatency) {
    // Structural check, independent of host load: the libfabric port's
    // completion triggers delivery on the sender's thread inside apply(),
    // so the receiver's ack is already accounted when apply() returns; the
    // MPI port only stages the parcel for its progress engine. Each port's
    // timing model charges that difference, so the same pings accumulate
    // less modeled latency one-sided.
    struct result {
        double modeled = 0;
        bool acked_inline = true;
    };
    auto measure = [](parcelport_factory f) {
        runtime rt(2, std::move(f));
        std::atomic<bool> got{false};
        const auto act =
            rt.register_action("ping", [&](int, iarchive) { got = true; });
        constexpr std::uint64_t rounds = 50;
        result r;
        for (std::uint64_t i = 1; i <= rounds; ++i) {
            got = false;
            rt.apply(1, act, oarchive{});
            r.acked_inline =
                r.acked_inline && rt.port().stats().control_parcels_sent >= i;
            while (!got.load()) std::this_thread::yield();
        }
        rt.wait_quiet();
        EXPECT_EQ(rt.port().stats().parcels_sent, rounds);
        r.modeled = rt.port().stats().modeled_latency_total;
        return r;
    };
    const result mpi = measure(net::make_mpi_port());
    const result lf = measure(net::make_libfabric_port());
    EXPECT_TRUE(lf.acked_inline);
    EXPECT_GT(lf.modeled, 0.0);
    EXPECT_LT(lf.modeled, mpi.modeled);
}

} // namespace
