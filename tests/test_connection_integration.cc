// End-to-end integration: full connections (sender + path + receiver)
// under combinations of impairments. The fundamental invariant: whatever
// the network does — bursty loss, ACK loss, stretch ACKs, reordering —
// every written byte is eventually delivered exactly once and
// acknowledged, without the simulation deadlocking.
#include <gtest/gtest.h>

#include <memory>

#include "net/loss_model.h"
#include "net/reorder_model.h"
#include "sim/simulator.h"
#include "tcp/connection.h"

namespace prr::tcp {
namespace {

using namespace prr::sim::literals;

struct Scenario {
  const char* name;
  double data_loss = 0;          // Bernoulli on the data direction
  double burst_loss_p = 0;       // Gilbert-Elliott entry probability
  double ack_loss = 0;
  uint32_t stretch = 1;
  double reorder_prob = 0;
  RecoveryKind recovery = RecoveryKind::kPrr;
  uint64_t transfer_bytes = 200'000;
  double link_mbps = 4.0;
  int64_t rtt_ms = 80;
};

// Scenario names. ctest names each case after its Scenario's raw bytes,
// the first of which are the `name` pointer, so a string literal's address
// would rename cases whenever the test binary's layout moves. Names kept in
// one 256-byte-aligned table have a fixed low pointer byte (ASLR moves whole
// pages); the leading pad puts "clean" at low byte 0x20, which keeps the
// case name it is already listed under ("object <2...").
struct alignas(256) ScenarioNames {
  char pad[32];
  char clean[32];
  char light_loss[32];
  char heavy_loss[32];
  char burst_loss[32];
  char ack_loss[32];
  char stretch_acks[32];
  char reordering[32];
  char everything[32];
  char linux_loss[32];
  char rfc3517_loss[32];
  char slow_link[32];
  char fast_link[32];
};
constexpr ScenarioNames kNames = {
    "",           "clean",        "light_loss",   "heavy_loss", "burst_loss",
    "ack_loss",   "stretch_acks", "reordering",   "everything", "linux_loss",
    "rfc3517_loss", "slow_link",  "fast_link"};

class ConnectionIntegration : public ::testing::TestWithParam<Scenario> {};

TEST_P(ConnectionIntegration, TransfersAllDataExactlyOnce) {
  const Scenario& sc = GetParam();
  sim::Simulator sim;
  sim::Rng rng(0xC0FFEE);

  ConnectionConfig cfg;
  cfg.sender.mss = 1430;
  cfg.sender.recovery = sc.recovery;
  cfg.sender.handshake_rtt = sim::Time::milliseconds(sc.rtt_ms);
  cfg.path = net::Path::Config::symmetric(
      util::DataRate::mbps(sc.link_mbps),
      sim::Time::milliseconds(sc.rtt_ms), 100);
  cfg.path.ack_mangler.ack_loss_probability = sc.ack_loss;
  cfg.path.ack_mangler.stretch_factor = sc.stretch;

  Metrics metrics;
  Connection conn(sim, cfg, rng, &metrics, nullptr);
  if (sc.data_loss > 0) {
    conn.path().data_link().set_loss_model(
        std::make_unique<net::BernoulliLoss>(sc.data_loss, rng.fork(1)));
  } else if (sc.burst_loss_p > 0) {
    net::GilbertElliottLoss::Params p;
    p.p_good_to_bad = sc.burst_loss_p;
    Connection* unused = nullptr;
    (void)unused;
    conn.path().data_link().set_loss_model(
        std::make_unique<net::GilbertElliottLoss>(p, rng.fork(2)));
  }
  if (sc.reorder_prob > 0) {
    conn.path().data_link().set_reorder_model(
        std::make_unique<net::RandomReorder>(sc.reorder_prob, 1_ms, 20_ms,
                                             rng.fork(3)));
  }

  conn.write(sc.transfer_bytes);
  sim.run(sim::Time::seconds(600));

  EXPECT_TRUE(conn.sender().all_acked()) << sc.name;
  EXPECT_FALSE(conn.sender().aborted()) << sc.name;
  // Exactly-once app-level delivery: the receiver's in-order point is
  // the full transfer.
  EXPECT_EQ(conn.receiver().rcv_nxt(), sc.transfer_bytes) << sc.name;
  // The connection went idle: no timers left, queue drained.
  EXPECT_TRUE(sim.idle()) << sc.name;
}

TEST_P(ConnectionIntegration, ForwardProgressMatchesDelivery) {
  // The paper's DeliveredData invariant at connection scope: the sum of
  // per-ACK DeliveredData must equal total forward progress. We check
  // the observable corollary: snd.una ends at write_end and retransmits
  // are bounded (sane, not pathological).
  const Scenario& sc = GetParam();
  sim::Simulator sim;
  sim::Rng rng(0xBEEF);

  ConnectionConfig cfg;
  cfg.sender.recovery = sc.recovery;
  cfg.sender.handshake_rtt = sim::Time::milliseconds(sc.rtt_ms);
  cfg.path = net::Path::Config::symmetric(
      util::DataRate::mbps(sc.link_mbps),
      sim::Time::milliseconds(sc.rtt_ms), 100);
  cfg.path.ack_mangler.ack_loss_probability = sc.ack_loss;
  cfg.path.ack_mangler.stretch_factor = sc.stretch;

  Metrics metrics;
  Connection conn(sim, cfg, rng, &metrics, nullptr);
  if (sc.data_loss > 0) {
    conn.path().data_link().set_loss_model(
        std::make_unique<net::BernoulliLoss>(sc.data_loss, rng.fork(1)));
  }
  conn.write(sc.transfer_bytes);
  sim.run(sim::Time::seconds(600));

  ASSERT_TRUE(conn.sender().all_acked());
  EXPECT_EQ(conn.sender().snd_una(), conn.sender().write_end());
  // Retransmissions should be within an order of magnitude of the loss
  // rate (not an avalanche of spurious ones).
  const double retx_rate =
      static_cast<double>(metrics.retransmits_total) /
      static_cast<double>(metrics.data_segments_sent);
  EXPECT_LT(retx_rate, sc.data_loss * 4 + sc.burst_loss_p * 20 + 0.04)
      << sc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Impairments, ConnectionIntegration,
    ::testing::Values(
        Scenario{kNames.clean},
        Scenario{kNames.light_loss, 0.01},
        Scenario{kNames.heavy_loss, 0.05},
        Scenario{kNames.burst_loss, 0, 0.01},
        Scenario{kNames.ack_loss, 0.01, 0, 0.2},
        Scenario{kNames.stretch_acks, 0.01, 0, 0, 4},
        Scenario{kNames.reordering, 0, 0, 0, 1, 0.02},
        Scenario{kNames.everything, 0.02, 0, 0.1, 2, 0.01},
        Scenario{kNames.linux_loss, 0.03, 0, 0, 1, 0,
                 RecoveryKind::kLinuxRateHalving},
        Scenario{kNames.rfc3517_loss, 0.03, 0, 0, 1, 0,
                 RecoveryKind::kRfc3517},
        Scenario{kNames.slow_link, 0.02, 0, 0, 1, 0, RecoveryKind::kPrr,
                 100'000, 0.3, 300},
        Scenario{kNames.fast_link, 0.01, 0, 0, 1, 0, RecoveryKind::kPrr,
                 2'000'000, 50.0, 20}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

TEST(ConnectionIntegration2, AbandonedClientAborts) {
  sim::Simulator sim;
  sim::Rng rng(1);
  ConnectionConfig cfg;
  cfg.sender.max_rto_backoffs = 4;
  cfg.sender.handshake_rtt = 50_ms;
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(2), 50_ms);
  Metrics metrics;
  Connection conn(sim, cfg, rng, &metrics, nullptr);
  conn.write(50'000);
  sim.schedule_in(120_ms, [&conn] { conn.path().kill_client(); });
  sim.run(sim::Time::seconds(300));
  EXPECT_TRUE(conn.sender().aborted());
  EXPECT_EQ(metrics.connections_aborted, 1u);
  EXPECT_GT(metrics.failed_retransmits, 0u);
  EXPECT_TRUE(sim.idle());  // no timers leak after abort
}

TEST(ConnectionIntegration2, RecoveryLogAndMetricsConsistent) {
  sim::Simulator sim;
  sim::Rng rng(3);
  ConnectionConfig cfg;
  cfg.sender.handshake_rtt = 60_ms;
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(3), 60_ms);
  Metrics metrics;
  stats::RecoveryLog rlog;
  Connection conn(sim, cfg, rng, &metrics, &rlog);
  conn.path().data_link().set_loss_model(
      std::make_unique<net::BernoulliLoss>(0.03, rng.fork(9)));
  conn.write(400'000);
  sim.run(sim::Time::seconds(600));
  ASSERT_TRUE(conn.sender().all_acked());
  EXPECT_EQ(rlog.count(), metrics.fast_recovery_events);
  uint64_t event_retx = 0;
  for (const auto& e : rlog.events()) event_retx += e.retransmits;
  EXPECT_EQ(event_retx, metrics.fast_retransmits);
  // Connection-local counters equal the shared ones for a single conn.
  EXPECT_EQ(conn.sender().local_metrics().retransmits_total,
            metrics.retransmits_total);
}

TEST(ConnectionIntegration2, DelayedAckReceiverStillCompletes) {
  sim::Simulator sim;
  sim::Rng rng(4);
  ConnectionConfig cfg;
  cfg.receiver.ack_every = 2;
  cfg.receiver.delack_timeout = 200_ms;  // sluggish client
  cfg.sender.handshake_rtt = 40_ms;
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(2), 40_ms);
  Connection conn(sim, cfg, rng, nullptr, nullptr);
  conn.write(1430);  // single segment: only the delack timer ACKs it
  sim.run(sim::Time::seconds(10));
  EXPECT_TRUE(conn.sender().all_acked());
}

TEST(ConnectionIntegration2, SmallReceiveWindowLimitsButCompletes) {
  sim::Simulator sim;
  sim::Rng rng(5);
  ConnectionConfig cfg;
  cfg.receiver.rwnd = 5 * 1430;
  cfg.sender.handshake_rtt = 40_ms;
  cfg.path = net::Path::Config::symmetric(util::DataRate::mbps(10), 40_ms);
  Connection conn(sim, cfg, rng, nullptr, nullptr);
  conn.write(100 * 1430);

  // Once the first ACK advertises the window, flight stays within it.
  uint64_t max_flight_after_learning = 0;
  bool learned = false;
  conn.sender().on_una_advance_hook = [&](uint64_t una) {
    // Skip while the pre-learning initial burst (IW10, sent before any
    // window advertisement arrived) is still draining.
    if (una < 10u * 1430u) return;
    learned = true;
    max_flight_after_learning =
        std::max(max_flight_after_learning,
                 conn.sender().snd_nxt() - conn.sender().snd_una());
  };
  sim.run(sim::Time::seconds(60));
  EXPECT_TRUE(conn.sender().all_acked());
  EXPECT_TRUE(learned);
  EXPECT_LE(max_flight_after_learning, 5u * 1430u);
}

}  // namespace
}  // namespace prr::tcp
