#include "net/link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/path.h"
#include "sim/simulator.h"

namespace prr::net {
namespace {

using namespace prr::sim::literals;

Segment data_seg(uint64_t seq, uint32_t len) {
  Segment s;
  s.seq = seq;
  s.len = len;
  return s;
}

TEST(Link, DeliveryIsSerializationPlusPropagation) {
  sim::Simulator sim;
  std::vector<sim::Time> arrivals;
  Link::Config cfg;
  cfg.rate = util::DataRate::mbps(1.2);
  cfg.propagation_delay = 50_ms;
  Link link(sim, cfg, [&](Segment) { arrivals.push_back(sim.now()); });

  // 1040 wire bytes at 1.2 Mbps = 6.933 ms serialization.
  link.send(data_seg(0, 1000));
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_NEAR(arrivals[0].ms_d(), 6.933 + 50.0, 0.01);
}

TEST(Link, BackToBackSegmentsQueueBehindEachOther) {
  sim::Simulator sim;
  std::vector<sim::Time> arrivals;
  Link::Config cfg;
  cfg.rate = util::DataRate::mbps(1.2);
  cfg.propagation_delay = 50_ms;
  Link link(sim, cfg, [&](Segment) { arrivals.push_back(sim.now()); });

  for (int i = 0; i < 5; ++i) link.send(data_seg(i * 1000, 1000));
  sim.run();
  ASSERT_EQ(arrivals.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(arrivals[i].ms_d(), 6.933 * (i + 1) + 50.0, 0.05) << i;
  }
}

TEST(Link, QueueOverflowDropsTail) {
  sim::Simulator sim;
  int delivered = 0;
  Link::Config cfg;
  cfg.rate = util::DataRate::mbps(1.2);
  cfg.propagation_delay = 1_ms;
  cfg.queue_limit_packets = 3;
  Link link(sim, cfg, [&](Segment) { ++delivered; });

  for (int i = 0; i < 10; ++i) link.send(data_seg(i * 1000, 1000));
  sim.run();
  // 1 in service + 3 queued survive.
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(link.stats().dropped_queue, 6u);
}

TEST(Link, LossModelDropsAreCounted) {
  sim::Simulator sim;
  int delivered = 0;
  Link::Config cfg;
  Link link(sim, cfg, [&](Segment) { ++delivered; });
  link.set_loss_model(std::make_unique<DeterministicLoss>(
      std::set<uint64_t>{2, 3}));
  for (int i = 0; i < 5; ++i) link.send(data_seg(i * 1000, 1000));
  sim.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(link.stats().dropped_loss_model, 2u);
}

TEST(Link, AckWireSizeIncludesSackOptions) {
  Segment ack;
  ack.is_ack = true;
  EXPECT_EQ(ack.wire_size(), 40u);
  ack.sacks.push_back({0, 1000});
  ack.sacks.push_back({2000, 3000});
  EXPECT_EQ(ack.wire_size(), 40u + 2 + 16);
  ack.dsack = SackBlock{0, 500};
  EXPECT_EQ(ack.wire_size(), 40u + 2 + 24);
}

TEST(Path, SymmetricConfigSplitsRtt) {
  auto cfg = Path::Config::symmetric(util::DataRate::mbps(10), 100_ms, 50);
  EXPECT_EQ(cfg.data_link.propagation_delay.ms(), 50);
  EXPECT_EQ(cfg.ack_link.propagation_delay.ms(), 50);
  EXPECT_EQ(cfg.data_link.queue_limit_packets, 50u);
}

TEST(Path, RoundTripThroughBothLinks) {
  sim::Simulator sim;
  auto cfg = Path::Config::symmetric(util::DataRate::mbps(1.2), 100_ms, 50);
  Path path(sim, cfg, sim::Rng(7));
  sim::Time data_arrival, ack_arrival;
  path.set_data_sink([&](Segment) {
    data_arrival = sim.now();
    Segment ack;
    ack.is_ack = true;
    ack.ack = 1000;
    path.send_ack(std::move(ack));
  });
  path.set_ack_sink([&](Segment) { ack_arrival = sim.now(); });
  path.send_data(data_seg(0, 1000));
  sim.run();
  EXPECT_NEAR(data_arrival.ms_d(), 56.9, 0.2);
  // ACK: ~0 serialization at 100 Mbps + 50 ms back.
  EXPECT_NEAR(ack_arrival.ms_d(), 106.9, 0.3);
}

TEST(Path, KillClientSilencesAcks) {
  sim::Simulator sim;
  auto cfg = Path::Config::symmetric(util::DataRate::mbps(10), 10_ms, 50);
  Path path(sim, cfg, sim::Rng(7));
  int acks = 0;
  path.set_data_sink([&](Segment) {});
  path.set_ack_sink([&](Segment) { ++acks; });
  path.kill_client();
  Segment ack;
  ack.is_ack = true;
  path.send_ack(std::move(ack));
  sim.run();
  EXPECT_EQ(acks, 0);
}

// ---------------------------------------------------------------------
// Batch delivery (DESIGN.md §12): per-event mode is the reference oracle.
// Batch mode must produce the identical delivery log — (now(), segment)
// per delivery — for an ACK train, including a cancel landing inside a
// draining batch and a path reconfiguration landing mid-train.
// ---------------------------------------------------------------------

// One observed dispatch: the clock at the time and which event it was
// (a segment's seq, or a negative timer label).
struct Obs {
  int64_t at_ns;
  int label;
  bool operator==(const Obs&) const = default;
};

// Sends a burst of segments (which serialize back-to-back into a
// contiguous propagation train) and records each delivery.
std::vector<Obs> link_train(bool batch) {
  sim::Simulator sim;
  sim.set_batch_delivery(batch);
  std::vector<Obs> log;
  Link::Config lc;
  lc.rate = util::DataRate::mbps(100);
  lc.propagation_delay = 5_ms;
  Link link(sim, lc, [&](Segment&& seg) {
    log.push_back(Obs{sim.now().ns(), static_cast<int>(seg.seq)});
  });
  for (uint64_t i = 0; i < 16; ++i) link.send(data_seg(i, 100));
  sim.run();
  return log;
}

TEST(BatchDelivery, AckTrainIdenticalAcrossCombos) {
  const auto want = link_train(false);
  EXPECT_EQ(want.size(), 16u);
  EXPECT_EQ(link_train(true), want);
}

// A timer event cancelled by a delivery inside a draining batch: the
// cancel must take effect identically whether the canceller ran from a
// batched inline dispatch or its own queue event.
std::vector<Obs> cancel_inside_batch(bool batch) {
  sim::Simulator sim;
  sim.set_batch_delivery(batch);
  std::vector<Obs> log;
  Link::Config lc;
  lc.rate = util::DataRate::mbps(100);
  lc.propagation_delay = 5_ms;
  // A timer armed between the train's delivery timestamps; delivery #3
  // stops it, so it must never fire — and one armed after the train that
  // must still fire.
  sim::Timer victim(sim, [&] { log.push_back({sim.now().ns(), -1}); });
  sim::Timer survivor(sim, [&] { log.push_back({sim.now().ns(), -2}); });
  Link link(sim, lc, [&](Segment&& seg) {
    log.push_back(Obs{sim.now().ns(), static_cast<int>(seg.seq)});
    if (seg.seq == 3) victim.stop();
  });
  for (uint64_t i = 0; i < 8; ++i) link.send(data_seg(i, 100));
  // The victim expires between delivery 5 and 6 (inside the batch); the
  // survivor a millisecond after the train.
  victim.start(5_ms + sim::Time::microseconds(45));
  survivor.start(7_ms);
  sim.run();
  return log;
}

TEST(BatchDelivery, CancelInsideDrainingBatch) {
  const auto want = cancel_inside_batch(false);
  // The victim must not appear; the survivor must.
  for (const Obs& o : want) EXPECT_NE(o.label, -1);
  EXPECT_TRUE(std::any_of(want.begin(), want.end(),
                          [](const Obs& o) { return o.label == -2; }));
  EXPECT_EQ(cancel_inside_batch(true), want);
}

// Link reconfiguration (bandwidth + propagation delay fault) landing
// mid-train: the rate change applies from the next serialization, the
// delay shrink makes later segments overtake earlier ones (route
// change), and both modes must agree on the resulting delivery order.
std::vector<Obs> reconfig_mid_train(bool batch) {
  sim::Simulator sim;
  sim.set_batch_delivery(batch);
  std::vector<Obs> log;
  Link::Config lc;
  lc.rate = util::DataRate::mbps(50);
  lc.propagation_delay = 10_ms;
  Link link(sim, lc, [&](Segment&& seg) {
    log.push_back(Obs{sim.now().ns(), static_cast<int>(seg.seq)});
  });
  for (uint64_t i = 0; i < 12; ++i) link.send(data_seg(i, 100));
  // Mid-train fault: bandwidth drops, propagation delay shrinks to a
  // tenth — segments serialized after this overtake ones still
  // propagating under the old delay.
  sim.schedule_in(sim::Time::microseconds(100), [&] {
    link.set_rate(util::DataRate::mbps(10));
    link.set_propagation_delay(1_ms);
  });
  sim.run();
  return log;
}

TEST(BatchDelivery, LinkReconfigLandsMidTrain) {
  const auto want = reconfig_mid_train(false);
  EXPECT_EQ(want.size(), 12u);
  // The shrink must actually reorder deliveries, or the test tests
  // nothing: some later-sent segment arrives before an earlier one.
  bool reordered = false;
  for (std::size_t i = 1; i < want.size(); ++i) {
    if (want[i].label < want[i - 1].label) reordered = true;
  }
  EXPECT_TRUE(reordered);
  EXPECT_EQ(reconfig_mid_train(true), want);
}

// Coalesced timer rearms (the sender's per-ACK RTO pattern): a timer
// re-armed on every delivery of a train must fire at exactly the
// per-event expiry in both modes, and pending()/expiry() must read
// identically while deferred.
std::vector<Obs> coalesced_rearm(bool batch) {
  sim::Simulator sim;
  sim.set_batch_delivery(batch);
  std::vector<Obs> log;
  Link::Config lc;
  lc.rate = util::DataRate::mbps(100);
  lc.propagation_delay = 2_ms;
  sim::Timer rto(sim, [&] { log.push_back({sim.now().ns(), -100}); });
  Link link(sim, lc, [&](Segment&& seg) {
    log.push_back(Obs{sim.now().ns(), static_cast<int>(seg.seq)});
    rto.start_coalesced(3_ms);
    EXPECT_TRUE(rto.pending());
    EXPECT_EQ(rto.expiry(), sim.now() + 3_ms);
  });
  for (uint64_t i = 0; i < 10; ++i) link.send(data_seg(i, 100));
  sim.run();
  return log;
}

TEST(BatchDelivery, CoalescedRearmFiresAtPerEventExpiry) {
  const auto want = coalesced_rearm(false);
  // Exactly one RTO firing, after the last delivery.
  EXPECT_EQ(want.back().label, -100);
  EXPECT_EQ(std::count_if(want.begin(), want.end(),
                          [](const Obs& o) { return o.label == -100; }),
            1);
  EXPECT_EQ(coalesced_rearm(true), want);
}

}  // namespace
}  // namespace prr::net
