// Episode analytics (obs/episodes.h): the builder's state machine on a
// hand-driven single-loss recovery, the sender's live table against the
// rows the same records derive through a ring listener, the table's
// stream counters against tcp::Metrics on real sweeps, bounded vs
// unbounded tables, and the determinism contract (thread count and
// tracing must not change the table).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "exp/scenarios.h"
#include "obs/episodes.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "tcp/sender.h"
#include "workload/video_workload.h"
#include "workload/web_workload.h"

namespace prr::obs {
namespace {

using namespace prr::sim::literals;

constexpr uint32_t kMss = 1000;

// Every field of two rows, so a mismatch names the field.
void expect_same_row(const EpisodeSummary& a, const EpisodeSummary& b,
                     const std::string& where) {
  EXPECT_EQ(a.conn, b.conn) << where;
  EXPECT_EQ(a.start_ns, b.start_ns) << where;
  EXPECT_EQ(a.end_ns, b.end_ns) << where;
  EXPECT_EQ(a.pipe_at_start, b.pipe_at_start) << where;
  EXPECT_EQ(a.ssthresh, b.ssthresh) << where;
  EXPECT_EQ(a.cwnd_at_start, b.cwnd_at_start) << where;
  EXPECT_EQ(a.cwnd_at_exit, b.cwnd_at_exit) << where;
  EXPECT_EQ(a.cwnd_after_exit, b.cwnd_after_exit) << where;
  EXPECT_EQ(a.pipe_at_exit, b.pipe_at_exit) << where;
  EXPECT_EQ(a.flight_at_start, b.flight_at_start) << where;
  EXPECT_EQ(a.recovery_point, b.recovery_point) << where;
  EXPECT_EQ(a.mss, b.mss) << where;
  EXPECT_EQ(a.exit, b.exit) << where;
  EXPECT_EQ(a.via_early_retransmit, b.via_early_retransmit) << where;
  EXPECT_EQ(a.slow_start_after, b.slow_start_after) << where;
  EXPECT_EQ(a.acks, b.acks) << where;
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes) << where;
  EXPECT_EQ(a.sndcnt_bytes, b.sndcnt_bytes) << where;
  EXPECT_EQ(a.retransmits, b.retransmits) << where;
  EXPECT_EQ(a.bytes_sent_during, b.bytes_sent_during) << where;
  EXPECT_EQ(a.max_burst_segments, b.max_burst_segments) << where;
  EXPECT_EQ(a.sacks_seen, b.sacks_seen) << where;
  EXPECT_EQ(a.dsacks_seen, b.dsacks_seen) << where;
}

void expect_stream_matches_metrics(const EpisodeBuilder::StreamCounts& s,
                                   const tcp::Metrics& m,
                                   const std::string& where) {
  EXPECT_EQ(s.data_segments_sent, m.data_segments_sent) << where;
  EXPECT_EQ(s.retransmits_total, m.retransmits_total) << where;
  EXPECT_EQ(s.fast_retransmits, m.fast_retransmits) << where;
  EXPECT_EQ(s.dsacks_received, m.dsacks_received) << where;
  EXPECT_EQ(s.undo_events, m.undo_events) << where;
  EXPECT_EQ(s.lost_retransmits_detected, m.lost_retransmits_detected)
      << where;
  EXPECT_EQ(s.lost_fast_retransmits, m.lost_fast_retransmits) << where;
  EXPECT_EQ(s.timeouts_total, m.timeouts_total) << where;
}

class EpisodeBuilderTest : public ::testing::Test {
 protected:
  void make(tcp::RecoveryKind kind) {
    tcp::SenderConfig cfg;
    cfg.mss = kMss;
    cfg.initial_cwnd_segments = 20;
    cfg.cc = tcp::CcKind::kNewReno;
    cfg.recovery = kind;
    sender = std::make_unique<tcp::Sender>(
        sim, cfg, [](net::Segment) {}, &metrics, &table);
    recorder = std::make_unique<FlightRecorder>(1u << 12);
    recorder->add_listener(
        [this](const TraceRecord& r) { builder.on_record(r); });
    sender->set_recorder(recorder.get(), /*conn_id=*/1);
  }

  net::Segment ack(uint64_t cum, std::vector<net::SackBlock> sacks = {},
                   std::optional<net::SackBlock> dsack = std::nullopt) {
    net::Segment a;
    a.is_ack = true;
    a.ack = cum;
    a.sacks.assign(sacks.begin(), sacks.end());
    a.dsack = dsack;
    a.rwnd = 1 << 30;
    return a;
  }

  // Single loss of segment 0 out of 20; dupacks until recovery triggers.
  void enter_single_loss() {
    sender->write(20 * kMss);
    for (int i = 0; i < 3 && sender->state() != tcp::TcpState::kRecovery;
         ++i) {
      sender->on_ack_segment(ack(0, {{kMss, (i + 2) * kMss}}));
    }
    ASSERT_EQ(sender->state(), tcp::TcpState::kRecovery);
  }

  // The sender's live row and the row a ring listener derived from the
  // same records are the same row.
  void expect_live_row_matches_listener() {
    ASSERT_EQ(table.rows().size(), builder.episodes().size());
    for (std::size_t i = 0; i < table.rows().size(); ++i) {
      expect_same_row(table.rows()[i], builder.episodes()[i].summary,
                      "episode " + std::to_string(i));
    }
  }

  // Declaration order doubles as a lifetime contract: the sender's
  // destructor cancels pending timers, which writes trace records
  // through the recorder into the builder — so the sender must be
  // destroyed first (declared last), the recorder second, builder last.
  sim::Simulator sim;
  tcp::Metrics metrics;
  EpisodeTable table;
  EpisodeBuilder builder{EpisodeBuilder::Options{.keep_ledgers = true}};
  std::unique_ptr<FlightRecorder> recorder;
  std::unique_ptr<tcp::Sender> sender;
};

TEST_F(EpisodeBuilderTest, SingleLossEpisodeMatchesRecoveryLog) {
  make(tcp::RecoveryKind::kPrr);
  enter_single_loss();
  // Keep the ACK clock running, then the cumulative ACK covering the
  // recovery point completes the episode.
  for (int i = 4; i < 19; ++i) {
    sender->on_ack_segment(ack(0, {{kMss, (i + 1) * kMss}}));
  }
  sender->on_ack_segment(ack(20 * kMss));
  ASSERT_EQ(sender->state(), tcp::TcpState::kOpen);
  builder.finish();

  ASSERT_EQ(table.count(), 1u);
  ASSERT_EQ(builder.episodes().size(), 1u);
  expect_live_row_matches_listener();
  const RecoveryEpisode& ep = builder.episodes()[0];
  const EpisodeSummary& row = table.rows()[0];

  // NewReno halves the 20-segment window; PRR exits at ssthresh after
  // retransmitting the one lost segment.
  EXPECT_EQ(row.exit, EpisodeExit::kCompleted);
  EXPECT_EQ(row.conn, 1u);
  EXPECT_EQ(row.mss, kMss);
  EXPECT_EQ(row.cwnd_at_start, 20u * kMss);
  EXPECT_EQ(row.ssthresh, 10u * kMss);
  EXPECT_EQ(row.cwnd_after_exit, sender->ssthresh_bytes());
  EXPECT_EQ(row.retransmits, 1u);
  EXPECT_EQ(row.recovery_point, 20u * kMss);
  EXPECT_TRUE(row.completed());
  EXPECT_FALSE(row.interrupted_by_timeout());
  EXPECT_FALSE(row.slow_start_after);

  // The ledger carries one row per in-recovery ACK, with the PRR
  // annotations riding on the rows where the PRR policy ran.
  EXPECT_EQ(ep.summary.acks, ep.ledger.size());
  ASSERT_FALSE(ep.ledger.empty());
  bool any_prr = false;
  uint64_t delivered = 0;
  for (const EpisodeAck& a : ep.ledger) {
    delivered += a.delivered;
    any_prr |= a.prr_valid;
    EXPECT_EQ(a.ssthresh, row.ssthresh);
  }
  EXPECT_TRUE(any_prr);
  EXPECT_EQ(row.delivered_bytes, delivered);
  // The trajectory after exit is the listener's alone: here the one
  // post-recovery ACK, the one that ended the episode.
  ASSERT_EQ(ep.post_cwnd_count, 1u);
  EXPECT_EQ(ep.post_cwnd[0], sender->cwnd_bytes());

  // Stream counters mirror the Metrics accumulator, in the table and in
  // the listener's builder.
  expect_stream_matches_metrics(table.stream(), metrics, "table");
  expect_stream_matches_metrics(builder.stream(), metrics, "listener");
}

TEST_F(EpisodeBuilderTest, DsackUndoClosesEpisodeAsUndo) {
  make(tcp::RecoveryKind::kPrr);
  enter_single_loss();
  // Cumulative ACK plus a DSACK for the retransmitted hole: the loss
  // was spurious reordering and the sender reverts.
  sender->on_ack_segment(ack(20 * kMss, {}, net::SackBlock{0, kMss}));
  ASSERT_EQ(metrics.undo_events, 1u);
  builder.finish();

  ASSERT_EQ(builder.episodes().size(), 1u);
  expect_live_row_matches_listener();
  const EpisodeSummary& s = table.rows()[0];
  EXPECT_EQ(s.exit, EpisodeExit::kUndo);
  EXPECT_TRUE(s.completed());  // an undo completes the episode
  EXPECT_EQ(table.stream().undo_events, 1u);
  EXPECT_EQ(s.dsacks_seen, 1u);
  EXPECT_EQ(s.cwnd_after_exit, 20u * kMss);  // the prior window restored
  EXPECT_EQ(table.count(), 1u);
}

TEST_F(EpisodeBuilderTest, RtoMidRecoveryClosesEpisodeAsInterrupted) {
  make(tcp::RecoveryKind::kPrr);
  enter_single_loss();
  sim.run(5_s);  // ACK clock stops: the retransmission timer fires
  ASSERT_GE(metrics.timeouts_total, 1u);
  builder.finish();

  ASSERT_GE(builder.episodes().size(), 1u);
  expect_live_row_matches_listener();
  const EpisodeSummary& s = table.rows()[0];
  EXPECT_EQ(s.exit, EpisodeExit::kRtoInterrupted);
  EXPECT_TRUE(s.interrupted_by_timeout());
  EXPECT_FALSE(s.completed());
  EXPECT_EQ(s.cwnd_after_exit, 0u);  // no exit adjustment on this path
  EXPECT_DOUBLE_EQ(table.fraction_with_timeout(), 1.0);
}

TEST_F(EpisodeBuilderTest, StreamEndMidRecoveryTruncates) {
  make(tcp::RecoveryKind::kPrr);
  enter_single_loss();
  builder.finish();  // stream ends while recovery is in progress
  EXPECT_EQ(table.total(), 0u);  // the live row waits for its close
  sender->close_open_episode();

  ASSERT_EQ(builder.episodes().size(), 1u);
  EXPECT_EQ(builder.episodes()[0].summary.exit, EpisodeExit::kTruncated);
  expect_live_row_matches_listener();

  EpisodeTable t;
  t.fold(builder);
  EXPECT_EQ(t.to_json(), table.to_json());
  EXPECT_EQ(t.total(), 1u);
  EXPECT_EQ(t.count(), 0u);  // truncated rows leave the views empty
  EXPECT_EQ(t.truncated(), 1u);
  EXPECT_EQ(t.pipe_minus_ssthresh_segs().count(), 0u);
}

class EpisodeSweepTest : public ::testing::Test {
 protected:
  static exp::RunOptions base_opts() {
    exp::RunOptions opts;
    opts.connections = 600;
    opts.seed = 9;
    opts.threads = 1;
    return opts;
  }
};

TEST_F(EpisodeSweepTest, SweepReconcilesWithRecoveryLogAndMetrics) {
  // The table's stream counters and episode total against the sender's
  // own Metrics, on every arm, both populations, serial and threaded.
  workload::WebWorkload web;
  workload::VideoWorkload video;
  const struct {
    const workload::Population* pop;
    const char* name;
    int connections;
  } populations[] = {{&web, "web", 400}, {&video, "video", 24}};
  const exp::ArmConfig arms[] = {exp::ArmConfig::prr_arm(),
                                 exp::ArmConfig::rfc3517_arm(),
                                 exp::ArmConfig::linux_arm()};
  for (const auto& p : populations) {
    for (const exp::ArmConfig& arm : arms) {
      for (int threads : {1, 4}) {
        exp::RunOptions opts = base_opts();
        opts.connections = p.connections;
        opts.threads = threads;
        const exp::ArmResult r = exp::run_arm(*p.pop, arm, opts);
        const std::string where = std::string(p.name) + " " + arm.name +
                                  " threads=" + std::to_string(threads);
        const EpisodeTable& tab = r.recovery_log;
        ASSERT_GT(tab.total(), 0u) << where;
        EXPECT_EQ(tab.total(), r.metrics.fast_recovery_events) << where;
        EXPECT_EQ(tab.rows().size(), tab.total()) << where;
        expect_stream_matches_metrics(tab.stream(), r.metrics, where);
      }
    }
  }
}

TEST_F(EpisodeSweepTest, TableAccessorsMatchRecoveryLogMirrors) {
  // Bounded mode drops the rows and nothing else: every count, fraction,
  // byte sum and histogram reads the same as unbounded. The unbounded
  // counters are also recounted from the rows by brute force.
  workload::WebWorkload pop;
  exp::RunOptions opts = base_opts();
  opts.connections = 2000;
  opts.seed = 3;
  const exp::ArmResult full =
      exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts);
  opts.bounded_stats = true;
  const exp::ArmResult bounded =
      exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts);
  const EpisodeTable& f = full.recovery_log;
  const EpisodeTable& b = bounded.recovery_log;
  ASSERT_GT(f.count(), 0u);
  EXPECT_TRUE(b.rows().empty());
  EXPECT_EQ(f.rows().size(), f.total());

  std::size_t finished = 0, completed = 0, below = 0, equal = 0, above = 0,
              slow = 0, rto = 0;
  uint64_t bytes = 0;
  for (const EpisodeSummary& s : f.rows()) {
    if (!s.finished()) continue;
    ++finished;
    const int64_t d = static_cast<int64_t>(s.pipe_at_start / s.mss) -
                      static_cast<int64_t>(s.ssthresh / s.mss);
    below += d < 0;
    equal += d == 0;
    above += d > 0;
    rto += s.interrupted_by_timeout();
    bytes += s.bytes_sent_during;
    if (s.completed()) {
      ++completed;
      slow += s.slow_start_after;
    }
  }
  const double n = static_cast<double>(finished);
  EXPECT_EQ(f.count(), finished);
  EXPECT_DOUBLE_EQ(f.fraction_start_below_ssthresh(), below / n);
  EXPECT_DOUBLE_EQ(f.fraction_start_equal_ssthresh(), equal / n);
  EXPECT_DOUBLE_EQ(f.fraction_start_above_ssthresh(), above / n);
  EXPECT_DOUBLE_EQ(f.fraction_with_timeout(), rto / n);
  EXPECT_DOUBLE_EQ(f.fraction_slow_start_after(),
                   static_cast<double>(slow) / completed);
  EXPECT_EQ(f.bytes_sent_during(), bytes);
  EXPECT_EQ(f.pipe_minus_ssthresh_segs().count(), finished);
  EXPECT_EQ(f.recovery_time_ms().count(), finished);
  EXPECT_EQ(f.burst_sizes().count(), finished);
  EXPECT_EQ(f.cwnd_after_exit_segs().count(), completed);
  EXPECT_EQ(f.cwnd_minus_ssthresh_exit_segs().count(), completed);

  EXPECT_EQ(b.total(), f.total());
  EXPECT_EQ(b.count(), f.count());
  EXPECT_EQ(b.truncated(), f.truncated());
  EXPECT_DOUBLE_EQ(b.fraction_start_below_ssthresh(),
                   f.fraction_start_below_ssthresh());
  EXPECT_DOUBLE_EQ(b.fraction_start_equal_ssthresh(),
                   f.fraction_start_equal_ssthresh());
  EXPECT_DOUBLE_EQ(b.fraction_start_above_ssthresh(),
                   f.fraction_start_above_ssthresh());
  EXPECT_DOUBLE_EQ(b.fraction_slow_start_after(),
                   f.fraction_slow_start_after());
  EXPECT_DOUBLE_EQ(b.fraction_with_timeout(), f.fraction_with_timeout());
  EXPECT_EQ(b.bytes_sent_during(), f.bytes_sent_during());
  EXPECT_EQ(b.duration_us().sum(), f.duration_us().sum());
  EXPECT_EQ(b.retransmits_per_episode().sum(),
            f.retransmits_per_episode().sum());
  EXPECT_EQ(b.acks_per_episode().sum(), f.acks_per_episode().sum());
  EXPECT_EQ(b.sndcnt_per_episode().sum(), f.sndcnt_per_episode().sum());
  EXPECT_EQ(b.to_json(), f.to_json());
  EXPECT_EQ(b.summary_string(), f.summary_string());
  EXPECT_TRUE(b.pipe_minus_ssthresh_segs().values().empty());

  // The arm-level fraction reads the table's running byte sum, so it
  // holds in bounded mode too.
  EXPECT_GT(full.fraction_bytes_in_fast_recovery(), 0.0);
  EXPECT_DOUBLE_EQ(bounded.fraction_bytes_in_fast_recovery(),
                   full.fraction_bytes_in_fast_recovery());
}

TEST_F(EpisodeSweepTest, TableIdenticalAcrossThreadsAndTracing) {
  workload::WebWorkload pop;
  exp::RunOptions opts = base_opts();
  const exp::ArmResult serial =
      exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts);
  const std::string reference = serial.recovery_log.to_json();
  ASSERT_TRUE(json_valid(reference)) << reference;

  opts.threads = 3;
  const exp::ArmResult parallel =
      exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts);
  EXPECT_EQ(parallel.recovery_log.to_json(), reference);
  EXPECT_EQ(parallel.recovery_log.rows().size(),
            serial.recovery_log.rows().size());

  opts.trace = true;  // explicit tracing must not change the table
  const exp::ArmResult traced =
      exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts);
  EXPECT_EQ(traced.recovery_log.to_json(), reference);
}

TEST_F(EpisodeSweepTest, TraceConnectionCapturesEpisodesWithLedgers) {
  // The sweep's live rows for a connection equal the rows trace_connection
  // derives from that connection's full record stream, for every
  // connection that entered recovery — undo and RTO exits included.
  // Chaos faults make RTO-interrupted episodes common enough to cover.
  workload::WebWorkload web;
  const exp::ChaosPopulation pop(web, exp::ChaosSpec::everything().profile);
  exp::RunOptions opts = base_opts();
  opts.connections = 1500;
  const exp::ArmResult r =
      exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts);
  std::vector<uint32_t> conns;
  std::set<EpisodeExit> exits;
  for (const EpisodeSummary& row : r.recovery_log.rows()) {
    if (conns.empty() || conns.back() != row.conn) conns.push_back(row.conn);
    exits.insert(row.exit);
  }
  ASSERT_GE(conns.size(), 50u);
  EXPECT_TRUE(exits.count(EpisodeExit::kUndo));
  EXPECT_TRUE(exits.count(EpisodeExit::kRtoInterrupted));

  std::size_t next = 0;  // rows are grouped by connection, in id order
  for (const uint32_t conn : conns) {
    const exp::TracedConnection t =
        exp::trace_connection(pop, exp::ArmConfig::prr_arm(), opts, conn);
    ASSERT_FALSE(t.records.empty());
    for (const RecoveryEpisode& ep : t.episodes) {
      ASSERT_LT(next, r.recovery_log.rows().size());
      expect_same_row(r.recovery_log.rows()[next++], ep.summary,
                      "conn " + std::to_string(conn));
      EXPECT_EQ(ep.ledger.size(), ep.summary.acks);
    }
  }
  EXPECT_EQ(next, r.recovery_log.rows().size());
  // describe() renders without falling over.
  const exp::TracedConnection first =
      exp::trace_connection(pop, exp::ArmConfig::prr_arm(), opts, conns[0]);
  EXPECT_FALSE(describe(first.episodes[0]).empty());
}

}  // namespace
}  // namespace prr::obs
