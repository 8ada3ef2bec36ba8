// Pooled-connection determinism: a sweep recycles one Simulator/
// Connection/ServerApp arena per worker through the reset() protocol, and
// "fresh == reset by construction" means it must reproduce the fresh
// reference (each id as its own run_arm, merged in id order) exactly —
// every counter, every sample vector, every quarantine record — on clean
// and chaotic populations alike, serial and parallel.
#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>

#include "exp/experiment.h"
#include "exp/scenarios.h"
#include "fresh_reference.h"
#include "workload/video_workload.h"
#include "workload/web_workload.h"

namespace prr::exp {
namespace {

void expect_identical(const ArmResult& fresh, const ArmResult& pooled) {
  static_assert(std::is_trivially_copyable_v<tcp::Metrics>);
  EXPECT_EQ(
      std::memcmp(&fresh.metrics, &pooled.metrics, sizeof(tcp::Metrics)),
      0)
      << "metrics differ: {" << fresh.metrics.summary() << "} vs {"
      << pooled.metrics.summary() << "}";
  EXPECT_EQ(fresh.connections_run, pooled.connections_run);
  EXPECT_EQ(fresh.total_workload_bytes, pooled.total_workload_bytes);
  EXPECT_EQ(fresh.total_network_transmit_time,
            pooled.total_network_transmit_time);
  EXPECT_EQ(fresh.total_loss_recovery_time,
            pooled.total_loss_recovery_time);
  EXPECT_EQ(fresh.acks_checked, pooled.acks_checked);
  EXPECT_EQ(fresh.invariant_violations, pooled.invariant_violations);

  const auto& fe = fresh.recovery_log.rows();
  const auto& pe = pooled.recovery_log.rows();
  ASSERT_EQ(fe.size(), pe.size());
  for (std::size_t i = 0; i < fe.size(); ++i) {
    SCOPED_TRACE("recovery event " + std::to_string(i));
    EXPECT_EQ(fe[i].start(), pe[i].start());
    EXPECT_EQ(fe[i].end(), pe[i].end());
    EXPECT_EQ(fe[i].cwnd_at_start, pe[i].cwnd_at_start);
    EXPECT_EQ(fe[i].cwnd_at_exit, pe[i].cwnd_at_exit);
    EXPECT_EQ(fe[i].retransmits, pe[i].retransmits);
    EXPECT_EQ(fe[i].bytes_sent_during, pe[i].bytes_sent_during);
  }

  const auto& fr = fresh.latency.responses();
  const auto& pr = pooled.latency.responses();
  ASSERT_EQ(fr.size(), pr.size());
  for (std::size_t i = 0; i < fr.size(); ++i) {
    SCOPED_TRACE("response " + std::to_string(i));
    EXPECT_EQ(fr[i].bytes, pr[i].bytes);
    EXPECT_EQ(fr[i].first_byte_sent, pr[i].first_byte_sent);
    EXPECT_EQ(fr[i].last_byte_acked, pr[i].last_byte_acked);
    EXPECT_EQ(fr[i].had_retransmit, pr[i].had_retransmit);
    EXPECT_EQ(fr[i].completed, pr[i].completed);
  }

  ASSERT_EQ(fresh.quarantined.size(), pooled.quarantined.size());
  for (std::size_t i = 0; i < fresh.quarantined.size(); ++i) {
    EXPECT_EQ(fresh.quarantined[i].connection_id,
              pooled.quarantined[i].connection_id);
    EXPECT_EQ(fresh.quarantined[i].fault_summary,
              pooled.quarantined[i].fault_summary);
  }
}

ArmResult run(const workload::Population& pop, const RunOptions& opts,
              bool pool) {
  return pool ? run_arm(pop, ArmConfig::prr_arm(), opts)
              : run_fresh_per_id(pop, ArmConfig::prr_arm(), opts);
}

TEST(ConnArena, PooledEqualsFreshWeb) {
  workload::WebWorkload pop;
  RunOptions opts;
  opts.connections = 200;
  opts.seed = 91;
  expect_identical(run(pop, opts, false), run(pop, opts, true));
}

TEST(ConnArena, PooledEqualsFreshVideo) {
  workload::VideoWorkload pop;
  RunOptions opts;
  opts.connections = 60;
  opts.seed = 14;
  expect_identical(run(pop, opts, false), run(pop, opts, true));
}

TEST(ConnArena, PooledEqualsFreshChaosWithQuarantine) {
  // The hardest recycling case: fault schedules, invariant checking, an
  // injected violation, and aborted connections all leave state behind
  // that reset() must fully clear.
  workload::WebWorkload base;
  ChaosPopulation pop(base, ChaosSpec::everything().profile);
  RunOptions opts;
  opts.connections = 96;
  opts.seed = 7;
  opts.check_invariants = true;
  opts.scenario = "arena-chaos";
  opts.inject_violation_connection = 41;
  opts.inject_violation_on_ack = 3;
  const ArmResult fresh = run(pop, opts, false);
  ASSERT_EQ(fresh.quarantined.size(), 1u);
  expect_identical(fresh, run(pop, opts, true));
}

TEST(ConnArena, PooledEqualsFreshAcrossThreads) {
  workload::WebWorkload pop;
  RunOptions opts;
  opts.connections = 150;
  opts.seed = 33;
  opts.threads = 1;
  const ArmResult fresh_serial = run(pop, opts, false);
  opts.threads = 4;
  expect_identical(fresh_serial, run(pop, opts, true));
}

TEST(ConnArena, PooledEqualsFreshTraced) {
  workload::WebWorkload pop;
  RunOptions opts;
  opts.connections = 80;
  opts.seed = 55;
  opts.trace = true;
  expect_identical(run(pop, opts, false), run(pop, opts, true));
}

}  // namespace
}  // namespace prr::exp
