// The max_rto_backoffs abort path, end to end through the experiment
// harness: an abandoned client drives the sender through consecutive RTO
// backoffs into abort_connection(), and everything downstream must stay
// consistent — aborted counts in metrics and outcomes, episode tables
// that still reconcile, invariant checks (including the finalize-time
// timer-leak check) clean, and no torture-oracle false positives (a dead
// path is not "no forward progress").
#include <gtest/gtest.h>

#include "exp/experiment.h"
#include "tcp/invariants.h"
#include "workload/population.h"

namespace prr::exp {
namespace {

using namespace prr::sim::literals;

// Connection 0 is abandoned mid-transfer (ACKs stop forever); the rest
// are clean short transfers.
class OneAbandons final : public workload::Population {
 public:
  explicit OneAbandons(uint64_t seed) : seed_(seed) {}
  workload::ConnectionSample sample(sim::Rng rng) const override {
    workload::ConnectionSample s;
    http::ResponseSpec r;
    r.bytes = 200 * 1430;
    s.responses = {r};
    // Identify the connection by matching its rng against each id's
    // canonical derivation (the harness hands sample() the fork of
    // (seed, id); id 0's draw equals this reference value).
    if (rng.uniform_int(0, 1u << 30) ==
        sim::Rng(seed_).fork(0).fork(100).uniform_int(0, 1u << 30)) {
      s.client_abandons = true;
      s.abandon_after = 300_ms;
    }
    return s;
  }

 private:
  uint64_t seed_;
};

RunOptions abort_options(uint64_t seed) {
  RunOptions opts;
  opts.connections = 6;
  opts.seed = seed;
  opts.per_connection_limit = sim::Time::seconds(600);
  opts.check_invariants = true;
  opts.torture_oracles = true;
  opts.collect_outcomes = true;
  return opts;
}

TEST(AbortAccounting, AbandonedClientAbortsAndAccountsConsistently) {
  const uint64_t seed = 7;
  OneAbandons pop(seed);
  ArmConfig arm = ArmConfig::prr_arm();
  arm.max_rto_backoffs = 4;  // abort quickly
  ArmResult res = run_arm(pop, arm, abort_options(seed));

  EXPECT_EQ(res.connections_run, 6u);
  ASSERT_EQ(res.outcomes.size(), 6u);
  EXPECT_EQ(res.metrics.connections_aborted, 1u);

  int aborted = 0, finished = 0;
  for (const ConnOutcome& o : res.outcomes) {
    if (o.aborted) {
      ++aborted;
      EXPECT_FALSE(o.all_acked);
      EXPECT_LT(o.delivered_bytes, o.expected_bytes);
    } else {
      ++finished;
      EXPECT_TRUE(o.all_acked);
      EXPECT_TRUE(o.app_finished);
      EXPECT_EQ(o.delivered_bytes, o.expected_bytes);
    }
  }
  EXPECT_EQ(aborted, 1);
  EXPECT_EQ(finished, 5);

  // The abort path must be invariant-clean: no violations, no quarantine
  // records, and — via the finalize() check — no loss timer left armed
  // on the aborted connection. A dead path must not trip the progress
  // watchdog either (it only flags stalls while the path is up).
  EXPECT_EQ(res.invariant_violations, 0u) << [&] {
    std::string all;
    for (const auto& q : res.quarantined)
      for (const auto& v : q.violations)
        all += std::string(tcp::to_string(v.kind)) + ": " + v.detail + "\n";
    return all;
  }();
  EXPECT_TRUE(res.quarantined.empty());
  EXPECT_GT(res.acks_checked, 0u);
}

TEST(AbortAccounting, EpisodeTableStillReconcilesWithAnAbortedConnection) {
  const uint64_t seed = 7;
  OneAbandons pop(seed);
  ArmConfig arm = ArmConfig::prr_arm();
  arm.max_rto_backoffs = 4;
  ArmResult res = run_arm(pop, arm, abort_options(seed));
  EXPECT_EQ(res.metrics.connections_aborted, 1u);
  EXPECT_GT(res.metrics.timeouts_total, 0u);

  // Episodes cut short by the abort are still closed out, the table's
  // stream counters mirror the sender's own metrics exactly, and every
  // row is well-formed.
  EXPECT_EQ(res.recovery_log.stream().timeouts_total, res.metrics.timeouts_total);
  EXPECT_EQ(res.recovery_log.stream().retransmits_total,
            res.metrics.retransmits_total);
  EXPECT_EQ(res.recovery_log.total(),
            static_cast<std::size_t>(res.metrics.fast_recovery_events));
  for (const auto& row : res.recovery_log.rows()) {
    EXPECT_GE(row.end_ns, row.start_ns);
  }
}

TEST(AbortAccounting, BackoffCapIsExact) {
  // Lowering the cap aborts strictly earlier (fewer RTO backoffs paid),
  // and raising it far enough lets the 600 s limit cut the flow off
  // instead (no abort at all).
  const uint64_t seed = 7;
  OneAbandons pop(seed);

  ArmConfig tight = ArmConfig::prr_arm();
  tight.max_rto_backoffs = 2;
  ArmResult r_tight = run_arm(pop, tight, abort_options(seed));

  ArmConfig loose = ArmConfig::prr_arm();
  loose.max_rto_backoffs = 1000;
  ArmResult r_loose = run_arm(pop, loose, abort_options(seed));

  EXPECT_EQ(r_tight.metrics.connections_aborted, 1u);
  EXPECT_EQ(r_loose.metrics.connections_aborted, 0u);
  EXPECT_LT(r_tight.metrics.timeouts_total, r_loose.metrics.timeouts_total);
  // Even without the abort, the stuck connection must not leak timers or
  // trip oracles when the time limit truncates it.
  EXPECT_EQ(r_loose.invariant_violations, 0u);
}

TEST(AbortAccounting, OutcomesAreThreadInvariant) {
  const uint64_t seed = 7;
  OneAbandons pop(seed);
  ArmConfig arm = ArmConfig::prr_arm();
  arm.max_rto_backoffs = 4;
  RunOptions o1 = abort_options(seed), o4 = abort_options(seed);
  o1.threads = 1;
  o4.threads = 4;
  ArmResult a = run_arm(pop, arm, o1);
  ArmResult b = run_arm(pop, arm, o4);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].id, b.outcomes[i].id);
    EXPECT_EQ(a.outcomes[i].aborted, b.outcomes[i].aborted);
    EXPECT_EQ(a.outcomes[i].all_acked, b.outcomes[i].all_acked);
    EXPECT_EQ(a.outcomes[i].delivered_bytes, b.outcomes[i].delivered_bytes);
  }
  EXPECT_EQ(a.metrics.connections_aborted, b.metrics.connections_aborted);
}

}  // namespace
}  // namespace prr::exp
