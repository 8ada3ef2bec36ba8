// End-to-end tests for the live experiment service (exp/service.h):
// open-world admission accounting, JSONL stream well-formedness, the
// decision lifecycle, and drift alerts with auto-quarantined windows.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "exp/service.h"
#include "obs/json.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

exp::ServiceConfig small_config() {
  exp::ServiceConfig cfg;
  cfg.arms = {exp::ArmConfig::linux_arm(), exp::ArmConfig::rfc3517_arm(),
              exp::ArmConfig::prr_arm()};
  cfg.control_arm = 0;
  cfg.seed = 42;
  cfg.arrivals.rate_per_sec = 30.0;
  cfg.arrivals.diurnal.amplitude = 0.3;
  cfg.snapshot_every = sim::Time::seconds(60);
  cfg.max_connections = 6000;
  cfg.run.threads = 1;
  return cfg;
}

// Applies `fn` to each newline-terminated line; returns the line count.
template <typename Fn>
std::size_t for_each_line(const std::string& jsonl, Fn fn) {
  std::size_t count = 0;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    fn(std::string_view(jsonl.data() + start, end - start));
    ++count;
    start = end + 1;
  }
  return count;
}

TEST(ExperimentService, AdmissionAndWindowAccounting) {
  const exp::ServiceConfig cfg = small_config();
  workload::WebWorkload pop;
  exp::ExperimentService service(pop, cfg);
  const exp::ServiceResult res = service.run();

  EXPECT_EQ(res.admitted, cfg.max_connections);
  EXPECT_EQ(res.windows, res.snapshots.size());
  EXPECT_GT(res.windows, 1u);

  // Every admitted connection lands in exactly one window, and every
  // arm ran exactly the admitted set (CRN: identical id ranges).
  uint64_t windowed = 0;
  for (const exp::ScoreboardSnapshot& s : res.snapshots) {
    windowed += s.window_connections;
    ASSERT_EQ(s.arms.size(), cfg.arms.size());
  }
  EXPECT_EQ(windowed, res.admitted);
  ASSERT_EQ(res.arms.size(), cfg.arms.size());
  for (const exp::ArmResult& r : res.arms) {
    EXPECT_EQ(r.connections_run, res.admitted);
  }
  // Cumulative per-arm counters in the last snapshot match the fold.
  const exp::ScoreboardSnapshot& last = res.snapshots.back();
  EXPECT_EQ(last.admitted, res.admitted);
  for (std::size_t a = 0; a < res.arms.size(); ++a) {
    EXPECT_EQ(last.arms[a].connections, res.arms[a].connections_run);
    EXPECT_EQ(last.arms[a].retransmits,
              res.arms[a].metrics.retransmits_total);
  }
  // Snapshot hook saw every snapshot, in order.
  exp::ExperimentService replay(pop, cfg);
  uint64_t hooked = 0;
  replay.set_snapshot_hook([&](const exp::ScoreboardSnapshot& s) {
    EXPECT_EQ(s.window, hooked);
    ++hooked;
  });
  replay.run();
  EXPECT_EQ(hooked, res.windows);
}

TEST(ExperimentService, JsonlStreamsAreWellFormed) {
  const exp::ServiceConfig cfg = small_config();
  workload::WebWorkload pop;
  const exp::ServiceResult res = exp::ExperimentService(pop, cfg).run();

  const std::size_t snaps =
      for_each_line(res.scoreboard_jsonl(), [](std::string_view line) {
        EXPECT_TRUE(obs::json_valid(line)) << line;
      });
  EXPECT_EQ(snaps, res.snapshots.size());
  const std::size_t decisions =
      for_each_line(res.decision_log_jsonl(), [](std::string_view line) {
        EXPECT_TRUE(obs::json_valid(line)) << line;
      });
  EXPECT_EQ(decisions, res.decisions.size());
  for_each_line(res.alert_log_jsonl(), [](std::string_view line) {
    EXPECT_TRUE(obs::json_valid(line)) << line;
  });
  // The terminal view renders without blowing up.
  EXPECT_FALSE(describe(res.snapshots.back()).empty());
}

TEST(ExperimentService, DecisionLifecycle) {
  const exp::ServiceConfig cfg = small_config();
  workload::WebWorkload pop;
  const exp::ServiceResult res = exp::ExperimentService(pop, cfg).run();

  // One initial hold per treatment arm, none for control.
  ASSERT_EQ(res.final_state.size(), cfg.arms.size());
  EXPECT_EQ(res.final_state[cfg.control_arm], exp::Action::kHold);
  std::size_t initial_holds = 0;
  for (const exp::DecisionRecord& d : res.decisions) {
    EXPECT_NE(d.arm, cfg.control_arm);
    EXPECT_LT(d.arm, cfg.arms.size());
    EXPECT_EQ(d.arm_name, cfg.arms[d.arm].name);
    if (d.action == exp::Action::kHold) ++initial_holds;
  }
  EXPECT_EQ(initial_holds, cfg.arms.size() - 1);
  // Latched final state is reflected in the last snapshot.
  for (std::size_t a = 0; a < cfg.arms.size(); ++a) {
    EXPECT_EQ(res.snapshots.back().arms[a].state, res.final_state[a]);
  }
}

TEST(ExperimentService, DriftAlertQuarantinesInjectedShiftWindow) {
  exp::ServiceConfig cfg = small_config();
  cfg.arrivals.rate_per_sec = 40.0;
  cfg.snapshot_every = sim::Time::seconds(30);
  cfg.max_connections = 12000;  // ~10 windows at the mean rate
  cfg.cusum.calibration = 4;
  cfg.cusum.h = 4.0;
  workload::RegimeShift shift;
  shift.at = sim::Time::seconds(150);
  shift.loss_scale = 8.0;
  cfg.regimes.shifts.push_back(shift);

  workload::WebWorkload pop;
  const exp::ServiceResult res = exp::ExperimentService(pop, cfg).run();

  ASSERT_GE(res.alerts_total, 1u);
  ASSERT_FALSE(res.alerts.empty());
  for (const exp::AlertRecord& a : res.alerts) {
    // Everything `prr sweep` needs to replay the quarantined window.
    EXPECT_EQ(a.seed, cfg.seed);
    EXPECT_GT(a.connections, 0u);
    EXPECT_LE(a.first_connection + a.connections, res.admitted);
    EXPECT_EQ(a.loss_scale, 8.0);
    EXPECT_GE(a.stat, a.threshold);
    EXPECT_LT(a.arm, cfg.arms.size());
    EXPECT_LT(a.window, res.windows);
    // The shift is at 150s: no alert should implicate a pre-shift
    // window (windows are 30s, so window index >= 5).
    EXPECT_GE(a.t_s, 150.0);
  }
  // Alerts are also control-plane trace records for the timeline.
  std::size_t alert_records = 0;
  for (const obs::TraceRecord& r : res.control_records) {
    if (r.type == obs::TraceType::kServiceAlert) ++alert_records;
  }
  EXPECT_EQ(alert_records, static_cast<std::size_t>(res.alerts_total));
}

TEST(ExperimentService, SequentialStateGrowsOneObservationPerWindow) {
  const exp::ServiceConfig cfg = small_config();
  workload::WebWorkload pop;
  const exp::ServiceResult res = exp::ExperimentService(pop, cfg).run();
  for (const exp::ScoreboardSnapshot& s : res.snapshots) {
    for (std::size_t a = 0; a < s.arms.size(); ++a) {
      if (a == cfg.control_arm) {
        EXPECT_TRUE(s.arms[a].cs.empty());
        continue;
      }
      ASSERT_EQ(s.arms[a].cs.size(),
                static_cast<std::size_t>(exp::ServiceMetric::kCount));
      for (const exp::CsSummary& c : s.arms[a].cs) {
        EXPECT_EQ(c.n, s.window + 1);
      }
    }
  }
}

}  // namespace
