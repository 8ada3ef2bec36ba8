// Live experiment control plane (DESIGN.md §13): run an always-on
// open-world A/B/n experiment — Linux rate-halving (control) vs
// RFC 3517 vs PRR — over a Poisson+diurnal arrival stream, with a
// streaming scoreboard, always-valid sequential statistics driving
// promote/hold/rollback, CUSUM drift detectors with auto-quarantine,
// and a Perfetto timeline of the whole run.
//
// Usage: experiment_service [options]
//   --connections N      admit N connections total (default 1000000)
//   --rate R             mean arrivals/sec (default 6.7)
//   --amplitude A        diurnal swing in [0,1] (default 0.4)
//   --period-secs S      diurnal period (default 86400)
//   --snapshot-secs S    scoreboard cadence (default 600)
//   --horizon-secs S     stop at this arrival-clock time (default none)
//   --seed S             run seed (default 42)
//   --threads N          per-window worker threads; 0 = hw (default 1)
//   --alpha A            CS level (default 0.05)
//   --primary M          primary metric: retx_rate | timeout_frac |
//                        recovery_ms (default timeout_frac)
//   --margin X           guardrail harm margin, relative (default 0.05)
//   --min-windows N      CS min_n gate (default 10)
//   --cusum-h H          CUSUM threshold, sigmas (default 8)
//   --calibration N      CUSUM baseline windows (default 30)
//   --shift-at SECS      inject a regime shift at this time (repeatable
//                        with the scales below applying to the last one)
//   --loss-scale X       shifted loss scale (default 4)
//   --rtt-scale X        shifted RTT scale (default 1)
//   --bandwidth-scale X  shifted bandwidth scale (default 1)
//   --check-invariants   quarantine-on-violation safety net
//   --trace              per-connection flight recorders (aggregates
//                        unchanged; service output is trace-invariant)
//   --print-every K      terminal scoreboard every K windows (default 25)
//   --quiet              no per-window terminal output
//   --no-files           skip writing artifacts
//   --out DIR            artifact directory (default $PRR_ARTIFACT_DIR
//                        or ./artifacts)
//   --expect-promote ARM exit 1 unless ARM ends promoted
//   --expect-alert       exit 1 unless at least one drift alert fired
//
// Artifacts: scoreboard.jsonl (streamed), decisions.jsonl, alerts.jsonl,
// service_timeline.json (ui.perfetto.dev).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "exp/service.h"
#include "exp/service_timeline.h"
#include "obs/store/store_writer.h"
#include "util/artifacts.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

uint64_t parse_u64(const char* s) { return std::strtoull(s, nullptr, 10); }

long peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  exp::ServiceConfig cfg;
  cfg.arms = {exp::ArmConfig::linux_arm(), exp::ArmConfig::rfc3517_arm(),
              exp::ArmConfig::prr_arm()};
  cfg.control_arm = 0;
  cfg.arrivals.rate_per_sec = 6.7;
  cfg.arrivals.diurnal.amplitude = 0.4;

  double loss_scale = 4.0, rtt_scale = 1.0, bandwidth_scale = 1.0;
  std::vector<double> shift_at_s;
  uint64_t print_every = 25;
  bool quiet = false, no_files = false, expect_alert = false;
  std::string out_dir, expect_promote;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto val = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (!std::strcmp(a, "--connections")) cfg.max_connections = parse_u64(val());
    else if (!std::strcmp(a, "--rate")) cfg.arrivals.rate_per_sec = std::atof(val());
    else if (!std::strcmp(a, "--amplitude")) cfg.arrivals.diurnal.amplitude = std::atof(val());
    else if (!std::strcmp(a, "--period-secs")) cfg.arrivals.diurnal.period = sim::Time::seconds(std::atof(val()));
    else if (!std::strcmp(a, "--snapshot-secs")) cfg.snapshot_every = sim::Time::seconds(std::atof(val()));
    else if (!std::strcmp(a, "--horizon-secs")) cfg.horizon = sim::Time::seconds(std::atof(val()));
    else if (!std::strcmp(a, "--seed")) cfg.seed = parse_u64(val());
    else if (!std::strcmp(a, "--threads")) cfg.run.threads = std::atoi(val());
    else if (!std::strcmp(a, "--alpha")) cfg.cs.alpha = std::atof(val());
    else if (!std::strcmp(a, "--margin")) cfg.guardrail_margin = std::atof(val());
    else if (!std::strcmp(a, "--primary")) {
      const char* m = val();
      if (!std::strcmp(m, "retx_rate")) cfg.primary = exp::ServiceMetric::kRetxRate;
      else if (!std::strcmp(m, "timeout_frac")) cfg.primary = exp::ServiceMetric::kTimeoutFrac;
      else if (!std::strcmp(m, "recovery_ms")) cfg.primary = exp::ServiceMetric::kRecoveryMs;
      else { std::fprintf(stderr, "unknown metric %s\n", m); return 2; }
    }
    else if (!std::strcmp(a, "--min-windows")) cfg.cs.min_n = parse_u64(val());
    else if (!std::strcmp(a, "--cusum-h")) cfg.cusum.h = std::atof(val());
    else if (!std::strcmp(a, "--calibration")) cfg.cusum.calibration = std::atoi(val());
    else if (!std::strcmp(a, "--shift-at")) shift_at_s.push_back(std::atof(val()));
    else if (!std::strcmp(a, "--loss-scale")) loss_scale = std::atof(val());
    else if (!std::strcmp(a, "--rtt-scale")) rtt_scale = std::atof(val());
    else if (!std::strcmp(a, "--bandwidth-scale")) bandwidth_scale = std::atof(val());
    else if (!std::strcmp(a, "--check-invariants")) cfg.run.check_invariants = true;
    else if (!std::strcmp(a, "--trace")) cfg.run.trace = true;
    else if (!std::strcmp(a, "--print-every")) print_every = parse_u64(val());
    else if (!std::strcmp(a, "--quiet")) quiet = true;
    else if (!std::strcmp(a, "--no-files")) no_files = true;
    else if (!std::strcmp(a, "--out")) out_dir = val();
    else if (!std::strcmp(a, "--expect-promote")) expect_promote = val();
    else if (!std::strcmp(a, "--expect-alert")) expect_alert = true;
    else {
      std::fprintf(stderr, "unknown option %s (see header comment)\n", a);
      return 2;
    }
  }
  for (double at : shift_at_s) {
    workload::RegimeShift s;
    s.at = sim::Time::seconds(at);
    s.loss_scale = loss_scale;
    s.rtt_scale = rtt_scale;
    s.bandwidth_scale = bandwidth_scale;
    cfg.regimes.shifts.push_back(s);
  }
  if (out_dir.empty()) {
    out_dir = util::artifact_dir();
  } else if (!no_files) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
  }

  std::printf("experiment service: %llu connections, %.2f/s mean rate "
              "(diurnal %.0f%%), snapshots every %.0fs, seed %llu, "
              "%d thread(s)%s\n",
              (unsigned long long)cfg.max_connections,
              cfg.arrivals.rate_per_sec,
              100 * cfg.arrivals.diurnal.amplitude,
              cfg.snapshot_every.seconds_d(),
              (unsigned long long)cfg.seed, cfg.run.threads,
              cfg.regimes.empty() ? "" : ", regime shift scheduled");

  workload::WebWorkload pop;
  exp::ExperimentService service(pop, cfg);

  std::FILE* scoreboard = nullptr;
  if (!no_files) {
    const std::string path = out_dir + "/scoreboard.jsonl";
    scoreboard = std::fopen(path.c_str(), "w");
    if (scoreboard == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 2;
    }
  }
  service.set_snapshot_hook([&](const exp::ScoreboardSnapshot& snap) {
    if (scoreboard != nullptr) {
      const std::string line = snap.to_json();
      std::fwrite(line.data(), 1, line.size(), scoreboard);
      std::fputc('\n', scoreboard);
      std::fflush(scoreboard);
    }
    if (!quiet && print_every != 0 &&
        (snap.window % print_every == 0 || snap.alerts_so_far != 0)) {
      std::fputs(describe(snap).c_str(), stdout);
    }
  });

  exp::ServiceResult res = service.run();
  bool io_ok = true;
  if (scoreboard != nullptr) io_ok = std::fclose(scoreboard) == 0;

  std::printf("\n=== final scoreboard (%llu windows, %.1f simulated days, "
              "%llu connections/arm) ===\n",
              (unsigned long long)res.windows,
              res.end_time.seconds_d() / 86400.0,
              (unsigned long long)(res.arms.empty()
                                       ? 0
                                       : res.arms[0].connections_run));
  if (!res.snapshots.empty()) {
    std::fputs(describe(res.snapshots.back()).c_str(), stdout);
  }
  std::printf("\ndecisions:\n");
  for (const exp::DecisionRecord& d : res.decisions) {
    std::printf("  window %-5llu %-8s %-10s %s (p=%.2g, delta=%+.3g)\n",
                (unsigned long long)d.window, to_string(d.action),
                d.arm_name.c_str(), d.reason.c_str(), d.primary.p,
                d.primary.mean);
  }
  std::printf("alerts: %llu", (unsigned long long)res.alerts_total);
  // Each alert's triage recipe: re-sweep the quarantined window under the
  // recorded regime into a store, then read its episode table.
  for (const exp::AlertRecord& a : res.alerts) {
    const std::string prefix =
        out_dir + "/alert_w" + std::to_string(a.window);
    std::printf("\n  window %-5llu %-10s %-11s value=%.4g baseline=%.4g "
                "stat=%.1f>h=%.1f  quarantined ids [%llu,%llu) -> "
                "prr sweep --arm \"%s\" --connections %llu --first %llu "
                "--seed %llu --loss-scale %g --rtt-scale %g "
                "--bandwidth-scale %g --out %s && prr episodes %s",
                (unsigned long long)a.window, a.arm_name.c_str(),
                to_string(a.series), a.value, a.baseline, a.stat,
                a.threshold, (unsigned long long)a.first_connection,
                (unsigned long long)(a.first_connection + a.connections),
                a.arm_name.c_str(), (unsigned long long)a.connections,
                (unsigned long long)a.first_connection,
                (unsigned long long)a.seed, a.loss_scale, a.rtt_scale,
                a.bandwidth_scale, prefix.c_str(),
                obs::store_path_for_arm(prefix, a.arm_name).c_str());
  }
  std::printf("\n");

  if (!no_files) {
    io_ok = write_file(out_dir + "/decisions.jsonl",
                       res.decision_log_jsonl()) && io_ok;
    io_ok = write_file(out_dir + "/alerts.jsonl", res.alert_log_jsonl()) &&
            io_ok;
    io_ok = write_file(out_dir + "/service_timeline.json",
                       exp::service_timeline_json(res)) && io_ok;
    std::printf("artifacts: %s/{scoreboard.jsonl,decisions.jsonl,"
                "alerts.jsonl,service_timeline.json}\n",
                out_dir.c_str());
  }
  const long rss = peak_rss_kb();
  if (rss > 0) std::printf("peak_rss_mb: %.1f\n", rss / 1024.0);

  int rc = io_ok ? 0 : 2;
  if (!expect_promote.empty()) {
    bool promoted = false;
    for (std::size_t a = 0; a < res.arms.size(); ++a) {
      if (res.arms[a].name == expect_promote &&
          res.final_state[a] == exp::Action::kPromote) {
        promoted = true;
      }
    }
    if (!promoted) {
      std::fprintf(stderr, "FAIL: arm %s not promoted\n",
                   expect_promote.c_str());
      rc = 1;
    }
  }
  if (expect_alert && res.alerts_total == 0) {
    std::fprintf(stderr, "FAIL: no drift alert fired\n");
    rc = 1;
  }
  return rc;
}
