#include "exp/service.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

#include "obs/json.h"

namespace prr::exp {

namespace {

// Sub-stream id for the arrival process, far outside any connection-id
// range so it can never collide with the per-connection forks inside
// run_arm.
constexpr uint64_t kArrivalStream = 0x4152525641523031ULL;

constexpr std::size_t kMetricCount =
    static_cast<std::size_t>(ServiceMetric::kCount);
constexpr std::size_t kSeriesCount =
    static_cast<std::size_t>(DriftSeries::kCount);

// One window's scalar readings for one arm, all derived from the
// window-delta ArmResult (bit-identical at any thread count).
struct WindowMetrics {
  uint64_t connections = 0;
  double retx_rate = 0;
  double timeout_frac = 0;
  double recovery_ms = 0;
  double latency_ms = 0;
  double final_cwnd = 0;
};

WindowMetrics window_metrics(const ArmResult& w) {
  WindowMetrics m;
  m.connections = w.connections_run;
  m.retx_rate = w.retransmission_rate();
  m.timeout_frac =
      w.connections_run == 0
          ? 0
          : static_cast<double>(w.metrics.timeouts_total) /
                static_cast<double>(w.connections_run);
  // Mean fast-recovery episode duration (the paper's recovery-time
  // metric, Fig 5) — not total time in loss states, which folds in RTO
  // backoff and would swamp the episode signal.
  m.recovery_ms = w.recovery_log.duration_us().mean() / 1000.0;
  m.latency_ms = w.latency.latency_us_hist().mean() / 1000.0;
  if (const obs::LogHistogram* h =
          w.registry.find_histogram("tcp.final_cwnd_bytes")) {
    m.final_cwnd = h->mean();
  }
  return m;
}

double metric_of(const WindowMetrics& m, ServiceMetric k) {
  switch (k) {
    case ServiceMetric::kRetxRate: return m.retx_rate;
    case ServiceMetric::kTimeoutFrac: return m.timeout_frac;
    case ServiceMetric::kRecoveryMs: return m.recovery_ms;
    case ServiceMetric::kCount: break;
  }
  return 0;
}

double series_of(const WindowMetrics& m, DriftSeries s) {
  switch (s) {
    case DriftSeries::kLatencyMs: return m.latency_ms;
    case DriftSeries::kRetxRate: return m.retx_rate;
    case DriftSeries::kFinalCwnd: return m.final_cwnd;
    case DriftSeries::kCount: break;
  }
  return 0;
}

uint64_t dbits(double v) { return std::bit_cast<uint64_t>(v); }

// json_double clamps non-finite values to 0; the CS bounds are
// legitimately infinite while underpowered, which JSON spells null.
std::string json_or_null(double v) {
  return std::isfinite(v) ? obs::json_double(v) : std::string("null");
}

CsSummary summarize(const stats::ConfidenceSequence& cs) {
  CsSummary s;
  s.n = cs.n();
  s.mean = cs.mean();
  s.lo = cs.lower();
  s.hi = cs.upper();
  s.p = cs.p_value();
  s.rejects = cs.rejects_zero();
  return s;
}

void append_cs_json(std::string& out, const CsSummary& s) {
  out += "{\"n\":" + std::to_string(s.n);
  out += ",\"delta\":" + obs::json_double(s.mean);
  out += ",\"lo\":" + json_or_null(s.lo);
  out += ",\"hi\":" + json_or_null(s.hi);
  out += ",\"p\":" + obs::json_double(s.p);
  out += ",\"rejects\":";
  out += s.rejects ? "true" : "false";
  out += "}";
}

void append_jsonl(std::string& out, const std::string& line) {
  out += line;
  out += '\n';
}

}  // namespace

const char* to_string(ServiceMetric m) {
  switch (m) {
    case ServiceMetric::kRetxRate: return "retx_rate";
    case ServiceMetric::kTimeoutFrac: return "timeout_frac";
    case ServiceMetric::kRecoveryMs: return "recovery_ms";
    case ServiceMetric::kCount: break;
  }
  return "?";
}

const char* to_string(DriftSeries s) {
  switch (s) {
    case DriftSeries::kLatencyMs: return "latency_ms";
    case DriftSeries::kRetxRate: return "retx_rate";
    case DriftSeries::kFinalCwnd: return "final_cwnd";
    case DriftSeries::kCount: break;
  }
  return "?";
}

const char* to_string(Action a) {
  switch (a) {
    case Action::kHold: return "hold";
    case Action::kPromote: return "promote";
    case Action::kRollback: return "rollback";
  }
  return "?";
}

std::string ScoreboardSnapshot::to_json() const {
  std::string out = "{\"window\":" + std::to_string(window);
  out += ",\"t_s\":" + obs::json_double(t_s);
  out += ",\"admitted\":" + std::to_string(admitted);
  out += ",\"window_connections\":" + std::to_string(window_connections);
  out += ",\"load\":" + obs::json_double(load_factor);
  out += ",\"regime\":{\"loss_scale\":" + obs::json_double(regime_loss_scale);
  out += ",\"rtt_scale\":" + obs::json_double(regime_rtt_scale);
  out += ",\"bandwidth_scale\":" + obs::json_double(regime_bandwidth_scale);
  out += "},\"alerts\":" + std::to_string(alerts_so_far);
  out += ",\"primary\":" + obs::json_quote(to_string(primary));
  out += ",\"arms\":[";
  for (std::size_t a = 0; a < arms.size(); ++a) {
    const ArmSnapshot& s = arms[a];
    if (a != 0) out += ",";
    out += "{\"name\":" + obs::json_quote(s.name);
    out += ",\"connections\":" + std::to_string(s.connections);
    out += ",\"data_segments\":" + std::to_string(s.data_segments);
    out += ",\"retransmits\":" + std::to_string(s.retransmits);
    out += ",\"timeouts\":" + std::to_string(s.timeouts);
    out += ",\"fast_recoveries\":" + std::to_string(s.fast_recoveries);
    out += ",\"quarantined\":" + std::to_string(s.quarantined);
    out += ",\"responses\":" + std::to_string(s.responses);
    out += ",\"retx_rate\":" + obs::json_double(s.retx_rate);
    out += ",\"timeout_frac\":" + obs::json_double(s.timeout_frac);
    out += ",\"recovery_ms_mean\":" + obs::json_double(s.recovery_ms_mean);
    out += ",\"latency_ms\":{\"mean\":" + obs::json_double(s.latency_ms_mean);
    out += ",\"p50\":" + obs::json_double(s.latency_ms_p50);
    out += ",\"p95\":" + obs::json_double(s.latency_ms_p95);
    out += ",\"p99\":" + obs::json_double(s.latency_ms_p99);
    out += "},\"final_cwnd_mean\":" + obs::json_double(s.final_cwnd_mean);
    out += ",\"state\":" + obs::json_quote(to_string(s.state));
    if (!s.cs.empty()) {
      out += ",\"cs\":{";
      for (std::size_t m = 0; m < s.cs.size(); ++m) {
        if (m != 0) out += ",";
        out += obs::json_quote(to_string(static_cast<ServiceMetric>(m)));
        out += ":";
        append_cs_json(out, s.cs[m]);
      }
      out += "}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string DecisionRecord::to_json() const {
  std::string out = "{\"window\":" + std::to_string(window);
  out += ",\"t_s\":" + obs::json_double(t_s);
  out += ",\"arm\":" + std::to_string(arm);
  out += ",\"arm_name\":" + obs::json_quote(arm_name);
  out += ",\"action\":" + obs::json_quote(to_string(action));
  out += ",\"reason\":" + obs::json_quote(reason);
  out += ",\"metric\":" + obs::json_quote(to_string(metric));
  out += ",\"cs\":";
  append_cs_json(out, primary);
  out += "}";
  return out;
}

std::string AlertRecord::to_json() const {
  std::string out = "{\"window\":" + std::to_string(window);
  out += ",\"t_s\":" + obs::json_double(t_s);
  out += ",\"arm\":" + std::to_string(arm);
  out += ",\"arm_name\":" + obs::json_quote(arm_name);
  out += ",\"series\":" + obs::json_quote(to_string(series));
  out += ",\"value\":" + obs::json_double(value);
  out += ",\"baseline\":" + obs::json_double(baseline);
  out += ",\"stat\":" + obs::json_double(stat);
  out += ",\"threshold\":" + obs::json_double(threshold);
  out += ",\"quarantine\":{\"seed\":" + std::to_string(seed);
  out += ",\"first_connection\":" + std::to_string(first_connection);
  out += ",\"connections\":" + std::to_string(connections);
  out += ",\"loss_scale\":" + obs::json_double(loss_scale);
  out += ",\"rtt_scale\":" + obs::json_double(rtt_scale);
  out += ",\"bandwidth_scale\":" + obs::json_double(bandwidth_scale);
  out += "}}";
  return out;
}

std::string ServiceResult::scoreboard_jsonl() const {
  std::string out;
  for (const ScoreboardSnapshot& s : snapshots) append_jsonl(out, s.to_json());
  return out;
}

std::string ServiceResult::decision_log_jsonl() const {
  std::string out;
  for (const DecisionRecord& d : decisions) append_jsonl(out, d.to_json());
  return out;
}

std::string ServiceResult::alert_log_jsonl() const {
  std::string out;
  for (const AlertRecord& a : alerts) append_jsonl(out, a.to_json());
  return out;
}

std::string describe(const ScoreboardSnapshot& snap) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "-- window %" PRIu64 "  t=%.1fs  admitted %" PRIu64
                "  (+%" PRIu64 ")  load %.2f",
                snap.window, snap.t_s, snap.admitted,
                snap.window_connections, snap.load_factor);
  out += buf;
  if (snap.regime_loss_scale != 1.0 || snap.regime_rtt_scale != 1.0 ||
      snap.regime_bandwidth_scale != 1.0) {
    std::snprintf(buf, sizeof(buf), "  regime loss x%.1f rtt x%.1f bw x%.1f",
                  snap.regime_loss_scale, snap.regime_rtt_scale,
                  snap.regime_bandwidth_scale);
    out += buf;
  }
  if (snap.alerts_so_far != 0) {
    std::snprintf(buf, sizeof(buf), "  alerts %" PRIu64, snap.alerts_so_far);
    out += buf;
  }
  out += "\n";
  char dcol[16];
  std::snprintf(dcol, sizeof(dcol), "d_%s", to_string(snap.primary));
  std::snprintf(buf, sizeof(buf),
                "%-11s %9s %7s %6s %7s %7s %20s %8s %14s %9s  %s\n", "arm",
                "conns", "retx%", "to%", "rec_ms", "lat_ms", "p50/p95/p99",
                "cwnd_kB", dcol, "p", "state");
  out += buf;
  const std::size_t primary_m = static_cast<std::size_t>(snap.primary);
  for (const ArmSnapshot& s : snap.arms) {
    char lat[40];
    std::snprintf(lat, sizeof(lat), "%.1f/%.1f/%.1f", s.latency_ms_p50,
                  s.latency_ms_p95, s.latency_ms_p99);
    if (s.cs.empty()) {
      std::snprintf(buf, sizeof(buf),
                    "%-11s %9" PRIu64 " %7.3f %6.3f %7.1f %7.1f %20s %8.1f "
                    "%14s %9s  %s\n",
                    (s.name + "*").c_str(), s.connections, 100 * s.retx_rate,
                    100 * s.timeout_frac, s.recovery_ms_mean,
                    s.latency_ms_mean, lat, s.final_cwnd_mean / 1024.0, "-",
                    "-", "-");
    } else {
      const CsSummary& primary = s.cs[primary_m];
      std::snprintf(buf, sizeof(buf),
                    "%-11s %9" PRIu64 " %7.3f %6.3f %7.1f %7.1f %20s %8.1f "
                    "%+14.4g %9.2g  %s\n",
                    s.name.c_str(), s.connections, 100 * s.retx_rate,
                    100 * s.timeout_frac, s.recovery_ms_mean,
                    s.latency_ms_mean, lat, s.final_cwnd_mean / 1024.0,
                    primary.mean, primary.p, to_string(s.state));
    }
    out += buf;
  }
  return out;
}

ExperimentService::ExperimentService(const workload::Population& base,
                                     ServiceConfig cfg)
    : base_(base), cfg_(std::move(cfg)) {
  if (cfg_.arms.empty()) cfg_.arms.push_back(ArmConfig::linux_arm());
  if (cfg_.control_arm >= cfg_.arms.size()) cfg_.control_arm = 0;
  if (cfg_.snapshot_every.is_zero()) {
    cfg_.snapshot_every = sim::Time::seconds(600);
  }
}

ServiceResult ExperimentService::run() {
  const std::size_t n_arms = cfg_.arms.size();
  const std::size_t control = cfg_.control_arm;

  ServiceResult res;
  res.arms.resize(n_arms);
  res.final_state.assign(n_arms, Action::kHold);

  workload::RegimePopulation pop(base_, cfg_.regimes);
  workload::ArrivalProcess arrivals(cfg_.arrivals,
                                    sim::Rng(cfg_.seed).fork(kArrivalStream));
  obs::FlightRecorder recorder(cfg_.control_ring_records);

  std::vector<std::vector<stats::ConfidenceSequence>> cs(
      n_arms, std::vector<stats::ConfidenceSequence>(
                  kMetricCount, stats::ConfidenceSequence(cfg_.cs)));
  std::vector<std::vector<stats::Cusum>> drift(
      n_arms, std::vector<stats::Cusum>(kSeriesCount,
                                        stats::Cusum(cfg_.cusum)));
  std::vector<Action> state(n_arms, Action::kHold);
  std::vector<bool> decided_once(n_arms, false);
  std::vector<bool> merged(n_arms, false);
  std::vector<uint64_t> quarantined_total(n_arms, 0);

  uint64_t next_id = 0;
  uint64_t window = 0;
  sim::Time window_start = sim::Time::zero();
  sim::Time window_end = cfg_.snapshot_every;
  bool have_pending = false;
  sim::Time pending = sim::Time::zero();
  bool exhausted = false;

  while (!exhausted) {
    // --- admit this window's arrivals (serial; one lookahead slot) ---
    uint64_t count = 0;
    while (res.admitted < cfg_.max_connections) {
      const sim::Time t = have_pending ? pending : arrivals.next();
      have_pending = false;
      if (!cfg_.horizon.is_zero() && t > cfg_.horizon) {
        exhausted = true;
        break;
      }
      if (t >= window_end) {
        pending = t;
        have_pending = true;
        break;
      }
      ++count;
      ++res.admitted;
    }
    if (res.admitted >= cfg_.max_connections) exhausted = true;
    // A silent arrival process (rate 0, no horizon) never reaches the
    // connection cap; don't spin on empty windows forever.
    if (count == 0 && cfg_.arrivals.rate_per_sec <= 0) exhausted = true;

    // The regime in force for every sample drawn in this window.
    pop.set_window_time(window_start);
    const workload::RegimeShift regime = pop.current();

    std::vector<WindowMetrics> wm(n_arms);
    if (count != 0) {
      RunOptions o = cfg_.run;
      o.seed = cfg_.seed;
      o.first_connection = next_id;
      o.connections = static_cast<int>(count);
      // Memory bound: cumulative aggregates must stay O(1) per arm.
      o.bounded_stats = true;
      o.collect_outcomes = false;
      std::vector<ArmResult> wres = run_arms(pop, cfg_.arms, o);

      for (std::size_t a = 0; a < n_arms; ++a) {
        wm[a] = window_metrics(wres[a]);
      }

      // Sequential layer: paired per-window differences vs control.
      for (std::size_t a = 0; a < n_arms; ++a) {
        if (a == control) continue;
        for (std::size_t m = 0; m < kMetricCount; ++m) {
          cs[a][m].observe(metric_of(wm[a], static_cast<ServiceMetric>(m)) -
                           metric_of(wm[control],
                                     static_cast<ServiceMetric>(m)));
        }
      }

      // Drift layer: per-arm series, alarm => alert + auto-quarantine.
      for (std::size_t a = 0; a < n_arms; ++a) {
        for (std::size_t si = 0; si < kSeriesCount; ++si) {
          const DriftSeries series = static_cast<DriftSeries>(si);
          const double value = series_of(wm[a], series);
          stats::Cusum& det = drift[a][si];
          if (!det.observe(value)) continue;
          ++res.alerts_total;
          AlertRecord alert;
          alert.window = window;
          alert.t_s = window_end.seconds_d();
          alert.arm = a;
          alert.arm_name = cfg_.arms[a].name;
          alert.series = series;
          alert.value = value;
          alert.baseline = det.baseline_mean();
          alert.stat = det.stat_at_alarm();
          alert.threshold = det.config().h;
          alert.seed = cfg_.seed;
          alert.first_connection = next_id;
          alert.connections = count;
          alert.loss_scale = regime.loss_scale;
          alert.rtt_scale = regime.rtt_scale;
          alert.bandwidth_scale = regime.bandwidth_scale;
          recorder.write(obs::make_record(
              window_end, static_cast<uint32_t>(window),
              obs::TraceType::kServiceAlert, static_cast<uint8_t>(si),
              static_cast<uint16_t>(a), next_id, count, dbits(value),
              dbits(alert.stat), dbits(alert.threshold)));
          if (res.alerts.size() < cfg_.max_quarantined_windows) {
            res.alerts.push_back(std::move(alert));
          }
        }
      }

      // Fold the window deltas into the cumulative aggregates, capping
      // retained quarantine records (counts stay exact).
      for (std::size_t a = 0; a < n_arms; ++a) {
        ArmResult& w = wres[a];
        quarantined_total[a] += w.quarantined.size();
        const std::size_t kept = merged[a] ? res.arms[a].quarantined.size()
                                           : 0;
        if (kept + w.quarantined.size() > cfg_.max_quarantine_records) {
          const std::size_t room = cfg_.max_quarantine_records > kept
                                       ? cfg_.max_quarantine_records - kept
                                       : 0;
          w.quarantined.resize(room);
        }
        if (!merged[a]) {
          res.arms[a] = std::move(w);
          merged[a] = true;
        } else {
          res.arms[a].merge(std::move(w));
        }
      }
      next_id += count;

      // Decision engine: latched; evaluated on every window with data.
      // Promote on any established improvement of the primary metric;
      // roll back only on harm beyond the practical-significance
      // guardrail (margin relative to the control arm's cumulative
      // value — at this power every nonzero delta eventually rejects).
      const WindowMetrics control_cum = window_metrics(res.arms[control]);
      for (std::size_t a = 0; a < n_arms; ++a) {
        if (a == control || state[a] != Action::kHold) continue;
        const std::size_t primary_m = static_cast<std::size_t>(cfg_.primary);
        std::size_t harmed = kMetricCount;
        for (std::size_t m = 0; m < kMetricCount; ++m) {
          const double margin =
              cfg_.guardrail_margin *
              std::abs(metric_of(control_cum, static_cast<ServiceMetric>(m)));
          if (cs[a][m].rejects_zero() && cs[a][m].lower() > margin) {
            harmed = m;
            break;
          }
        }
        const bool improved = cs[a][primary_m].rejects_zero() &&
                              cs[a][primary_m].mean() < 0;
        Action next = Action::kHold;
        std::string reason;
        if (harmed != kMetricCount) {
          next = Action::kRollback;
          reason = std::string("harm established on ") +
                   to_string(static_cast<ServiceMetric>(harmed));
        } else if (improved) {
          next = Action::kPromote;
          reason = std::string("improvement established on ") +
                   to_string(cfg_.primary);
        }
        if (next == Action::kHold && decided_once[a]) continue;
        decided_once[a] = true;
        state[a] = next;
        DecisionRecord d;
        d.window = window;
        d.t_s = window_end.seconds_d();
        d.arm = a;
        d.arm_name = cfg_.arms[a].name;
        d.action = next;
        d.reason = next == Action::kHold ? "awaiting evidence" : reason;
        d.metric = cfg_.primary;
        d.primary = summarize(cs[a][primary_m]);
        recorder.write(obs::make_record(
            window_end, static_cast<uint32_t>(window),
            obs::TraceType::kServiceDecision, static_cast<uint8_t>(next),
            static_cast<uint16_t>(a), d.primary.n, dbits(d.primary.mean),
            dbits(d.primary.p), dbits(d.primary.lo), dbits(d.primary.hi)));
        res.decisions.push_back(std::move(d));
      }
    }

    // --- snapshot ---
    ScoreboardSnapshot snap;
    snap.window = window;
    snap.t_s = window_end.seconds_d();
    snap.admitted = res.admitted;
    snap.window_connections = count;
    snap.load_factor = cfg_.arrivals.diurnal.at(window_start);
    snap.regime_loss_scale = regime.loss_scale;
    snap.regime_rtt_scale = regime.rtt_scale;
    snap.regime_bandwidth_scale = regime.bandwidth_scale;
    snap.alerts_so_far = res.alerts_total;
    snap.primary = cfg_.primary;
    snap.arms.resize(n_arms);
    for (std::size_t a = 0; a < n_arms; ++a) {
      ArmSnapshot& s = snap.arms[a];
      s.name = cfg_.arms[a].name;
      s.state = state[a];
      const ArmResult& r = res.arms[a];
      s.connections = r.connections_run;
      s.data_segments = r.metrics.data_segments_sent;
      s.retransmits = r.metrics.retransmits_total;
      s.timeouts = r.metrics.timeouts_total;
      s.fast_recoveries = r.metrics.fast_recovery_events;
      s.quarantined = quarantined_total[a];
      s.responses = r.latency.count();
      s.retx_rate = r.retransmission_rate();
      s.timeout_frac =
          r.connections_run == 0
              ? 0
              : static_cast<double>(r.metrics.timeouts_total) /
                    static_cast<double>(r.connections_run);
      s.recovery_ms_mean = r.recovery_log.duration_us().mean() / 1000.0;
      const util::Log2Histogram& lh = r.latency.latency_us_hist();
      s.latency_ms_mean = lh.mean() / 1000.0;
      s.latency_ms_p50 = lh.quantile(0.50) / 1000.0;
      s.latency_ms_p95 = lh.quantile(0.95) / 1000.0;
      s.latency_ms_p99 = lh.quantile(0.99) / 1000.0;
      if (const obs::LogHistogram* h =
              r.registry.find_histogram("tcp.final_cwnd_bytes")) {
        s.final_cwnd_mean = h->mean();
      }
      if (a != control) {
        s.cs.resize(kMetricCount);
        for (std::size_t m = 0; m < kMetricCount; ++m) {
          s.cs[m] = summarize(cs[a][m]);
        }
      }
    }
    res.snapshots.push_back(snap);
    if (hook_) hook_(res.snapshots.back());

    ++window;
    window_start = window_end;
    window_end = window_end + cfg_.snapshot_every;
  }

  res.windows = res.snapshots.size();
  res.end_time = res.snapshots.empty() ? sim::Time::zero()
                                       : window_end - cfg_.snapshot_every;
  res.final_state = state;
  res.control_records.reserve(recorder.size());
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    res.control_records.push_back(recorder[i]);
  }
  return res;
}

}  // namespace prr::exp
