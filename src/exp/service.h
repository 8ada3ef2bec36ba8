// Live experiment control plane (DESIGN.md §13): an always-on service
// mode over the CRN harness. Instead of one fixed-N batch run, the
// service admits connections from an open-world arrival process
// (inhomogeneous Poisson with a diurnal load curve), runs every
// recovery-algorithm arm over the identical admitted sample paths, and
// maintains, online:
//
//  - a streaming scoreboard: one ScoreboardSnapshot per snapshot window
//    (per-arm cumulative counters, log2-histogram quantiles, deltas vs
//    the control arm), emitted as JSON-lines and as an `ss -i`-style
//    terminal view;
//  - always-valid sequential statistics: one mSPRT confidence sequence
//    (stats/sequential.h) per (treatment arm, metric) over the paired
//    per-window differences vs control, safe to peek at every window,
//    driving latched promote / hold / rollback decisions into a
//    machine-readable decision log;
//  - drift detectors: one CUSUM (stats/drift.h) per (arm, series) over
//    the per-window series (mean response latency, retransmission rate,
//    cwnd after recovery), firing structured AlertRecords and
//    auto-quarantining the triggering window's connection-id range for
//    `prr sweep` + `prr episodes` triage;
//  - a service flight recorder: every alert and decision is also a
//    TraceRecord (kServiceAlert / kServiceDecision) in a control-plane
//    ring, exported to the Perfetto timeline by
//    exp/service_timeline.h.
//
// Determinism: the control plane is strictly serial. The arrival
// stream is a pure function of the seed; each window's per-arm deltas
// come from run_arm, which is byte-identical at any worker-thread
// count and with tracing on or off; every statistic is plain double
// arithmetic in window order over those deltas. Hence the snapshot
// JSONL stream, the decision log, and the alert log are bit-identical
// for a given (seed, snapshot cadence) at any thread count, trace on
// or off — CI's nightly soak diffs the digests across thread counts.
//
// Memory: per-window runs use bounded stats and pooled arenas; the
// cumulative aggregates are O(1) per arm; retained quarantine records
// are capped (counts are exact, contents are a sample). Total state is
// O(windows) for the snapshot history, independent of connection count.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "obs/flight_recorder.h"
#include "sim/time.h"
#include "stats/drift.h"
#include "stats/sequential.h"
#include "workload/arrival.h"

namespace prr::exp {

// Paired-difference metrics the sequential layer tests (all
// lower-is-better; the observation is treatment minus control).
enum class ServiceMetric : uint8_t {
  kRetxRate = 0,   // retransmits / data segments, per window
  kTimeoutFrac,    // RTO-fired connections fraction, per window
  kRecoveryMs,     // mean fast-recovery duration, per window
  kCount,
};
const char* to_string(ServiceMetric m);

// Per-arm scalar series the drift detectors watch.
enum class DriftSeries : uint8_t {
  kLatencyMs = 0,  // mean response latency in the window
  kRetxRate,       // window retransmission rate
  kFinalCwnd,      // mean final cwnd (bytes) in the window
  kCount,
};
const char* to_string(DriftSeries s);

enum class Action : uint8_t { kHold = 0, kPromote, kRollback };
const char* to_string(Action a);

struct ServiceConfig {
  std::vector<ArmConfig> arms;  // >= 2; arms[control_arm] is baseline
  std::size_t control_arm = 0;
  uint64_t seed = 42;

  workload::ArrivalProcess::Config arrivals;
  // Scheduled path-regime shifts (drift injection). A window's regime
  // is the one active at the window's start time.
  workload::RegimeSchedule regimes;

  // Snapshot cadence on the arrival clock. Part of the determinism
  // contract: same seed + same cadence => identical streams.
  sim::Time snapshot_every = sim::Time::seconds(600);
  // Stop admitting after this many connections; the window in flight
  // completes and emits its snapshot.
  uint64_t max_connections = 1'000'000;
  // Optional wall cap on the arrival clock (zero = none).
  sim::Time horizon = sim::Time::zero();

  // Primary metric: promotion requires its CS to establish improvement
  // (any reliable improvement; no margin). Timeout fraction is the
  // paper's §5 headline win for PRR.
  ServiceMetric primary = ServiceMetric::kTimeoutFrac;
  // Guardrail margin: an arm is rolled back only when some metric's CS
  // establishes harm EXCEEDING this fraction of the control arm's
  // cumulative value — practical significance, not mere statistical
  // significance. At million-connection power every nonzero delta is
  // eventually "significant"; a margin is what separates "PRR trades
  // +1.6% retransmissions for -9% timeouts" (promote) from a real
  // regression (rollback).
  double guardrail_margin = 0.05;
  stats::ConfidenceSequence::Config cs;
  stats::Cusum::Config cusum;

  // Template for the per-window runs (threads, pooling, tracing,
  // invariant checking...). The service overrides connections /
  // first_connection / seed per window and forces bounded_stats and
  // collect_outcomes = false so cumulative memory stays O(1) per arm.
  RunOptions run;

  // Retention caps (counts stay exact past them).
  std::size_t max_quarantined_windows = 64;
  std::size_t max_quarantine_records = 32;  // per arm, via chaos harness
  uint32_t control_ring_records = 4096;     // service flight recorder
};

// Sequential-layer summary serialized into snapshots and decisions.
struct CsSummary {
  uint64_t n = 0;
  double mean = 0;
  double lo = 0;   // CS lower bound (-inf while underpowered)
  double hi = 0;   // CS upper bound (+inf while underpowered)
  double p = 1.0;  // always-valid p-value
  bool rejects = false;
};

// One arm's cumulative view at a snapshot boundary.
struct ArmSnapshot {
  std::string name;
  uint64_t connections = 0;
  uint64_t data_segments = 0;
  uint64_t retransmits = 0;
  uint64_t timeouts = 0;
  uint64_t fast_recoveries = 0;
  uint64_t quarantined = 0;   // exact count (retention is capped)
  uint64_t responses = 0;

  double retx_rate = 0;       // cumulative
  double timeout_frac = 0;
  double recovery_ms_mean = 0;
  double latency_ms_mean = 0;
  double latency_ms_p50 = 0;
  double latency_ms_p95 = 0;
  double latency_ms_p99 = 0;
  double final_cwnd_mean = 0;  // bytes

  // Paired-difference sequential state vs control (empty for the
  // control arm itself), indexed by ServiceMetric.
  std::vector<CsSummary> cs;
  Action state = Action::kHold;
};

struct ScoreboardSnapshot {
  uint64_t window = 0;        // 0-based window index
  double t_s = 0;             // window end, arrival-clock seconds
  uint64_t admitted = 0;      // cumulative admitted connections
  uint64_t window_connections = 0;
  double load_factor = 1.0;   // diurnal curve at the window start
  double regime_loss_scale = 1.0;
  double regime_rtt_scale = 1.0;
  double regime_bandwidth_scale = 1.0;
  uint64_t alerts_so_far = 0;
  ServiceMetric primary = ServiceMetric::kTimeoutFrac;
  std::vector<ArmSnapshot> arms;

  // One JSON object (single line, no trailing newline). Deterministic:
  // fixed key order, obs::json_double formatting, no wall-clock or
  // trace-dependent fields.
  std::string to_json() const;
};

// One promote/hold/rollback transition for one treatment arm.
struct DecisionRecord {
  uint64_t window = 0;
  double t_s = 0;
  std::size_t arm = 0;      // index into ServiceConfig::arms
  std::string arm_name;
  Action action = Action::kHold;
  std::string reason;       // short machine-greppable cause
  ServiceMetric metric = ServiceMetric::kRetxRate;  // the primary metric
  CsSummary primary;        // primary-metric CS at decision time
  std::string to_json() const;
};

// One drift-detector alarm, carrying everything `prr sweep` needs to
// replay the quarantined window: the id range is [first_connection,
// first_connection + connections) under `seed`, with the recorded
// regime scales applied (prr sweep --loss-scale/--rtt-scale/...).
struct AlertRecord {
  uint64_t window = 0;
  double t_s = 0;
  std::size_t arm = 0;
  std::string arm_name;
  DriftSeries series = DriftSeries::kLatencyMs;
  double value = 0;       // the observation that fired
  double baseline = 0;    // detector's calibrated baseline mean
  double stat = 0;        // detection statistic at the alarm
  double threshold = 0;   // configured h
  uint64_t seed = 0;
  uint64_t first_connection = 0;
  uint64_t connections = 0;
  double loss_scale = 1.0;
  double rtt_scale = 1.0;
  double bandwidth_scale = 1.0;
  std::string to_json() const;
};

struct ServiceResult {
  std::vector<ScoreboardSnapshot> snapshots;
  std::vector<DecisionRecord> decisions;
  std::vector<AlertRecord> alerts;     // capped retention
  uint64_t alerts_total = 0;           // exact
  std::vector<ArmResult> arms;         // cumulative aggregates
  std::vector<Action> final_state;     // per arm (control stays kHold)
  // Control-plane trace (kServiceAlert / kServiceDecision records),
  // oldest first — the input to exp/service_timeline.h.
  std::vector<obs::TraceRecord> control_records;
  uint64_t windows = 0;
  uint64_t admitted = 0;
  sim::Time end_time;

  // JSON-lines renderings (one record per line, trailing newline).
  std::string scoreboard_jsonl() const;
  std::string decision_log_jsonl() const;
  std::string alert_log_jsonl() const;
};

// `ss -i`-flavored terminal scoreboard: one block per snapshot with a
// fixed-width per-arm table (counters, quantiles, delta vs control,
// always-valid p, latched state).
std::string describe(const ScoreboardSnapshot& snap);

class ExperimentService {
 public:
  ExperimentService(const workload::Population& base, ServiceConfig cfg);

  // Called after each window's snapshot is appended — the streaming
  // hook the CLI uses to write JSONL and repaint the terminal view.
  using SnapshotHook = std::function<void(const ScoreboardSnapshot&)>;
  void set_snapshot_hook(SnapshotHook hook) { hook_ = std::move(hook); }

  // Runs the service to completion (max_connections admitted or the
  // horizon reached) and returns the full result.
  ServiceResult run();

 private:
  const workload::Population& base_;
  ServiceConfig cfg_;
  SnapshotHook hook_;
};

}  // namespace prr::exp
