// Open-world arrival machinery for the live experiment service
// (DESIGN.md §13): an inhomogeneous Poisson connection-arrival process
// with a diurnal load curve, and a population decorator that applies a
// scheduled "regime" (loss / RTT / bandwidth scaling) to the samples of
// one snapshot window — the service's mid-flight drift injection.
//
// Determinism: the arrival stream is a pure function of its Rng seed —
// one exponential draw (plus thinning draws) per arrival, consumed
// strictly in arrival order by the single-threaded service loop — so
// the same seed yields the same admission timeline at any worker-thread
// count.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"
#include "workload/population.h"

namespace prr::workload {

// Multiplicative load curve: rate(t) = base * at(t), mean 1 over one
// period, never negative. amplitude 0 = homogeneous Poisson.
struct DiurnalCurve {
  double amplitude = 0.0;             // peak-to-mean swing, in [0, 1]
  sim::Time period = sim::Time::seconds(86400);
  double phase = 0.0;                 // fraction of a period, [0, 1)

  double at(sim::Time t) const;
};

// Inhomogeneous Poisson arrivals by thinning: candidate gaps are drawn
// at the peak rate and accepted with probability rate(t)/peak, which
// preserves the Poisson property under any bounded rate curve.
class ArrivalProcess {
 public:
  struct Config {
    double rate_per_sec = 100.0;  // mean arrival rate (diurnal mean)
    DiurnalCurve diurnal;
  };

  ArrivalProcess(Config cfg, sim::Rng rng);

  // Time of the next arrival (strictly increasing).
  sim::Time next();
  sim::Time now() const { return t_; }

 private:
  Config cfg_;
  sim::Rng rng_;
  sim::Time t_ = sim::Time::zero();
  double peak_rate_ = 0;
};

// One loss/path regime, active from `at` onward (the latest shift whose
// `at` has passed wins — shifts are absolute, not cumulative).
struct RegimeShift {
  sim::Time at = sim::Time::zero();
  double loss_scale = 1.0;       // scales GE p(good->bad) and loss_in_good
  double rtt_scale = 1.0;
  double bandwidth_scale = 1.0;  // <1 = slower access links
  bool is_identity() const {
    return loss_scale == 1.0 && rtt_scale == 1.0 && bandwidth_scale == 1.0;
  }
};

struct RegimeSchedule {
  std::vector<RegimeShift> shifts;  // sorted by `at` ascending
  bool empty() const { return shifts.empty(); }
  // The regime in force at time t (identity before the first shift).
  RegimeShift active_at(sim::Time t) const;
};

// Decorator: draws the base population's sample unchanged, then applies
// the regime the service selected for the current snapshot window. The
// service sets the window time once per window, before the (possibly
// parallel) window run — workers only read it, and every arm sees the
// identical scaled sample (the regime is arm-independent, so CRN
// pairing is preserved). For quarantine triage the same scaling is
// reproducible from the alert's recorded scale factors (prr sweep
// --loss-scale).
class RegimePopulation final : public Population {
 public:
  RegimePopulation(const Population& base, RegimeSchedule schedule)
      : base_(base), schedule_(std::move(schedule)) {}

  // Selects the regime for samples drawn until the next call. Not
  // thread-safe against concurrent sampling — call between window runs.
  void set_window_time(sim::Time t) { current_ = schedule_.active_at(t); }
  const RegimeShift& current() const { return current_; }

  ConnectionSample sample(sim::Rng rng) const override;
  void sample_into(sim::Rng rng, ConnectionSample& out) const override;

  // The scaling applied to one drawn sample — shared with `prr sweep`'s
  // triage path so a quarantined window replays bit-exactly.
  static void apply(const RegimeShift& regime, ConnectionSample& s);

 private:
  const Population& base_;
  RegimeSchedule schedule_;
  RegimeShift current_;
};

}  // namespace prr::workload
