// Host-speed probes: fixed pieces of work that do not depend on the
// repository's code, timed between the measured operations of a run.
//
// On a shared VM a vCPU's speed drifts with other tenants' load: the same
// web sweep ran at 57k connection-arms per second in one run and 40k a
// minute later, and the probes below slowed with it. A probe's median
// time over a run gives that run's host factor,
//
//     factor = median probe seconds / nominal probe seconds,
//
// and perfbench reports its end-to-end metrics at nominal host speed:
// each rate times the factor of the probe that resembles its work, each
// time divided by it. The probes are part of the benchmark, so a change to
// the program moves the figures, while a change of host speed moves them
// much less. perfbench prints the wall-clock figures beside them.
#pragma once

#include <vector>

namespace perfbench {

class HostProbe {
 public:
  enum class Kind {
    // Pops and pushes on a binary heap of random keys that fits the L1
    // cache: branchy, cache-resident work like the simulator's event
    // loop. Slows when a co-tenant shares the core.
    kCompute,
    // Copies of a 2 MiB buffer: memory bandwidth, like a store reader
    // loading a file. Slows when co-tenants load the memory system.
    // Always runs on one thread.
    kMemory,
  };

  // `threads` copies of the work run at the same time: as many as the
  // operations the probe stands beside use.
  explicit HostProbe(Kind kind, int threads = 1);

  // Runs the probe once and records its wall time.
  void sample();

  // Median probe seconds over the samples so far (the nominal seconds
  // before any sample).
  double median_seconds() const;

  // Probe seconds that define nominal host speed: about the fastest run
  // medians of the probe seen on a 4-vCPU Xeon VM at 2.0 GHz.
  double nominal_seconds() const;

  // median_seconds() / nominal_seconds().
  double factor() const { return median_seconds() / nominal_seconds(); }

  int samples() const { return static_cast<int>(seconds_.size()); }

 private:
  Kind kind_;
  int threads_;
  std::vector<double> seconds_;
};

}  // namespace perfbench
