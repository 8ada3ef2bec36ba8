// The fresh-objects reference for recycled-arena sweeps: every connection
// id runs as its own one-connection run_arm (so each id gets a brand-new
// ConnArena), and the per-id results are merged in ascending-id order —
// the same contract fork-per-shard merges rely on. "Fresh == reset by
// construction" means a sweep must reproduce this exactly.
#pragma once

#include "exp/experiment.h"

namespace prr::exp {

inline ArmResult run_fresh_per_id(const workload::Population& pop,
                                  const ArmConfig& arm, RunOptions opts) {
  ArmResult merged;
  merged.name = arm.name;
  merged.latency.set_bounded(opts.bounded_stats);
  merged.recovery_log.set_bounded(opts.bounded_stats);
  const uint64_t first = opts.first_connection;
  const auto n = static_cast<uint64_t>(opts.connections);
  opts.connections = 1;
  for (uint64_t id = first; id < first + n; ++id) {
    opts.first_connection = id;
    merged.merge(run_arm(pop, arm, opts));
  }
  return merged;
}

}  // namespace prr::exp
