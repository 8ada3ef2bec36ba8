// Allocation behavior of the million-connection sweep loop: with pooled
// connection arenas and bounded stats, the warm per-connection path —
// sample_into, arena reset, the whole simulated transfer, registry fold
// — performs (amortized) no heap allocation per connection. Measured by
// differencing two sweeps of different sizes under the alloc hooks: the
// marginal connections of the larger sweep must add essentially nothing
// beyond the occasional pool growth.
#include <gtest/gtest.h>

#include "exp/experiment.h"
#include "fresh_reference.h"
#include "util/alloc_counter.h"
#include "workload/web_workload.h"

namespace prr::exp {
namespace {

// Clean, impairment-free population: no per-connection loss/reorder
// model construction, no ACK stretching, single-request connections.
workload::WebWorkloadParams clean_params() {
  workload::WebWorkloadParams p;
  p.clean_path_fraction = 1.0;
  p.ack_loss_prob = 0.0;
  p.reorder_prob = 0.0;
  p.stretch_client_fraction = 0.0;
  p.abandon_fraction = 0.0;
  p.mean_requests_per_conn = 1.0;
  return p;
}

uint64_t allocs_during_sweep(const workload::Population& pop,
                             int connections, bool pool, bool bounded) {
  RunOptions opts;
  opts.connections = connections;
  opts.seed = 1234;
  opts.threads = 1;
  opts.bounded_stats = bounded;
  const util::AllocCounts before = util::alloc_counts();
  const ArmResult r = pool ? run_arm(pop, ArmConfig::prr_arm(), opts)
                           : run_fresh_per_id(pop, ArmConfig::prr_arm(), opts);
  const util::AllocCounts after = util::alloc_counts();
  EXPECT_EQ(r.connections_run, static_cast<uint64_t>(connections));
  return after.allocations - before.allocations;
}

TEST(SweepAlloc, WarmPooledSweepIsAllocationFreePerConnection) {
  ASSERT_TRUE(util::alloc_counting_enabled());
  workload::WebWorkload pop(clean_params());

  // Identical runs except for the extra 480 connections: the difference
  // is the marginal cost of a connection once the arena pools are warm.
  const uint64_t small =
      allocs_during_sweep(pop, 120, /*pool=*/true, /*bounded=*/true);
  const uint64_t large =
      allocs_during_sweep(pop, 600, /*pool=*/true, /*bounded=*/true);
  ASSERT_GE(large, small) << "alloc counter went backwards";
  const uint64_t marginal = large - small;

  // 480 extra connections may cost a handful of pool growths (a later
  // connection with a bigger flight or response than any before it) but
  // nothing per-connection. The bound is ~0.1 allocation/connection;
  // per-connection construction would cost tens each.
  EXPECT_LE(marginal, 48u)
      << "marginal allocations for 480 extra connections: " << marginal;
}

TEST(SweepAlloc, UnpooledSweepAllocatesPerConnection) {
  // Sanity check that the instrument measures what we think: the fresh
  // reference runs every connection in a brand-new arena, constructing a
  // Simulator/Connection/Path from scratch, so the marginal cost is tens
  // of allocations each.
  ASSERT_TRUE(util::alloc_counting_enabled());
  workload::WebWorkload pop(clean_params());
  const uint64_t small =
      allocs_during_sweep(pop, 120, /*pool=*/false, /*bounded=*/true);
  const uint64_t large =
      allocs_during_sweep(pop, 600, /*pool=*/false, /*bounded=*/true);
  ASSERT_GE(large, small);
  EXPECT_GE(large - small, 480u * 5u)
      << "unpooled sweep allocated suspiciously little — is the "
         "alloc-hook instrumentation still wired?";
}

TEST(SweepAlloc, BoundedStatsKeepMemoryFlat) {
  // In unbounded mode the latency vector grows with N; bounded mode must
  // not. (Growth allocations are amortized, so compare generously: the
  // unbounded run records ~1 response per connection here.)
  ASSERT_TRUE(util::alloc_counting_enabled());
  workload::WebWorkload pop(clean_params());
  const uint64_t bounded =
      allocs_during_sweep(pop, 600, /*pool=*/true, /*bounded=*/true);
  const uint64_t unbounded =
      allocs_during_sweep(pop, 600, /*pool=*/true, /*bounded=*/false);
  EXPECT_LE(bounded, unbounded);
}

}  // namespace
}  // namespace prr::exp
