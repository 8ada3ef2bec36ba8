// scheduler_equivalence_gate: CI gate for the DESIGN.md §12 claim that
// the event-dispatch machinery is invisible to results. It runs the
// standard three-arm Web sweep under every combination of
//
//   delivery         per-event | batch (RunOptions::batch_delivery)
//   threads          1 | 4 | 8
//   tracing          off | on
//
// and fails unless all 12 combinations produce bit-identical aggregate
// digests. Per-event delivery (the first combo) is the reference oracle
// for batch delivery. The unit-level batch-vs-per-event tests
// (BatchDelivery.* in tests/test_link.cc) check delivery logs on
// synthetic link trains; this gate checks the same property end-to-end
// through real TCP dynamics, where a single swapped same-timestamp event
// would change retransmit counts or transmit-time sums and therefore the
// digest.
//
// Env overrides:
//   GATE_CONNECTIONS  population size per arm (default 300 — CI-sized;
//                     the property is combo-invariance, not scale)
//   GATE_SEED         population seed         (default 42)
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

// FNV-1a over the flat integer aggregates every combo must reproduce —
// the same fields the sweep bench digests for its thread/process
// cross-check (no floating point anywhere).
uint64_t digest(const std::vector<exp::ArmResult>& results) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& r : results) {
    mix(r.metrics.data_segments_sent);
    mix(r.metrics.retransmits_total);
    mix(r.metrics.timeouts_total);
    mix(r.total_workload_bytes);
    mix(r.recovery_log.count());
    mix(r.latency.count());
    mix(static_cast<uint64_t>(r.total_network_transmit_time.ns()));
  }
  return h;
}

}  // namespace

int main() {
  const char* conns_env = std::getenv("GATE_CONNECTIONS");
  const char* seed_env = std::getenv("GATE_SEED");
  const int connections = conns_env ? std::atoi(conns_env) : 300;
  const uint64_t seed =
      seed_env ? std::strtoull(seed_env, nullptr, 10) : 42;

  workload::WebWorkload pop;
  const std::vector<exp::ArmConfig> arms = bench::three_way_arms();

  struct Combo {
    bool batch;
    int threads;
    bool trace;
  };
  std::vector<Combo> combos;
  for (const bool batch : {false, true}) {
    for (const int threads : {1, 4, 8}) {
      for (const bool trace : {false, true}) {
        combos.push_back(Combo{batch, threads, trace});
      }
    }
  }

  std::printf(
      "scheduler_equivalence_gate: %d conns x %zu arms, seed %" PRIu64
      ", %zu combos\n",
      connections, arms.size(), seed, combos.size());

  uint64_t reference = 0;
  bool have_reference = false;
  bool ok = true;
  for (const Combo& c : combos) {
    exp::RunOptions opts;
    opts.connections = connections;
    opts.seed = seed;
    opts.threads = c.threads;
    opts.batch_delivery = c.batch;
    opts.trace = c.trace;
    const uint64_t d = digest(exp::run_arms(pop, arms, opts));
    std::printf("  %-9s threads=%d trace=%d  digest 0x%016" PRIx64 "%s\n",
                c.batch ? "batch" : "per-event", c.threads,
                c.trace ? 1 : 0, d,
                !have_reference || d == reference ? "" : "  MISMATCH");
    if (!have_reference) {
      reference = d;
      have_reference = true;
    } else if (d != reference) {
      ok = false;
    }
  }

  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: aggregate digests differ across "
                 "delivery/thread/tracing combos — dispatch machinery "
                 "leaked into results\n");
    return 1;
  }
  std::printf("PASS: all %zu combos bit-identical (0x%016" PRIx64 ")\n",
              combos.size(), reference);
  return 0;
}
