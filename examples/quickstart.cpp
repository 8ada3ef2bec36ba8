// Quickstart: one TCP connection over a lossy 1.2 Mbps / 100 ms path,
// recovering with PRR. Prints the time-sequence trace (the simulator's
// version of the paper's Figure 2) plus the recovery-event summary.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "exp/scenarios.h"

using namespace prr;

int main() {
  // The paper's §4.1 testbed: drop the first four of twenty segments,
  // then the application writes ten more at t = 500 ms.
  exp::FigureScenario scenario =
      exp::FigureScenario::fig2(tcp::RecoveryKind::kPrr);
  exp::FigureRun run = exp::run_figure_scenario(scenario);

  std::printf("PRR fast recovery on a 1.2 Mbps, 100 ms RTT path\n");
  std::printf("=================================================\n\n");
  std::printf("%s\n", run.trace.render_ascii().c_str());

  std::printf("segments sent        : %llu\n",
              (unsigned long long)run.metrics.data_segments_sent);
  std::printf("fast retransmits     : %llu\n",
              (unsigned long long)run.metrics.fast_retransmits);
  std::printf("timeouts             : %llu\n",
              (unsigned long long)run.metrics.timeouts_total);
  std::printf("all data ACKed at    : %lld ms\n",
              (long long)run.all_acked_at.ms());
  for (const auto& e : run.recovery_log.rows()) {
    std::printf(
        "recovery event: %lld..%lld ms, pipe@start=%llu B, "
        "ssthresh=%llu B, cwnd after exit=%.0f segments\n",
        (long long)e.start().ms(), (long long)e.end().ms(),
        (unsigned long long)e.pipe_at_start, (unsigned long long)e.ssthresh,
        e.cwnd_after_exit_segs());
  }
  return 0;
}
