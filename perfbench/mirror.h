// Outside-in mirror of exp::run_arm for the per-layer host-time ledger.
//
// exp::run_arm is a black box to a profiler: one call covers population
// sampling, arena reset, the event loop, the sender and the fold. The
// mirror performs the same per-connection computation through the
// library's public calls only, so each call can be timed from outside:
//
//   workload    Population::sample_into
//   exp.setup   Simulator::reset, Connection::reset, impairment wiring,
//               ServerApp::reset/start
//   sim.run     Simulator::run, split by its set_slice_profiler hook into
//               loop time (outside callbacks) and callback slices
//   tcp.ack     Sender::on_ack_cost_hook, nested inside the slices
//   exp.fold    the per-connection fold into the arm's ArmResult
//   obs.store   capture decision, StoreEncoder::encode and
//               StoreWriter::append_shard
//
// It follows the pooled, unchecked path of exp::run_arm. The benchmark
// proves that it does by comparing its aggregate digest, and its store
// files byte for byte, with exp::run_arms on the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "obs/episodes.h"
#include "workload/population.h"

namespace perfbench {

int64_t now_ns();

// Host time per layer, summed over the connections of one or more
// passes. Nesting: run_ns contains slice_ns, which contains ack_ns.
struct Ledger {
  int64_t wall_ns = 0;  // whole pass, as seen by the caller
  int64_t sample_ns = 0;
  int64_t setup_ns = 0;
  int64_t run_ns = 0;
  int64_t slice_ns = 0;
  int64_t ack_ns = 0;
  int64_t fold_ns = 0;
  int64_t store_ns = 0;

  uint64_t conns = 0;
  uint64_t events = 0;         // Simulator::events_processed
  uint64_t acks = 0;           // on_ack_cost_hook calls
  uint64_t records = 0;        // flight-recorder records written
  uint64_t kept = 0;           // connections the capture policy kept
  uint64_t stored_records = 0;
  uint64_t stored_bytes = 0;   // store payload bytes
  std::vector<int64_t> conn_ns;  // host time of each connection

  // Time spent inside the named layers (the nested parts counted once).
  int64_t layered_ns() const {
    return sample_ns + setup_ns + run_ns + fold_ns + store_ns;
  }
  void add(const Ledger& o);
};

struct MirrorOptions {
  bool hooks = false;    // install the slice and ACK cost hooks
  bool capture = false;  // attach a recorder and write a trace store
  // With capture: fold each kept connection's listener-fed episodes into
  // a per-arm table, the in-process reference for store scans.
  bool reference_episodes = false;
  std::string store_prefix;  // capture: store files, one per arm
  std::string policy;        // capture: CapturePolicy spec
};

struct ArmOutput {
  prr::exp::ArmResult result;  // same accumulators as exp::run_arm
  prr::obs::EpisodeTable kept_episodes;
  std::string error;  // non-empty if the store could not be written
};

// Runs connections [opts.first_connection, +opts.connections) of every
// arm serially, in id order, and adds the host times to *ledger.
std::vector<ArmOutput> mirror_arms(const prr::workload::Population& pop,
                                   const std::vector<prr::exp::ArmConfig>& arms,
                                   const prr::exp::RunOptions& opts,
                                   const MirrorOptions& d, Ledger* ledger);

// The same with hooks and without capture, on `workers` threads pulling
// chunks of connection ids off a shared counter (a closed loop per
// worker). The per-arm results are merged by summation, so they carry
// the digest fields only.
std::vector<ArmOutput> mirror_arms_parallel(
    const prr::workload::Population& pop,
    const std::vector<prr::exp::ArmConfig>& arms,
    const prr::exp::RunOptions& opts, int workers, Ledger* ledger);

}  // namespace perfbench
