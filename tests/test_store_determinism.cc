// Trace-store files are a pure function of (population, arm, seed,
// capture policy): byte-identical across worker-thread counts, with
// tracing on or off, and across the split-run + merge path. This is the contract that makes store artifacts diffable
// and lets fork-per-shard sweeps reproduce the single-process file.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "obs/store/store_format.h"
#include "obs/store/store_reader.h"
#include "workload/video_workload.h"
#include "workload/web_workload.h"

namespace prr {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "prr_store_det_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

exp::RunOptions base_opts() {
  exp::RunOptions opts;
  opts.connections = 200;
  opts.seed = 20110501;
  opts.capture = "sample=4,full=timeout";
  return opts;
}

// Runs the arm with `opts` and returns the produced store file's bytes
// (deleting the file).
std::string store_bytes(
    exp::RunOptions opts, const std::string& name,
    const workload::Population& pop = workload::WebWorkload{}) {
  opts.store_path = temp_path(name);
  const exp::ArmConfig arm = exp::ArmConfig::prr_arm();
  exp::run_arm(pop, arm, opts);
  const std::string path = obs::store_path_for_arm(opts.store_path, arm.name);
  std::string bytes = slurp(path);
  std::remove(path.c_str());
  return bytes;
}

TEST(StoreDeterminism, ByteIdenticalAcrossThreadCounts) {
  exp::RunOptions opts = base_opts();
  opts.threads = 1;
  const std::string serial = store_bytes(opts, "t1.prrstore");
  ASSERT_FALSE(serial.empty());
  opts.threads = 4;
  EXPECT_EQ(store_bytes(opts, "t4.prrstore"), serial);
  opts.threads = 8;
  EXPECT_EQ(store_bytes(opts, "t8.prrstore"), serial);
}

TEST(StoreDeterminism, IndependentOfOtherObservability) {
  exp::RunOptions opts = base_opts();
  const std::string plain = store_bytes(opts, "plain.prrstore");
  ASSERT_FALSE(plain.empty());

  exp::RunOptions traced = base_opts();
  traced.trace = true;
  EXPECT_EQ(store_bytes(traced, "traced.prrstore"), plain);

  exp::RunOptions bounded = base_opts();
  bounded.bounded_stats = true;
  bounded.threads = 4;
  EXPECT_EQ(store_bytes(bounded, "bounded.prrstore"), plain);
}

TEST(StoreDeterminism, StoreCaptureDoesNotPerturbAggregates) {
  workload::WebWorkload pop;
  const exp::ArmConfig arm = exp::ArmConfig::prr_arm();
  exp::RunOptions off = base_opts();
  exp::RunOptions on = base_opts();
  on.store_path = temp_path("agg.prrstore");

  const exp::ArmResult r_off = exp::run_arm(pop, arm, off);
  const exp::ArmResult r_on = exp::run_arm(pop, arm, on);
  EXPECT_EQ(r_off.metrics.data_segments_sent, r_on.metrics.data_segments_sent);
  EXPECT_EQ(r_off.metrics.bytes_sent, r_on.metrics.bytes_sent);
  EXPECT_EQ(r_off.metrics.retransmits_total, r_on.metrics.retransmits_total);
  EXPECT_EQ(r_off.metrics.timeouts_total, r_on.metrics.timeouts_total);
  EXPECT_EQ(r_off.metrics.fast_recovery_events,
            r_on.metrics.fast_recovery_events);
  EXPECT_EQ(r_off.total_workload_bytes, r_on.total_workload_bytes);
  const std::string path = obs::store_path_for_arm(on.store_path, arm.name);
  std::remove(path.c_str());
}

// A pooled connection's predecessor can end with a sender timer still
// armed. Resetting the sender must not cancel that timer into the next
// connection's ring: which connection precedes which depends on how the
// sweep is chunked, so such a record made stores thread-dependent. Long
// lossy video connections end with timers armed often enough to show it.
TEST(StoreDeterminism, PooledTimersDoNotLeakIntoNextConnection) {
  workload::VideoWorkload pop;
  exp::RunOptions opts;
  opts.connections = 48;
  opts.seed = 1;
  opts.capture = "all";
  opts.threads = 1;
  const std::string serial = store_bytes(opts, "video_t1.prrstore", pop);
  ASSERT_FALSE(serial.empty());
  for (int threads : {2, 4, 8}) {
    opts.threads = threads;
    // Not EXPECT_EQ: a mismatch would print both multi-MB stores.
    EXPECT_TRUE(store_bytes(opts, "video_t.prrstore", pop) == serial)
        << "threads=" << threads;
  }
  // A ring that never wraps: a wrapped block starts at an arbitrary
  // record, which may legitimately be a timer_cancel, and would already
  // have overwritten a leaked leading one.
  opts.threads = 1;
  opts.trace_ring_records = 1u << 16;
  opts.store_path = temp_path("video_read.prrstore");
  exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts);
  const std::string path =
      obs::store_path_for_arm(opts.store_path, exp::ArmConfig::prr_arm().name);
  obs::StoreReader reader;
  std::string err;
  ASSERT_TRUE(obs::StoreReader::open(path, &reader, &err)) << err;
  std::remove(path.c_str());
  ASSERT_EQ(reader.connections().size(), 48u);
  for (uint64_t conn : reader.connections()) {
    std::vector<obs::TraceRecord> records;
    ASSERT_TRUE(reader.read_connection(conn, &records));
    ASSERT_FALSE(records.empty());
    EXPECT_NE(records.front().type, obs::TraceType::kTimerCancel)
        << "conn " << conn << " starts with a timer_cancel";
    // The live re-run in a fresh arena records the same stream: tearing
    // that arena down must not trace a trailing timer_cancel either.
    const exp::TracedConnection live =
        exp::trace_connection(pop, exp::ArmConfig::prr_arm(), opts, conn);
    ASSERT_EQ(live.records.size(), records.size()) << "conn " << conn;
    EXPECT_EQ(std::memcmp(live.records.data(), records.data(),
                          records.size() * sizeof(obs::TraceRecord)),
              0)
        << "conn " << conn;
  }
}

// The range's ring dies before the pooled arena that outlives it. A last
// connection that ends with a timer armed must not cancel it into the
// destroyed ring when the arena is torn down (a crash in optimized builds,
// a stack-use-after-scope report under ASan).
TEST(StoreDeterminism, ArenaTeardownDoesNotWriteIntoDeadRing) {
  workload::VideoWorkload pop;
  exp::RunOptions opts;
  opts.connections = 48;
  opts.seed = 2;
  opts.threads = 1;
  opts.store_path = temp_path("teardown.prrstore");
  opts.capture = "sample=64,full=timeout";
  const std::vector<exp::ArmConfig> arms = {exp::ArmConfig::prr_arm(),
                                            exp::ArmConfig::rfc3517_arm(),
                                            exp::ArmConfig::linux_arm()};
  const std::vector<exp::ArmResult> results = exp::run_arms(pop, arms, opts);
  ASSERT_EQ(results.size(), arms.size());
  for (std::size_t i = 0; i < arms.size(); ++i) {
    EXPECT_EQ(results[i].connections_run, 48u);
    std::remove(
        obs::store_path_for_arm(opts.store_path, arms[i].name).c_str());
  }
}

}  // namespace
}  // namespace prr
