// Repository benchmark: end-to-end throughput, store query latency and a
// per-layer host-time ledger for the 3-arm sweeps the paper's tables are
// built from. See perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload web|bulk|store --seed N --seconds S --trace 0|1
//             --workdir DIR
//
// --trace 0 measures the end-to-end metrics with no hooks installed and
// reports them at nominal host speed (host_probe.h);
// --trace 1 runs the outside-in ledger (mirror.h) and reports per-layer
// metrics. Either way every output is checked, and the last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "host_probe.h"
#include "mirror.h"
#include "exp/experiment.h"
#include "host_fingerprint.h"
#include "obs/flight_recorder.h"
#include "obs/query.h"
#include "obs/store/store_format.h"
#include "obs/store/store_reader.h"
#include "sim/event_queue.h"
#include "workload/video_workload.h"
#include "workload/web_workload.h"

using namespace prr;
using perfbench::HostProbe;
using perfbench::Ledger;
using perfbench::now_ns;

namespace {

// ---------------------------------------------------------------- workloads

struct Spec {
  const char* name;
  bool video;             // VideoWorkload (DC2) instead of WebWorkload (DC1)
  bool capture_in_sweep;  // the timed sweep legs write the trace store
  int block;              // connections per arm in one sweep leg
  int warm;               // connections per arm in the warm-up legs
};

// A run covers kWindows windows of connections, window w drawn with
// window_seed(seed, w): the sweep legs rotate over them, one window per
// round, and the read leg's store holds one file per window and arm.
// Input cost moves with the seed (bulk legs of one seed ran 35% faster
// than those of another) and together across the windows of one seed, so
// windows with seeds of their own average it down.
constexpr int kWindows = 4;

// Every workload's read leg queries a store of the web population
// captured under kCapturePolicy, kReadBlock connections per arm and
// window, written by an untimed mirror pass (on `store` the timed sweep
// legs write the same files). The block puts every file between 1 and
// 2 MiB (1.1-1.7 MB over the seeds tried): StoreReader::open grows its
// buffer by doubling, so lookup latency steps at each power of two, and a
// store near one made it bimodal across seeds.
constexpr int kReadBlock = 5400;

// Block sizes keep the per-seed mean connection cost steady: bulk
// connections are long-tailed (~1,500 data segments each, CV ~0.9), so a
// bulk leg needs hundreds of them; web connections are ~18 segments.
constexpr Spec kSpecs[] = {
    {"web", false, false, 6000, 2000},
    {"bulk", true, false, 720, 40},
    {"store", false, true, kReadBlock, 2000},
};

// The warm-up legs run a fixed draw of the population, so set-up time
// reflects the host and the code rather than the seed.
constexpr uint64_t kWarmSeed = 20110501;

constexpr const char* kCapturePolicy = "sample=64,full=timeout";
// Flight-recorder ring when capturing. The episode reconciliation is
// exact only when no kept connection's ring wraps (a wrapped ring stores
// a flagged suffix); a few web connections per seed exceed the default
// 2,048 records, none seen above 4,096.
constexpr uint32_t kRingRecords = 8192;
constexpr int kMinRounds = 3;
constexpr int kMinTracedRounds = 2;
constexpr int kSetupReps = 9;
// Reads run in kReadShares slices per round, each point lookups for
// kLookupSeconds (at least kLookupsPerShare of them) and one full scan of
// the next store file. Three rounds give at least 126 lookups, so p90
// has at least 12 samples beyond it.
constexpr int kReadShares = 3;
constexpr int kLookupsPerShare = 14;
constexpr double kLookupSeconds = 0.03;
// The ledger's layers plus `unaccounted` always sum to the traced wall
// time; the run fails if `unaccounted` leaves this band (percent).
constexpr double kLedgerMaxUnaccountedPct = 5.0;
constexpr double kLedgerMinUnaccountedPct = -0.5;

// ------------------------------------------------------------------ checks

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool check(bool ok, const char* fmt, ...) {
    ++attempted;
    if (ok) return true;
    ++failed;
    std::va_list ap;
    va_start(ap, fmt);
    std::printf("FAIL: ");
    std::vprintf(fmt, ap);
    std::printf("\n");
    va_end(ap);
    return false;
  }
};

// The flat per-arm aggregates every worker count must reproduce (the
// bench_sweep_scaling set), folded into one order-sensitive digest.
uint64_t digest(const std::vector<const exp::ArmResult*>& results) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const exp::ArmResult* r : results) {
    mix(r->metrics.data_segments_sent);
    mix(r->metrics.retransmits_total);
    mix(r->metrics.timeouts_total);
    mix(r->total_workload_bytes);
    mix(r->recovery_log.count());
    mix(r->latency.count());
    mix(static_cast<uint64_t>(r->total_network_transmit_time.ns()));
  }
  return h;
}

uint64_t digest(const std::vector<exp::ArmResult>& rs) {
  std::vector<const exp::ArmResult*> p;
  for (const auto& r : rs) p.push_back(&r);
  return digest(p);
}

uint64_t digest(const std::vector<perfbench::ArmOutput>& os) {
  std::vector<const exp::ArmResult*> p;
  for (const auto& o : os) p.push_back(&o.result);
  return digest(p);
}

uint64_t hash_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  uint64_t h = 1469598103934665603ull;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h ^= static_cast<uint8_t>(buf[i]);
      h *= 1099511628211ull;
    }
  }
  return h;
}

// ------------------------------------------------------------------- stats

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Of rates over equal amounts of work: the total work over the total
// time, in which every leg counts by its duration.
double harmonic_mean(const std::vector<double>& rates) {
  double inverse = 0;
  for (const double r : rates) inverse += 1.0 / r;
  return static_cast<double>(rates.size()) / inverse;
}

double seconds_since(int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ sweep legs

struct Bench {
  Bench(const Spec& s, uint64_t sd, int w, std::string dir)
      : spec(s), seed(sd), workers(w), workdir(std::move(dir)) {}

  const Spec& spec;
  uint64_t seed;
  int workers;
  std::string workdir;
  std::unique_ptr<workload::Population> pop;
  workload::WebWorkload read_pop;  // the population the read leg queries
  std::vector<exp::ArmConfig> arms;
  Tally tally;

  std::vector<std::string> files(const std::string& prefix) const {
    std::vector<std::string> out;
    for (const auto& a : arms) {
      out.push_back(obs::store_path_for_arm(workdir + "/" + prefix, a.name));
    }
    return out;
  }

  exp::RunOptions options(int connections) const {
    exp::RunOptions o;
    o.seed = seed;
    o.connections = connections;
    o.trace_ring_records = kRingRecords;
    return o;
  }
};

struct Leg {
  double seconds = 0;
  uint64_t digest = 0;
  std::vector<uint64_t> file_hashes;
  uint64_t store_records = 0;
  uint64_t store_payload_bytes = 0;
};

// One exp::run_arms call over the first `connections` ids, optionally
// capturing into the store files `prefix`.
Leg sweep_leg(Bench& b, int threads, int connections,
              const std::string& prefix, uint64_t seed) {
  exp::RunOptions o = b.options(connections);
  o.seed = seed;
  o.threads = threads;
  if (!prefix.empty()) {
    o.store_path = b.workdir + "/" + prefix;
    o.capture = kCapturePolicy;
  }
  const int64_t t0 = now_ns();
  const std::vector<exp::ArmResult> rs = exp::run_arms(*b.pop, b.arms, o);
  Leg leg;
  leg.seconds = seconds_since(t0);
  leg.digest = digest(rs);
  if (!prefix.empty()) {
    for (const auto& f : b.files(prefix)) {
      leg.file_hashes.push_back(hash_file(f));
    }
    for (const auto& r : rs) {
      leg.store_records += r.store_records;
      leg.store_payload_bytes += r.store_payload_bytes;
    }
  }
  return leg;
}

double conns_per_s(const Bench& b, int connections, double seconds) {
  return static_cast<double>(connections) *
         static_cast<double>(b.arms.size()) / seconds;
}

// Set-up: population, arms, arenas and first objects, then a serial and
// a threaded warm-up leg (event-queue slots, allocator, page cache for
// the store files), so no timed leg runs cold.
double setup_once(Bench& b) {
  const int64_t t0 = now_ns();
  if (b.spec.video) {
    b.pop = std::make_unique<workload::VideoWorkload>();
  } else {
    b.pop = std::make_unique<workload::WebWorkload>();
  }
  b.arms = {exp::ArmConfig::linux_arm(), exp::ArmConfig::rfc3517_arm(),
            exp::ArmConfig::prr_arm()};
  const std::string prefix = b.spec.capture_in_sweep ? "warm.prrstore" : "";
  sweep_leg(b, 1, b.spec.warm, prefix, kWarmSeed);
  sweep_leg(b, b.workers, b.spec.warm, prefix, kWarmSeed);
  return seconds_since(t0);
}

// ------------------------------------------------------------- read leg

uint64_t splitmix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The read leg over the store files of one capture, spread over the
// run's rounds: point lookups (open + critical_path on one connection,
// the CLI's "why was this slow" path) and full scans (open +
// episodes_from_store + a per-connection run_aggregate).
struct Reads {
  std::vector<std::string> files;
  std::vector<std::string> reference_json;  // in-process episode tables
  // Per window: the mirror pass's digest and store file hashes.
  std::vector<uint64_t> window_digest;
  std::vector<std::vector<uint64_t>> window_hashes;
  std::vector<std::vector<uint64_t>> conns;  // lookup targets per file
  uint64_t next_lookup = 0;
  std::size_t next_scan = 0;
  bool traced = false;
  bool ready = false;  // every file opened and holds a connection

  std::vector<double> lookup_ms, open_ms, critpath_us;
  int scans = 0;
  int64_t scan_records = 0;
  int64_t scan_ns = 0;
  int64_t episodes_ns = 0;
  int64_t decode_ns = 0;
  int64_t decode_records = 0;

  // Warm-up: every file once through the page cache; the connections
  // each file holds become the lookup targets.
  void prepare(Tally& t) {
    conns.assign(files.size(), {});
    for (std::size_t f = 0; f < files.size(); ++f) {
      obs::StoreReader r;
      std::string err;
      if (t.check(obs::StoreReader::open(files[f], &r, &err), "open %s: %s",
                  files[f].c_str(), err.c_str())) {
        conns[f] = r.connections();
      }
      if (!t.check(!conns[f].empty(), "store %s holds no connection",
                   files[f].c_str())) {
        return;
      }
    }
    ready = true;
  }

  void lookups(Tally& t, uint64_t seed) {
    const int64_t start = now_ns();
    for (int i = 0;
         i < kLookupsPerShare || seconds_since(start) < kLookupSeconds;
         ++i, ++next_lookup) {
      const std::size_t f = next_lookup % files.size();
      const uint64_t conn =
          conns[f][splitmix(seed * 1000003u + next_lookup) % conns[f].size()];
      const int64_t t0 = now_ns();
      obs::StoreReader r;
      std::string err;
      const bool opened = obs::StoreReader::open(files[f], &r, &err);
      const int64_t t1 = now_ns();
      obs::CriticalPathReport rep;
      const bool ok = opened && obs::critical_path(r, conn, &rep, &err);
      const int64_t t2 = now_ns();
      const int64_t parts = rep.waiting_for_ack_ns + rep.rto_wait_ns +
                            rep.app_limited_ns + rep.send_window_ns;
      if (t.check(ok && parts == rep.total_ns,
                  "lookup conn %" PRIu64 " in %s: %s", conn, files[f].c_str(),
                  ok ? "buckets do not partition the episodes" : err.c_str())) {
        lookup_ms.push_back(static_cast<double>(t2 - t0) * 1e-6);
        open_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        critpath_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
      }
    }
  }

  // One full scan of the next file.
  void scan(Tally& t) {
    const std::size_t f = next_scan++ % files.size();
    const int64_t t0 = now_ns();
    obs::StoreReader r;
    std::string err;
    bool ok = obs::StoreReader::open(files[f], &r, &err);
    const int64_t t1 = now_ns();
    obs::EpisodeTable table;
    ok = ok && obs::episodes_from_store(r, obs::QueryFilter{}, &table, &err);
    const int64_t t2 = now_ns();
    obs::AggregateQuery q;
    q.group = obs::GroupKey::kConn;
    obs::AggregateResult agg;
    ok = ok && obs::run_aggregate(r, q, &agg, &err);
    const int64_t t3 = now_ns();
    if (!t.check(ok, "scan %s: %s", files[f].c_str(), err.c_str())) return;
    uint64_t rows = 0;
    for (const auto& row : agg.rows) rows += row.count;
    t.check(rows == r.total_records(),
            "scan %s: aggregate saw %" PRIu64 " of %" PRIu64 " records",
            files[f].c_str(), rows, r.total_records());
    t.check(table.to_json() == reference_json[f],
            "scan %s: store episodes differ from the in-process table",
            files[f].c_str());
    ++scans;
    scan_records += static_cast<int64_t>(r.total_records());
    scan_ns += t3 - t0;
    episodes_ns += t2 - t1;
    if (traced) {
      // Block decode on its own: the cost under every query.
      std::vector<obs::TraceRecord> records;
      bool dec_ok = true;
      const int64_t d0 = now_ns();
      for (std::size_t i = 0; i < r.blocks().size(); ++i) {
        records.clear();
        dec_ok = r.read_block(i, &records) && dec_ok;
        decode_records += static_cast<int64_t>(records.size());
      }
      decode_ns += now_ns() - d0;
      t.check(dec_ok, "read_block failed in %s", files[f].c_str());
    }
  }

  void read_share(Tally& t, uint64_t seed) {
    if (!ready) return;
    lookups(t, seed);
    scan(t);
  }
};

// --------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void emit(const Bench& b, const std::vector<Metric>& metrics) {
  std::string m;
  for (const auto& x : metrics) {
    std::printf("  %-36s %14.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  m.empty() ? "" : ", ", x.name.c_str(),
                  std::isfinite(x.value) ? x.value : 0.0, x.unit.c_str());
    m += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              b.tally.failed == 0 ? "true" : "false", b.tally.attempted,
              b.tally.failed, m.c_str());
}

void print_provenance(const Bench& b, int trace, double seconds) {
  const bench::HostFingerprint fp = bench::host_fingerprint();
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"trace\": %d, \"seconds\": %g, \"workers\": %d, \"machine\": %s, "
      "\"build\": {\"build_type\": \"%s\", \"lto\": %s, \"prr_tracing\": %s, "
      "\"scheduler_default\": \"%s\", \"compiler\": \"%s\"}}\n",
      b.spec.name, b.seed, trace, seconds, b.workers,
      bench::host_fingerprint_json(fp).c_str(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_LTO ? "true" : "false",
      obs::trace_compiled_in() ? "true" : "false",
      sim::kDefaultSchedulerBackend == sim::SchedulerBackend::kWheel ? "wheel"
                                                                      : "heap",
      __VERSION__);
}

// ----------------------------------------------------------------- flows

uint64_t window_seed(uint64_t seed, int window) {
  return seed + static_cast<uint64_t>(window) * 0x9e3779b97f4a7c15ull;
}

// Mirror capture pass over window `window` of the read leg's web
// connections, writing the store files `prefix`. With `reference`, it
// also folds each kept connection's listener-fed episodes into the
// in-process tables the store scans must reproduce.
std::vector<perfbench::ArmOutput> mirror_capture(Bench& b, int window,
                                                 const std::string& prefix,
                                                 bool hooks, bool reference,
                                                 Ledger* led) {
  perfbench::MirrorOptions d;
  d.hooks = hooks;
  d.capture = true;
  d.reference_episodes = reference;
  d.store_prefix = b.workdir + "/" + prefix;
  d.policy = kCapturePolicy;
  exp::RunOptions o = b.options(kReadBlock);
  o.seed = window_seed(b.seed, window);
  auto outs = perfbench::mirror_arms(b.read_pop, b.arms, o, d, led);
  uint64_t truncated = 0;
  for (const auto& f : b.files(prefix)) {
    obs::StoreReader r;
    std::string err;
    if (obs::StoreReader::open(f, &r, &err)) {
      for (const auto& blk : r.blocks()) {
        if (blk.flags & obs::kBlockTruncated) ++truncated;
      }
    }
  }
  for (const auto& o : outs) {
    b.tally.check(o.error.empty(), "%s", o.error.c_str());
  }
  b.tally.check(truncated == 0,
                "%" PRIu64 " ring-truncated store blocks; raise the ring size",
                truncated);
  return outs;
}

std::string read_prefix(int window) {
  return "read" + std::to_string(window) + ".prrstore";
}

std::vector<uint64_t> hashes(const Bench& b, const std::string& prefix) {
  std::vector<uint64_t> out;
  for (const auto& f : b.files(prefix)) out.push_back(hash_file(f));
  return out;
}

// Sets up the read leg: a mirror pass per window writes the files, the
// reference tables and the digests the `store` sweep legs must match.
Reads prepare_reads(Bench& b, bool traced) {
  Reads rd;
  rd.traced = traced;
  for (int w = 0; w < kWindows; ++w) {
    const std::string prefix = read_prefix(w);
    Ledger led;
    const auto outs = mirror_capture(b, w, prefix, false, true, &led);
    for (const auto& o : outs) {
      rd.reference_json.push_back(o.kept_episodes.to_json());
    }
    rd.window_digest.push_back(digest(outs));
    rd.window_hashes.push_back(hashes(b, prefix));
    for (const auto& f : b.files(prefix)) rd.files.push_back(f);
  }
  rd.prepare(b.tally);
  return rd;
}

// Whether another round, as long as the mean one so far, ends within
// the run's --seconds.
bool round_fits(double elapsed, double in_rounds, int rounds, double seconds) {
  return elapsed + in_rounds / rounds <= seconds;
}

// The sweep legs of a run. A window's first leg is its reference: every
// later leg over it, at any worker count, must reproduce its aggregates
// and store files. On `store` the first leg must also match the mirror
// pass that wrote the read store's window (same block, same seed): the
// mirror performs the same computation, and the read leg's files are the
// bytes the legs write.
struct Legs {
  Bench& b;
  const Reads& rd;
  std::vector<std::optional<Leg>> first =
      std::vector<std::optional<Leg>>(kWindows);

  double run(int w, int threads, Leg* out = nullptr) {
    const bool cap = b.spec.capture_in_sweep;
    const std::string prefix =
        cap ? "leg" + std::to_string(w) + ".prrstore" : "";
    const Leg leg = sweep_leg(b, threads, b.spec.block, prefix,
                              window_seed(b.seed, w));
    std::optional<Leg>& ref = first[static_cast<std::size_t>(w)];
    if (!ref) {
      ref = leg;
      if (cap) {
        b.tally.check(leg.digest == rd.window_digest[w],
                      "window %d: mirror digest differs from exp::run_arms",
                      w);
        b.tally.check(leg.file_hashes == rd.window_hashes[w],
                      "window %d: mirror store files differ from "
                      "exp::run_arms'",
                      w);
      }
    }
    b.tally.check(leg.digest == ref->digest,
                  "window %d: aggregates at %d workers differ from the "
                  "window's first leg",
                  w, threads);
    b.tally.check(leg.file_hashes == ref->file_hashes &&
                      leg.store_records == ref->store_records &&
                      leg.store_payload_bytes == ref->store_payload_bytes,
                  "window %d: store files at %d workers differ from the "
                  "window's first leg",
                  w, threads);
    if (out != nullptr) *out = leg;
    return conns_per_s(b, b.spec.block, leg.seconds);
  }
};

int run_untraced(Bench& b, double seconds) {
  const int64_t t_start = now_ns();
  // Host probes after every set-up, serial leg and read share sample the
  // host's speed over the whole run (host_probe.h): the compute probe on
  // one thread and on as many as a threaded leg, the memory probe on one.
  HostProbe compute(HostProbe::Kind::kCompute);
  HostProbe compute_mt(HostProbe::Kind::kCompute, b.workers);
  HostProbe memory(HostProbe::Kind::kMemory);
  auto probe = [&] {
    compute.sample();
    compute_mt.sample();
    memory.sample();
  };
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    setups.push_back(setup_once(b));
    probe();
  }

  Reads rd = prepare_reads(b, false);
  Legs legs{b, rd};
  std::vector<double> serial, threaded;

  // Rounds interleave every measurement, so each median samples the
  // whole run rather than one stretch of it: threaded, serial and
  // threaded legs over the round's window, each followed by a share of
  // the reads.
  int rounds = 0;
  double rss_mb = 0;
  const int64_t t_rounds = now_ns();
  while (rounds < kMinRounds ||
         round_fits(seconds_since(t_start), seconds_since(t_rounds), rounds,
                    seconds)) {
    const int w = rounds % kWindows;
    for (const bool serial_leg : {false, true, false}) {
      if (serial_leg) {
        serial.push_back(legs.run(w, 1));
        probe();
      } else {
        threaded.push_back(legs.run(w, b.workers));
      }
      rd.read_share(b.tally, b.seed);
      probe();
    }
    // Peak memory of a fixed amount of work: set-up and one round, in
    // which every leg and read operation has run. Later rounds repeat it.
    if (rounds == 0) rss_mb = peak_rss_mb();
    ++rounds;
  }

  std::printf("%d rounds: %zu serial legs, %zu threaded legs (%d workers), "
              "%zu lookups, %d scans; %d set-ups; %d host probes\n",
              rounds, serial.size(), threaded.size(), b.workers,
              rd.lookup_ms.size(), rd.scans, kSetupReps,
              compute.samples() + compute_mt.samples() + memory.samples());

  // Each figure at nominal host speed, by the probe that resembles its
  // work: sweep legs and set-up by the compute probe (threaded legs at
  // their worker count), lookups, which mostly load a store file, by the
  // memory probe, and scans, which load and then decode one, by both.
  const double fc = compute.factor();
  const double fc_mt = compute_mt.factor();
  const double fm = memory.factor();
  const double fs = (compute.median_seconds() + memory.median_seconds()) /
                    (compute.nominal_seconds() + memory.nominal_seconds());
  const double wall[] = {harmonic_mean(serial),
                         harmonic_mean(threaded),
                         quantile(rd.lookup_ms, 0.5),
                         quantile(rd.lookup_ms, 0.9),
                         static_cast<double>(rd.scan_records) * 1e3 /
                             static_cast<double>(rd.scan_ns),
                         median(setups)};
  std::printf("host factors: compute %.4f (%.3f ms / %.3f ms nominal), at %d "
              "threads %.4f, memory %.4f (%.3f ms / %.3f ms), scan %.4f\n",
              fc, compute.median_seconds() * 1e3,
              compute.nominal_seconds() * 1e3, b.workers, fc_mt, fm,
              memory.median_seconds() * 1e3, memory.nominal_seconds() * 1e3,
              fs);
  std::printf("wall clock: conns_per_s %.6g, conns_per_s_mt %.6g, "
              "lookup_ms_p50 %.6g, lookup_ms_p90 %.6g, "
              "scan_mrecords_per_s %.6g, setup_s %.6g\n",
              wall[0], wall[1], wall[2], wall[3], wall[4], wall[5]);
  emit(b, {
              {"conns_per_s", wall[0] * fc, "1/s"},
              {"conns_per_s_mt", wall[1] * fc_mt, "1/s"},
              {"lookup_ms_p50", wall[2] / fm, "ms"},
              {"lookup_ms_p90", wall[3] / fm, "ms"},
              {"scan_mrecords_per_s", wall[4] * fs, "M/s"},
              {"peak_rss_mb", rss_mb, "MB"},
              {"setup_s", wall[5] / fc, "s"},
          });
  return 0;
}

// Exact counts of one traced pass, which must repeat across passes and
// worker counts.
struct Counts {
  uint64_t conns = 0, events = 0, acks = 0, records = 0, kept = 0,
           stored_records = 0, stored_bytes = 0;
  bool operator==(const Counts&) const = default;
};

Counts counts_of(const Ledger& l) {
  return {l.conns, l.events, l.acks, l.records,
          l.kept, l.stored_records, l.stored_bytes};
}

int run_traced(Bench& b, double seconds) {
  const int64_t t_start = now_ns();
  setup_once(b);
  const bool cap = b.spec.capture_in_sweep;
  Reads rd = prepare_reads(b, true);
  Legs legs{b, rd};
  // The traced rounds run window 0 only, so exact counts can repeat.
  Leg ref;
  legs.run(0, 1, &ref);

  // Store write layer on web and bulk: a traced mirror capture of the
  // read leg's first window, which must repeat the reference capture
  // exactly.
  Ledger write;
  if (!cap) {
    const std::string prefix = read_prefix(0);
    const auto before = hashes(b, prefix);
    Ledger untimed;
    mirror_capture(b, 0, prefix, false, false, &untimed);
    mirror_capture(b, 0, prefix, true, false, &write);
    b.tally.check(hashes(b, prefix) == before,
                  "traced capture wrote different store files");
    b.tally.check(write.records == untimed.records &&
                      write.kept == untimed.kept &&
                      write.stored_records == untimed.stored_records &&
                      write.stored_bytes == untimed.stored_bytes,
                  "capture counts drifted between passes");
  }

  perfbench::MirrorOptions d;
  d.hooks = true;
  d.capture = cap;
  d.store_prefix = b.workdir + "/mirror.prrstore";
  d.policy = kCapturePolicy;

  // Rounds: an untraced serial leg, a traced serial mirror pass over the
  // same block, a threaded leg, and the traced read leg.
  std::vector<double> serial, threaded, untraced_wall, traced_wall;
  Ledger ledger;
  Counts first_counts;
  int rounds = 0;
  const int64_t t_rounds = now_ns();
  while (rounds < kMinTracedRounds ||
         round_fits(seconds_since(t_start), seconds_since(t_rounds), rounds,
                    seconds)) {
    Leg leg;
    serial.push_back(legs.run(0, 1, &leg));
    untraced_wall.push_back(leg.seconds);

    Ledger pass;
    const auto outs = perfbench::mirror_arms(*b.pop, b.arms,
                                            b.options(b.spec.block), d, &pass);
    traced_wall.push_back(static_cast<double>(pass.wall_ns) * 1e-9);
    b.tally.check(digest(outs) == ref.digest,
                  "traced mirror digest differs from exp::run_arms");
    if (cap) {
      b.tally.check(hashes(b, "mirror.prrstore") == ref.file_hashes &&
                        pass.stored_records == ref.store_records &&
                        pass.stored_bytes == ref.store_payload_bytes,
                    "traced mirror store differs from exp::run_arms'");
    }
    if (rounds == 0) first_counts = counts_of(pass);
    b.tally.check(counts_of(pass) == first_counts,
                  "exact counts drifted between traced passes");
    ledger.add(pass);

    threaded.push_back(legs.run(0, b.workers));
    for (int i = 0; i < kReadShares; ++i) rd.read_share(b.tally, b.seed);
    ++rounds;
  }
  for (const auto& f : b.files("mirror.prrstore")) std::remove(f.c_str());
  if (cap) write = ledger;

  // The same event and ACK counts at min(4, nproc) workers.
  {
    Ledger par;
    const auto outs = perfbench::mirror_arms_parallel(
        *b.pop, b.arms, b.options(b.spec.block), b.workers, &par);
    b.tally.check(digest(outs) == ref.digest,
                  "threaded mirror digest differs from exp::run_arms");
    b.tally.check(par.events == first_counts.events &&
                      par.acks == first_counts.acks,
                  "event/ACK counts differ at %d workers", b.workers);
  }

  // The ledger. Layers nest (run > slices > ACKs), so each is reported
  // as its self time; `unaccounted` is the mirror's own loop.
  const auto wall = static_cast<double>(ledger.wall_ns);
  const auto conns = static_cast<double>(ledger.conns);
  const auto events = static_cast<double>(ledger.events);
  const double loop_ns = static_cast<double>(ledger.run_ns - ledger.slice_ns);
  const double callback_ns =
      static_cast<double>(ledger.slice_ns - ledger.ack_ns);
  const double unaccounted = wall - static_cast<double>(ledger.layered_ns());
  const double unaccounted_pct = 100.0 * unaccounted / wall;
  b.tally.check(unaccounted_pct <= kLedgerMaxUnaccountedPct &&
                    unaccounted_pct >= kLedgerMinUnaccountedPct,
                "ledger: unaccounted %.2f%% of traced wall time is outside "
                "[%.1f%%, %.1f%%]",
                unaccounted_pct, kLedgerMinUnaccountedPct,
                kLedgerMaxUnaccountedPct);
  auto pct = [wall](double ns) { return 100.0 * ns / wall; };
  const double sample_ns = static_cast<double>(ledger.sample_ns);
  const double setup_ns = static_cast<double>(ledger.setup_ns);
  const double ack_ns = static_cast<double>(ledger.ack_ns);
  const double fold_ns = static_cast<double>(ledger.fold_ns);
  const double store_ns = static_cast<double>(ledger.store_ns);
  std::printf("%d rounds; ledger, %% of %.3f s traced wall over %.0f "
              "connection-arms:\n  workload %.2f  exp.setup %.2f  sim.loop "
              "%.2f  sim.callback %.2f  tcp.ack %.2f  exp.fold %.2f  "
              "obs.store %.2f  unaccounted %.2f  (tolerance [%.1f, %.1f])\n",
              rounds, wall * 1e-9, conns, pct(sample_ns), pct(setup_ns),
              pct(loop_ns), pct(callback_ns), pct(ack_ns), pct(fold_ns),
              pct(store_ns), unaccounted_pct, kLedgerMinUnaccountedPct,
              kLedgerMaxUnaccountedPct);

  // Overhead of the hooks, against the spread of the untraced legs.
  const double untraced = median(untraced_wall);
  const double overhead_pct = 100.0 * (median(traced_wall) / untraced - 1.0);
  const double resolution_pct =
      100.0 * (quantile(untraced_wall, 0.75) - quantile(untraced_wall, 0.25)) /
      untraced;
  const bool resolved = overhead_pct > resolution_pct;
  if (resolved) {
    std::printf("trace.overhead_pct: %.2f%% (resolution %.2f%%)\n",
                overhead_pct, resolution_pct);
  } else {
    std::printf("trace.overhead_pct: below resolution (%.2f%%)\n",
                resolution_pct);
  }

  std::vector<double> conn_us;
  for (const int64_t ns : ledger.conn_ns) {
    conn_us.push_back(static_cast<double>(ns) * 1e-3);
  }
  const auto pass_conns = static_cast<double>(first_counts.conns);
  const auto wconns = static_cast<double>(write.conns);
  const auto wrecs = static_cast<double>(write.stored_records);
  emit(b, {
      {"workload.sample_ns_per_conn", sample_ns / conns, "ns"},
      {"exp.setup_ns_per_conn", setup_ns / conns, "ns"},
      {"exp.fold_ns_per_conn", fold_ns / conns, "ns"},
      {"exp.parallel_efficiency",
       harmonic_mean(threaded) / (b.workers * harmonic_mean(serial)),
       "ratio"},
      {"exp.conn_host_us_p50", quantile(conn_us, 0.5), "us"},
      {"exp.conn_host_us_p99", quantile(conn_us, 0.99), "us"},
      {"sim.events_per_conn",
       static_cast<double>(first_counts.events) / pass_conns, "count"},
      {"sim.loop_ns_per_event", loop_ns / events, "ns"},
      {"sim.callback_ns_per_event", callback_ns / events, "ns"},
      {"tcp.acks_per_conn", static_cast<double>(first_counts.acks) / pass_conns,
       "count"},
      {"tcp.ack_ns_per_ack", ack_ns / static_cast<double>(ledger.acks), "ns"},
      {"obs.trace.records_per_conn",
       static_cast<double>(write.records) / wconns, "count"},
      {"obs.capture.keep_frac", static_cast<double>(write.kept) / wconns,
       "ratio"},
      {"obs.store.write_ns_per_record",
       static_cast<double>(write.store_ns) / wrecs, "ns"},
      {"obs.store.bytes_per_record",
       static_cast<double>(write.stored_bytes) / wrecs, "B"},
      {"obs.store.open_ms", median(rd.open_ms), "ms"},
      {"obs.query.critpath_us_per_lookup", median(rd.critpath_us), "us"},
      {"obs.store.decode_ns_per_record",
       static_cast<double>(rd.decode_ns) /
           static_cast<double>(rd.decode_records),
       "ns"},
      {"obs.query.episodes_ns_per_record",
       static_cast<double>(rd.episodes_ns) /
           static_cast<double>(rd.scan_records),
       "ns"},
      {"trace.overhead_pct", resolved ? overhead_pct : 0.0, "%"},
      {"trace.coverage_pct",
       100.0 * static_cast<double>(ledger.layered_ns()) / wall, "%"},
      {"ledger.workload_pct", pct(sample_ns), "%"},
      {"ledger.exp_setup_pct", pct(setup_ns), "%"},
      {"ledger.sim_loop_pct", pct(loop_ns), "%"},
      {"ledger.sim_callback_pct", pct(callback_ns), "%"},
      {"ledger.tcp_ack_pct", pct(ack_ns), "%"},
      {"ledger.exp_fold_pct", pct(fold_ns), "%"},
      {"ledger.obs_store_pct", pct(store_ns), "%"},
      {"ledger.unaccounted_pct", unaccounted_pct, "%"},
  });
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload web|bulk|store --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") seconds = std::atof(v);
    else if (k == "--trace") trace = std::atoi(v);
    else if (k == "--workdir") workdir = v;
    else return usage();
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (workload == s.name) spec = &s;
  }
  if (spec == nullptr || seconds <= 0 || (trace != 0 && trace != 1) ||
      workdir.empty()) {
    return usage();
  }
  std::filesystem::create_directories(workdir);
  // Fixed malloc thresholds: buffers below 32 MiB (store files a reader
  // loads, recorder rings) come from the heap and are reused, and the
  // heap is trimmed only past 64 MiB free. glibc's adaptive thresholds
  // depend on allocation history; with them, lookups over the same store
  // files took 1.0 ms in one run and 2.5 ms in another.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);

  Bench b(*spec, seed,
          static_cast<int>(std::min(
              4u, std::max(1u, std::thread::hardware_concurrency()))),
          workdir);
  print_provenance(b, trace, seconds);
  return trace == 1 ? run_traced(b, seconds) : run_untraced(b, seconds);
}
