// prr: the triage CLI (DESIGN.md §9, §14.4). Every view reads a
// .prrstore file — the paper's workflow, where per-connection recovery
// statistics are mined from persisted traces rather than recomputed.
// `sweep` writes those stores; `replay` is the one live command, because
// re-running a quarantined connection is exactly what it checks.
//
//   prr sweep --out PREFIX [...]         run the web sweep with capture on:
//                                        PREFIX.<arm>.prrstore per arm, plus
//                                        PREFIX.<arm>.registry.json
//   prr sweep --conn ID --out PREFIX     one connection per arm (a live look
//                                        at one id, ring large enough to
//                                        keep its whole stream)
//   prr info STORE                       header meta + block geometry
//   prr records STORE [--conn ID]        human-readable record dump
//   prr agg STORE --field F [...]        filter/group-by/aggregate JSON
//   prr series STORE --conn ID [...]     (time, field) TSV for plotting
//   prr episodes STORE                   episode table (Tables 3/5/6/7)
//   prr episodes STORE --conn ID         one connection's episodes with
//                                        their per-ACK ledgers
//   prr table3 STORE                     Table 3 counters + ratios
//   prr critpath STORE [--conn ID]       where recovery latency went
//   prr diff STORE_A STORE_B --conn ID   first divergent decision between
//                                        two arms + paired Perfetto JSON
//   prr perfetto STORE [--conn ID]       one connection as Perfetto JSON
//   prr replay [--no-inject]             chaos sweep, replay quarantines
//   prr merge OUT IN1 IN2 ...            merge fork-per-shard stores
//
// Views that derive episodes, Table 3 or critical paths first say how
// many ring-truncated blocks (streams that lost their oldest records)
// they read. Determinism: every byte a view prints is a pure function of
// the store bytes, and store bytes are a pure function of the sweep's
// flags — identical at any --threads.
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "exp/scenarios.h"
#include "obs/episodes.h"
#include "obs/perfetto.h"
#include "obs/query.h"
#include "obs/store/store_reader.h"
#include "obs/store/store_writer.h"
#include "obs/trace_diff.h"
#include "util/artifacts.h"
#include "util/checked_write.h"
#include "util/table.h"
#include "workload/arrival.h"
#include "workload/web_workload.h"

using namespace prr;

namespace {

int usage() {
  std::printf(
      "usage: prr <command> [options]\n"
      "  sweep --out PREFIX       run a web sweep with capture on; writes\n"
      "                           PREFIX.<arm>.prrstore and\n"
      "                           PREFIX.<arm>.registry.json per arm\n"
      "    --conn ID              sweep only connection ID (whole stream)\n"
      "    --capture SPEC         all | none | sample=N | full=TRIG|TRIG...\n"
      "                           | recovery_ms>=X | retx>=N   (default all)\n"
      "    --arm NAME             prr | rfc3517 | linux | all  (default all)\n"
      "    --connections N --first ID --seed S --threads T --chaos\n"
      "    --loss-scale X --rtt-scale X --bandwidth-scale X\n"
      "                           regime scales, as in a drift alert\n"
      "  info STORE               header meta + block/record accounting\n"
      "  records STORE            dump records (--conn ID, --limit N)\n"
      "  agg STORE --field F      count/sum/min/max[/mean] aggregate JSON\n"
      "    --type T               restrict to one record type (ack, ...)\n"
      "    --group conn|type|time group rows (--bucket-ms N, default 1000)\n"
      "    --conn-min A --conn-max B --sampled-only --full-only\n"
      "    --out FILE             also write the JSON to FILE\n"
      "  series STORE --conn ID   TSV time-series (--type ack --field cwnd)\n"
      "  episodes STORE           rebuild the episode table (--json, --out F)\n"
      "    --conn ID              one connection's episodes + ACK ledgers\n"
      "  table3 STORE             Table 3 counters + ratios from the store\n"
      "  critpath STORE           recovery-latency attribution (--conn ID)\n"
      "  diff A B --conn ID       first divergent decision between two arms'\n"
      "                           stores; writes prr_diff_connID.json\n"
      "  perfetto STORE           one connection (--conn ID, default the\n"
      "                           first stored) as trace.json\n"
      "  replay                   chaos sweep + replay of every quarantined\n"
      "                           connection (--no-inject: honest sweep)\n"
      "  merge OUT IN1 IN2 ...    merge disjoint-range stores into OUT\n"
      "  --no-verify              skip the digest check on open (read cmds)\n"
      "Arms accept the display names alerts print (\"RFC 3517\").\n");
  return 2;
}

struct Args {
  std::vector<std::string> positional;
  std::string out, capture = "all", arm = "all", field, group, type;
  int64_t conn = -1;
  uint64_t limit = 0, bucket_ms = 1000;
  obs::QueryFilter filter;
  bool verify = true, json = false, chaos = false, inject = true;
  exp::RunOptions opts;
  // Always-active path regime (identity unless a --*-scale flag is
  // given): replays the scaling a service drift alert recorded for its
  // quarantined window.
  workload::RegimeShift regime;
};

// Accepts the short names and the display names the experiment service
// prints ("PRR", "RFC 3517", "Linux"): case-insensitive, with spaces,
// underscores and hyphens ignored. "all" selects the three paper arms.
bool parse_arms(const std::string& name, std::vector<exp::ArmConfig>* out) {
  std::string key;
  for (char c : name) {
    if (c == ' ' || c == '_' || c == '-') continue;
    key.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (key == "all" || key == "prr") {
    out->push_back(exp::ArmConfig::prr_arm());
  }
  if (key == "all" || key == "rfc3517") {
    out->push_back(exp::ArmConfig::rfc3517_arm());
  }
  if (key == "all" || key == "linux") {
    out->push_back(exp::ArmConfig::linux_arm());
  }
  if (out->empty()) {
    std::fprintf(stderr,
                 "unknown arm '%s' (want prr, rfc3517, linux or all)\n",
                 name.c_str());
    return false;
  }
  return true;
}

bool open_store(const std::string& path, bool verify,
                obs::StoreReader* reader) {
  std::string err;
  if (!obs::StoreReader::open(path, reader, &err, verify)) {
    std::fprintf(stderr, "prr: %s\n", err.c_str());
    return false;
  }
  return true;
}

// How many of the blocks a view reads (all, or connection `conn`'s) lost
// their oldest records to ring wrap: the view then folded partial streams.
void print_truncation(const obs::StoreReader& reader, int64_t conn,
                      std::FILE* out = stdout) {
  std::size_t read = 0, truncated = 0;
  for (const auto& b : reader.blocks()) {
    if (conn >= 0 && b.conn != static_cast<uint64_t>(conn)) continue;
    ++read;
    if (b.flags & obs::kBlockTruncated) ++truncated;
  }
  std::fprintf(out, "arm %s: read %zu block(s), %zu ring-truncated\n",
               reader.meta().arm.c_str(), read, truncated);
}

bool write_artifact(const std::string& name, const std::string& body,
                    std::string* path) {
  *path = util::artifact_path(name);
  return util::checked_write_file(*path, body);
}

// Records of `conn`, or an explanation when the store does not hold it.
// False only on a decode failure.
bool read_conn(const obs::StoreReader& reader, const std::string& path,
               uint64_t conn, std::vector<obs::TraceRecord>* records) {
  if (!reader.read_connection(conn, records)) {
    std::fprintf(stderr, "prr: conn %" PRIu64 " failed to decode\n", conn);
    return false;
  }
  if (records->empty()) {
    std::printf("connection %" PRIu64 " is not in %s (capture policy %s). "
                "Try prr info.\n",
                conn, path.c_str(), reader.meta().policy.c_str());
  }
  return true;
}

int cmd_sweep(Args& a) {
  if (a.out.empty()) {
    std::fprintf(stderr, "sweep requires --out PREFIX\n");
    return usage();
  }
  std::vector<exp::ArmConfig> arms;
  if (!parse_arms(a.arm, &arms)) return 2;
  exp::RunOptions& opts = a.opts;
  if (a.conn >= 0) {
    // One connection, with a ring large enough that views of it see the
    // whole stream, as a live re-run would.
    opts.first_connection = static_cast<uint64_t>(a.conn);
    opts.connections = 1;
    opts.trace_ring_records = 1u << 16;
  }
  opts.store_path = a.out;
  opts.capture = a.capture;

  workload::WebWorkload base;
  workload::RegimeSchedule sched;
  if (!a.regime.is_identity()) {
    sched.shifts.push_back(a.regime);  // active from t = 0
    char label[128];
    std::snprintf(label, sizeof label,
                  "regime: loss x%g, rtt x%g, bandwidth x%g",
                  a.regime.loss_scale, a.regime.rtt_scale,
                  a.regime.bandwidth_scale);
    std::printf("%s\n", label);
    // Recorded in the stores' headers, so `diff` can tell sample paths
    // of different regimes apart.
    opts.scenario = label;
  }
  workload::RegimePopulation regime_pop(base, sched);
  regime_pop.set_window_time(sim::Time::zero());
  std::optional<exp::ChaosPopulation> chaos_pop;
  const workload::Population* pop = &regime_pop;
  if (a.chaos) {
    exp::ChaosSpec spec = exp::ChaosSpec::everything();
    opts.scenario = "chaos/" + spec.name +
                    (opts.scenario.empty() ? "" : ", " + opts.scenario);
    opts.check_invariants = true;
    chaos_pop.emplace(regime_pop, std::move(spec.profile));
    pop = &*chaos_pop;
  }
  // A directory that cannot be made surfaces as the store-open error.
  const auto dir = std::filesystem::path(a.out).parent_path();
  std::error_code ec;
  if (!dir.empty()) std::filesystem::create_directories(dir, ec);
  std::vector<exp::ArmResult> results;
  try {
    results = exp::run_arms(*pop, arms, opts);
  } catch (const std::exception& e) {  // bad --capture, unwritable --out
    std::fprintf(stderr, "prr: %s\n", e.what());
    return 1;
  }
  // Summarize from the writers' own accounting (carried on ArmResult),
  // not by reopening the files, which would re-read and re-digest every
  // kept byte.
  bool ok = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string path = obs::store_path_for_arm(a.out, arms[i].name);
    std::printf("%-10s %s: %" PRIu64 " conns, %" PRIu64 " records\n",
                arms[i].name.c_str(), path.c_str(),
                results[i].store_connections, results[i].store_records);
    const std::string registry =
        path.substr(0, path.size() - std::strlen(".prrstore")) +
        ".registry.json";
    if (util::checked_write_json(registry, results[i].registry.to_json())) {
      std::printf("%-10s %s: metrics registry\n", arms[i].name.c_str(),
                  registry.c_str());
    } else {
      std::fprintf(stderr, "prr: short write to %s\n", registry.c_str());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

int cmd_info(const obs::StoreReader& reader, const std::string& path) {
  const obs::StoreMeta& m = reader.meta();
  std::printf("store    %s\n", path.c_str());
  std::printf("version  %u\n", m.version);
  std::printf("seed     %" PRIu64 "\n", m.seed);
  std::printf("arm      %s\n", m.arm.c_str());
  std::printf("policy   %s\n", m.policy.c_str());
  std::printf("scenario %s\n", m.scenario.empty() ? "(none)"
                                                  : m.scenario.c_str());
  uint64_t payload = 0, full = 0, sampled = 0, truncated = 0;
  for (const auto& b : reader.blocks()) {
    payload += b.bytes;
    if (b.flags & obs::kBlockFull) ++full;
    if (b.flags & obs::kBlockSampled) ++sampled;
    if (b.flags & obs::kBlockTruncated) ++truncated;
  }
  std::printf("blocks   %zu (%" PRIu64 " full, %" PRIu64 " sampled, %" PRIu64
              " ring-truncated)\n",
              reader.blocks().size(), full, sampled, truncated);
  std::printf("conns    %zu\n", reader.connections().size());
  std::printf("records  %" PRIu64 " (%.2f payload bytes/record)\n",
              reader.total_records(),
              reader.total_records() == 0
                  ? 0.0
                  : static_cast<double>(payload) /
                        static_cast<double>(reader.total_records()));
  return 0;
}

int cmd_records(const obs::StoreReader& reader, int64_t conn,
                uint64_t limit) {
  std::vector<obs::TraceRecord> records;
  if (conn >= 0) {
    if (!reader.read_connection(static_cast<uint64_t>(conn), &records)) {
      std::fprintf(stderr, "prr: conn %lld failed to decode\n",
                   static_cast<long long>(conn));
      return 1;
    }
  } else {
    for (std::size_t i = 0; i < reader.blocks().size(); ++i) {
      if (limit != 0 && records.size() >= limit) break;
      if (!reader.read_block(i, &records)) {
        std::fprintf(stderr, "prr: block %zu failed to decode\n", i);
        return 1;
      }
    }
  }
  uint64_t shown = 0;
  for (const obs::TraceRecord& r : records) {
    if (limit != 0 && shown++ >= limit) break;
    std::printf("%s\n", obs::describe(r).c_str());
  }
  return 0;
}

int cmd_agg(const obs::StoreReader& reader, const Args& a,
            obs::TraceType type) {
  obs::AggregateQuery q;
  q.filter = a.filter;
  q.bucket_ns = static_cast<int64_t>(a.bucket_ms) * 1'000'000;
  if (a.group == "conn") {
    q.group = obs::GroupKey::kConn;
  } else if (a.group == "type") {
    q.group = obs::GroupKey::kType;
  } else if (a.group == "time") {
    q.group = obs::GroupKey::kTimeBucket;
  } else if (!a.group.empty()) {
    std::fprintf(stderr, "unknown group '%s' (want conn|type|time)\n",
                 a.group.c_str());
    return 2;
  }
  std::string err;
  if (!obs::parse_field(type, a.field.empty() ? "at_ns" : a.field, &q.field,
                        &err)) {
    std::fprintf(stderr, "prr: %s\n", err.c_str());
    return 2;
  }
  obs::AggregateResult result;
  if (!obs::run_aggregate(reader, q, &result, &err)) {
    std::fprintf(stderr, "prr: %s\n", err.c_str());
    return 1;
  }
  const std::string json = result.to_json();
  std::printf("%s\n", json.c_str());
  if (!a.out.empty() && !util::checked_write_json(a.out, json)) {
    std::fprintf(stderr, "prr: short write to %s\n", a.out.c_str());
    return 1;
  }
  return 0;
}

int cmd_series(const obs::StoreReader& reader, const Args& a,
               obs::TraceType type) {
  if (a.conn < 0) {
    std::fprintf(stderr, "series requires --conn ID\n");
    return usage();
  }
  obs::QueryField field;
  std::string err;
  if (!obs::parse_field(type, a.field.empty() ? "cwnd" : a.field, &field,
                        &err)) {
    std::fprintf(stderr, "prr: %s\n", err.c_str());
    return 2;
  }
  const auto conn = static_cast<uint64_t>(a.conn);
  std::vector<obs::SeriesPoint> series;
  if (!obs::extract_series(reader, conn, type, field, &series, &err)) {
    std::fprintf(stderr, "prr: %s\n", err.c_str());
    return 1;
  }
  std::printf("# conn %" PRIu64 " type %s: time_ms\tvalue\n", conn,
              obs::to_string(type));
  for (const auto& pt : series) {
    std::printf("%.6f\t%" PRIu64 "\n",
                static_cast<double>(pt.at_ns) / 1e6, pt.value);
  }
  return 0;
}

// One connection's episodes with their per-ACK ledgers: DeliveredData,
// sndcnt, pipe vs ssthresh, the PRR internals, the exit, and the first
// post-recovery cwnd samples.
int cmd_conn_episodes(const obs::StoreReader& reader, const std::string& path,
                      uint64_t conn) {
  print_truncation(reader, static_cast<int64_t>(conn));
  std::printf("connection %" PRIu64 " from store (arm %s, seed %" PRIu64
              ")\n",
              conn, reader.meta().arm.c_str(), reader.meta().seed);
  std::vector<obs::TraceRecord> records;
  if (!read_conn(reader, path, conn, &records)) return 1;
  if (records.empty()) return 0;
  obs::EpisodeBuilder builder({.keep_ledgers = true});
  for (const obs::TraceRecord& r : records) builder.on_record(r);
  builder.finish();
  const auto& episodes = builder.episodes();
  std::printf("%zu stored records, %zu episode(s)\n\n", records.size(),
              episodes.size());
  if (episodes.empty()) {
    std::printf("no recovery episodes: this connection never entered "
                "fast recovery. Try another id.\n");
  }
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    std::printf("---- episode %zu/%zu ----\n%s\n", i + 1, episodes.size(),
                obs::describe(episodes[i]).c_str());
  }
  return 0;
}

// Rebuilds the store's episode table, after saying (on `note`) how many
// ring-truncated blocks fed it.
bool episode_table(const obs::StoreReader& reader, std::FILE* note,
                   obs::EpisodeTable* table) {
  print_truncation(reader, -1, note);
  std::string err;
  if (obs::episodes_from_store(reader, obs::QueryFilter{}, table, &err)) {
    return true;
  }
  std::fprintf(stderr, "prr: %s\n", err.c_str());
  return false;
}

int cmd_episodes(const obs::StoreReader& reader, const Args& a) {
  if (a.conn >= 0) {
    return cmd_conn_episodes(reader, a.positional[0],
                             static_cast<uint64_t>(a.conn));
  }
  // JSON output stays parseable: the truncation note goes to stderr.
  obs::EpisodeTable table;
  if (!episode_table(reader, a.json ? stderr : stdout, &table)) return 1;
  std::printf("%s\n", a.json ? table.to_json().c_str()
                             : table.summary_string().c_str());
  if (!a.out.empty() && !util::checked_write_json(a.out, table.to_json())) {
    std::fprintf(stderr, "prr: short write to %s\n", a.out.c_str());
    return 1;
  }
  return 0;
}

int cmd_table3(const obs::StoreReader& reader) {
  obs::EpisodeTable table;
  if (!episode_table(reader, stdout, &table)) return 1;
  const auto& s = table.stream();
  auto ratio = [](uint64_t a, uint64_t b) {
    return b == 0 ? std::string("-")
                  : util::Table::fmt(static_cast<double>(a) /
                                         static_cast<double>(b),
                                     2);
  };
  auto ratio_pct = [](uint64_t a, uint64_t b) {
    return b == 0 ? std::string("-")
                  : util::Table::fmt_pct(static_cast<double>(a) /
                                         static_cast<double>(b));
  };
  std::printf("arm %s, %zu FR events (%" PRIu64 " undo)\n",
              reader.meta().arm.c_str(), table.total(), s.undo_events);
  util::Table t({"metric", "value"});
  t.add_row({"Fast retransmits / FR event",
             ratio(s.fast_retransmits, table.total())});
  t.add_row({"DSACKs / FR event",
             ratio_pct(s.dsacks_received, table.total())});
  t.add_row({"DSACKs / retransmit",
             ratio_pct(s.dsacks_received, s.retransmits_total)});
  t.add_row({"Lost fast retransmits / FR event",
             ratio_pct(s.lost_fast_retransmits, table.total())});
  t.add_row({"Lost retransmits / retransmit",
             ratio_pct(s.lost_retransmits_detected, s.retransmits_total)});
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}

int cmd_critpath(const obs::StoreReader& reader, int64_t conn) {
  print_truncation(reader, conn);
  std::string err;
  if (conn >= 0) {
    obs::CriticalPathReport rep;
    if (!obs::critical_path(reader, static_cast<uint64_t>(conn), &rep,
                            &err)) {
      std::fprintf(stderr, "prr: %s\n", err.c_str());
      return 1;
    }
    std::printf("%s", obs::describe(rep).c_str());
    return 0;
  }
  obs::CriticalPathReport sum;
  for (uint64_t c : reader.connections()) {
    obs::CriticalPathReport rep;
    if (!obs::critical_path(reader, c, &rep, &err)) {
      std::fprintf(stderr, "prr: %s\n", err.c_str());
      return 1;
    }
    sum.merge(rep);
  }
  // describe() leads with "conn N:" — replace that with the real subject.
  std::string text = obs::describe(sum);
  text.erase(0, text.find(':') + 1);
  std::printf("all %zu stored connection(s):%s",
              reader.connections().size(), text.c_str());
  return 0;
}

// The same connection under two arms. Common random numbers make the
// sample paths identical, so the streams match record for record until
// the first divergent sender decision; print that decision with context
// and write a paired Perfetto trace (arm A = pid 1, arm B = pid 2) with
// FIRST DIVERGENCE markers.
int cmd_diff(const Args& a) {
  if (a.positional.size() != 2 || a.conn < 0) {
    std::fprintf(stderr, "diff needs two STORE paths and --conn ID\n");
    return usage();
  }
  obs::StoreReader ra, rb;
  if (!open_store(a.positional[0], a.verify, &ra) ||
      !open_store(a.positional[1], a.verify, &rb)) {
    return 1;
  }
  if (ra.meta().seed != rb.meta().seed) {
    std::fprintf(stderr, "prr: stores come from different seeds (%" PRIu64
                 " vs %" PRIu64 "): their sample paths are not aligned\n",
                 ra.meta().seed, rb.meta().seed);
    return 2;
  }
  if (ra.meta().scenario != rb.meta().scenario) {
    std::fprintf(stderr, "prr: stores come from different scenarios ('%s' vs "
                 "'%s'): their sample paths are not aligned\n",
                 ra.meta().scenario.c_str(), rb.meta().scenario.c_str());
    return 2;
  }
  const auto conn = static_cast<uint64_t>(a.conn);
  const std::string& arm_a = ra.meta().arm;
  const std::string& arm_b = rb.meta().arm;
  print_truncation(ra, a.conn);
  print_truncation(rb, a.conn);
  std::printf("connection %" PRIu64 ": %s vs %s (seed %" PRIu64
              ", CRN-aligned)\n\n",
              conn, arm_a.c_str(), arm_b.c_str(), ra.meta().seed);
  std::vector<obs::TraceRecord> recs_a, recs_b;
  if (!read_conn(ra, a.positional[0], conn, &recs_a) ||
      !read_conn(rb, a.positional[1], conn, &recs_b)) {
    return 1;
  }
  if (recs_a.empty() || recs_b.empty()) return 0;
  auto print_counts = [](const std::string& arm,
                         const std::vector<obs::TraceRecord>& records) {
    obs::EpisodeBuilder builder;
    for (const obs::TraceRecord& r : records) builder.on_record(r);
    builder.finish();
    std::printf("%-10s %zu records, %zu episode(s)\n", arm.c_str(),
                records.size(), builder.episodes().size());
  };
  print_counts(arm_a, recs_a);
  print_counts(arm_b, recs_b);
  std::printf("\n");
  const obs::DivergencePoint d = obs::first_divergence(recs_a, recs_b);
  std::printf("%s\n", obs::explain_divergence(d, arm_a, arm_b).c_str());

  const std::string name = "prr_diff_conn" + std::to_string(conn) + ".json";
  std::string path;
  if (!write_artifact(name,
                      obs::perfetto_diff_json(recs_a, recs_b, arm_a, arm_b),
                      &path)) {
    std::printf("short write to %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s -- open it at https://ui.perfetto.dev "
              "(%s = pid 1, %s = pid 2)\n",
              path.c_str(), arm_a.c_str(), arm_b.c_str());
  return 0;
}

// One stored connection as Chrome trace-event JSON: a "fast recovery"
// slice per episode, instant markers for retransmits/RTOs, and counter
// tracks for cwnd/pipe/ssthresh and prr_delivered/prr_out.
int cmd_perfetto(const obs::StoreReader& reader, const std::string& path,
                 int64_t want_conn) {
  const std::vector<uint64_t> conns = reader.connections();
  if (conns.empty()) {
    std::printf("store %s holds no connections.\n", path.c_str());
    return 0;
  }
  const uint64_t conn =
      want_conn >= 0 ? static_cast<uint64_t>(want_conn) : conns.front();
  std::vector<obs::TraceRecord> records;
  if (!read_conn(reader, path, conn, &records)) return 1;
  if (records.empty()) return 0;
  std::printf("store %s: arm %s, %zu connection(s); showing conn %" PRIu64
              " (%zu records)\n\n",
              path.c_str(), reader.meta().arm.c_str(), conns.size(), conn,
              records.size());
  std::size_t shown = 0;
  for (const obs::TraceRecord& r : records) {
    if (r.type == obs::TraceType::kWireData ||
        r.type == obs::TraceType::kWireAck) {
      continue;
    }
    std::printf("  %s\n", obs::describe(r).c_str());
    if (++shown >= 14) break;
  }
  std::string out_path;
  if (!write_artifact("trace.json", obs::perfetto_trace_json(records),
                      &out_path)) {
    std::printf("short write to %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s from the stored records -- load it at "
              "https://ui.perfetto.dev.\n",
              out_path.c_str());
  return 0;
}

// Quarantine-and-replay: a chaos sweep with invariant checking on, then
// every quarantined connection re-run deterministically in isolation
// (its whole sample path derives from (seed, id)), which must reproduce
// the recorded failure. A healthy build quarantines nothing, so by
// default one synthetic violation (connection 7, third ACK) is injected
// to show the machinery end to end; --no-inject runs an honest sweep.
int cmd_replay(bool inject) {
  workload::WebWorkload base;
  exp::ChaosSpec spec = exp::ChaosSpec::everything();
  exp::ChaosPopulation pop(base, spec.profile);

  exp::RunOptions opts;
  opts.connections = 150;
  opts.seed = 7;
  opts.check_invariants = true;
  opts.threads = 0;  // parallel sweep: byte-identical to serial
  opts.scenario = spec.name;
  // Checked runs always carry a flight recorder; size the ring so the
  // injected early-ACK violation is still in the end-of-run tail.
  opts.trace = true;
  opts.trace_ring_records = 1u << 16;
  opts.trace_tail_records = 1u << 16;
  if (inject) {
    opts.inject_violation_connection = 7;
    opts.inject_violation_on_ack = 3;
  }

  exp::Experiment experiment(pop, opts);
  std::vector<exp::ArmConfig> arms;
  parse_arms("all", &arms);
  std::printf("chaos sweep: scenario '%s', %d connections x %zu arms%s\n\n",
              spec.name.c_str(), opts.connections, arms.size(),
              inject ? " (one synthetic violation injected)" : "");
  const std::vector<exp::ArmResult> results = experiment.run(arms);
  for (const exp::ArmResult& r : results) {
    std::printf("arm %-10s acks checked %-8" PRIu64 " violations %-4" PRIu64
                " quarantined %zu\n",
                r.name.c_str(), r.acks_checked, r.invariant_violations,
                r.quarantined.size());
  }

  int failures = 0;
  bool saw_quarantine = false;
  for (std::size_t a = 0; a < arms.size(); ++a) {
    for (const exp::QuarantineRecord& rec : results[a].quarantined) {
      saw_quarantine = true;
      std::printf("\nquarantined: %s\n", rec.summary().c_str());
      // The flight-recorder tail, newest records last: show the final
      // stretch; the full tail goes into the Perfetto JSON.
      if (!rec.trace_tail.empty()) {
        const std::size_t n = rec.trace_tail.size();
        const std::size_t show = n < 12 ? n : std::size_t{12};
        std::printf("flight-recorder tail (%zu records, last %zu shown):\n",
                    n, show);
        for (std::size_t i = n - show; i < n; ++i) {
          std::printf("  %s\n", obs::describe(rec.trace_tail[i]).c_str());
        }
        std::string path;
        if (write_artifact("quarantine_conn" +
                               std::to_string(rec.connection_id) +
                               "_trace.json",
                           rec.trace_json(), &path)) {
          std::printf("wrote %s -- open it at https://ui.perfetto.dev\n",
                      path.c_str());
        } else {
          std::printf("short write to %s\n", path.c_str());
        }
      }
      // The recovery episode in flight (or closest to) the failure,
      // rebuilt from the tail with its per-ACK ledger.
      const std::string culprit = rec.episode_summary();
      if (!culprit.empty()) {
        std::printf("culprit episode:\n%s\n", culprit.c_str());
      } else {
        std::printf("no recovery episode in the captured tail\n");
      }

      // Cross-arm triage: the same connection under a reference arm. CRN
      // makes the sample paths identical, so the first divergent record
      // is the first decision this arm made differently.
      const exp::ArmConfig& ref = arms[(a + 1) % arms.size()];
      exp::RunOptions iso = opts;
      iso.inject_violation_connection = -1;  // honest re-runs
      const exp::TracedConnection mine =
          exp::trace_connection(pop, arms[a], iso, rec.connection_id);
      const exp::TracedConnection other =
          exp::trace_connection(pop, ref, iso, rec.connection_id);
      const obs::DivergencePoint d =
          obs::first_divergence(mine.records, other.records);
      if (d.diverged && !d.a_ended && !d.b_ended) {
        std::printf("first divergence vs %s arm after %zu common "
                    "records:\n  %-10s %s\n  %-10s %s\n",
                    ref.name.c_str(), d.common_count, arms[a].name.c_str(),
                    obs::describe(d.a).c_str(), ref.name.c_str(),
                    obs::describe(d.b).c_str());
      } else if (d.diverged) {
        std::printf("diverged from %s arm by exhaustion after %zu common "
                    "records\n",
                    ref.name.c_str(), d.common_count);
      } else {
        std::printf("identical record stream to %s arm (%zu records): the "
                    "failure is arm-independent\n",
                    ref.name.c_str(), d.common_count);
      }

      const exp::ReplayResult replay = experiment.replay(arms[a], rec);
      const bool ok = replay.reproduced(rec);
      std::printf("replay: %zu violation(s), %" PRIu64
                  " ACKs checked -> %s\n",
                  replay.violations.size(), replay.acks_checked,
                  ok ? "reproduced" : "DID NOT REPRODUCE");
      if (!ok) ++failures;
    }
  }
  if (inject && !saw_quarantine) {
    std::printf("\nERROR: injected violation was not quarantined\n");
    return 1;
  }
  if (failures > 0) {
    std::printf("\n%d quarantined connection(s) failed to replay\n", failures);
    return 1;
  }
  std::printf("\nall quarantined connections replayed deterministically\n");
  return 0;
}

int cmd_merge(const std::vector<std::string>& positional) {
  if (positional.size() < 2) {
    std::fprintf(stderr, "merge needs OUT and at least one IN\n");
    return usage();
  }
  const std::vector<std::string> inputs(positional.begin() + 1,
                                        positional.end());
  std::string err;
  if (!obs::merge_store_files(inputs, positional[0], &err)) {
    std::fprintf(stderr, "prr: merge failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("merged %zu store(s) into %s\n", inputs.size(),
              positional[0].c_str());
  return 0;
}

// Parses argv[2..] into `a`. Returns -1 to continue, else an exit code.
int parse_args(int argc, char** argv, Args* a) {
  a->opts.threads = 0;  // parallel sweep: byte-identical to serial
  const struct {
    const char* name;
    bool* flag;
    bool value;
  } switches[] = {
      {"--no-verify", &a->verify, false},
      {"--json", &a->json, true},
      {"--chaos", &a->chaos, true},
      {"--no-inject", &a->inject, false},
      {"--sampled-only", &a->filter.include_full, false},
      {"--full-only", &a->filter.include_sampled, false},
  };
  auto u64 = [](const char* v) { return static_cast<uint64_t>(std::atoll(v)); };
  const std::pair<const char*, std::function<void(const char*)>> valued[] = {
      {"--conn", [&](const char* v) { a->conn = std::atoll(v); }},
      {"--limit", [&](const char* v) { a->limit = u64(v); }},
      {"--conn-min", [&](const char* v) { a->filter.conn_min = u64(v); }},
      {"--conn-max", [&](const char* v) { a->filter.conn_max = u64(v); }},
      {"--field", [&](const char* v) { a->field = v; }},
      {"--type", [&](const char* v) { a->type = v; }},
      {"--group", [&](const char* v) { a->group = v; }},
      {"--bucket-ms", [&](const char* v) { a->bucket_ms = u64(v); }},
      {"--out", [&](const char* v) { a->out = v; }},
      {"--capture", [&](const char* v) { a->capture = v; }},
      {"--arm", [&](const char* v) { a->arm = v; }},
      {"--connections",
       [&](const char* v) { a->opts.connections = std::atoi(v); }},
      {"--first", [&](const char* v) { a->opts.first_connection = u64(v); }},
      {"--seed", [&](const char* v) { a->opts.seed = u64(v); }},
      {"--threads", [&](const char* v) { a->opts.threads = std::atoi(v); }},
      {"--loss-scale",
       [&](const char* v) { a->regime.loss_scale = std::atof(v); }},
      {"--rtt-scale",
       [&](const char* v) { a->regime.rtt_scale = std::atof(v); }},
      {"--bandwidth-scale",
       [&](const char* v) { a->regime.bandwidth_scale = std::atof(v); }},
  };
  for (int i = 2; i < argc; ++i) {
    const std::string f = argv[i];
    if (f[0] != '-') {
      a->positional.push_back(f);
      continue;
    }
    bool known = false;
    for (const auto& s : switches) {
      if (f == s.name) {
        *s.flag = s.value;
        known = true;
      }
    }
    for (const auto& [name, set] : valued) {
      if (f != name) continue;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", name);
        return 2;
      }
      set(argv[++i]);
      known = true;
    }
    if (!known) {
      std::fprintf(stderr, "unknown option '%s'\n", f.c_str());
      return usage();
    }
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Args a;
  if (const int rc = parse_args(argc, argv, &a); rc >= 0) return rc;

  if (cmd == "sweep") return cmd_sweep(a);
  if (cmd == "replay") return cmd_replay(a.inject);
  if (cmd == "merge") return cmd_merge(a.positional);
  if (cmd == "diff") return cmd_diff(a);

  // All remaining commands read one store.
  if (a.positional.empty()) {
    std::fprintf(stderr, "%s requires a STORE path\n", cmd.c_str());
    return usage();
  }
  const std::string& path = a.positional[0];
  obs::StoreReader reader;
  if (!open_store(path, a.verify, &reader)) return 1;

  obs::TraceType type = obs::TraceType::kAck;
  if (!a.type.empty()) {
    if (!obs::parse_trace_type(a.type, &type)) {
      std::fprintf(stderr, "unknown record type '%s'\n", a.type.c_str());
      return 2;
    }
    a.filter.set_only_type(type);
  }

  if (cmd == "info") return cmd_info(reader, path);
  if (cmd == "records") return cmd_records(reader, a.conn, a.limit);
  if (cmd == "agg") return cmd_agg(reader, a, type);
  if (cmd == "series") return cmd_series(reader, a, type);
  if (cmd == "episodes") return cmd_episodes(reader, a);
  if (cmd == "table3") return cmd_table3(reader);
  if (cmd == "critpath") return cmd_critpath(reader, a.conn);
  if (cmd == "perfetto") return cmd_perfetto(reader, path, a.conn);
  return usage();
}
