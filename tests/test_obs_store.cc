// The columnar trace store (obs/store/): varint/zigzag primitives,
// randomized encode/decode round-trips across every record type and
// block boundary, truncated-file and corrupted-digest rejection, the
// streaming reader's edges (blocks past its window, long headers, files
// changed after open, moves) and its memory bound, the
// capture-policy grammar, and the store-vs-live differentials — records
// persisted through a sweep must equal the live trace_connection()
// stream, and an EpisodeTable rebuilt from the store must reconcile
// field-exactly with the live-folded one.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "obs/flight_recorder.h"
#include "obs/query.h"
#include "obs/store/capture_policy.h"
#include "obs/store/store_format.h"
#include "obs/store/store_reader.h"
#include "obs/store/store_writer.h"
#include "sim/rng.h"
#include "workload/web_workload.h"

namespace prr {
namespace {

using obs::StoreBlockMeta;
using obs::StoreMeta;
using obs::StoreReader;
using obs::StoreShard;
using obs::StoreWriter;
using obs::TraceRecord;
using obs::TraceType;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "prr_store_test_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
}

TEST(StoreFormat, VarintRoundTrip) {
  std::vector<uint64_t> values = {0,       1,        127,     128,
                                  16383,   16384,    UINT64_MAX,
                                  1u << 21, (1ull << 63) - 1};
  sim::Mt64 rng(7);
  for (int i = 0; i < 200; ++i) values.push_back(rng());
  std::vector<uint8_t> buf;
  for (uint64_t v : values) obs::put_varint(buf, v);
  const uint8_t* p = buf.data();
  const uint8_t* end = p + buf.size();
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(obs::get_varint(&p, end, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(p, end);
}

TEST(StoreFormat, ZigzagRoundTrip) {
  std::vector<int64_t> values = {0,  1,  -1, 63, -64, INT64_MAX,
                                 INT64_MIN};
  sim::Mt64 rng(11);
  for (int i = 0; i < 200; ++i) values.push_back(static_cast<int64_t>(rng()));
  for (int64_t v : values) {
    EXPECT_EQ(obs::zigzag_decode(obs::zigzag_encode(v)), v);
  }
}

TEST(StoreFormat, VarintRejectsTruncation) {
  std::vector<uint8_t> buf;
  obs::put_varint(buf, UINT64_MAX);
  for (std::size_t keep = 0; keep + 1 < buf.size(); ++keep) {
    const uint8_t* p = buf.data();
    uint64_t v;
    EXPECT_FALSE(obs::get_varint(&p, buf.data() + keep, &v));
  }
}

TEST(StoreFormat, PathForArm) {
  EXPECT_EQ(obs::store_path_for_arm("sweep.prrstore", "RFC 3517"),
            "sweep.rfc_3517.prrstore");
  EXPECT_EQ(obs::store_path_for_arm("sweep.prrstore", "PRR"),
            "sweep.prr.prrstore");
  EXPECT_EQ(obs::store_path_for_arm("/tmp/out", "Linux"),
            "/tmp/out.linux.prrstore");
}

// Random records spanning every type, every field width, negative-ish
// time deltas via shuffled timestamps — the codec must be lossless.
std::vector<TraceRecord> random_records(std::size_t n, uint64_t conn,
                                        uint64_t seed) {
  sim::Mt64 rng(seed);
  std::vector<TraceRecord> recs(n);
  int64_t t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord& r = recs[i];
    // Mostly forward time with occasional large jumps; the codec must
    // not assume monotonicity (merged views could interleave).
    t += static_cast<int64_t>(rng() % 1000000) - 1000;
    r.at_ns = t;
    r.conn = static_cast<uint32_t>(conn);
    r.type = static_cast<TraceType>(
        rng() % static_cast<uint64_t>(TraceType::kCount));
    r.a = static_cast<uint8_t>(rng());
    r.b = static_cast<uint16_t>(rng());
    for (int k = 0; k < 6; ++k) {
      // Mix of small counters, byte-sized fields and full-width values
      // (bit-cast doubles in service records use all 64 bits).
      switch (rng() % 3) {
        case 0: r.f[k] = rng() % 64; break;
        case 1: r.f[k] = rng() % (1u << 24); break;
        default: r.f[k] = rng(); break;
      }
    }
  }
  return recs;
}

void expect_records_equal(const std::vector<TraceRecord>& a,
                          const std::vector<TraceRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_ns, b[i].at_ns) << "record " << i;
    EXPECT_EQ(a[i].conn, b[i].conn) << "record " << i;
    EXPECT_EQ(a[i].type, b[i].type) << "record " << i;
    EXPECT_EQ(a[i].a, b[i].a) << "record " << i;
    EXPECT_EQ(a[i].b, b[i].b) << "record " << i;
    for (int k = 0; k < 6; ++k) {
      EXPECT_EQ(a[i].f[k], b[i].f[k]) << "record " << i << " f" << k;
    }
  }
}

TEST(StoreCodec, RoundTripRandomRecords) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const auto recs = random_records(500 + seed * 37, /*conn=*/seed, seed);
    StoreShard shard;
    obs::StoreEncoder enc;
    enc.encode(recs.data(), recs.size(), seed, obs::kBlockFull, &shard);
    ASSERT_EQ(shard.blocks.size(), 1u);
    std::vector<TraceRecord> back;
    ASSERT_TRUE(obs::decode_block(shard.bytes.data() + shard.blocks[0].offset,
                                  shard.blocks[0].bytes,
                                  shard.blocks[0].records, seed, &back));
    expect_records_equal(recs, back);
  }
}

TEST(StoreCodec, SplitsAtBlockBoundary) {
  const std::size_t n = obs::kMaxBlockRecords + 1234;
  const auto recs = random_records(n, /*conn=*/9, /*seed=*/99);
  StoreShard shard;
  obs::StoreEncoder enc;
  enc.encode(recs.data(), recs.size(), 9, obs::kBlockSampled, &shard);
  ASSERT_EQ(shard.blocks.size(), 2u);
  EXPECT_EQ(shard.blocks[0].records, obs::kMaxBlockRecords);
  EXPECT_EQ(shard.blocks[1].records, 1234u);
  std::vector<TraceRecord> back;
  for (const StoreBlockMeta& b : shard.blocks) {
    ASSERT_TRUE(obs::decode_block(shard.bytes.data() + b.offset, b.bytes,
                                  b.records, b.conn, &back));
    EXPECT_EQ(b.flags, obs::kBlockSampled);
  }
  expect_records_equal(recs, back);
}

TEST(StoreCodec, RejectsTruncatedAndPaddedPayload) {
  const auto recs = random_records(64, 1, 5);
  StoreShard shard;
  obs::StoreEncoder enc;
  enc.encode(recs.data(), recs.size(), 1, 0, &shard);
  const StoreBlockMeta& b = shard.blocks[0];
  std::vector<TraceRecord> back;
  // Every truncation point must fail, not crash or mis-decode.
  for (uint32_t keep = 0; keep < b.bytes; keep += 7) {
    back.clear();
    EXPECT_FALSE(obs::decode_block(shard.bytes.data(), keep, b.records, 1,
                                   &back));
  }
  // Trailing garbage is malformed too.
  shard.bytes.push_back(0);
  back.clear();
  EXPECT_FALSE(obs::decode_block(shard.bytes.data(), b.bytes + 1,
                                 b.records, 1, &back));
}

TEST(StoreCodec, RejectsInvalidTypeByte) {
  const auto recs = random_records(4, 1, 6);
  StoreShard shard;
  obs::StoreEncoder enc;
  enc.encode(recs.data(), recs.size(), 1, 0, &shard);
  // The type column sits right after 4 timestamp varints; stomp every
  // byte in turn with an out-of-range type value — decode must either
  // reject or produce only valid enum values, never out-of-range ones.
  for (std::size_t i = 0; i < shard.bytes.size(); ++i) {
    std::vector<uint8_t> bytes = shard.bytes;
    bytes[i] = 0xEE;
    std::vector<TraceRecord> back;
    if (obs::decode_block(bytes.data(), shard.blocks[0].bytes,
                          shard.blocks[0].records, 1, &back)) {
      for (const TraceRecord& r : back) {
        EXPECT_LT(static_cast<uint8_t>(r.type),
                  static_cast<uint8_t>(TraceType::kCount));
        EXPECT_LE(r.b, UINT16_MAX);
      }
    }
  }
}

TEST(StoreCodec, RingEncodeMarksTruncation) {
  obs::FlightRecorder ring(4);
  std::vector<TraceRecord> recs = random_records(6, 2, 8);
  for (const TraceRecord& r : recs) ring.write(r);
  StoreShard shard;
  obs::StoreEncoder enc;
  // write() itself is unconditional (PRR_TRACE is the compile-time gate
  // at instrumentation sites), so this works with tracing on or off.
  enc.encode(ring, 2, obs::kBlockFull, &shard);
  ASSERT_EQ(shard.blocks.size(), 1u);
  EXPECT_EQ(shard.blocks[0].records, 4u);  // oldest two fell out
  EXPECT_NE(shard.blocks[0].flags & obs::kBlockTruncated, 0);
  EXPECT_NE(shard.blocks[0].flags & obs::kBlockFull, 0);
  std::vector<TraceRecord> back;
  ASSERT_TRUE(obs::decode_block(shard.bytes.data(), shard.blocks[0].bytes,
                                4, 2, &back));
  expect_records_equal({recs.begin() + 2, recs.end()}, back);
}

StoreMeta test_meta() {
  StoreMeta meta;
  meta.seed = 42;
  meta.arm = "PRR";
  meta.policy = "sample=64,full=timeout";
  meta.scenario = "chaos/everything";
  return meta;
}

// Writes a two-connection store and returns its path.
std::string write_test_store(const std::string& name,
                             std::vector<TraceRecord>* conn3,
                             std::vector<TraceRecord>* conn7) {
  *conn3 = random_records(300, 3, 31);
  *conn7 = random_records(40, 7, 71);
  StoreShard shard;
  obs::StoreEncoder enc;
  enc.encode(conn3->data(), conn3->size(), 3, obs::kBlockSampled, &shard);
  enc.encode(conn7->data(), conn7->size(), 7, obs::kBlockFull, &shard);
  const std::string path = temp_path(name);
  StoreWriter writer;
  EXPECT_TRUE(writer.open(path, test_meta()));
  EXPECT_TRUE(writer.append_shard(shard));
  EXPECT_TRUE(writer.finish());
  return path;
}

TEST(StoreFile, WriteReadRoundTrip) {
  std::vector<TraceRecord> conn3, conn7;
  const std::string path = write_test_store("roundtrip.prrstore",
                                            &conn3, &conn7);
  StoreReader reader;
  std::string err;
  ASSERT_TRUE(StoreReader::open(path, &reader, &err)) << err;
  EXPECT_TRUE(reader.meta() == test_meta());
  ASSERT_EQ(reader.blocks().size(), 2u);
  EXPECT_EQ(reader.total_records(), conn3.size() + conn7.size());
  EXPECT_EQ(reader.connections(), (std::vector<uint64_t>{3, 7}));

  std::vector<TraceRecord> back;
  ASSERT_TRUE(reader.read_connection(3, &back));
  expect_records_equal(conn3, back);
  back.clear();
  ASSERT_TRUE(reader.read_connection(7, &back));
  expect_records_equal(conn7, back);
  back.clear();
  ASSERT_TRUE(reader.read_connection(5, &back));  // absent: ok, empty
  EXPECT_TRUE(back.empty());
  std::remove(path.c_str());
}

TEST(StoreFile, RejectsTruncationAnywhere) {
  std::vector<TraceRecord> conn3, conn7;
  const std::string path = write_test_store("trunc.prrstore",
                                            &conn3, &conn7);
  const std::string body = slurp(path);
  ASSERT_GT(body.size(), 64u);
  const std::string cut = temp_path("trunc_cut.prrstore");
  // A file cut anywhere — mid-header, mid-block, mid-index, mid-footer —
  // must be rejected at open, never half-decoded.
  for (std::size_t keep = 0; keep < body.size(); keep += 97) {
    spit(cut, body.substr(0, keep));
    StoreReader reader;
    std::string err;
    EXPECT_FALSE(StoreReader::open(cut, &reader, &err)) << "keep=" << keep;
  }
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

TEST(StoreFile, RejectsCorruptedDigest) {
  std::vector<TraceRecord> conn3, conn7;
  const std::string path = write_test_store("corrupt.prrstore",
                                            &conn3, &conn7);
  const std::string body = slurp(path);
  const std::string bad = temp_path("corrupt_bit.prrstore");
  sim::Mt64 rng(13);
  for (int trial = 0; trial < 32; ++trial) {
    std::string flipped = body;
    // Flip one random bit outside the end magic (magic corruption is
    // caught structurally; digest corruption is what this pins).
    const std::size_t i = rng() % (flipped.size() - 8);
    flipped[i] = static_cast<char>(flipped[i] ^ (1u << (rng() % 8)));
    spit(bad, flipped);
    StoreReader reader;
    std::string err;
    EXPECT_FALSE(StoreReader::open(bad, &reader, &err))
        << "flipped byte " << i;
  }
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

// Writes one store holding each (conn, records) pair in order, under
// `meta`, and returns its path.
std::string write_store(
    const std::string& name, const StoreMeta& meta,
    const std::vector<std::pair<uint64_t, std::vector<TraceRecord>>>& conns) {
  StoreShard shard;
  obs::StoreEncoder enc;
  for (const auto& [conn, recs] : conns) {
    enc.encode(recs.data(), recs.size(), conn, obs::kBlockSampled, &shard);
  }
  const std::string path = temp_path(name);
  StoreWriter writer;
  EXPECT_TRUE(writer.open(path, meta));
  EXPECT_TRUE(writer.append_shard(shard));
  EXPECT_TRUE(writer.finish());
  return path;
}

TEST(StoreFile, BlockLargerThanReadWindowDecodes) {
  // Conn 2's first segment is a full kMaxBlockRecords block, well past
  // the reader's default window; the window grows to hold it.
  const auto small1 = random_records(100, 1, 41);
  const auto big = random_records(obs::kMaxBlockRecords + 500, 2, 42);
  const auto small3 = random_records(60, 3, 43);
  const std::string path = write_store(
      "bigblock.prrstore", test_meta(), {{1, small1}, {2, big}, {3, small3}});
  for (const bool verify : {true, false}) {
    StoreReader reader;
    std::string err;
    ASSERT_TRUE(StoreReader::open(path, &reader, &err, verify)) << err;
    ASSERT_EQ(reader.blocks().size(), 4u);
    EXPECT_GT(reader.blocks()[1].bytes, obs::kStoreReadWindow);
    std::vector<TraceRecord> back;
    ASSERT_TRUE(reader.read_connection(2, &back));
    expect_records_equal(big, back);
    // A sequential scan across the big block yields the same stream.
    back.clear();
    for (std::size_t i = 0; i < reader.blocks().size(); ++i) {
      ASSERT_TRUE(reader.read_block(i, &back)) << "block " << i;
    }
    std::vector<TraceRecord> all = small1;
    all.insert(all.end(), big.begin(), big.end());
    all.insert(all.end(), small3.begin(), small3.end());
    expect_records_equal(all, back);
    back.clear();
    ASSERT_TRUE(reader.read_connection(3, &back));
    expect_records_equal(small3, back);
  }
  std::remove(path.c_str());
}

TEST(StoreFile, LongHeaderRoundTripsMeta) {
  StoreMeta meta = test_meta();
  meta.scenario.clear();
  for (int i = 0; meta.scenario.size() < 10000; ++i) {
    meta.scenario += "chaos/step" + std::to_string(i) + ";";
  }
  const auto recs = random_records(200, 5, 51);
  const std::string path =
      write_store("longheader.prrstore", meta, {{5, recs}});
  for (const bool verify : {true, false}) {
    StoreReader reader;
    std::string err;
    ASSERT_TRUE(StoreReader::open(path, &reader, &err, verify)) << err;
    EXPECT_TRUE(reader.meta() == meta);
    std::vector<TraceRecord> back;
    ASSERT_TRUE(reader.read_connection(5, &back));
    expect_records_equal(recs, back);
  }
  std::remove(path.c_str());
}

TEST(StoreFile, FileChangedAfterOpenFailsReads) {
  std::vector<TraceRecord> conn3, conn7;
  const std::string path = write_test_store("changed.prrstore",
                                            &conn3, &conn7);
  const std::string body = slurp(path);
  // Truncated in place, and overwritten in place with same-length junk
  // (0xFF bytes are never a complete varint).
  for (const std::string& replacement :
       {body.substr(0, body.size() / 2), std::string(body.size(), '\xff')}) {
    spit(path, body);
    StoreReader reader;
    std::string err;
    ASSERT_TRUE(StoreReader::open(path, &reader, &err)) << err;
    spit(path, replacement);
    std::vector<TraceRecord> back;
    for (std::size_t i = 0; i < reader.blocks().size(); ++i) {
      EXPECT_FALSE(reader.read_block(i, &back)) << "block " << i;
    }
    EXPECT_FALSE(reader.read_connection(3, &back));
    EXPECT_FALSE(reader.read_connection(7, &back));
    std::vector<uint8_t> raw;
    if (replacement.size() < body.size()) {
      EXPECT_FALSE(reader.read_block_bytes(1, &raw));
    }
  }
  std::remove(path.c_str());
}

std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST(StoreFile, MovedReadersCloseTheirFileOnce) {
  std::vector<TraceRecord> conn3, conn7;
  const std::string path = write_test_store("moved.prrstore",
                                            &conn3, &conn7);
  std::string err;
  std::vector<TraceRecord> back;
  const std::size_t base = open_fds();
  int sentinel = -1;
  {
    StoreReader b;
    {
      StoreReader a;
      ASSERT_TRUE(StoreReader::open(path, &a, &err)) << err;
      EXPECT_EQ(open_fds(), base + 1);
      b = std::move(a);
      EXPECT_EQ(open_fds(), base + 1);
      // The moved-from reader is empty and still safe to query.
      EXPECT_TRUE(a.blocks().empty());
      EXPECT_EQ(a.total_records(), 0u);
      EXPECT_TRUE(a.connections().empty());
      EXPECT_TRUE(a.read_connection(3, &back));
      EXPECT_TRUE(back.empty());
    }  // a's destructor must leave b's file open
    EXPECT_EQ(open_fds(), base + 1);
    ASSERT_TRUE(b.read_connection(3, &back));
    expect_records_equal(conn3, back);

    StoreReader c(std::move(b));
    StoreReader d;
    ASSERT_TRUE(StoreReader::open(path, &d, &err)) << err;
    EXPECT_EQ(open_fds(), base + 2);
    d = std::move(c);  // closes the file d held
    EXPECT_EQ(open_fds(), base + 1);
    back.clear();
    ASSERT_TRUE(d.read_connection(7, &back));
    expect_records_equal(conn7, back);
    // Takes the number d's old file freed; no later close may hit it.
    sentinel = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    ASSERT_GE(sentinel, 0);
    // A moved-from reader can be opened again.
    ASSERT_TRUE(StoreReader::open(path, &b, &err)) << err;
    back.clear();
    ASSERT_TRUE(b.read_connection(3, &back));
    expect_records_equal(conn3, back);
  }
  EXPECT_NE(::fcntl(sentinel, F_GETFD), -1);
  ::close(sentinel);
  EXPECT_EQ(open_fds(), base);
  std::remove(path.c_str());
}

// Peak-RSS growth in bytes of `work` run in a forked child, measured from
// the footprint the child inherits; -1 if `work` failed.
long long child_peak_rss_growth(const std::function<bool()>& work) {
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    struct rusage before, after;
    ::getrusage(RUSAGE_SELF, &before);
    long long growth = -1;
    if (work()) {
      ::getrusage(RUSAGE_SELF, &after);
      growth = (after.ru_maxrss - before.ru_maxrss) * 1024LL;  // KiB
    }
    const bool sent =
        ::write(fds[1], &growth, sizeof growth) == sizeof growth;
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  long long growth = -1;
  if (pid < 0 || ::read(fds[0], &growth, sizeof growth) != sizeof growth) {
    growth = -1;
  }
  ::close(fds[0]);
  int status = 0;
  if (pid > 0) ::waitpid(pid, &status, 0);
  return growth;
}

TEST(StoreFile, QueriesRunInBoundedMemory) {
  // A store of >= 64 MiB of payload: ~1,000-record connections with
  // full-width fields (~68 encoded bytes a record), one episode each,
  // plus one connection past kMaxBlockRecords (a ~1 MiB block).
  constexpr uint64_t kPayload = 64ull << 20;
  constexpr long long kRssBound = 16ll << 20;
  const std::string path = temp_path("bounded.prrstore");
  StoreWriter writer;
  ASSERT_TRUE(writer.open(path, test_meta()));
  sim::Mt64 rng(64);
  obs::StoreEncoder enc;
  StoreShard shard;
  std::vector<TraceRecord> recs;
  int64_t t = 0;
  for (uint64_t conn = 0; writer.payload_bytes() < kPayload; ++conn) {
    recs.assign(conn == 7 ? obs::kMaxBlockRecords + 100 : 1000, {});
    for (std::size_t i = 0; i < recs.size(); ++i) {
      TraceRecord& r = recs[i];
      t += static_cast<int64_t>(rng() % 100000);
      r.at_ns = t;
      r.conn = static_cast<uint32_t>(conn);
      r.type = i == 0               ? TraceType::kEnterRecovery
               : i + 1 == recs.size() ? TraceType::kExitRecovery
               : (i % 2 == 0)         ? TraceType::kAck
                                      : TraceType::kTransmit;
      r.a = static_cast<uint8_t>(rng() % 4);
      r.b = 1430;
      for (int k = 0; k < 6; ++k) r.f[k] = rng();
    }
    shard.clear();
    enc.encode(recs.data(), recs.size(), conn, obs::kBlockSampled, &shard);
    ASSERT_TRUE(writer.append_shard(shard));
  }
  ASSERT_TRUE(writer.finish());
  ASSERT_GE(writer.payload_bytes(), kPayload);
  const uint64_t conns = writer.connections();
  const uint64_t records = writer.records();
  recs = {};
  shard = {};

  const long long growth = child_peak_rss_growth([&] {
    StoreReader reader;
    std::string err;
    if (!StoreReader::open(path, &reader, &err)) return false;
    obs::EpisodeTable table;
    if (!obs::episodes_from_store(reader, obs::QueryFilter{}, &table,
                                  &err) ||
        table.total() != conns) {
      return false;
    }
    obs::AggregateQuery q;
    q.group = obs::GroupKey::kConn;
    obs::AggregateResult agg;
    if (!obs::run_aggregate(reader, q, &agg, &err)) return false;
    uint64_t seen = 0;
    for (const auto& row : agg.rows) seen += row.count;
    return seen == records;
  });
  std::remove(path.c_str());
  ASSERT_GE(growth, 0) << "open or a query failed in the child";
  EXPECT_LT(growth, kRssBound)
      << "peak RSS grew " << (growth >> 20) << " MiB over a "
      << (writer.payload_bytes() >> 20) << " MiB store";
}

TEST(CapturePolicy, ParseAcceptsGrammar) {
  obs::CapturePolicy p;
  std::string err;
  EXPECT_TRUE(obs::CapturePolicy::parse("all", &p, &err));
  EXPECT_TRUE(p.keeps_anything());
  EXPECT_TRUE(obs::CapturePolicy::parse("none", &p, &err));
  EXPECT_FALSE(p.keeps_anything());
  EXPECT_TRUE(obs::CapturePolicy::parse("sample=64,full=timeout", &p, &err));
  EXPECT_TRUE(p.keeps_anything());
  EXPECT_FALSE(p.needs_rto_interrupt());
  EXPECT_TRUE(obs::CapturePolicy::parse(
      "full=timeout|rto_interrupt|undo|invariant|abort", &p, &err));
  EXPECT_TRUE(p.needs_rto_interrupt());
  EXPECT_TRUE(obs::CapturePolicy::parse("recovery_ms>=12.5,retx>=3", &p,
                                        &err));
  EXPECT_TRUE(p.keeps_anything());
}

TEST(CapturePolicy, ParseRejectsGarbage) {
  obs::CapturePolicy p;
  std::string err;
  for (const char* bad :
       {"", "sample=0", "sample=", "sample=x", "full=", "full=bogus",
        "recovery_ms>=", "recovery_ms>=-1", "retx>=x", "wat", "all;none"}) {
    err.clear();
    EXPECT_FALSE(obs::CapturePolicy::parse(bad, &p, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(CapturePolicy, TriggersWinOverSampling) {
  obs::CapturePolicy p;
  std::string err;
  ASSERT_TRUE(obs::CapturePolicy::parse("sample=64,full=timeout", &p, &err));
  obs::CaptureStats s;
  s.conn = 12345;
  s.timeouts = 1;
  obs::CaptureDecision d = p.evaluate(s);
  EXPECT_TRUE(d.keep);
  EXPECT_TRUE(d.full);
  s.timeouts = 0;
  d = p.evaluate(s);
  EXPECT_EQ(d.keep, obs::capture_sampled(12345, 64));
  if (d.keep) {
    EXPECT_FALSE(d.full);
  }
}

TEST(CapturePolicy, SampleRateIsRoughlyOneInN) {
  int kept = 0;
  for (uint64_t id = 0; id < 64000; ++id) {
    if (obs::capture_sampled(id, 64)) ++kept;
  }
  EXPECT_GT(kept, 700);   // ~1000 expected
  EXPECT_LT(kept, 1300);
  for (uint64_t id = 0; id < 100; ++id) {
    EXPECT_TRUE(obs::capture_sampled(id, 1));
  }
  EXPECT_FALSE(obs::capture_sampled(7, 0));
}

TEST(CriticalPath, SyntheticAttribution) {
  using sim::Time;
  const uint32_t conn = 5;
  std::vector<TraceRecord> recs;
  // enter: mss=1000 (b), f={flight, ssthresh, pipe, prior_cwnd, rp}
  recs.push_back(obs::make_record(Time::milliseconds(0), conn,
                                  TraceType::kEnterRecovery, 0, 1000,
                                  10000, 5000, 8000, 10000, 20000));
  // 1ms gap with pipe(8000) >= cwnd-proxy(5000): send-window limited.
  recs.push_back(obs::make_record(Time::milliseconds(1), conn,
                                  TraceType::kAck, 0, 0,
                                  1000, 5000, 3000, 5000, 1000, 9000));
  // 1ms gap, headroom 2000 >= mss, nothing just sent: app limited.
  recs.push_back(obs::make_record(Time::milliseconds(2), conn,
                                  TraceType::kTransmit, 1, 0,
                                  9000, 1000, 5000, 10000));
  // 1ms gap following a transmit: waiting for the ACK.
  recs.push_back(obs::make_record(Time::milliseconds(3), conn,
                                  TraceType::kAck, 0, 0,
                                  2000, 5000, 3000, 5000, 1000, 10000));
  // 2ms gap ending in an RTO: rto_wait; the RTO also ends the episode.
  recs.push_back(obs::make_record(Time::milliseconds(5), conn,
                                  TraceType::kRtoFired, 0, 0,
                                  2000, 10000, 5000, 0, 200000000, 0));
  // Post-episode gap must not be attributed.
  recs.push_back(obs::make_record(Time::milliseconds(50), conn,
                                  TraceType::kAck, 0, 0,
                                  3000, 5000, 0, 5000, 1000, 10000));

  const obs::CriticalPathReport rep =
      obs::attribute_critical_path(recs.data(), recs.size());
  EXPECT_EQ(rep.conn, conn);
  EXPECT_EQ(rep.episodes, 1u);
  EXPECT_EQ(rep.send_window_ns, Time::milliseconds(1).ns());
  EXPECT_EQ(rep.app_limited_ns, Time::milliseconds(1).ns());
  EXPECT_EQ(rep.waiting_for_ack_ns, Time::milliseconds(1).ns());
  EXPECT_EQ(rep.rto_wait_ns, Time::milliseconds(2).ns());
  EXPECT_EQ(rep.total_ns, Time::milliseconds(5).ns());
  EXPECT_EQ(rep.total_ns,
            rep.send_window_ns + rep.app_limited_ns +
                rep.waiting_for_ack_ns + rep.rto_wait_ns);
}

// --- live differentials ----------------------------------------------

exp::RunOptions store_opts(const std::string& store_name) {
  exp::RunOptions opts;
  opts.connections = 120;
  opts.seed = 20110501;
  opts.threads = 1;
  opts.trace_ring_records = 1u << 16;  // no wrap for these short conns
  opts.store_path = temp_path(store_name);
  opts.capture = "all";
  return opts;
}

TEST(StoreLive, RecordsMatchTraceConnection) {
  if (!obs::trace_compiled_in()) {
    GTEST_SKIP() << "tracing compiled out (PRR_TRACING=OFF)";
  }
  workload::WebWorkload pop;
  const exp::ArmConfig arm = exp::ArmConfig::prr_arm();
  exp::RunOptions opts = store_opts("live_diff.prrstore");
  exp::run_arm(pop, arm, opts);

  const std::string path =
      obs::store_path_for_arm(opts.store_path, arm.name);
  StoreReader reader;
  std::string err;
  ASSERT_TRUE(StoreReader::open(path, &reader, &err)) << err;
  EXPECT_EQ(reader.meta().seed, opts.seed);
  EXPECT_EQ(reader.meta().arm, arm.name);
  EXPECT_EQ(reader.meta().policy, "all");
  const auto conns = reader.connections();
  ASSERT_EQ(conns.size(), 120u);  // capture=all keeps every connection

  // Spot-check several connections against the live listener capture.
  for (uint64_t id : {conns[0], conns[17], conns[63], conns.back()}) {
    std::vector<TraceRecord> stored;
    ASSERT_TRUE(reader.read_connection(id, &stored));
    const exp::TracedConnection live =
        exp::trace_connection(pop, arm, opts, id);
    expect_records_equal(live.records, stored);
  }
  std::remove(path.c_str());
}

TEST(StoreLive, EpisodesFromStoreReconcile) {
  if (!obs::trace_compiled_in()) {
    GTEST_SKIP() << "tracing compiled out (PRR_TRACING=OFF)";
  }
  workload::WebWorkload pop;
  const exp::ArmConfig arm = exp::ArmConfig::prr_arm();
  exp::RunOptions opts = store_opts("episodes.prrstore");
  opts.collect_episodes = true;
  const exp::ArmResult live = exp::run_arm(pop, arm, opts);

  const std::string path =
      obs::store_path_for_arm(opts.store_path, arm.name);
  StoreReader reader;
  std::string err;
  ASSERT_TRUE(StoreReader::open(path, &reader, &err)) << err;
  obs::EpisodeTable from_store;
  ASSERT_TRUE(obs::episodes_from_store(reader, obs::QueryFilter{},
                                       &from_store, &err))
      << err;
  // Field-exact reconciliation: same table JSON, same stream counters.
  EXPECT_EQ(from_store.to_json(), live.episodes.to_json());
  EXPECT_EQ(from_store.stream().retransmits_total,
            live.metrics.retransmits_total);
  EXPECT_EQ(from_store.stream().timeouts_total, live.metrics.timeouts_total);
  EXPECT_EQ(from_store.stream().undo_events, live.metrics.undo_events);
  EXPECT_EQ(from_store.total(), live.metrics.fast_recovery_events);
  std::remove(path.c_str());
}

TEST(StoreLive, MergeOfRangeShardsIsByteIdentical) {
  workload::WebWorkload pop;
  const exp::ArmConfig arm = exp::ArmConfig::prr_arm();
  exp::RunOptions opts = store_opts("full.prrstore");
  opts.capture = "sample=4,full=timeout";
  exp::run_arm(pop, arm, opts);
  const std::string full_path =
      obs::store_path_for_arm(opts.store_path, arm.name);

  // Same population as two disjoint id ranges (the fork-per-shard
  // protocol), merged by connection id.
  exp::RunOptions lo = opts;
  lo.connections = 50;
  lo.store_path = temp_path("lo.prrstore");
  exp::RunOptions hi = opts;
  hi.first_connection = 50;
  hi.connections = 70;
  hi.store_path = temp_path("hi.prrstore");
  exp::run_arm(pop, arm, lo);
  exp::run_arm(pop, arm, hi);

  const std::string merged = temp_path("merged.prrstore");
  std::string err;
  ASSERT_TRUE(obs::merge_store_files(
      {obs::store_path_for_arm(lo.store_path, arm.name),
       obs::store_path_for_arm(hi.store_path, arm.name)},
      merged, &err))
      << err;
  EXPECT_EQ(slurp(merged), slurp(full_path));

  // Meta mismatch (different seed) must be refused.
  exp::RunOptions other = lo;
  other.seed = 1;
  other.store_path = temp_path("other.prrstore");
  exp::run_arm(pop, arm, other);
  EXPECT_FALSE(obs::merge_store_files(
      {obs::store_path_for_arm(lo.store_path, arm.name),
       obs::store_path_for_arm(other.store_path, arm.name)},
      temp_path("bad_merge.prrstore"), &err));

  for (const std::string& p :
       {full_path, obs::store_path_for_arm(lo.store_path, arm.name),
        obs::store_path_for_arm(hi.store_path, arm.name),
        obs::store_path_for_arm(other.store_path, arm.name), merged}) {
    std::remove(p.c_str());
  }
}

TEST(StoreLive, AggregateAndSeriesQueries) {
  if (!obs::trace_compiled_in()) {
    GTEST_SKIP() << "tracing compiled out (PRR_TRACING=OFF)";
  }
  workload::WebWorkload pop;
  const exp::ArmConfig arm = exp::ArmConfig::prr_arm();
  exp::RunOptions opts = store_opts("query.prrstore");
  const exp::ArmResult live = exp::run_arm(pop, arm, opts);

  const std::string path =
      obs::store_path_for_arm(opts.store_path, arm.name);
  StoreReader reader;
  std::string err;
  ASSERT_TRUE(StoreReader::open(path, &reader, &err)) << err;

  // Count of kTransmit records with a=1 is not directly a metric, but
  // total transmit records grouped by type must cover every record.
  obs::AggregateQuery q;
  q.group = obs::GroupKey::kType;
  obs::AggregateResult agg;
  ASSERT_TRUE(obs::run_aggregate(reader, q, &agg, &err)) << err;
  uint64_t total = 0;
  for (const auto& row : agg.rows) total += row.count;
  EXPECT_EQ(total, reader.total_records());

  // A cwnd time-series from kAck records of the first connection.
  obs::QueryField cwnd_field;
  ASSERT_TRUE(obs::parse_field(TraceType::kAck, "cwnd", &cwnd_field, &err));
  std::vector<obs::SeriesPoint> series;
  ASSERT_TRUE(obs::extract_series(reader, reader.connections()[0],
                                  TraceType::kAck, cwnd_field, &series,
                                  &err));
  ASSERT_FALSE(series.empty());
  int64_t prev = series[0].at_ns;
  for (const auto& pt : series) {
    EXPECT_GE(pt.at_ns, prev);  // stream order
    prev = pt.at_ns;
    EXPECT_GT(pt.value, 0u);  // cwnd is never zero
  }

  // Critical-path buckets must sum exactly to total recovery time.
  obs::CriticalPathReport sum;
  for (uint64_t conn : reader.connections()) {
    obs::CriticalPathReport rep;
    ASSERT_TRUE(obs::critical_path(reader, conn, &rep, &err)) << err;
    EXPECT_EQ(rep.total_ns,
              rep.waiting_for_ack_ns + rep.rto_wait_ns +
                  rep.app_limited_ns + rep.send_window_ns);
    sum.merge(rep);
  }
  EXPECT_EQ(sum.episodes, live.metrics.fast_recovery_events);
  std::remove(path.c_str());
}

TEST(StoreLive, BadCaptureSpecThrowsBeforeRunning) {
  workload::WebWorkload pop;
  exp::RunOptions opts = store_opts("never_written.prrstore");
  opts.capture = "sample=zero";
  EXPECT_THROW(exp::run_arm(pop, exp::ArmConfig::prr_arm(), opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace prr
