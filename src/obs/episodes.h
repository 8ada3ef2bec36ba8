// Recovery-episode analytics (DESIGN.md §9): folds a connection's
// TraceRecord stream into first-class RecoveryEpisode objects — the unit
// the paper's entire evaluation (Tables 3–7) is phrased in. An episode
// runs from kEnterRecovery to whichever of kExitRecovery / in-recovery
// kUndo / kRtoFired closes it, carrying the trigger path, a per-ACK
// ledger of DeliveredData/sndcnt/pipe/ssthresh, the exit window state,
// and the first few post-recovery cwnd samples.
//
// Layering: like the rest of obs/, this sits below tcp/ and net/ — it
// sees only TraceRecords, never the Sender. There is one derivation: the
// sender feeds the same records it writes to its ring into an
// EpisodeBuilder that folds each row into the arm's EpisodeTable as the
// episode closes, and the trace store rebuilds its tables by replaying
// stored records through the same builder. Live and stored tables
// therefore agree by construction.
//
// Aggregation: each worker shard folds its connections into a private
// EpisodeTable; shards merge in connection-id order, so rows, counters
// and log2 histograms are byte-identical to a serial run at any thread
// count — the same determinism contract as ArmResult itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/trace_record.h"
#include "util/quantiles.h"

namespace prr::obs {

// How an episode ended. kTruncated = the stream ended (end of run or of
// the captured tail) with recovery still in progress; such episodes are
// counted in total() but excluded from count() and every per-episode
// view of the table.
enum class EpisodeExit : uint8_t {
  kCompleted,       // snd.una reached the recovery point (kExitRecovery)
  kUndo,            // DSACK/Eifel undo reverted the episode (kUndo a=0)
  kRtoInterrupted,  // the retransmission timer fired mid-recovery
  kTruncated,       // stream ended mid-episode
};

const char* to_string(EpisodeExit e);

// One row of an episode table: everything Tables 3/5/6/7 need, plus the
// sndcnt/DeliveredData accounting, in a compact trivially-copyable form.
// A row is final when its episode closes.
struct EpisodeSummary {
  uint32_t conn = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Window quantities in bytes at the named instants.
  uint64_t pipe_at_start = 0;
  uint64_t ssthresh = 0;       // the reduced target chosen at entry
  uint64_t cwnd_at_start = 0;  // prior cwnd, before the reduction
  uint64_t cwnd_at_exit = 0;   // just prior to the exit adjustment
  uint64_t cwnd_after_exit = 0;
  uint64_t pipe_at_exit = 0;
  uint64_t flight_at_start = 0;  // RecoverFS
  uint64_t recovery_point = 0;
  uint32_t mss = 1;
  EpisodeExit exit = EpisodeExit::kTruncated;
  bool via_early_retransmit = false;
  bool slow_start_after = false;  // exited with cwnd < ssthresh
  // Per-ACK ledger totals (full rows live on RecoveryEpisode::ledger).
  uint64_t acks = 0;
  uint64_t delivered_bytes = 0;  // sum of DeliveredData over the episode
  uint64_t sndcnt_bytes = 0;     // sum of per-ACK send allowances
  uint64_t retransmits = 0;      // segments retransmitted in-episode
  uint64_t bytes_sent_during = 0;
  uint64_t max_burst_segments = 0;  // largest single-ACK send burst
  uint64_t sacks_seen = 0;
  uint64_t dsacks_seen = 0;

  bool finished() const { return exit != EpisodeExit::kTruncated; }
  // snd.una reached the recovery point, or an undo ended the episode.
  bool completed() const {
    return exit == EpisodeExit::kCompleted || exit == EpisodeExit::kUndo;
  }
  bool interrupted_by_timeout() const {
    return exit == EpisodeExit::kRtoInterrupted;
  }
  sim::Time start() const { return sim::Time::nanoseconds(start_ns); }
  sim::Time end() const { return sim::Time::nanoseconds(end_ns); }
  sim::Time duration() const { return end() - start(); }
  // Segment-denominated views (paper tables are in segments).
  double pipe_minus_ssthresh_segs() const {
    return (static_cast<double>(pipe_at_start) -
            static_cast<double>(ssthresh)) / mss;
  }
  double cwnd_minus_ssthresh_at_exit_segs() const {
    return (static_cast<double>(cwnd_at_exit) -
            static_cast<double>(ssthresh)) / mss;
  }
  double cwnd_after_exit_segs() const {
    return static_cast<double>(cwnd_after_exit) / mss;
  }
};

// One ledger entry: the sender's decision state after one ACK processed
// during the episode. sndcnt is the window headroom the regulation left
// after this ACK (cwnd - pipe, floored at 0) — what PRR calls sndcnt.
struct EpisodeAck {
  int64_t at_ns = 0;
  uint64_t ack = 0;
  uint64_t cwnd = 0;
  uint64_t pipe = 0;
  uint64_t ssthresh = 0;
  uint64_t delivered = 0;  // DeliveredData for this ACK
  uint64_t sndcnt = 0;
  // PRR internals when the PRR policy annotated this ACK (kPrr record).
  bool prr_valid = false;
  bool prr_proportional = false;
  uint64_t prr_delivered = 0;
  uint64_t prr_out = 0;
  uint64_t recover_fs = 0;
};

// A fully materialized episode: the summary row plus (when the builder
// keeps ledgers) the per-ACK decision trail and the post-recovery cwnd
// trajectory.
struct RecoveryEpisode {
  static constexpr int kPostTrajectory = 8;

  EpisodeSummary summary;
  std::vector<EpisodeAck> ledger;  // empty unless Options::keep_ledgers
  // cwnd (bytes) at the first post-recovery ACKs — the convergence
  // trajectory Table 7 summarizes the first point of.
  uint64_t post_cwnd[kPostTrajectory] = {};
  uint8_t post_cwnd_count = 0;
};

// Multi-line human-readable dump (episode header, ledger lines, exit and
// post-recovery trajectory) for `prr episodes --conn` and quarantine
// forensics.
std::string describe(const RecoveryEpisode& e);
// One-line form of just the summary row.
std::string describe(const EpisodeSummary& s);

class EpisodeTable;

// Folds one connection's record stream (oldest first) into episodes.
// Feed every record to on_record(); call finish() at stream end to close
// an in-progress episode as kTruncated. The builder also accumulates the
// stream-level counters Table 3 consumes (retransmits, DSACKs, undo and
// lost-retransmit events), which are not per-episode quantities.
//
// Two modes. By default episodes collect in episodes() (with ledgers and
// post-recovery trajectories on request) for EpisodeTable::fold(builder).
// With a table attached (set_table), each row is folded into the table
// the moment its episode closes and the stream counters are counted
// straight into it; episodes() stays empty and nothing allocates per
// record. The sender runs a builder in that mode.
class EpisodeBuilder {
 public:
  struct Options {
    bool keep_ledgers = false;  // store per-ACK rows on each episode
  };

  // Stream-level counters: exact mirrors of the tcp::Metrics fields of
  // the same name, derived purely from trace records.
  struct StreamCounts {
    uint64_t data_segments_sent = 0;
    uint64_t retransmits_total = 0;
    uint64_t fast_retransmits = 0;  // retransmits inside episodes
    uint64_t dsacks_received = 0;
    uint64_t undo_events = 0;
    uint64_t lost_retransmits_detected = 0;
    uint64_t lost_fast_retransmits = 0;
    uint64_t timeouts_total = 0;

    void merge(const StreamCounts& o);
  };

  EpisodeBuilder() = default;
  explicit EpisodeBuilder(Options opts) : opts_(opts) {}

  void on_record(const TraceRecord& r);
  void finish();

  // Whether a table-mode builder reads a record of `type` whose `a`
  // field is `a`, written while an episode is open or not. kPrr only
  // annotates ledgers, and outside an episode only the stream counters
  // move. A producer whose one sink is such a builder builds no other
  // record.
  static constexpr bool table_reads(TraceType type, uint8_t a,
                                    bool in_episode) {
    switch (type) {
      case TraceType::kTransmit:
      case TraceType::kLostRetransmit:
      case TraceType::kEnterRecovery:
      case TraceType::kExitRecovery:
      case TraceType::kUndo:
      case TraceType::kRtoFired:
        return true;
      case TraceType::kSackSeen:  // a DSACK also counts on the stream
        return in_episode || a != 0;
      case TraceType::kAck:
        return in_episode;
      default:
        return false;
    }
  }

  // Attaches (or, with nullptr, detaches) the table rows are folded
  // into. Switch only between streams (after reset()).
  void set_table(EpisodeTable* table);
  EpisodeTable* table() const { return table_; }

  const std::vector<RecoveryEpisode>& episodes() const { return episodes_; }
  // Empty in table mode: the table holds the counts.
  const StreamCounts& stream() const { return stream_; }
  bool in_episode() const { return in_episode_; }

  // Resets to a fresh stream (episodes, counters, in-progress state).
  void reset();

 private:
  void begin(const TraceRecord& r);
  void close(EpisodeExit exit, int64_t end_ns);
  StreamCounts& counts();  // stream_, or the table's counters

  Options opts_;
  EpisodeTable* table_ = nullptr;
  std::vector<RecoveryEpisode> episodes_;
  StreamCounts stream_;
  RecoveryEpisode current_;
  bool in_episode_ = false;
  // Post-recovery trajectory capture target (last finished episode).
  bool capture_post_ = false;
};

// Per-arm aggregation of episode rows: deterministic merge across worker
// shards (rows append in connection-id order; counters sum; histograms
// bucket-sum), the sample accessors the paper tables read, and
// log2-histogram percentiles for the JSON/CLI summaries.
//
// Like stats::LatencyTracker, the table has an unbounded mode (every row
// kept, exact quantiles) and a bounded mode for streaming sweeps (rows
// dropped, O(1) memory per arm). The counts, fractions, byte sums and
// histograms are maintained by fold() in both modes, so they read the
// same either way; only rows() and the Samples views need the rows.
class EpisodeTable {
 public:
  // Adds one closed episode's row. Rows arrive in emission order.
  void fold(const EpisodeSummary& row);
  // Adds every episode the builder collected, plus its stream counters.
  // Called in connection order within a shard.
  void fold(const EpisodeBuilder& b);
  void merge(const EpisodeTable& other);

  // Switches to bounded storage. Only valid before the first fold().
  void set_bounded(bool bounded) { bounded_ = bounded; }
  bool bounded() const { return bounded_; }

  // Every row, truncated ones included; empty in bounded mode.
  const std::vector<EpisodeSummary>& rows() const { return rows_; }
  const EpisodeBuilder::StreamCounts& stream() const { return stream_; }

  // Counts. total() includes truncated episodes and equals the
  // tcp::Metrics fast_recovery_events counter; count() is the finished
  // episodes, the population of every view below.
  std::size_t total() const { return total_; }
  std::size_t count() const { return finished_; }
  std::size_t truncated() const { return total_ - finished_; }

  // Table 5: fraction of episodes starting in each PRR mode.
  double fraction_start_below_ssthresh() const;  // pipe < ssthresh
  double fraction_start_equal_ssthresh() const;
  double fraction_start_above_ssthresh() const;  // pipe > ssthresh
  double fraction_slow_start_after() const;  // Table 10 row
  double fraction_with_timeout() const;
  // All data sent while in recovery, summed over finished episodes.
  uint64_t bytes_sent_during() const { return bytes_sent_during_; }

  // Exact-sample views over finished rows; empty in bounded mode (use
  // the histograms).
  util::Samples pipe_minus_ssthresh_segs() const;       // Table 5
  util::Samples cwnd_minus_ssthresh_exit_segs() const;  // Table 6
  util::Samples cwnd_after_exit_segs() const;           // Table 7
  util::Samples recovery_time_ms() const;               // Fig 5
  util::Samples burst_sizes() const;

  // Log2 summaries over finished rows (built incrementally; percentiles
  // via LogHistogram::quantile interpolation).
  const LogHistogram& duration_us() const { return duration_us_; }
  const LogHistogram& retransmits_per_episode() const { return retx_; }
  const LogHistogram& acks_per_episode() const { return acks_; }
  const LogHistogram& sndcnt_per_episode() const { return sndcnt_; }

  // {"episodes":N,...,"histograms":{...p50/p95/p99...}} — byte-stable.
  std::string to_json() const;
  // Human-readable per-arm summary block for `prr episodes`.
  std::string summary_string() const;

 private:
  friend class EpisodeBuilder;  // counts stream records into stream_

  std::vector<EpisodeSummary> rows_;
  EpisodeBuilder::StreamCounts stream_;
  bool bounded_ = false;
  uint64_t total_ = 0;
  uint64_t finished_ = 0;
  // Finished rows by exit kind.
  uint64_t completed_exits_ = 0;
  uint64_t undo_exits_ = 0;
  uint64_t rto_exits_ = 0;
  // Table 5 start classes, in whole segments.
  uint64_t below_ = 0;
  uint64_t equal_ = 0;
  uint64_t above_ = 0;
  uint64_t slow_start_after_ = 0;  // among completed() rows
  uint64_t bytes_sent_during_ = 0;
  LogHistogram duration_us_;
  LogHistogram retx_;
  LogHistogram acks_;
  LogHistogram sndcnt_;
};

}  // namespace prr::obs
