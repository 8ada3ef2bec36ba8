// Sender-side SACK scoreboard: one record per transmitted segment between
// snd.una and snd.nxt, with the loss/retransmit state machinery of
// RFC 2018/3517/6675 plus the Linux extras the paper's baseline uses:
//   - FACK loss marking (threshold retransmission; holes below the
//     forward-most SACK are lost once in recovery),
//   - lost-retransmission detection (a retransmission is deemed lost when
//     data sent after it is SACKed),
//   - reordering detection (a segment presumed lost but never
//     retransmitted is later ACKed/SACKed), which feeds the dynamic
//     dupthresh and disables FACK.
// The scoreboard also computes pipe (RFC 3517 SetPipe) and DeliveredData,
// the per-ACK quantity PRR is built on.
//
// Accounting is incremental: running byte/segment tallies are updated at
// the points records change state, so pipe(), total_sacked_bytes(),
// sacked_segment_count(), lost_segment_count() and any_sacked() are O(1)
// per call instead of O(window) scans.
//
// The per-ACK walks touch only what the ACK changed, in the manner of
// Linux's tcp_sacktag_walk and its lost/retransmit skb hints: each SACK
// block binary-searches its first record in the start-sorted records_
// ring; lost-retransmit detection reads a queue of in-flight
// retransmissions ordered by marker; next_retransmit_candidate() and
// update_loss_marks() resume from hints (see the members below). Cost is
// O(records changed + log window) per ACK.
//
// A randomized differential test (test_scoreboard_differential.cc)
// checks every tally against a brute-force recomputation, and every
// decision (record flags, AckOutcome, loss marks, candidate queries)
// against a linear-walk reference scoreboard, after each operation.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/segment.h"
#include "sim/time.h"
#include "util/ring_queue.h"

namespace prr::tcp {

struct SegRecord {
  uint64_t start = 0;
  uint64_t end = 0;  // half-open
  bool sacked = false;
  bool lost = false;
  // True while the most recent retransmission of this record may still be
  // in the network (cleared when that retransmission is deemed lost).
  bool retransmitted = false;
  bool ever_retransmitted = false;
  // Last retransmit was sent during fast recovery (for the lost-fast-
  // retransmit statistic of Tables 8/10).
  bool last_retx_was_fast = false;
  int retrans_count = 0;
  // snd.nxt at the moment of the last retransmission: if data above this
  // gets SACKed while this record remains unSACKed, the retransmission
  // itself was lost.
  uint64_t retrans_marker = 0;
  sim::Time first_tx_time;
  sim::Time last_tx_time;

  uint64_t len() const { return end - start; }
};

struct AckOutcome {
  uint64_t newly_acked_bytes = 0;   // cumulative-ACK advance
  uint64_t newly_sacked_bytes = 0;  // newly SACKed above snd.una
  bool una_advanced = false;
  bool saw_dsack = false;
  std::optional<net::SackBlock> dsack_block;
  int lost_retransmits_detected = 0;
  int lost_fast_retransmits_detected = 0;
  // Largest reordering distance (in segments) observed on this ACK; 0 if
  // no reordering evidence.
  int reorder_distance_segs = 0;
  // Valid RTT sample per Karn's rule (never-retransmitted data only).
  std::optional<sim::Time> rtt_sample;
  // Last (re)transmission time of the newest cumulatively-ACKed record
  // that had been retransmitted — the reference point for Eifel
  // detection (RFC 3522): an echoed timestamp older than this proves the
  // ACK came from the original transmission.
  std::optional<sim::Time> acked_rexmit_tx_time;

  // DeliveredData as PRR defines it: delta(snd.una) + delta(SACKed).
  uint64_t delivered_bytes() const {
    return newly_acked_bytes + newly_sacked_bytes;
  }
};

class Scoreboard {
 public:
  explicit Scoreboard(uint32_t mss) : mss_(mss) {}

  void reset(uint64_t snd_una);
  // Pool-recycle variant: also adopts a new MSS (the next connection's
  // config may differ). Record/ring capacity is kept.
  void reset(uint64_t snd_una, uint32_t mss) {
    mss_ = mss;
    reset(snd_una);
  }

  // Records a (re)transmission covering [start, end).
  void on_transmit(uint64_t start, uint64_t end, sim::Time now);
  // Marks an existing record as retransmitted. `snd_nxt` stamps the
  // lost-retransmit detection marker; `fast` tags fast vs RTO retransmits.
  void on_retransmit(uint64_t start, sim::Time now, uint64_t snd_nxt,
                     bool fast);

  // Processes an incoming ACK: advances snd.una, applies SACK blocks,
  // detects reordering and lost retransmissions.
  AckOutcome on_ack(const net::Segment& ack, sim::Time now,
                    bool detect_lost_retransmits);

  // Applies loss-marking rules; returns segments newly marked lost.
  // `in_recovery` enables the aggressive FACK rule (all holes below the
  // forward-most SACK are lost).
  int update_loss_marks(int dupthresh, bool use_fack, bool in_recovery);

  // Marks every non-SACKed record lost and forgets in-flight
  // retransmissions (RTO: everything is slated for retransmit).
  void on_timeout_mark_all_lost();

  // RFC 2018 §8 reneging recovery: discard every SACK mark so the data
  // becomes retransmittable again. Called before on_timeout_mark_all_lost
  // when the sender decides the receiver's SACK state can no longer be
  // trusted (the head of the window is SACKed yet snd.una never advanced
  // over it — impossible with an honest receiver). Returns bytes forgotten.
  uint64_t forget_sack_marks();

  // True when the record at snd.una is SACKed — with an honest receiver a
  // SACK covering rcv_nxt is impossible (it would have been cum-ACKed),
  // so this is the reneging/false-SACK wedge signal (Linux
  // tcp_check_sack_reneging checks exactly the head skb).
  bool head_sacked() const {
    return !records_.empty() && records_.front().sacked;
  }

  // Forces the first hole lost (early-retransmit entry, where the dupack
  // threshold was lowered below what the marking rules require).
  void mark_first_hole_lost();

  // F-RTO undo: a timeout proved spurious, so loss marks on segments that
  // were never retransmitted are reverted (the originals are in flight).
  void clear_unretransmitted_loss_marks();

  // RFC 3517 SetPipe over the scoreboard, in bytes. O(1): maintained
  // incrementally as (outstanding - sacked - lost) + retransmitted.
  uint64_t pipe() const {
    return (total_bytes_ - sacked_bytes_ - lost_bytes_) +
           retransmitted_in_flight_bytes_;
  }

  // Would the RFC 6675 / FACK entry condition fire (is the first
  // outstanding segment reconstructible as lost)?
  bool first_hole_lost() const;

  // Next record to retransmit: lowest lost && !retransmitted. nullptr if
  // none.
  const SegRecord* next_retransmit_candidate() const;

  // Highest-sequence record not yet SACKed (the tail-loss-probe target).
  const SegRecord* last_unsacked() const;

  bool has_records() const { return !records_.empty(); }
  bool any_sacked() const { return sacked_segs_ > 0; }
  bool all_acked_up_to(uint64_t seq) const { return snd_una_ >= seq; }
  uint64_t snd_una() const { return snd_una_; }
  uint64_t highest_sacked_end() const { return highest_sacked_end_; }
  uint64_t total_sacked_bytes() const { return sacked_bytes_; }
  // Number of SACKed segments at/above snd.una — the FACK "fackets out".
  int sacked_segment_count() const { return sacked_segs_; }
  // Segments marked lost and not (yet) SACKed.
  int lost_segment_count() const { return lost_segs_; }
  const util::RingQueue<SegRecord>& records() const { return records_; }

 private:
  SegRecord* find(uint64_t start);

  // All record state changes funnel through these so the running tallies
  // stay consistent (each is idempotent in the flag it sets/clears).
  void set_sacked(SegRecord& r);
  void clear_sacked(SegRecord& r);
  void set_lost(SegRecord& r);
  void clear_lost(SegRecord& r);
  void set_retransmitted(SegRecord& r);
  void clear_retransmitted(SegRecord& r);
  void account_remove(const SegRecord& r);

  using RecordIter = util::RingQueue<SegRecord>::iterator;
  // Steps past SACKed record `it` in a block walk: to the first record
  // ending past the cached block wholly containing `it`, or by one if
  // no cached block does.
  RecordIter skip_sacked(RecordIter it);

  // An in-flight retransmission: the record's start and its marker.
  struct RetxEntry {
    uint64_t start = 0;
    uint64_t marker = 0;
  };
  void queue_retransmission(const SegRecord& r);
  // The record `e` names if that retransmission is still in flight
  // (retransmitted, unSACKed, same marker); nullptr if `e` is stale.
  SegRecord* live_retransmission(const RetxEntry& e);
  // Widens [retransmit_hint_, retransmit_ceiling_) to cover a record
  // that may have just become a retransmit candidate.
  void note_candidate(uint64_t start) {
    if (retransmit_hint_ >= retransmit_ceiling_) {
      retransmit_hint_ = start;
      retransmit_ceiling_ = start + 1;
    } else {
      retransmit_hint_ = std::min(retransmit_hint_, start);
      retransmit_ceiling_ = std::max(retransmit_ceiling_, start + 1);
    }
  }
  void lower_loss_frontier(uint64_t seq) {
    loss_frontier_ = std::min(loss_frontier_, seq);
  }

  uint32_t mss_;
  uint64_t snd_una_ = 0;
  uint64_t highest_sacked_end_ = 0;
  // Start-sorted, non-overlapping in-flight records. A ring (not a
  // deque) so the steady-state transmit/ack cycle — push at the tail,
  // pop at the head — recycles slots instead of churning deque blocks.
  util::RingQueue<SegRecord> records_;

  // Incremental tallies over records_. lost/retransmitted figures count
  // only non-SACKed records (the states pipe() distinguishes); a SACKed
  // record's stale lost/retransmitted flags are excluded on the spot.
  uint64_t total_bytes_ = 0;   // sum of len() over records_
  uint64_t sacked_bytes_ = 0;  // sacked
  uint64_t lost_bytes_ = 0;    // lost && !sacked
  uint64_t retransmitted_in_flight_bytes_ = 0;  // retransmitted && !sacked
  int sacked_segs_ = 0;
  int lost_segs_ = 0;

  // Hints that let per-ACK queries skip records whose state they already
  // know. Each may err toward visiting more records, never fewer; see
  // DESIGN.md §6 "Hints".
  //   [retransmit_hint_, retransmit_ceiling_): every retransmit
  //     candidate (lost && !sacked && !retransmitted) starts in it.
  //     Widened by the helpers that can create a candidate; the lookup
  //     raises the hint to the candidate it returns, or to the ceiling
  //     when there is none.
  //   loss_frontier_: every unSACKed record starting below it is lost.
  //     Lowered by the helpers that can create an unSACKed, unlost
  //     record; raised by update_loss_marks.
  //   retx_queue_: one entry per in-flight retransmission (every
  //     retransmitted, unSACKed record with a nonzero marker), sorted by
  //     marker, plus stale entries that are dropped when they reach the
  //     front.
  //   sack_cache_: the previous ACK's SACK blocks (clipped to the tail
  //     then). Every record wholly inside one is SACKed; clear_sacked
  //     and reset empty it.
  mutable uint64_t retransmit_hint_ = 0;
  uint64_t retransmit_ceiling_ = 0;
  uint64_t loss_frontier_ = 0;
  util::RingQueue<RetxEntry> retx_queue_;
  std::array<net::SackBlock, 4> sack_cache_{};
  std::size_t sack_cache_len_ = 0;
};

}  // namespace prr::tcp
