// Randomized differential tests for the scoreboard.
//
// Tallies: drive a scoreboard through random transmit / SACK /
// cumulative-ACK / retransmit / loss-marking / timeout sequences and
// check every O(1) tally — pipe(), total_sacked_bytes(),
// sacked_segment_count(), lost_segment_count(), any_sacked() — against a
// brute-force recomputation over records() after each operation.
//
// Decisions: drive the scoreboard and ReferenceScoreboard (the plain
// linear-walk implementation its hints replaced) with identical
// operations, and after every one compare each record's flags, every
// AckOutcome field, update_loss_marks' return value and the
// next_retransmit_candidate() / first_hole_lost() / last_unsacked()
// queries. Episodes reach the 512-2048-record windows of the bulk
// workload, with 3-4 disjoint SACK blocks per ACK.
#include "tcp/scoreboard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "sim/rng.h"

namespace prr::tcp {
namespace {

constexpr uint32_t kMss = 1000;

struct Brute {
  uint64_t pipe = 0;
  uint64_t sacked_bytes = 0;
  int sacked_segs = 0;
  int lost_segs = 0;
  bool any_sacked = false;
};

Brute brute_force(const Scoreboard& sb) {
  Brute b;
  for (const SegRecord& r : sb.records()) {
    if (r.sacked) {
      b.sacked_bytes += r.len();
      ++b.sacked_segs;
      b.any_sacked = true;
      continue;
    }
    if (!r.lost) b.pipe += r.len();
    if (r.lost) ++b.lost_segs;
    if (r.retransmitted) b.pipe += r.len();
  }
  return b;
}

void check_counters(const Scoreboard& sb, const char* after, int step) {
  const Brute b = brute_force(sb);
  ASSERT_EQ(sb.pipe(), b.pipe) << after << " step " << step;
  ASSERT_EQ(sb.total_sacked_bytes(), b.sacked_bytes) << after << " step "
                                                     << step;
  ASSERT_EQ(sb.sacked_segment_count(), b.sacked_segs) << after << " step "
                                                      << step;
  ASSERT_EQ(sb.lost_segment_count(), b.lost_segs) << after << " step "
                                                  << step;
  ASSERT_EQ(sb.any_sacked(), b.any_sacked) << after << " step " << step;
}

net::Segment make_ack(uint64_t cum,
                      std::vector<net::SackBlock> sacks = {}) {
  net::Segment a;
  a.is_ack = true;
  a.ack = cum;
  a.sacks.assign(sacks.begin(), sacks.end());
  return a;
}

// One randomized episode: grow a window, then shower it with random
// operations, cross-checking the tallies after every single one.
void run_episode(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  sim::Rng rng(seed);
  Scoreboard sb(kMss);
  sb.reset(0);
  uint64_t snd_nxt = 0;
  sim::Time now = sim::Time::zero();

  for (int step = 0; step < 400; ++step) {
    now += sim::Time::milliseconds(1);
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    switch (op) {
      case 0:
      case 1:
      case 2: {  // transmit a burst of new segments
        const int burst = static_cast<int>(rng.uniform_int(1, 8));
        for (int i = 0; i < burst; ++i) {
          sb.on_transmit(snd_nxt, snd_nxt + kMss, now);
          snd_nxt += kMss;
        }
        check_counters(sb, "transmit", step);
        break;
      }
      case 3:
      case 4: {  // SACK a random run of whole segments (maybe with cum)
        if (sb.records().empty()) break;
        const auto& recs = sb.records();
        const std::size_t i = static_cast<std::size_t>(
            rng.uniform_int(0, recs.size() - 1));
        const std::size_t j = std::min(
            recs.size() - 1,
            i + static_cast<std::size_t>(rng.uniform_int(0, 3)));
        sb.on_ack(make_ack(sb.snd_una(), {{recs[i].start, recs[j].end}}),
                  now, rng.uniform_int(0, 1) == 0);
        check_counters(sb, "sack", step);
        break;
      }
      case 5: {  // cumulative ACK to a random record boundary
        if (sb.records().empty()) break;
        const auto& recs = sb.records();
        const std::size_t i = static_cast<std::size_t>(
            rng.uniform_int(0, recs.size() - 1));
        sb.on_ack(make_ack(recs[i].end), now, true);
        check_counters(sb, "cumulative ack", step);
        break;
      }
      case 6: {  // mark losses, then retransmit some candidates
        sb.update_loss_marks(static_cast<int>(rng.uniform_int(1, 4)),
                             rng.uniform_int(0, 1) == 0,
                             rng.uniform_int(0, 1) == 0);
        check_counters(sb, "update_loss_marks", step);
        const int n = static_cast<int>(rng.uniform_int(1, 4));
        for (int i = 0; i < n; ++i) {
          const SegRecord* cand = sb.next_retransmit_candidate();
          if (cand == nullptr) break;
          sb.on_retransmit(cand->start, now, snd_nxt,
                           rng.uniform_int(0, 1) == 0);
          check_counters(sb, "retransmit", step);
        }
        break;
      }
      case 7: {  // RTO: everything unSACKed is lost
        sb.on_timeout_mark_all_lost();
        check_counters(sb, "timeout", step);
        break;
      }
      case 8: {  // early-retransmit entry / F-RTO undo
        if (rng.uniform_int(0, 1) == 0) {
          sb.mark_first_hole_lost();
          check_counters(sb, "mark_first_hole_lost", step);
        } else {
          sb.clear_unretransmitted_loss_marks();
          check_counters(sb, "clear_unretransmitted_loss_marks", step);
        }
        break;
      }
      case 9: {  // occasionally reset (new recovery episode)
        if (rng.uniform_int(0, 9) == 0) {
          sb.reset(snd_nxt);
          check_counters(sb, "reset", step);
        }
        break;
      }
    }
  }
}

// --- decision oracle ----------------------------------------------------

// The scoreboard as it was before its hints: every query walks records
// from the head, and flags are plain assignments (no tallies), so it
// shares no bookkeeping with Scoreboard.
class ReferenceScoreboard {
 public:
  explicit ReferenceScoreboard(uint32_t mss) : mss_(mss) {}

  void reset(uint64_t snd_una) {
    snd_una_ = snd_una;
    highest_sacked_end_ = snd_una;
    records_.clear();
  }

  void on_transmit(uint64_t start, uint64_t end, sim::Time now) {
    SegRecord r;
    r.start = start;
    r.end = end;
    r.first_tx_time = now;
    r.last_tx_time = now;
    records_.push_back(r);
  }

  void on_retransmit(uint64_t start, sim::Time now, uint64_t snd_nxt,
                     bool fast) {
    for (auto& r : records_) {
      if (r.start <= start && start < r.end) {
        r.retransmitted = true;
        r.ever_retransmitted = true;
        r.last_retx_was_fast = fast;
        ++r.retrans_count;
        r.retrans_marker = snd_nxt;
        r.last_tx_time = now;
        return;
      }
    }
  }

  AckOutcome on_ack(const net::Segment& ack, sim::Time now,
                    bool detect_lost_retransmits) {
    AckOutcome out;
    const uint64_t prior_fack = highest_sacked_end_;
    if (ack.dsack) {
      out.saw_dsack = true;
      out.dsack_block = ack.dsack;
    }
    if (ack.ack > snd_una_) {
      out.una_advanced = true;
      out.newly_acked_bytes = ack.ack - snd_una_;
      while (!records_.empty() && records_.front().end <= ack.ack) {
        const SegRecord& r = records_.front();
        if (!r.sacked) {
          if (!r.ever_retransmitted && prior_fack > r.end) {
            note_reordering(out, prior_fack, r);
          }
        } else {
          out.newly_acked_bytes -= r.len();
        }
        if (!r.ever_retransmitted) {
          out.rtt_sample = now - r.last_tx_time;
        } else {
          out.acked_rexmit_tx_time = r.last_tx_time;
        }
        records_.pop_front();
      }
      snd_una_ = ack.ack;
      highest_sacked_end_ = std::max(highest_sacked_end_, snd_una_);
    }
    uint64_t max_newly_sacked_start = 0;
    bool any_newly_sacked = false;
    for (const auto& blk : ack.sacks) {
      for (auto& r : records_) {
        if (r.sacked) continue;
        if (blk.start <= r.start && r.end <= blk.end) {
          r.sacked = true;
          out.newly_sacked_bytes += r.len();
          any_newly_sacked = true;
          max_newly_sacked_start = std::max(max_newly_sacked_start, r.start);
          highest_sacked_end_ = std::max(highest_sacked_end_, r.end);
          if (!r.ever_retransmitted && prior_fack > r.end) {
            note_reordering(out, prior_fack, r);
            r.lost = false;
          }
        }
      }
    }
    if (detect_lost_retransmits && any_newly_sacked) {
      for (auto& r : records_) {
        if (r.sacked || !r.retransmitted) continue;
        if (r.retrans_marker > 0 &&
            max_newly_sacked_start >= r.retrans_marker) {
          r.retransmitted = false;
          r.lost = true;
          ++out.lost_retransmits_detected;
          if (r.last_retx_was_fast) ++out.lost_fast_retransmits_detected;
        }
      }
    }
    return out;
  }

  int update_loss_marks(int dupthresh, bool use_fack) {
    int newly_lost = 0;
    const uint64_t fack = highest_sacked_end_;
    if (use_fack) {
      if (fack <= snd_una_) return 0;
      const uint64_t fackets = (fack - snd_una_ + mss_ - 1) / mss_;
      if (fackets <= static_cast<uint64_t>(dupthresh)) return 0;
      const uint64_t mark_below =
          snd_una_ + (fackets - static_cast<uint64_t>(dupthresh)) * mss_;
      for (auto& r : records_) {
        if (r.start >= mark_below) break;
        if (r.sacked || r.lost) continue;
        r.lost = true;
        ++newly_lost;
      }
      return newly_lost;
    }
    const uint64_t thresh = static_cast<uint64_t>(dupthresh - 1) * mss_;
    uint64_t sacked_total = 0;
    for (const auto& r : records_) {
      if (r.sacked) sacked_total += r.len();
    }
    uint64_t sacked_below = 0;
    for (auto& r : records_) {
      if (r.sacked) {
        sacked_below += r.len();
        continue;
      }
      if (r.lost) continue;
      if (sacked_total - sacked_below > thresh) {
        r.lost = true;
        ++newly_lost;
      }
    }
    return newly_lost;
  }

  void on_timeout_mark_all_lost() {
    for (auto& r : records_) {
      if (r.sacked) continue;
      r.lost = true;
      r.retransmitted = false;
    }
  }

  uint64_t forget_sack_marks() {
    uint64_t forgotten = 0;
    for (auto& r : records_) {
      if (!r.sacked) continue;
      forgotten += r.len();
      r.sacked = false;
    }
    highest_sacked_end_ = snd_una_;
    return forgotten;
  }

  void clear_unretransmitted_loss_marks() {
    for (auto& r : records_) {
      if (r.lost && !r.retransmitted) r.lost = false;
    }
  }

  void mark_first_hole_lost() {
    for (auto& r : records_) {
      if (r.sacked) continue;
      r.lost = true;
      return;
    }
  }

  bool first_hole_lost() const {
    for (const auto& r : records_) {
      if (r.sacked) continue;
      return r.lost;
    }
    return false;
  }

  const SegRecord* next_retransmit_candidate() const {
    for (const auto& r : records_) {
      if (r.lost && !r.sacked && !r.retransmitted) return &r;
    }
    return nullptr;
  }

  const SegRecord* last_unsacked() const {
    for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
      if (!it->sacked) return &*it;
    }
    return nullptr;
  }

  const std::deque<SegRecord>& records() const { return records_; }
  uint64_t snd_una() const { return snd_una_; }
  uint64_t highest_sacked_end() const { return highest_sacked_end_; }

 private:
  void note_reordering(AckOutcome& out, uint64_t prior_fack,
                       const SegRecord& r) const {
    const int dist = static_cast<int>((prior_fack - r.start) / mss_);
    out.reorder_distance_segs =
        std::max(out.reorder_distance_segs, std::max(dist, 1));
  }

  uint32_t mss_;
  uint64_t snd_una_ = 0;
  uint64_t highest_sacked_end_ = 0;
  std::deque<SegRecord> records_;
};

::testing::AssertionResult same_record(const SegRecord& a,
                                       const SegRecord& b) {
  if (a.start == b.start && a.end == b.end && a.sacked == b.sacked &&
      a.lost == b.lost && a.retransmitted == b.retransmitted &&
      a.ever_retransmitted == b.ever_retransmitted &&
      a.last_retx_was_fast == b.last_retx_was_fast &&
      a.retrans_count == b.retrans_count &&
      a.retrans_marker == b.retrans_marker &&
      a.first_tx_time == b.first_tx_time &&
      a.last_tx_time == b.last_tx_time) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "record [" << a.start << "," << a.end << ") sacked "
         << a.sacked << "/" << b.sacked << " lost " << a.lost << "/"
         << b.lost << " retransmitted " << a.retransmitted << "/"
         << b.retransmitted << " retrans_count " << a.retrans_count << "/"
         << b.retrans_count << " (scoreboard/reference)";
}

::testing::AssertionResult same_pick(const SegRecord* a,
                                     const SegRecord* b) {
  if (a == nullptr && b == nullptr) return ::testing::AssertionSuccess();
  if (a == nullptr || b == nullptr) {
    return ::testing::AssertionFailure()
           << (a == nullptr ? "scoreboard" : "reference")
           << " returned no record, the other did";
  }
  return same_record(*a, *b);
}

void expect_same_outcome(const AckOutcome& a, const AckOutcome& b) {
  EXPECT_EQ(a.newly_acked_bytes, b.newly_acked_bytes);
  EXPECT_EQ(a.newly_sacked_bytes, b.newly_sacked_bytes);
  EXPECT_EQ(a.una_advanced, b.una_advanced);
  EXPECT_EQ(a.saw_dsack, b.saw_dsack);
  EXPECT_EQ(a.dsack_block, b.dsack_block);
  EXPECT_EQ(a.lost_retransmits_detected, b.lost_retransmits_detected);
  EXPECT_EQ(a.lost_fast_retransmits_detected,
            b.lost_fast_retransmits_detected);
  EXPECT_EQ(a.reorder_distance_segs, b.reorder_distance_segs);
  EXPECT_EQ(a.rtt_sample, b.rtt_sample);
  EXPECT_EQ(a.acked_rexmit_tx_time, b.acked_rexmit_tx_time);
}

struct TwinConfig {
  uint64_t seed = 1;
  int initial_window = 0;  // records transmitted before the first op
  int max_burst = 8;       // records per transmit op
  int min_blocks = 1;      // SACK blocks per SACK op
  int max_blocks = 1;
  int max_block_records = 4;
  // 0: FACK on each loss-marking op by coin flip; 1: always; -1: never.
  int fack = 0;
  // Query next_retransmit_candidate() after every op, or only when
  // retransmitting — the hint must not depend on being refreshed.
  bool query_every_op = true;
  int steps = 400;
};

// Scoreboard and ReferenceScoreboard side by side, driven by one rng.
class Twin {
 public:
  explicit Twin(const TwinConfig& cfg)
      : cfg_(cfg), rng_(cfg.seed), sb_(kMss), ref_(kMss) {
    sb_.reset(0);
    ref_.reset(0);
  }

  void run() {
    transmit(cfg_.initial_window);
    check("initial window", -1);
    for (int step = 0; step < cfg_.steps; ++step) {
      now_ += sim::Time::milliseconds(1);
      const char* what = apply_random_op();
      check(what, step);
      if (::testing::Test::HasFailure()) return;
    }
  }

 private:
  const char* apply_random_op() {
    switch (rng_.uniform_int(0, 15)) {
      case 0:
      case 1:
      case 2:
        transmit(static_cast<int>(rng_.uniform_int(1, cfg_.max_burst)));
        return "transmit";
      case 3:
      case 4:
      case 5:
      case 6:
        ack(sack_blocks(), snd_una());
        return "sack";
      case 7:
        ack(sack_blocks(), cumulative_target());
        return "cumulative ack + sack";
      case 8:
      case 9: {
        const int dupthresh = static_cast<int>(rng_.uniform_int(0, 6));
        const bool fack = cfg_.fack > 0 ||
                          (cfg_.fack == 0 && rng_.uniform_int(0, 1) == 0);
        const bool in_recovery = rng_.uniform_int(0, 1) == 0;
        EXPECT_EQ(sb_.update_loss_marks(dupthresh, fack, in_recovery),
                  ref_.update_loss_marks(dupthresh, fack))
            << "dupthresh " << dupthresh << " fack " << fack;
        return "update_loss_marks";
      }
      case 10:
      case 11:
        retransmit(static_cast<int>(rng_.uniform_int(1, 6)));
        return "retransmit";
      case 12: {
        // Resend a record whatever its state: the tail-loss probe's last
        // unSACKed record, or any record at all, which may already have
        // a retransmission in flight under an older marker.
        const SegRecord* a = sb_.last_unsacked();
        EXPECT_TRUE(same_pick(a, ref_.last_unsacked()));
        if (rng_.uniform_int(0, 1) == 0 && !ref_.records().empty()) {
          a = &sb_.records()[rng_.uniform_int(0, sb_.records().size() - 1)];
        }
        if (a != nullptr) {
          const uint64_t start = a->start;
          const bool fast = rng_.uniform_int(0, 1) == 0;
          sb_.on_retransmit(start, now_, snd_nxt_, fast);
          ref_.on_retransmit(start, now_, snd_nxt_, fast);
          if (rng_.uniform_int(0, 1) == 0) transmit(1);
        }
        return "resend";
      }
      case 13:
        switch (rng_.uniform_int(0, 3)) {
          case 0:
            sb_.mark_first_hole_lost();
            ref_.mark_first_hole_lost();
            return "mark_first_hole_lost";
          case 1:
            sb_.clear_unretransmitted_loss_marks();
            ref_.clear_unretransmitted_loss_marks();
            return "clear_unretransmitted_loss_marks";
          default:
            sb_.on_timeout_mark_all_lost();
            ref_.on_timeout_mark_all_lost();
            return "timeout";
        }
      case 14:
        if (rng_.uniform_int(0, 3) == 0) {
          EXPECT_EQ(sb_.forget_sack_marks(), ref_.forget_sack_marks());
          return "forget_sack_marks";
        }
        return "none";
      default:
        if (rng_.uniform_int(0, 19) == 0) {
          sb_.reset(snd_nxt_);
          ref_.reset(snd_nxt_);
          return "reset";
        }
        return "none";
    }
  }

  uint64_t snd_una() const { return ref_.snd_una(); }

  // Mostly full-sized segments; now and then a short one (the tail of a
  // write, a zero-window probe), which skews the FACK segment count.
  void transmit(int n) {
    for (int i = 0; i < n; ++i) {
      const uint64_t len =
          rng_.uniform_int(0, 7) == 0 ? rng_.uniform_int(1, kMss - 1) : kMss;
      sb_.on_transmit(snd_nxt_, snd_nxt_ + len, now_);
      ref_.on_transmit(snd_nxt_, snd_nxt_ + len, now_);
      snd_nxt_ += len;
    }
  }

  // A record boundary a few records past snd.una (usually), or anywhere.
  uint64_t cumulative_target() {
    const auto& recs = ref_.records();
    if (recs.empty()) return snd_una();
    const std::size_t hi =
        rng_.uniform_int(0, 3) == 0
            ? recs.size() - 1
            : std::min<std::size_t>(recs.size() - 1, 4);
    return recs[rng_.uniform_int(0, hi)].end;
  }

  // Disjoint blocks of whole records, one per slice of the window, in
  // shuffled order; now and then an edge is pulled inside a record (so
  // that record is not covered) or a block lies below snd.una. Half the
  // time the previous ACK's blocks are repeated instead, some grown at
  // the right edge, as a receiver reports them.
  std::vector<net::SackBlock> sack_blocks() {
    std::vector<net::SackBlock> blocks;
    const auto& recs = ref_.records();
    if (!prev_blocks_.empty() && rng_.uniform_int(0, 1) == 0) {
      blocks = prev_blocks_;
      for (auto& blk : blocks) {
        blk.end += kMss * rng_.uniform_int(0, 2);
      }
      if (rng_.uniform_int(0, 7) == 0) {
        // Past snd.nxt: data sent afterwards must not count as covered.
        blocks.back().end = snd_nxt_ + kMss * rng_.uniform_int(1, 3);
      }
      prev_blocks_ = blocks;
      return blocks;
    }
    if (recs.empty()) return blocks;
    const int want = static_cast<int>(
        rng_.uniform_int(cfg_.min_blocks, cfg_.max_blocks));
    const std::size_t slice = std::max<std::size_t>(
        1, recs.size() / static_cast<std::size_t>(want));
    for (int b = 0; b < want; ++b) {
      const std::size_t lo = static_cast<std::size_t>(b) * slice;
      if (lo >= recs.size()) break;
      const std::size_t hi = std::min(recs.size(), lo + slice) - 1;
      const std::size_t i = rng_.uniform_int(lo, hi);
      const std::size_t j = std::min(
          hi, i + rng_.uniform_int(0, cfg_.max_block_records - 1));
      net::SackBlock blk{recs[i].start, recs[j].end};
      switch (rng_.uniform_int(0, 11)) {
        case 0:
          blk.start += 1;
          break;
        case 1:
          blk.end -= 1;
          break;
        case 2:
          if (snd_una() >= kMss) blk = {snd_una() - kMss, snd_una()};
          break;
        case 3:
          blk.end = blk.start;  // empty
          break;
        case 4:
          blk.end += kMss / 2;  // ends inside the next record
          break;
        default:
          break;
      }
      blocks.push_back(blk);
    }
    for (std::size_t k = blocks.size(); k > 1; --k) {
      std::swap(blocks[k - 1], blocks[rng_.uniform_int(0, k - 1)]);
    }
    prev_blocks_ = blocks;
    return blocks;
  }

  void ack(const std::vector<net::SackBlock>& blocks, uint64_t cum) {
    net::Segment a = make_ack(cum, blocks);
    if (rng_.uniform_int(0, 9) == 0 && cum >= kMss) {
      a.dsack = net::SackBlock{cum - kMss, cum};
    }
    const bool detect = rng_.uniform_int(0, 3) != 0;
    expect_same_outcome(sb_.on_ack(a, now_, detect),
                        ref_.on_ack(a, now_, detect));
  }

  void retransmit(int n) {
    for (int i = 0; i < n; ++i) {
      const SegRecord* a = sb_.next_retransmit_candidate();
      const SegRecord* b = ref_.next_retransmit_candidate();
      ASSERT_TRUE(same_pick(a, b)) << "retransmit " << i;
      if (a == nullptr) return;
      const uint64_t start = a->start;
      const bool fast = rng_.uniform_int(0, 1) == 0;
      sb_.on_retransmit(start, now_, snd_nxt_, fast);
      ref_.on_retransmit(start, now_, snd_nxt_, fast);
      // New data between retransmissions moves snd.nxt, so markers
      // differ and later SACKs can prove earlier retransmissions lost.
      if (rng_.uniform_int(0, 2) == 0) transmit(1);
    }
  }

  void check(const char* after, int step) {
    SCOPED_TRACE(std::string(after) + " step " + std::to_string(step));
    check_counters(sb_, after, step);
    ASSERT_EQ(sb_.snd_una(), ref_.snd_una());
    ASSERT_EQ(sb_.highest_sacked_end(), ref_.highest_sacked_end());
    ASSERT_EQ(sb_.records().size(), ref_.records().size());
    for (std::size_t i = 0; i < ref_.records().size(); ++i) {
      ASSERT_TRUE(same_record(sb_.records()[i], ref_.records()[i]))
          << "index " << i;
    }
    EXPECT_EQ(sb_.first_hole_lost(), ref_.first_hole_lost());
    EXPECT_TRUE(same_pick(sb_.last_unsacked(), ref_.last_unsacked()));
    if (cfg_.query_every_op) {
      EXPECT_TRUE(same_pick(sb_.next_retransmit_candidate(),
                            ref_.next_retransmit_candidate()));
    }
  }

  TwinConfig cfg_;
  sim::Rng rng_;
  Scoreboard sb_;
  ReferenceScoreboard ref_;
  uint64_t snd_nxt_ = 0;
  sim::Time now_ = sim::Time::zero();
  std::vector<net::SackBlock> prev_blocks_;
};

void run_twin(const TwinConfig& cfg) {
  SCOPED_TRACE("seed " + std::to_string(cfg.seed));
  Twin(cfg).run();
}

TEST(ScoreboardDifferential, DecisionsMatchReferenceSmallWindows) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    TwinConfig cfg;
    cfg.seed = seed;
    cfg.max_blocks = 3;
    cfg.query_every_op = seed % 2 == 0;
    run_twin(cfg);
    if (HasFailure()) return;
  }
}

TEST(ScoreboardDifferential, DecisionsMatchReferenceLargeWindowsFack) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    TwinConfig cfg;
    cfg.seed = 100 + seed;
    cfg.initial_window = static_cast<int>(512 << (seed % 3));  // 512-2048
    cfg.max_burst = 32;
    cfg.min_blocks = 3;
    cfg.max_blocks = 4;
    cfg.max_block_records = 8;
    cfg.fack = 1;
    cfg.query_every_op = seed % 2 == 0;
    cfg.steps = 300;
    run_twin(cfg);
    if (HasFailure()) return;
  }
}

TEST(ScoreboardDifferential, DecisionsMatchReferenceLargeWindowsRfc6675) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    TwinConfig cfg;
    cfg.seed = 200 + seed;
    cfg.initial_window = static_cast<int>(512 << (seed % 3));  // 512-2048
    cfg.max_burst = 32;
    cfg.min_blocks = 3;
    cfg.max_blocks = 4;
    cfg.max_block_records = 8;
    cfg.fack = -1;
    cfg.query_every_op = seed % 2 == 1;
    cfg.steps = 300;
    run_twin(cfg);
    if (HasFailure()) return;
  }
}

TEST(ScoreboardDifferential, RandomizedCountersMatchBruteForce) {
  for (uint64_t seed = 1; seed <= 25; ++seed) run_episode(seed);
}

TEST(ScoreboardDifferential, LostRetransmitDetectionKeepsCountersExact) {
  // Deliberately walk the lost-retransmission path: retransmit a hole,
  // then SACK data sent after the retransmission so the retransmit is
  // declared lost again (retransmitted -> false, lost stays true).
  Scoreboard sb(kMss);
  sb.reset(0);
  uint64_t snd_nxt = 0;
  for (int i = 0; i < 10; ++i) {
    sb.on_transmit(snd_nxt, snd_nxt + kMss, sim::Time::zero());
    snd_nxt += kMss;
  }
  // SACK 3..10 -> segments 0..2 become FACK-lost.
  sb.on_ack(make_ack(0, {{3 * kMss, 10 * kMss}}), sim::Time::zero(), true);
  sb.update_loss_marks(3, /*use_fack=*/true, /*in_recovery=*/true);
  check_counters(sb, "setup", 0);

  const SegRecord* cand = sb.next_retransmit_candidate();
  ASSERT_NE(cand, nullptr);
  sb.on_retransmit(cand->start, sim::Time::zero(), snd_nxt, true);
  check_counters(sb, "retransmit", 1);

  // New data beyond the retransmit marker, then SACK it: the retransmit
  // is deemed lost, and pipe must drop by exactly one segment again.
  const uint64_t pipe_before = sb.pipe();
  sb.on_transmit(snd_nxt, snd_nxt + kMss, sim::Time::zero());
  auto out = sb.on_ack(make_ack(0, {{snd_nxt, snd_nxt + kMss}}),
                       sim::Time::zero(), true);
  snd_nxt += kMss;
  EXPECT_EQ(out.lost_retransmits_detected, 1);
  check_counters(sb, "lost-retransmit detection", 2);
  // The probe segment was transmitted and immediately SACKed (net zero),
  // and the retransmission's pipe contribution is gone: down one segment.
  EXPECT_EQ(sb.pipe(), pipe_before - kMss);
}

}  // namespace
}  // namespace prr::tcp
