#include "tcp/scoreboard.h"

#include <algorithm>
#include <cassert>

namespace prr::tcp {

namespace {

// First record starting at or above `seq` (records are start-sorted).
template <typename Records>
auto first_at_or_above(Records& records, uint64_t seq) {
  return std::lower_bound(
      records.begin(), records.end(), seq,
      [](const SegRecord& r, uint64_t v) { return r.start < v; });
}

}  // namespace

// --- incremental accounting -------------------------------------------
// Every flag flip goes through one of these helpers; each is idempotent,
// so call sites never need to pre-check the flag to keep tallies right.

void Scoreboard::set_sacked(SegRecord& r) {
  if (r.sacked) return;
  sacked_bytes_ += r.len();
  ++sacked_segs_;
  if (r.lost) {
    lost_bytes_ -= r.len();
    --lost_segs_;
  }
  if (r.retransmitted) retransmitted_in_flight_bytes_ -= r.len();
  r.sacked = true;
}

void Scoreboard::clear_sacked(SegRecord& r) {
  if (!r.sacked) return;
  sacked_bytes_ -= r.len();
  --sacked_segs_;
  // Stale lost/retransmitted flags re-enter the pipe tallies they were
  // excluded from while the record counted as SACKed.
  if (r.lost) {
    lost_bytes_ += r.len();
    ++lost_segs_;
    if (!r.retransmitted) note_candidate(r.start);
  } else {
    lower_loss_frontier(r.start);
  }
  if (r.retransmitted) retransmitted_in_flight_bytes_ += r.len();
  r.sacked = false;
  sack_cache_len_ = 0;
}

void Scoreboard::set_lost(SegRecord& r) {
  if (r.lost) return;
  if (!r.sacked) {
    lost_bytes_ += r.len();
    ++lost_segs_;
    if (!r.retransmitted) note_candidate(r.start);
  }
  r.lost = true;
}

void Scoreboard::clear_lost(SegRecord& r) {
  if (!r.lost) return;
  if (!r.sacked) {
    lost_bytes_ -= r.len();
    --lost_segs_;
    lower_loss_frontier(r.start);
  }
  r.lost = false;
}

void Scoreboard::set_retransmitted(SegRecord& r) {
  if (!r.sacked) {
    if (!r.retransmitted) retransmitted_in_flight_bytes_ += r.len();
    if (r.retrans_marker > 0) queue_retransmission(r);
  }
  r.retransmitted = true;
}

void Scoreboard::clear_retransmitted(SegRecord& r) {
  if (r.retransmitted && !r.sacked) {
    retransmitted_in_flight_bytes_ -= r.len();
    if (r.lost) note_candidate(r.start);
  }
  r.retransmitted = false;
}

void Scoreboard::account_remove(const SegRecord& r) {
  total_bytes_ -= r.len();
  if (r.sacked) {
    sacked_bytes_ -= r.len();
    --sacked_segs_;
    return;
  }
  if (r.lost) {
    lost_bytes_ -= r.len();
    --lost_segs_;
  }
  if (r.retransmitted) retransmitted_in_flight_bytes_ -= r.len();
}

// --- hints -------------------------------------------------------------

void Scoreboard::queue_retransmission(const SegRecord& r) {
  // Keep the queue sorted by marker. The sender's snd.nxt never moves
  // back, so the new entry nearly always belongs at the tail and the
  // loop below does not run.
  retx_queue_.push_back({r.start, r.retrans_marker});
  for (std::size_t i = retx_queue_.size() - 1;
       i > 0 && retx_queue_[i - 1].marker > retx_queue_[i].marker; --i) {
    std::swap(retx_queue_[i - 1], retx_queue_[i]);
  }
}

SegRecord* Scoreboard::live_retransmission(const RetxEntry& e) {
  SegRecord* r = find(e.start);
  // Stale if SACKed, no longer retransmitted, or retransmitted again
  // since (the newer copy has its own entry further back).
  if (r == nullptr || r->sacked || !r->retransmitted ||
      r->retrans_marker != e.marker) {
    return nullptr;
  }
  return r;
}

Scoreboard::RecordIter Scoreboard::skip_sacked(RecordIter it) {
  for (std::size_t i = 0; i < sack_cache_len_; ++i) {
    const net::SackBlock& c = sack_cache_[i];
    if (c.start <= it->start && it->end <= c.end) {
      // Galloping search, so a short run costs a few probes, not a
      // binary search over the rest of the window. Records up to c.end
      // past the walk's own block end are SACKed too, so overshooting
      // that end only ends the walk.
      const auto inside = [&c](const SegRecord& r) {
        return r.end <= c.end;
      };
      RecordIter lo = it + 1;
      std::ptrdiff_t step = 1;
      while (records_.end() - lo > step && inside(lo[step - 1])) {
        lo += step;
        step *= 2;
      }
      const RecordIter hi =
          records_.end() - lo > step ? lo + step : records_.end();
      return std::partition_point(lo, hi, inside);
    }
  }
  return it + 1;
}

// ----------------------------------------------------------------------

void Scoreboard::reset(uint64_t snd_una) {
  snd_una_ = snd_una;
  highest_sacked_end_ = snd_una;
  records_.clear();
  retransmit_hint_ = snd_una;
  retransmit_ceiling_ = snd_una;
  loss_frontier_ = snd_una;
  retx_queue_.clear();
  sack_cache_len_ = 0;
  total_bytes_ = 0;
  sacked_bytes_ = 0;
  lost_bytes_ = 0;
  retransmitted_in_flight_bytes_ = 0;
  sacked_segs_ = 0;
  lost_segs_ = 0;
}

void Scoreboard::on_transmit(uint64_t start, uint64_t end, sim::Time now) {
  assert(start >= snd_una_ && start < end);
  assert(records_.empty() || start >= records_.back().end);
  SegRecord r;
  r.start = start;
  r.end = end;
  r.first_tx_time = now;
  r.last_tx_time = now;
  total_bytes_ += r.len();
  // A fresh record is neither SACKed nor lost.
  lower_loss_frontier(start);
  records_.push_back(r);
}

SegRecord* Scoreboard::find(uint64_t start) {
  // records_ is sorted by start and non-overlapping: binary-search the
  // last record starting at or below `start`, then check containment.
  auto it = std::upper_bound(
      records_.begin(), records_.end(), start,
      [](uint64_t v, const SegRecord& r) { return v < r.start; });
  if (it == records_.begin()) return nullptr;
  --it;
  return (it->start <= start && start < it->end) ? &*it : nullptr;
}

void Scoreboard::on_retransmit(uint64_t start, sim::Time now,
                               uint64_t snd_nxt, bool fast) {
  SegRecord* r = find(start);
  assert(r != nullptr);
  // snd.nxt is past every transmitted byte; lost-retransmit detection
  // relies on marker >= end to stop its walk early.
  assert(snd_nxt >= r->end);
  r->ever_retransmitted = true;
  r->last_retx_was_fast = fast;
  ++r->retrans_count;
  r->retrans_marker = snd_nxt;
  r->last_tx_time = now;
  set_retransmitted(*r);
}

AckOutcome Scoreboard::on_ack(const net::Segment& ack, sim::Time now,
                              bool detect_lost_retransmits) {
  AckOutcome out;
  // SACK frontier before this ACK: deliveries of never-retransmitted data
  // from below it are reordering evidence (the original arrived after
  // higher data did).
  const uint64_t prior_fack = highest_sacked_end_;

  if (ack.dsack) {
    out.saw_dsack = true;
    out.dsack_block = ack.dsack;
  }

  // 1. Cumulative advance: pop fully-ACKed records.
  if (ack.ack > snd_una_) {
    out.una_advanced = true;
    out.newly_acked_bytes = ack.ack - snd_una_;
    while (!records_.empty() && records_.front().end <= ack.ack) {
      const SegRecord& r = records_.front();
      if (!r.sacked) {
        if (!r.ever_retransmitted && prior_fack > r.end) {
          const int dist =
              static_cast<int>((prior_fack - r.start) / mss_);
          out.reorder_distance_segs =
              std::max(out.reorder_distance_segs, std::max(dist, 1));
        }
        // Already-SACKed bytes were counted as delivered when SACKed; a
        // cumulative ACK over them must not double-count.
      } else {
        out.newly_acked_bytes -= r.len();
      }
      if (!r.ever_retransmitted) {
        // Karn: sample only never-retransmitted data; use the newest.
        out.rtt_sample = now - r.last_tx_time;
      } else {
        out.acked_rexmit_tx_time = r.last_tx_time;
      }
      account_remove(r);
      records_.pop_front();
    }
    // Partial-record coverage cannot happen (ACKs land on segment
    // boundaries in this model), but guard anyway.
    snd_una_ = ack.ack;
    if (highest_sacked_end_ < snd_una_) highest_sacked_end_ = snd_una_;
  }

  // 2. SACK blocks: mark newly-SACKed records.
  // Track the highest start among records SACKed by *this* ACK: only
  // data first sent after a retransmission (seq >= the snd.nxt recorded
  // at retransmit time) can prove that retransmission lost.
  uint64_t max_newly_sacked_start = 0;
  bool any_newly_sacked = false;
  // Records are start-sorted and non-overlapping, so the ones a block
  // covers are a contiguous run: from the first record starting at or
  // above blk.start, up to the first one ending past blk.end.
  for (const auto& blk : ack.sacks) {
    auto it = first_at_or_above(records_, blk.start);
    while (it != records_.end() && it->end <= blk.end) {
      SegRecord& r = *it;
      if (r.sacked) {
        it = skip_sacked(it);
        continue;
      }
      ++it;
      set_sacked(r);
      out.newly_sacked_bytes += r.len();
      any_newly_sacked = true;
      max_newly_sacked_start = std::max(max_newly_sacked_start, r.start);
      highest_sacked_end_ = std::max(highest_sacked_end_, r.end);
      if (!r.ever_retransmitted && prior_fack > r.end) {
        const int dist = static_cast<int>((prior_fack - r.start) / mss_);
        out.reorder_distance_segs =
            std::max(out.reorder_distance_segs, std::max(dist, 1));
        clear_lost(r);  // it clearly is not lost
      }
    }
  }
  // Every record wholly inside these blocks is now SACKed. Clip to the
  // current tail so records sent later are never taken as inside.
  const uint64_t tail_end = records_.empty() ? snd_una_ : records_.back().end;
  sack_cache_len_ = 0;
  for (const auto& blk : ack.sacks) {
    if (sack_cache_len_ == sack_cache_.size()) break;
    sack_cache_[sack_cache_len_++] = {blk.start, std::min(blk.end, tail_end)};
  }

  // 3. Lost-retransmission detection (Linux tcp_mark_lost_retrans): a
  // still-unSACKed record whose retransmission predates data that was
  // *first transmitted after it* and has now been SACKed was lost again.
  // Sequence test: only bytes at/above the snd.nxt recorded when the
  // retransmission went out can have been first-sent after it.
  // retx_queue_ holds every in-flight retransmission sorted by marker,
  // so the ones this ACK proves lost are a prefix of it. The same loop
  // drops cumulatively ACKed entries from the front on every ACK.
  const bool detect = detect_lost_retransmits && any_newly_sacked;
  while (!retx_queue_.empty()) {
    const RetxEntry e = retx_queue_.front();
    if (e.start >= snd_una_) {
      if (!detect || e.marker > max_newly_sacked_start) break;
      if (SegRecord* r = live_retransmission(e)) {
        clear_retransmitted(*r);  // that copy is gone; eligible again
        set_lost(*r);
        ++out.lost_retransmits_detected;
        if (r->last_retx_was_fast) ++out.lost_fast_retransmits_detected;
      }
    }
    retx_queue_.pop_front();
  }

  return out;
}

int Scoreboard::update_loss_marks(int dupthresh, bool use_fack,
                                  bool in_recovery) {
  (void)in_recovery;
  int newly_lost = 0;
  const uint64_t fack = highest_sacked_end_;
  if (use_fack) {
    // Linux FACK (tcp_update_scoreboard / tcp_mark_head_lost): with
    // fackets_out segments between snd.una and the forward-most SACK,
    // mark the unSACKed segments among the first fackets_out - dupthresh
    // of them lost. Marking is progressive: each new SACK pushes the
    // frontier and exposes one more hole.
    if (fack <= snd_una_) return 0;
    const uint64_t fackets =
        (fack - snd_una_ + mss_ - 1) / mss_;
    if (fackets <= static_cast<uint64_t>(dupthresh)) return 0;
    const uint64_t mark_below =
        snd_una_ + (fackets - static_cast<uint64_t>(dupthresh)) * mss_;
    for (auto it = first_at_or_above(records_, loss_frontier_);
         it != records_.end() && it->start < mark_below; ++it) {
      if (it->sacked || it->lost) continue;
      set_lost(*it);
      ++newly_lost;
    }
    loss_frontier_ = std::max(loss_frontier_, mark_below);
    return newly_lost;
  }
  // RFC 6675 IsLost: more than (dupthresh-1)*SMSS SACKed bytes above the
  // record. SACKed-bytes-above only grows toward the head, so the
  // records that qualify are every unSACKed one up to the last that
  // does. Find that one walking down, stopping at the frontier.
  const uint64_t thresh = static_cast<uint64_t>(dupthresh - 1) * mss_;
  if (sacked_bytes_ <= thresh) return 0;
  // Records starting at or above highest_sacked_end_ have nothing
  // SACKed above them, so the search starts there.
  const auto first = first_at_or_above(records_, loss_frontier_);
  auto last = first_at_or_above(records_, highest_sacked_end_);
  uint64_t sacked_above = 0;
  while (true) {
    if (last <= first) return 0;
    --last;
    if (last->sacked) {
      sacked_above += last->len();
    } else if (sacked_above > thresh) {
      break;
    }
  }
  for (auto it = first; it != last + 1; ++it) {
    if (it->sacked || it->lost) continue;
    set_lost(*it);
    ++newly_lost;
  }
  loss_frontier_ = std::max(loss_frontier_, last->end);
  return newly_lost;
}

void Scoreboard::on_timeout_mark_all_lost() {
  for (auto& r : records_) {
    if (r.sacked) continue;
    set_lost(r);
    clear_retransmitted(r);  // everything is slated for retransmission
  }
  retx_queue_.clear();
  if (!records_.empty()) {
    loss_frontier_ = std::max(loss_frontier_, records_.back().end);
  }
}

uint64_t Scoreboard::forget_sack_marks() {
  uint64_t forgotten = 0;
  for (auto& r : records_) {
    if (!r.sacked) continue;
    forgotten += r.len();
    clear_sacked(r);
  }
  // The FACK frontier was built from marks we no longer believe.
  highest_sacked_end_ = snd_una_;
  // Retransmissions that were SACKed are in flight again, with markers
  // older than the queue's tail: rebuild the queue.
  retx_queue_.clear();
  for (const auto& r : records_) {
    if (r.retransmitted && r.retrans_marker > 0) queue_retransmission(r);
  }
  return forgotten;
}

void Scoreboard::clear_unretransmitted_loss_marks() {
  for (auto& r : records_) {
    if (r.lost && !r.retransmitted) clear_lost(r);
  }
}

void Scoreboard::mark_first_hole_lost() {
  for (auto& r : records_) {
    if (r.sacked) continue;
    set_lost(r);
    return;
  }
}

bool Scoreboard::first_hole_lost() const {
  for (const auto& r : records_) {
    if (r.sacked) continue;
    return r.lost;
  }
  return false;
}

const SegRecord* Scoreboard::next_retransmit_candidate() const {
  if (retransmit_hint_ >= retransmit_ceiling_) return nullptr;
  for (auto it = first_at_or_above(records_, retransmit_hint_);
       it != records_.end() && it->start < retransmit_ceiling_; ++it) {
    if (it->lost && !it->sacked && !it->retransmitted) {
      retransmit_hint_ = it->start;
      return &*it;
    }
  }
  retransmit_hint_ = retransmit_ceiling_;  // none left
  return nullptr;
}

const SegRecord* Scoreboard::last_unsacked() const {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (!it->sacked) return &*it;
  }
  return nullptr;
}

}  // namespace prr::tcp
