#include "mirror.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exp/conn_arena.h"
#include "net/fault_injector.h"
#include "net/loss_model.h"
#include "net/reorder_model.h"
#include "obs/flight_recorder.h"
#include "obs/store/capture_policy.h"
#include "obs/store/store_format.h"
#include "obs/store/store_writer.h"
#include "sim/simulator.h"
#include "tcp/connection.h"

namespace perfbench {

using namespace prr;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Ledger::add(const Ledger& o) {
  wall_ns += o.wall_ns;
  sample_ns += o.sample_ns;
  setup_ns += o.setup_ns;
  run_ns += o.run_ns;
  slice_ns += o.slice_ns;
  ack_ns += o.ack_ns;
  fold_ns += o.fold_ns;
  store_ns += o.store_ns;
  conns += o.conns;
  events += o.events;
  acks += o.acks;
  records += o.records;
  kept += o.kept;
  stored_records += o.stored_records;
  stored_bytes += o.stored_bytes;
  conn_ns.insert(conn_ns.end(), o.conn_ns.begin(), o.conn_ns.end());
}

namespace {

// Field-for-field the mapping exp::run_arm applies to each sample.
tcp::ConnectionConfig make_connection_config(
    const workload::ConnectionSample& s, const exp::ArmConfig& arm) {
  tcp::ConnectionConfig cc;
  cc.sender.mss = arm.mss;
  cc.sender.initial_cwnd_segments = arm.initial_cwnd_segments;
  cc.sender.cc = arm.cc;
  cc.sender.recovery = arm.recovery;
  cc.sender.prr_bound = arm.prr_bound;
  cc.sender.early_retransmit = arm.early_retransmit;
  cc.sender.tail_loss_probe = arm.tail_loss_probe;
  cc.sender.pacing = arm.pacing;
  cc.sender.max_rto_backoffs = arm.max_rto_backoffs;
  cc.sender.renege_recovery = arm.renege_recovery;
  cc.sender.validate_acks = arm.validate_acks;
  cc.sender.zero_window_probes = arm.zero_window_probes;
  cc.sender.handshake_rtt = s.rtt;

  cc.sender.sack_enabled = s.client_sack;
  cc.sender.timestamps = s.client_timestamps;
  const bool ecn = arm.ecn || s.client_ecn;
  cc.sender.ecn = ecn;
  cc.receiver.sack_enabled = s.client_sack;
  cc.receiver.dsack_enabled = s.client_dsack;
  cc.receiver.timestamps = s.client_timestamps;
  cc.receiver.ecn = ecn;

  cc.path = net::Path::Config::symmetric(s.bandwidth, s.rtt,
                                         s.queue_packets);
  cc.path.data_link.ecn_mark_threshold = s.ecn_mark_threshold;
  cc.path.ack_mangler.ack_loss_probability = s.ack_loss_prob;
  cc.path.ack_mangler.stretch_factor = s.ack_stretch;
  cc.path.ack_mangler.stretch_flush_timeout = s.ack_stretch_flush;
  cc.path.ack_mangler.misbehavior = s.misbehavior;
  cc.receiver.renege_at = s.renege_at;
  return cc;
}

// The registry fold exp::run_arm performs per connection.
void fold_registry(exp::RegistryHandles& h, const tcp::Metrics& delta,
                   const tcp::Sender& sender, sim::Time ran_for) {
  h.data_segments_sent->add(delta.data_segments_sent);
  h.bytes_sent->add(delta.bytes_sent);
  h.retransmits_total->add(delta.retransmits_total);
  h.fast_retransmits->add(delta.fast_retransmits);
  h.timeouts_total->add(delta.timeouts_total);
  h.fast_recovery_events->add(delta.fast_recovery_events);
  h.undo_events->add(delta.undo_events);
  h.dsacks_received->add(delta.dsacks_received);
  h.connections_run->inc();
  if (sender.aborted()) {
    if (!h.connections_aborted) {
      h.connections_aborted = h.owner->counter("exp.connections_aborted");
    }
    h.connections_aborted->inc();
  }
  if (sender.all_acked()) {
    if (!h.connections_completed) {
      h.connections_completed = h.owner->counter("exp.connections_completed");
    }
    h.connections_completed->inc();
  }
  h.retransmits_per_conn->record(delta.retransmits_total);
  h.timeouts_per_conn->record(delta.timeouts_total);
  h.final_cwnd_bytes->record(sender.cwnd_bytes());
  h.conn_sim_time_ns->record(static_cast<uint64_t>(ran_for.ns()));
  if (ran_for.ns() > h.max_conn_sim_time_ns->value()) {
    h.max_conn_sim_time_ns->set(ran_for.ns());
  }
}

// Per-arm state of one serial mirror: the pooled arena, the shared ring
// and the store path.
struct ArmMirror {
  ArmMirror(const workload::Population& p, const exp::ArmConfig& a,
            const exp::RunOptions& o, bool h, exp::ArmResult& r, Ledger& l)
      : pop(p), arm(a), opts(o), hooks(h), res(r), led(l) {}
  // The arena's objects hold pointers to each other; it never moves.
  ArmMirror(const ArmMirror&) = delete;
  ArmMirror& operator=(const ArmMirror&) = delete;

  const workload::Population& pop;
  const exp::ArmConfig& arm;
  const exp::RunOptions& opts;
  bool hooks;
  exp::ArmResult& res;
  Ledger& led;

  exp::ConnArena arena;
  obs::FlightRecorder* recorder = nullptr;   // capture only
  const obs::CapturePolicy* policy = nullptr;
  obs::StoreEncoder* encoder = nullptr;
  obs::StoreShard* shard = nullptr;
  obs::StoreWriter* writer = nullptr;
  obs::EpisodeTable* kept_episodes = nullptr;  // reference tables only

  void connection(uint64_t id);
};

void ArmMirror::connection(uint64_t id) {
  const int64_t t0 = now_ns();
  sim::Rng conn_rng = sim::Rng(opts.seed).fork(id);
  workload::ConnectionSample& sample = arena.sample;
  pop.sample_into(conn_rng.fork(100), sample);
  for (const auto& resp : sample.responses) {
    res.total_workload_bytes += resp.bytes;
  }
  const int64_t t1 = now_ns();

  // exp.setup: everything between the sample and the event loop.
  const std::string fault_summary = sample.faults.describe();
  (void)fault_summary;  // run_arm keeps it for quarantine records
  obs::EpisodeBuilder episodes;
  if (recorder != nullptr) {
    recorder->clear();
    if (kept_episodes != nullptr) {
      recorder->add_listener(
          [&episodes](const obs::TraceRecord& r) { episodes.on_record(r); });
    }
  }
  sim::Simulator& sim = arena.sim;
  sim.reset();
  sim.set_scheduler(opts.scheduler);
  sim.set_batch_delivery(opts.batch_delivery);
  if (!arena.conn) {
    arena.conn.emplace(sim, make_connection_config(sample, arm),
                       conn_rng.fork(101), &res.metrics, &res.recovery_log);
  } else {
    arena.conn->reset(make_connection_config(sample, arm), conn_rng.fork(101),
                      &res.metrics, &res.recovery_log);
  }
  tcp::Connection& conn = *arena.conn;
  if (recorder != nullptr) {
    conn.sender().set_recorder(recorder, static_cast<uint32_t>(id));
  }
  const tcp::Metrics metrics_before = res.metrics;
  if (hooks) {
    Ledger* led_p = &led;
    sim.set_slice_profiler([led_p](int64_t ns) { led_p->slice_ns += ns; });
    conn.sender().on_ack_cost_hook = [led_p](int64_t ns) {
      led_p->ack_ns += ns;
      ++led_p->acks;
    };
  }
  {
    const bool ge_loss =
        sample.loss.p_good_to_bad > 0 || sample.loss.loss_in_good > 0;
    if (ge_loss || sample.outages) {
      auto composite = std::make_unique<net::CompositeLoss>();
      if (ge_loss) {
        composite->add(std::make_unique<net::GilbertElliottLoss>(
            sample.loss, conn_rng.fork(102)));
      }
      if (sample.outages) {
        composite->add(std::make_unique<net::OutageLoss>(
            sim, sample.outage, conn_rng.fork(104)));
      }
      conn.path().data_link().set_loss_model(std::move(composite));
    }
  }
  if (sample.reorder_prob > 0) {
    conn.path().data_link().set_reorder_model(
        std::make_unique<net::RandomReorder>(
            sample.reorder_prob, sample.reorder_min, sample.reorder_max,
            conn_rng.fork(103)));
  }
  net::FaultInjector injector(sim, conn.path(), sample.faults);
  if (recorder != nullptr) {
    injector.set_recorder(recorder, static_cast<uint32_t>(id));
  }
  if (!injector.schedule().empty()) injector.arm();
  if (!arena.app) {
    arena.app.emplace(sim, conn, sample.responses, &res.latency);
  } else {
    arena.app->reset(sample.responses, &res.latency);
  }
  http::ServerApp& app = *arena.app;
  if (sample.client_abandons) {
    sim.schedule_in(sample.abandon_after,
                    [&conn] { conn.path().kill_client(); });
  }
  app.start();
  const int64_t t2 = now_ns();

  sim.run(opts.per_connection_limit);
  const int64_t t3 = now_ns();

  res.total_network_transmit_time += conn.sender().network_transmit_time();
  res.total_loss_recovery_time += conn.sender().loss_recovery_time();
  ++res.connections_run;
  tcp::Metrics delta = res.metrics;
  delta -= metrics_before;
  if (arena.handles.owner != &res.registry) arena.handles.bind(res.registry);
  fold_registry(arena.handles, delta, conn.sender(), sim.now());
  if (recorder != nullptr) {
    exp::RegistryHandles& h = arena.handles;
    if (!h.trace_records_written) {
      h.trace_records_written =
          res.registry.counter("obs.trace.records_written");
      h.trace_records_dropped =
          res.registry.counter("obs.trace.records_dropped");
    }
    h.trace_records_written->add(recorder->total_written());
    h.trace_records_dropped->add(recorder->dropped());
  }
  const int64_t t4 = now_ns();

  if (recorder != nullptr) {
    if (kept_episodes != nullptr) {
      recorder->pop_listener();
      episodes.finish();
    }
    obs::CaptureStats cap;
    cap.conn = id;
    cap.timeouts = delta.timeouts_total;
    cap.undo_events = delta.undo_events;
    cap.retransmits = delta.retransmits_total;
    cap.recovery_ms =
        static_cast<double>(conn.sender().loss_recovery_time().ms());
    cap.aborted = conn.sender().aborted();
    const obs::CaptureDecision dec = policy->evaluate(cap);
    led.records += recorder->total_written();
    if (dec.keep) {
      encoder->encode(*recorder, id,
                      dec.full ? obs::kBlockFull : obs::kBlockSampled, shard);
      ++led.kept;
      writer->append_shard(*shard);
      shard->clear();
      if (kept_episodes != nullptr) kept_episodes->fold(episodes);
    }
  }
  const int64_t t5 = now_ns();

  led.sample_ns += t1 - t0;
  led.setup_ns += t2 - t1;
  led.run_ns += t3 - t2;
  led.fold_ns += t4 - t3;
  led.store_ns += t5 - t4;
  led.events += sim.events_processed();
  ++led.conns;
  led.conn_ns.push_back(t5 - t0);
}

}  // namespace

std::vector<ArmOutput> mirror_arms(const workload::Population& pop,
                                   const std::vector<exp::ArmConfig>& arms,
                                   const exp::RunOptions& opts,
                                   const MirrorOptions& d, Ledger* ledger) {
  const int64_t t0 = now_ns();
  const uint64_t first = opts.first_connection;
  const uint64_t end = first + static_cast<uint64_t>(opts.connections);
  obs::CapturePolicy policy;
  if (d.capture) {
    std::string err;
    if (!obs::CapturePolicy::parse(d.policy, &policy, &err)) {
      throw std::invalid_argument("bad capture policy: " + err);
    }
  }
  std::vector<ArmOutput> out(arms.size());
  for (std::size_t a = 0; a < arms.size(); ++a) {
    ArmOutput& o = out[a];
    o.result.name = arms[a].name;
    // The recorder is declared before the mirror so it outlives the
    // pooled sender: timers still armed when the last connection ends
    // write a cancel record into it as the arena is torn down.
    std::optional<obs::FlightRecorder> recorder;
    obs::StoreEncoder encoder;
    obs::StoreShard shard;
    obs::StoreWriter writer;
    ArmMirror arm_mirror(pop, arms[a], opts, d.hooks, o.result, *ledger);
    if (d.capture) {
      obs::StoreMeta meta;
      meta.seed = opts.seed;
      meta.arm = arms[a].name;
      meta.policy = policy.spec();
      meta.scenario = opts.scenario;
      const std::string path =
          obs::store_path_for_arm(d.store_prefix, arms[a].name);
      if (!writer.open(path, meta)) {
        o.error = "cannot open " + path;
        continue;
      }
      recorder.emplace(opts.trace_ring_records);
      arm_mirror.recorder = &*recorder;
      arm_mirror.policy = &policy;
      arm_mirror.encoder = &encoder;
      arm_mirror.shard = &shard;
      arm_mirror.writer = &writer;
      if (d.reference_episodes) arm_mirror.kept_episodes = &o.kept_episodes;
    }
    for (uint64_t id = first; id < end; ++id) arm_mirror.connection(id);
    if (d.capture) {
      if (!writer.finish()) o.error = "short write to " + writer.path();
      ledger->stored_records += writer.records();
      ledger->stored_bytes += writer.payload_bytes();
    }
  }
  ledger->wall_ns += now_ns() - t0;
  return out;
}

std::vector<ArmOutput> mirror_arms_parallel(
    const workload::Population& pop, const std::vector<exp::ArmConfig>& arms,
    const exp::RunOptions& opts, int workers, Ledger* ledger) {
  const int64_t t0 = now_ns();
  const uint64_t n = static_cast<uint64_t>(opts.connections);
  const uint64_t target_chunks = static_cast<uint64_t>(workers) * 8;
  const uint64_t chunk =
      std::max<uint64_t>(1, (n + target_chunks - 1) / target_chunks);
  std::vector<ArmOutput> out(arms.size());
  std::mutex mu;
  for (std::size_t a = 0; a < arms.size(); ++a) {
    out[a].result.name = arms[a].name;
    std::atomic<uint64_t> next{0};
    auto worker = [&, a] {
      exp::ArmResult shard;
      Ledger led;
      ArmMirror arm_mirror(pop, arms[a], opts, /*hooks=*/true, shard, led);
      for (;;) {
        const uint64_t begin = next.fetch_add(chunk);
        if (begin >= n) break;
        const uint64_t stop = std::min(n, begin + chunk);
        for (uint64_t i = begin; i < stop; ++i) {
          arm_mirror.connection(opts.first_connection + i);
        }
      }
      // The handles point into `shard`, which merge() leaves behind.
      arm_mirror.arena.handles.invalidate();
      std::lock_guard<std::mutex> lock(mu);
      out[a].result.merge(std::move(shard));
      ledger->add(led);
    };
    std::vector<std::thread> pool;
    for (int w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  ledger->wall_ns += now_ns() - t0;
  return out;
}

}  // namespace perfbench
