// wire_fanout and negation_durable: a loopback net::Server over a 1-shard
// Engine, one ingest connection sending fixed-size batches, and
// subscriber connections that each run on their own thread.
//
// With one shard, deltas reach every mirror in ingest order, so the
// latency of each result is exact: the precompute says how many deltas
// every batch produces, and a subscriber timestamps the moment its
// mirror's deltas_applied() reaches the batch's cumulative count.

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "harness.h"
#include "net/client.h"
#include "net/server.h"

namespace pb {
namespace {

struct WireSpec {
  const char* deployment;
  QuerySpec q;
  int links;
  double zipf;                ///< Source-address skew of the generator.
  int subscribers;
  bool durable;
  uint64_t batch;             ///< Tuples per IngestBatch.
  uint64_t flush_every;       ///< Batches between Flush RPCs.
  uint64_t checkpoint_every;  ///< Tuples between Checkpoints (0 = none).
  int setups;
  Schedule rates;             ///< Reference rate, ladder, p99 limit.
  const char* summary;        ///< The fixed schedule, for the output.
};

const WireSpec kWireFanout{
    "net::Server on loopback, shards=1, 1 ingest + 2 subscriber "
    "connections",
    {"wks", "SELECT * FROM link0 [RANGE 1000] WHERE protocol = 4",
     {"link0"}, 1000, false},
    1, 1.0, 2, false, 64, 64, 0, 15,
    {50.0, {3.0, 15.0, 75.0, 375.0}, 100.0},
    "batch 64 tuples; flush every 64 batches; ref 50 ktuples/s; ladder "
    "3/15/75/375 ktuples/s; p99 limit 100 ms"};

const WireSpec kNegationDurable{
    "net::Server on loopback, shards=1, durability on (fresh dir, fsync "
    "off), 1 ingest + 1 subscriber connection",
    {"neg",
     "SELECT src_ip FROM link0 [RANGE 20000] EXCEPT SELECT src_ip FROM "
     "link1 [RANGE 20000]",
     {"link0", "link1"}, 20000, true},
    2, 0.5, 1, true, 64, 64, 32768, 9,
    {20.0, {1.2, 6.0, 30.0, 150.0}, 250.0},
    "Zipf 0.5 sources; batch 64 tuples; flush every 64 batches; "
    "checkpoint every 32768 tuples; ref 20 ktuples/s; ladder 1.2/6/30/150 "
    "ktuples/s; p99 limit 250 ms"};

constexpr size_t kMaxBatches = size_t{1} << 20;

/// Per-batch schedule shared by the generator (writer) and the
/// subscribers and engine tap (readers). Entries below `published` are
/// immutable; the release store of `published` makes them visible.
struct BatchTable {
  BatchTable()
      : due(new int64_t[kMaxBatches]),
        bucket(new int32_t[kMaxBatches]),
        wire_cum(new uint64_t[kMaxBatches]),
        engine_cum(new uint64_t[kMaxBatches]),
        engine_seen(new int64_t[kMaxBatches]) {}
  std::unique_ptr<int64_t[]> due;
  std::unique_ptr<int32_t[]> bucket;
  std::unique_ptr<uint64_t[]> wire_cum;    ///< Deltas through this batch.
  std::unique_ptr<uint64_t[]> engine_cum;  ///< Engine-side deltas, ditto.
  std::unique_ptr<int64_t[]> engine_seen;  ///< Traced runs only.
  std::atomic<uint64_t> published{0};
};

/// One subscriber connection and its thread.
struct Sub {
  upa::net::Client client;
  upa::net::SubscriptionMirror* mirror = nullptr;
  std::unique_ptr<int64_t[]> seen{new int64_t[kMaxBatches]};
  std::thread thread;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> done{0};  ///< Batches fully applied.
  std::atomic<int64_t> watermark{-1};
  std::atomic<bool> failed{false};
  std::string error;  ///< Written before `failed` is set.

  void Run(const BatchTable* table, ThreadTrace* trace) {
    uint64_t b = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      bool ok;
      std::string err;
      {
        // PollEvents(1) never reads (the 1 ms deadline truncates to 0
        // before the first poll), so the loop waits up to 50 ms.
        ScopedSpan span(trace, "net.PollEvents", "sub");
        ok = client.PollEvents(50, &err);
      }
      const int64_t now = NowNs();
      if (!ok || mirror->dropped()) {
        error = ok ? "subscription dropped by the server" : err;
        failed.store(true);
        return;
      }
      const uint64_t applied = mirror->deltas_applied();
      const uint64_t pub = table->published.load(std::memory_order_acquire);
      while (b < pub && table->wire_cum[b] <= applied) seen[b++] = now;
      watermark.store(mirror->watermark(), std::memory_order_relaxed);
      done.store(b, std::memory_order_release);
    }
  }
};

/// Engine-side subscription of traced runs: when the engine's callback
/// sees each batch's deltas (net.delivery_ms = mirror - engine).
struct EngineTap {
  BatchTable* table = nullptr;
  uint64_t count = 0;
  uint64_t b = 0;
  void OnEvent(const upa::SubscriptionEvent& ev) {
    if (ev.kind != upa::SubscriptionEvent::Kind::kDelta) return;
    ++count;
    const uint64_t pub = table->published.load(std::memory_order_acquire);
    const int64_t now = NowNs();
    while (b < pub && table->engine_cum[b] <= count) {
      table->engine_seen[b++] = now;
    }
  }
};

struct SetupTimes {
  double total_s = 0, connect_ms = 0, register_ms = 0, subscribe_ms = 0,
         fill_s = 0;
};

class WireRun : public LoadGenerator {
 public:
  WireRun(const WireSpec& spec, const RunArgs& args, const InputStream& in,
          const Precomputed& pre, Report* r, Tracer* tracer)
      : spec_(spec), args_(args), in_(in), pre_(pre), r_(r),
        tracer_(tracer), gen_buffer_(tracer->Thread("generator")) {}
  ~WireRun() { TearDown(); }

  SetupTimes SetUp(int k);
  void TearDown();
  /// Final barrier and correctness gate: every mirror == the Snapshot
  /// RPC == ReferenceEvaluator, and the exact counts == the precompute.
  void Check();
  upa::net::ServerStats ServerStatsNow() const { return server_->Stats(); }

  // Measurement phases (generator thread).
  std::pair<int64_t, int64_t> Closed(double seconds, bool traced,
                                     Throughput* thr) override;
  OpenResult Open(double ktps, double seconds, int bucket,
                  Samples* lag_ms) override;
  Samples Latency(int bucket) const override { return LatencyOf(bucket, 0); }
  /// Result latency (ms) of the batches tagged `bucket`, per result:
  /// mirror (kind 0), engine callback (1), or mirror - engine (2).
  Samples LatencyOf(int bucket, int kind) const;

  /// Spans and call timings on or off (traced runs only).
  void Trace(bool on) {
    gen_trace_ = on ? gen_buffer_ : nullptr;
    time_calls_ = on;
  }

  OpenLoop ol;
  upa::Engine* engine() { return engine_.get(); }

 private:
  uint64_t WireCum(uint64_t p) const {
    return pre_.pattern == upa::UpdatePattern::kStrict
               ? pre_.counts.Pos(p) + pre_.counts.Neg(p)
               : pre_.counts.Pos(p);
  }
  void SendBatch(uint64_t count, int64_t due, int bucket);
  void Flush();
  void WaitSynced();

  const WireSpec& spec_;
  const RunArgs& args_;
  const InputStream& in_;
  const Precomputed& pre_;
  Report* r_;
  Tracer* tracer_;
  ThreadTrace* const gen_buffer_;  ///< Null in untraced runs.
  ThreadTrace* gen_trace_ = nullptr;  ///< Null: this stretch is untraced.
  bool time_calls_ = false;
  bool desynced_ = false;  ///< A mirror ended short (the run has failed).

  std::string dir_;
  std::unique_ptr<upa::Engine> engine_;
  std::unique_ptr<upa::net::Server> server_;
  std::unique_ptr<upa::net::Client> ingest_;
  std::vector<std::unique_ptr<Sub>> subs_;
  std::unique_ptr<BatchTable> table_;
  EngineTap tap_;
  std::vector<uint32_t> ids_;
  std::vector<std::pair<uint32_t, Tuple>> buf_;

 public:
  uint64_t p = 0;        ///< Next position to send.
  uint64_t batches = 0;  ///< Batches published.
  Samples rpc_us, flush_ms, checkpoint_ms;
};

SetupTimes WireRun::SetUp(int k) {
  SetupTimes st;
  const int64_t t0 = NowNs();
  table_ = std::make_unique<BatchTable>();
  p = batches = 0;
  upa::EngineOptions eo;
  eo.default_shards = 1;
  if (spec_.durable) {
    dir_ = args_.tmp_dir + "/" + args_.workload + "-" +
           std::to_string(::getpid()) + "-" + std::to_string(k);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    eo.durability.dir = dir_;
  }
  engine_ = std::make_unique<upa::Engine>(eo);
  upa::net::ServerOptions so;
  so.port = 0;
  server_ = std::make_unique<upa::net::Server>(engine_.get(), so);
  std::string err;
  r_->Attempt();
  if (!server_->Start(&err)) r_->Fail("Server::Start: " + err);
  ingest_ = std::make_unique<upa::net::Client>();
  r_->Attempt();
  if (!ingest_->Connect("127.0.0.1", server_->port(), &err)) {
    r_->Fail("Connect: " + err);
  }
  ids_.clear();
  for (const std::string& s : spec_.q.streams) {
    r_->Attempt();
    const int64_t id = ingest_->DeclareStream(s, upa::LblSchema(), &err);
    if (id != static_cast<int64_t>(ids_.size())) {
      r_->Fail("DeclareStream " + s + ": " + err);
    }
    ids_.push_back(static_cast<uint32_t>(id));
  }
  subs_.clear();
  for (int i = 0; i < spec_.subscribers; ++i) {
    subs_.push_back(std::make_unique<Sub>());
    r_->Attempt();
    if (!subs_.back()->client.Connect("127.0.0.1", server_->port(), &err)) {
      r_->Fail("Connect: " + err);
    }
  }
  const int64_t t1 = NowNs();
  r_->Attempt();
  if (!ingest_->RegisterQuery(spec_.q.name, spec_.q.sql, 0, nullptr, &err)) {
    r_->Fail("RegisterQuery: " + err);
  }
  const int64_t t2 = NowNs();
  if (args_.trace) {
    tap_ = EngineTap{table_.get()};
    upa::SubscriptionInfo info;
    EngineTap* tap = &tap_;
    if (!engine_->Subscribe(
            spec_.q.name,
            [tap](const upa::SubscriptionEvent& ev) { tap->OnEvent(ev); },
            &info)) {
      r_->Fail("Engine::Subscribe failed");
    }
  }
  for (auto& s : subs_) {
    r_->Attempt();
    s->mirror = s->client.Subscribe(spec_.q.name, &err);
    if (s->mirror == nullptr) r_->Fail("Subscribe: " + err);
  }
  const int64_t t3 = NowNs();
  for (size_t i = 0; i < subs_.size(); ++i) {
    Sub* s = subs_[i].get();
    if (s->mirror == nullptr) continue;
    ThreadTrace* tt = tracer_->Thread("subscriber" + std::to_string(i));
    s->thread = std::thread([s, this, tt] { s->Run(table_.get(), tt); });
  }
  // Fill: one window of input, then a barrier with every mirror in sync.
  const uint64_t fill = static_cast<uint64_t>(spec_.q.window) *
                        static_cast<uint64_t>(spec_.links);
  while (p < fill) SendBatch(std::min(spec_.batch, fill - p), NowNs(), 0);
  Flush();
  WaitSynced();
  const int64_t t4 = NowNs();
  st.total_s = Seconds(t4 - t0);
  st.connect_ms = static_cast<double>(t1 - t0) / 1e6;
  st.register_ms = static_cast<double>(t2 - t1) / 1e6;
  st.subscribe_ms = static_cast<double>(t3 - t2) / 1e6;
  st.fill_s = Seconds(t4 - t3);
  return st;
}

void WireRun::TearDown() {
  for (auto& s : subs_) {
    s->stop.store(true);
    if (s->thread.joinable()) s->thread.join();
    s->client.Close();
  }
  subs_.clear();
  if (ingest_ != nullptr) ingest_->Close();
  ingest_.reset();
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  if (engine_ != nullptr) engine_->Stop();
  engine_.reset();
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    dir_.clear();
  }
}

void WireRun::SendBatch(uint64_t count, int64_t due, int bucket) {
  if (batches >= kMaxBatches) {
    r_->Fail("batch table full");
    return;
  }
  const uint64_t before = p;
  {
    ScopedSpan step(gen_trace_, "gen.step", "gen",
                    static_cast<int64_t>(batches));
    buf_.resize(count);
    for (uint64_t i = 0; i < count; ++i, ++p) {
      buf_[i].first = ids_[static_cast<size_t>(in_.StreamAt(p))];
      in_.TupleAt(p, &buf_[i].second);
    }
    BatchTable& t = *table_;
    t.due[batches] = due;
    t.bucket[batches] = bucket;
    t.wire_cum[batches] = WireCum(p);
    t.engine_cum[batches] = pre_.counts.Pos(p) + pre_.counts.Neg(p);
    t.engine_seen[batches] = 0;
    t.published.store(batches + 1, std::memory_order_release);
    ++batches;
    ScopedSpan call(gen_trace_, "net.IngestBatch", "net",
                    static_cast<int64_t>(batches - 1));
    std::string err;
    const int64_t a = NowNs();
    r_->Attempt();
    if (!ingest_->IngestBatch(buf_, &err)) r_->Fail("IngestBatch: " + err);
    if (time_calls_) rpc_us.Add(static_cast<double>(NowNs() - a) / 1e3);
  }
  if (spec_.checkpoint_every > 0 &&
      p / spec_.checkpoint_every != before / spec_.checkpoint_every) {
    ScopedSpan span(gen_trace_, "durability.Checkpoint", "durability");
    std::string err;
    const int64_t a = NowNs();
    r_->Attempt();
    if (!engine_->Checkpoint(&err)) r_->Fail("Checkpoint: " + err);
    if (time_calls_) {
      checkpoint_ms.Add(static_cast<double>(NowNs() - a) / 1e6);
    }
  }
  if (batches % spec_.flush_every == 0) Flush();
}

void WireRun::Flush() {
  ScopedSpan span(gen_trace_, "net.Flush", "net");
  std::string err;
  const int64_t a = NowNs();
  r_->Attempt();
  if (!ingest_->Flush(&err)) r_->Fail("Flush: " + err);
  if (time_calls_) flush_ms.Add(static_cast<double>(NowNs() - a) / 1e6);
}

void WireRun::WaitSynced() {
  // After one mirror ended short the run has failed; waiting again would
  // only run into the deadline at every barrier.
  if (desynced_) return;
  ScopedSpan span(gen_trace_, "sub.WaitSynced", "sub");
  const Time clock = p == 0 ? -1 : in_.TsAt(p - 1);
  const int64_t deadline = NowNs() + 10'000'000'000;
  for (auto& s : subs_) {
    for (;;) {
      if (s->failed.load()) {
        r_->Fail("subscriber: " + s->error);
        desynced_ = true;
        break;
      }
      if (s->done.load(std::memory_order_acquire) >= batches &&
          s->watermark.load(std::memory_order_relaxed) >= clock) {
        break;
      }
      if (NowNs() > deadline) {
        r_->Fail("mirror ends short: " +
                 std::to_string(s->done.load()) + " of " +
                 std::to_string(batches) + " batches applied");
        desynced_ = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

std::pair<int64_t, int64_t> WireRun::Closed(double seconds, bool traced,
                                            Throughput* thr) {
  Trace(traced);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const uint64_t p0 = p;
  while (NowNs() < end) SendBatch(spec_.batch, NowNs(), 0);
  Flush();
  WaitSynced();
  const int64_t stop = NowNs();
  thr->Add(p - p0, stop - start);
  Trace(gen_buffer_ != nullptr);
  return {start, stop};
}

OpenResult WireRun::Open(double ktps, double seconds, int bucket,
                         Samples* lag_ms) {
  ol.Start(p, ktps, bucket);
  OpenResult ph;
  ph.start_ns = ol.t0;
  ph.send_end_ns = ol.t0 + static_cast<int64_t>(seconds * 1e9);
  const uint64_t p0 = p;
  for (;;) {
    // A batch is due when its last tuple is.
    const int64_t due = ol.Due(p + spec_.batch - 1);
    if (due >= ph.send_end_ns || NowNs() >= ph.send_end_ns) break;
    SleepUntilNs(due);
    if (lag_ms != nullptr) {
      lag_ms->Add(static_cast<double>(NowNs() - due) / 1e6);
    }
    SendBatch(spec_.batch, due, bucket);
    ol.sent.store(p - p0, std::memory_order_relaxed);
    ph.last_send_ns = NowNs();
  }
  Flush();
  WaitSynced();
  ol.bucket.store(0, std::memory_order_release);
  ph.sent = p - p0;
  return ph;
}

Samples WireRun::LatencyOf(int bucket, int kind) const {
  Samples out;
  const BatchTable& t = *table_;
  const uint64_t n = t.published.load(std::memory_order_acquire);
  for (uint64_t b = 0; b < n; ++b) {
    if (t.bucket[b] != bucket) continue;
    const uint64_t prev_wire = b == 0 ? 0 : t.wire_cum[b - 1];
    const uint64_t prev_eng = b == 0 ? 0 : t.engine_cum[b - 1];
    if (kind == 1) {
      out.Add(static_cast<double>(t.engine_seen[b] - t.due[b]) / 1e6,
              t.engine_cum[b] - prev_eng);
      continue;
    }
    for (const auto& s : subs_) {
      const int64_t base = kind == 0 ? t.due[b] : t.engine_seen[b];
      out.Add(static_cast<double>(s->seen[b] - base) / 1e6,
              t.wire_cum[b] - prev_wire);
    }
  }
  return out;
}

void WireRun::Check() {
  Flush();
  WaitSynced();
  const uint64_t P = p;
  std::vector<Tuple> snap;
  std::string err;
  r_->Attempt();
  if (!ingest_->Snapshot(spec_.q.name, &snap, nullptr, &err)) {
    r_->Fail("Snapshot: " + err);
  }
  const Digest snap_d = DigestOf(snap, spec_.q.key_only);
  const Digest oracle_d = OracleDigest(in_, pre_, spec_.q, P);
  r_->Attempt();
  if (snap_d != oracle_d) r_->Fail("Snapshot != ReferenceEvaluator");
  const uint64_t want_neg = pre_.pattern == upa::UpdatePattern::kStrict
                                ? pre_.counts.Neg(P)
                                : 0;
  for (auto& s : subs_) {
    s->stop.store(true);
    if (s->thread.joinable()) s->thread.join();
    if (s->mirror == nullptr) continue;
    r_->Attempt(2);
    if (DigestOf(s->mirror->Rows(), spec_.q.key_only) != snap_d) {
      r_->Fail("mirror != Snapshot");
    }
    if (s->mirror->deltas_applied() != WireCum(P) ||
        s->mirror->negatives_applied() != want_neg) {
      r_->Fail("mirror applied " +
               std::to_string(s->mirror->deltas_applied()) + " deltas (" +
               std::to_string(s->mirror->negatives_applied()) +
               " negative), expected " + std::to_string(WireCum(P)) + " (" +
               std::to_string(want_neg) + ")");
    }
  }
  const upa::EngineMetrics em = engine_->Metrics();
  const upa::QueryMetrics* qm = nullptr;
  for (const auto& q : em.queries) {
    if (q.name == spec_.q.name) qm = &q;
  }
  r_->Attempt(3);
  if (qm == nullptr || qm->stats.results_pos != pre_.counts.Pos(P) ||
      qm->stats.results_neg != pre_.counts.Neg(P)) {
    r_->Fail("engine result counts differ from the precompute");
  }
  if (qm == nullptr || qm->dropped != 0) r_->Fail("engine dropped tuples");
  const upa::net::ServerStats ss = server_->Stats();
  if (ss.slow_drops != 0 || ss.protocol_errors != 0) {
    r_->Fail("server slow-consumer drops or protocol errors");
  }
  r_->Note("final", std::to_string(P) + " tuples, " +
                        std::to_string(snap_d.count) + " live results, " +
                        std::to_string(WireCum(P)) + " deltas per mirror");
}

void RunWire(const WireSpec& spec, const RunArgs& args, Report* r) {
  r->Note("deployment", spec.deployment);
  r->Note("query", spec.q.sql);
  r->Note("schedule", spec.summary);
  std::filesystem::create_directories(args.tmp_dir);

  const InputStream in(args.seed, spec.links, spec.q.window, spec.zipf);
  const Precomputed pre = Precompute(in, spec.q);
  Tracer tracer(args.trace);
  WireRun run(spec, args, in, pre, r, &tracer);
  std::vector<SetupTimes> setups;
  setups.push_back(run.SetUp(0));

  upa::Engine* engine = run.engine();
  run.Trace(args.trace);
  Sampler sampler(engine, spec.q.name, &run.ol, &tracer);
  sampler.Start();
  const PhaseResults ph = RunPhases(&run, sampler, args, spec.rates);
  sampler.Stop();
  const double rss = PeakRssMb();

  run.Check();
  const uint64_t P = run.p;
  const upa::net::ServerStats ss = run.ServerStatsNow();
  const upa::DurabilityMetrics dm = engine->Metrics().durability;
  std::vector<Samples> eng, delivery;
  if (args.trace) {
    for (int k = 1; k <= kRounds; ++k) {
      eng.push_back(run.LatencyOf(k, 1));
      delivery.push_back(run.LatencyOf(k, 2));
    }
  }

  // More set-ups, after the peak-RSS reading (freed engines stay in the
  // allocator's arenas), for the median set-up time.
  run.Trace(false);
  for (int k = 1; k < spec.setups; ++k) {
    run.TearDown();
    setups.push_back(run.SetUp(k));
  }
  run.TearDown();
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& st : setups) v.push_back(st.*field);
    return Median(v);
  };
  SetEndToEnd(ph, median_of(&SetupTimes::total_s), rss, r);
  if (!args.trace) return;

  const uint64_t pos = pre.counts.Pos(P);
  const uint64_t neg = pre.counts.Neg(P);
  r->Set("net.ingest_rpc_us.p50", run.rpc_us.Pct(50), "us");
  r->Set("net.ingest_rpc_us.p99", run.rpc_us.Pct(99), "us");
  r->Set("net.flush_rpc_ms.p50", run.flush_ms.Pct(50), "ms");
  r->Set("net.codec_ns_per_tuple", CodecNsPerTuple(in, spec.batch), "ns");
  const uint64_t wire_deltas =
      pre.pattern == upa::UpdatePattern::kStrict ? pos + neg : pos;
  r->Set("net.bytes_in_per_tuple",
         static_cast<double>(ss.bytes_in) / static_cast<double>(P), "B");
  r->Set("net.bytes_out_per_delta",
         static_cast<double>(ss.bytes_out) /
             static_cast<double>(std::max<uint64_t>(
                 1, wire_deltas * static_cast<uint64_t>(spec.subscribers))),
         "B");
  r->Set("net.delivery_ms.p50", MedianPct(delivery, 50), "ms");
  r->Set("net.delivery_ms.p99", MedianPct(delivery, 99), "ms");
  r->Set("engine.delta_lat_ms.p50", MedianPct(eng, 50), "ms");
  r->Set("engine.delta_lat_ms.p99", MedianPct(eng, 99), "ms");
  r->Set("engine.shard_imbalance", 1.0, "ratio");
  r->Set("engine.queue_depth.max", static_cast<double>(sampler.max_depth()),
         "tuples");
  r->Set("obs.metrics_ms", sampler.obs_ms().Pct(50), "ms");
  SetCommonLayerMetrics(pre, P, pos, neg, r);
  if (spec.durable) {
    r->Set("durability.wal_bytes_per_tuple",
           static_cast<double>(dm.wal_bytes) / static_cast<double>(P), "B");
    r->Set("durability.checkpoint_ms.p50", run.checkpoint_ms.Pct(50), "ms");
    r->Set("durability.checkpoint_ms.max", run.checkpoint_ms.Max(), "ms");
    r->Set("durability.checkpoint_kb",
           static_cast<double>(dm.last_checkpoint_bytes) / 1024.0, "KiB");
  }
  r->Set("setup.connect_ms", median_of(&SetupTimes::connect_ms), "ms");
  r->Set("setup.register_ms", median_of(&SetupTimes::register_ms), "ms");
  r->Set("setup.subscribe_ms", median_of(&SetupTimes::subscribe_ms), "ms");
  r->Set("setup.fill_s", median_of(&SetupTimes::fill_s), "s");
  ReportTrace(tracer, args, ph, r);
}

}  // namespace

void RunWireFanout(const RunArgs& args, Report* r) {
  RunWire(kWireFanout, args, r);
}

void RunNegationDurable(const RunArgs& args, Report* r) {
  RunWire(kNegationDurable, args, r);
}

}  // namespace pb
