// join_skew: in-process Engine, 2 shards, no network. Query 1 over two
// Zipf-1.0 links; one producer thread calls Engine::Ingest and one
// Engine::Subscribe callback is the subscriber: it timestamps every delta
// and keeps an order-independent digest mirror of the view.

#include <cstdio>
#include <algorithm>

#include "harness.h"

namespace pb {
namespace {

const QuerySpec kQuery{
    "q1",
    "SELECT * FROM link0 [RANGE 10000], link1 [RANGE 10000] "
    "WHERE link0.src_ip = link1.src_ip AND link0.protocol = 2 "
    "AND link1.protocol = 2",
    {"link0", "link1"},
    10000,
    false};
constexpr int kShards = 2;
constexpr int kLinks = 2;
/// Tuples per generator step (one span, one ingest-timing group).
constexpr uint64_t kStep = 64;
/// Tuples between Engine::Flush barriers (watermarks for the mirror).
constexpr uint64_t kFlushEvery = 16384;
constexpr int kSetups = 5;
/// Fixed open-loop rates (ktuples/s: reference, ladder) and p99 limit (ms).
const Schedule kSchedule{2.5, {2.0, 6.0, 24.0}, 100.0};
/// Columns of one link's tuple; a Query 1 result holds link0's, then link1's.
constexpr size_t kLinkFields = 5;

/// The subscriber: runs on shard threads under the hub lock (callbacks
/// are serialized), so it needs no lock of its own. Mirrors the WKS view
/// as a digest, with the live rows summed per expiry time in a ring that a
/// watermark clears up to its time: O(1) per delta and O(time advanced)
/// per watermark. (A heap of rows made each watermark stall the shards
/// for tens of milliseconds.)
class JoinMirror {
 public:
  JoinMirror(const InputStream* in, const OpenLoop* ol, size_t buckets)
      : in_(in), ol_(ol), ring_(kRing), lat(buckets) {}

  void OnEvent(const upa::SubscriptionEvent& ev) {
    switch (ev.kind) {
      case upa::SubscriptionEvent::Kind::kDelta: {
        ++deltas;
        const Time exp = ev.delta.exp;
        if (exp <= expired_ || exp - expired_ >= static_cast<Time>(kRing)) {
          ++misplaced;  // Outside the ring's span; fails the run.
          break;
        }
        const uint64_t h = TupleHash(ev.delta, kQuery.key_only);
        Digest& slot = ring_[static_cast<size_t>(exp) & (kRing - 1)];
        if (ev.delta.negative) {
          // A WKS root never emits negatives; counted and checked.
          ++negatives;
          slot.sum -= h;
          --slot.count;
          digest.sum -= h;
          --digest.count;
        } else {
          slot.sum += h;
          ++slot.count;
          digest.sum += h;
          ++digest.count;
        }
        const int b = ol_->bucket.load(std::memory_order_acquire);
        if (b > 0) {
          const int64_t due = ol_->Due(Trigger(ev.delta));
          lat[static_cast<size_t>(b)].Add(
              static_cast<double>(NowNs() - due) / 1e6);
        }
        break;
      }
      case upa::SubscriptionEvent::Kind::kWatermark: {
        // Expire every row with exp <= time.
        const Time from =
            std::max(expired_ + 1, ev.time - static_cast<Time>(kRing) + 1);
        for (Time t = from; t <= ev.time; ++t) {
          Digest& slot = ring_[static_cast<size_t>(t) & (kRing - 1)];
          digest.sum -= slot.sum;
          digest.count -= slot.count;
          slot = Digest();
        }
        expired_ = std::max(expired_, ev.time);
        break;
      }
      case upa::SubscriptionEvent::Kind::kReset:
        ++resets;
        break;
    }
  }

  /// The input that produced a result: the later of its two components.
  /// The result carries that one's timestamp, and at a timestamp link0's
  /// tuple precedes link1's, so it is link1's tuple at that timestamp when
  /// the result holds it, else link0's.
  uint64_t Trigger(const Tuple& result) const {
    const uint64_t last = in_->LastPosWithTs(result.ts);
    return in_->FieldsMatch(last, result, kLinkFields) ? last : last - 1;
  }

  uint64_t deltas = 0;
  uint64_t negatives = 0;
  uint64_t resets = 0;
  uint64_t misplaced = 0;
  Digest digest;

 private:
  /// Live rows expire within window + one flush interval of the last
  /// watermark (10000 + 8192 time units), well inside the ring.
  static constexpr size_t kRing = size_t{1} << 16;
  const InputStream* in_;
  const OpenLoop* ol_;
  Time expired_ = 0;  ///< Rows with exp <= this are gone.
  std::vector<Digest> ring_;

 public:
  std::vector<Samples> lat;  ///< Result latency (ms) per open-loop bucket.
};

struct Rig {
  // Declared first so the engine (whose threads call the mirror) is
  // destroyed before it.
  std::unique_ptr<JoinMirror> mirror;
  std::unique_ptr<upa::Engine> engine;
  int ids[kLinks] = {-1, -1};
};

/// The producer thread: Engine::Ingest one tuple at a time.
class Gen : public LoadGenerator {
 public:
  Gen(const InputStream* in, Rig* rig, Report* r, OpenLoop* ol = nullptr,
      ThreadTrace* trace = nullptr)
      : in_(in), rig_(rig), r_(r), ol_(ol), gen_trace_(trace) {}

  void IngestOne() {
    in_->TupleAt(p, &t_);
    const int sid = rig_->ids[in_->StreamAt(p)];
    if (time_calls_) {
      const int64_t a = NowNs();
      rig_->engine->Ingest(sid, t_);
      ingest_ns.Add(static_cast<double>(NowNs() - a));
    } else {
      rig_->engine->Ingest(sid, t_);
    }
    r_->Attempt();
    ++p;
    if (p % kFlushEvery == 0) Flush();
  }

  void Flush() {
    ScopedSpan span(trace_, "engine.Flush", "engine");
    const int64_t a = NowNs();
    r_->Attempt();
    if (!rig_->engine->Flush()) r_->Fail("Engine::Flush returned false");
    if (time_calls_) flush_ms.Add(static_cast<double>(NowNs() - a) / 1e6);
  }

  std::pair<int64_t, int64_t> Closed(double seconds, bool traced,
                                     Throughput* thr) override {
    Trace(traced);
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    const uint64_t p0 = p;
    while (NowNs() < end) {
      ScopedSpan step(trace_, "gen.step", "gen", static_cast<int64_t>(p));
      ScopedSpan call(trace_, "engine.Ingest", "engine",
                      static_cast<int64_t>(p));
      for (uint64_t i = 0; i < kStep; ++i) IngestOne();
    }
    Flush();
    const int64_t stop = NowNs();
    thr->Add(p - p0, stop - start);
    Trace(gen_trace_ != nullptr);
    return {start, stop};
  }

  OpenResult Open(double ktps, double seconds, int bucket,
                  Samples* lag_ms) override {
    ol_->Start(p, ktps, bucket);
    OpenResult o;
    o.start_ns = ol_->t0;
    o.send_end_ns = ol_->t0 + static_cast<int64_t>(seconds * 1e9);
    const uint64_t p0 = p;
    for (;;) {
      const int64_t due = ol_->Due(p);
      if (due >= o.send_end_ns || NowNs() >= o.send_end_ns) break;
      SleepUntilNs(due);
      if (lag_ms != nullptr) {
        lag_ms->Add(static_cast<double>(NowNs() - due) / 1e6);
      }
      ScopedSpan step(trace_, "gen.send", "gen", static_cast<int64_t>(p));
      {
        ScopedSpan call(trace_, "engine.Ingest", "engine",
                        static_cast<int64_t>(p));
        IngestOne();
      }
      ol_->sent.store(p - p0, std::memory_order_relaxed);
      o.last_send_ns = NowNs();
    }
    Flush();
    ol_->bucket.store(0, std::memory_order_release);
    o.sent = p - p0;
    return o;
  }

  Samples Latency(int bucket) const override {
    return rig_->mirror->lat[static_cast<size_t>(bucket)];
  }

  uint64_t p = 0;  ///< Next position to send.
  Samples ingest_ns;
  Samples flush_ms;

 private:
  /// Spans and call timings on or off (traced runs only).
  void Trace(bool on) {
    trace_ = on ? gen_trace_ : nullptr;
    time_calls_ = on;
  }

  const InputStream* in_;
  Rig* rig_;
  Report* r_;
  OpenLoop* ol_;
  ThreadTrace* const gen_trace_;  ///< Null in untraced runs.
  ThreadTrace* trace_ = nullptr;  ///< Null: this stretch is untraced.
  bool time_calls_ = false;
  Tuple t_;
};

struct SetupTimes {
  double total_s = 0, connect_ms = 0, register_ms = 0, subscribe_ms = 0,
         fill_s = 0;
};

SetupTimes SetUp(const InputStream& in, const OpenLoop* ol, Rig* rig,
                 Report* r) {
  SetupTimes st;
  const int64_t t0 = NowNs();
  upa::EngineOptions eo;
  eo.default_shards = kShards;
  rig->engine = std::make_unique<upa::Engine>(eo);
  for (int i = 0; i < kLinks; ++i) {
    rig->ids[i] = rig->engine->DeclareStream(kQuery.streams[i],
                                             upa::LblSchema());
    r->Attempt();
    if (rig->ids[i] != i) r->Fail("unexpected stream id");
  }
  const int64_t t1 = NowNs();
  r->Attempt();
  const upa::RegisterResult reg =
      rig->engine->RegisterSql(kQuery.name, kQuery.sql);
  if (!reg.ok) r->Fail("RegisterSql: " + reg.error);
  const int64_t t2 = NowNs();
  // Buckets: none, the reference rounds, the ladder rungs (RunPhases).
  rig->mirror = std::make_unique<JoinMirror>(
      &in, ol, 1 + kRounds + kSchedule.ladder_ktps.size());
  JoinMirror* m = rig->mirror.get();
  upa::SubscriptionInfo info;
  r->Attempt();
  if (!rig->engine->Subscribe(
          kQuery.name, [m](const upa::SubscriptionEvent& ev) { m->OnEvent(ev); },
          &info)) {
    r->Fail("Engine::Subscribe failed");
  }
  const int64_t t3 = NowNs();
  Gen fill(&in, rig, r);
  while (fill.p < in.n()) fill.IngestOne();
  fill.Flush();
  const int64_t t4 = NowNs();
  st.total_s = Seconds(t4 - t0);
  st.connect_ms = static_cast<double>(t1 - t0) / 1e6;
  st.register_ms = static_cast<double>(t2 - t1) / 1e6;
  st.subscribe_ms = static_cast<double>(t3 - t2) / 1e6;
  st.fill_s = Seconds(t4 - t3);
  return st;
}

}  // namespace

void RunJoinSkew(const RunArgs& args, Report* r) {
  r->Note("deployment", "in-process Engine, shards=2, no network, "
                        "one producer thread, one Subscribe callback");
  r->Note("query", kQuery.sql);
  r->Note("schedule",
          "flush every 16384 tuples; ref 2.5 ktuples/s; ladder 2/6/24 "
          "ktuples/s; p99 limit 100 ms");

  const InputStream in(args.seed, kLinks, kQuery.window, 1.0);
  const Precomputed pre = Precompute(in, kQuery);

  OpenLoop ol;
  std::vector<SetupTimes> setups;
  Rig rig;
  setups.push_back(SetUp(in, &ol, &rig, r));

  Tracer tracer(args.trace);
  Gen gen(&in, &rig, r, &ol, tracer.Thread("generator"));
  gen.p = in.n();
  Sampler sampler(rig.engine.get(), kQuery.name, &ol, &tracer);
  sampler.Start();
  const PhaseResults ph = RunPhases(&gen, sampler, args, kSchedule);
  sampler.Stop();
  const double rss = PeakRssMb();

  // Final barrier and correctness: mirror == Snapshot == oracle, and the
  // exact counts equal the precompute.
  const uint64_t P = gen.p;
  gen.Flush();
  std::vector<Tuple> snap;
  r->Attempt();
  if (!rig.engine->Snapshot(kQuery.name, &snap)) r->Fail("Snapshot failed");
  const Digest snap_d = DigestOf(snap, kQuery.key_only);
  snap.clear();
  snap.shrink_to_fit();
  const Digest oracle_d = OracleDigest(in, pre, kQuery, P);
  const JoinMirror& m = *rig.mirror;
  const uint64_t want_pos = pre.counts.Pos(P);
  const uint64_t want_neg = pre.counts.Neg(P);
  const upa::EngineMetrics em = rig.engine->Metrics();
  const upa::QueryMetrics* qm = nullptr;
  for (const auto& q : em.queries) {
    if (q.name == kQuery.name) qm = &q;
  }
  r->Attempt(7);
  if (m.digest != snap_d) r->Fail("mirror != Snapshot");
  if (snap_d != oracle_d) r->Fail("Snapshot != ReferenceEvaluator");
  if (m.deltas != want_pos + want_neg || m.negatives != want_neg) {
    r->Fail("mirror deltas " + std::to_string(m.deltas) + " (" +
            std::to_string(m.negatives) + " negative), expected " +
            std::to_string(want_pos + want_neg) + " (" +
            std::to_string(want_neg) + ")");
  }
  if (m.resets != 0) r->Fail("unexpected subscription resets");
  if (m.misplaced != 0) r->Fail("deltas outside the mirror's expiry ring");
  if (qm == nullptr || qm->stats.results_pos != want_pos ||
      qm->stats.results_neg != want_neg) {
    r->Fail("engine result counts differ from the precompute");
  }
  if (qm == nullptr || qm->dropped != 0) r->Fail("engine dropped tuples");
  r->Note("final", std::to_string(P) + " tuples, " +
                       std::to_string(snap_d.count) + " live results, " +
                       std::to_string(m.deltas) + " deltas");
  double max_p = 0, sum_p = 0;
  if (qm != nullptr) {
    for (const auto& sm : qm->per_shard) {
      max_p = std::max(max_p, static_cast<double>(sm.processed));
      sum_p += static_cast<double>(sm.processed);
    }
    sum_p /= static_cast<double>(qm->per_shard.size());
  }
  rig.engine->Stop();
  rig.engine.reset();

  // More set-ups, after the peak-RSS reading (freed engines stay in the
  // allocator's arenas), for the median set-up time.
  for (int k = 1; k < kSetups; ++k) {
    Rig extra;
    setups.push_back(SetUp(in, &ol, &extra, r));
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& st : setups) v.push_back(st.*field);
    return Median(v);
  };
  SetEndToEnd(ph, median_of(&SetupTimes::total_s), rss, r);
  if (!args.trace) return;

  // Per layer. No network layer here: of the net.* metrics only the codec
  // cost of this workload's tuples is measured. The subscriber is the
  // engine-side callback, so engine.delta_lat_ms is the result latency.
  r->Set("engine.ingest_ns.p50", gen.ingest_ns.Pct(50), "ns");
  r->Set("engine.ingest_ns.p99", gen.ingest_ns.Pct(99), "ns");
  r->Set("engine.shard_imbalance", sum_p > 0 ? max_p / sum_p : 0.0, "ratio");
  r->Set("engine.delta_lat_ms.p50", MedianPct(ph.ref, 50), "ms");
  r->Set("engine.delta_lat_ms.p99", MedianPct(ph.ref, 99), "ms");
  r->Set("engine.queue_depth.max", static_cast<double>(sampler.max_depth()),
         "tuples");
  r->Set("engine.flush_ms", gen.flush_ms.Pct(50), "ms");
  r->Set("obs.metrics_ms", sampler.obs_ms().Pct(50), "ms");
  SetCommonLayerMetrics(pre, P, want_pos, want_neg, r);
  r->Set("setup.connect_ms", median_of(&SetupTimes::connect_ms), "ms");
  r->Set("setup.register_ms", median_of(&SetupTimes::register_ms), "ms");
  r->Set("setup.subscribe_ms", median_of(&SetupTimes::subscribe_ms), "ms");
  r->Set("setup.fill_s", median_of(&SetupTimes::fill_s), "s");
  r->Set("net.codec_ns_per_tuple", CodecNsPerTuple(in, kStep), "ns");
  ReportTrace(tracer, args, ph, r);
}

}  // namespace pb
