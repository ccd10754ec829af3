#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/hash.h"
#include "core/physical_planner.h"
#include "net/protocol.h"
#include "ref/reference.h"
#include "sql/catalog.h"

namespace pb {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t t_ns) {
  const int64_t left = t_ns - NowNs();
  if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// --- Samples ---

namespace {

// Bin b covers [kLowest * kGrowth^b, kLowest * kGrowth^(b+1)); values below
// kLowest (including 0) fall in bin 0.
constexpr double kLowest = 1e-6;
constexpr double kGrowth = 1.005;
constexpr size_t kBins = 8400;  // Up to ~1e12.

size_t BinOf(double v) {
  if (!(v > kLowest)) return 0;
  const double b = std::log(v / kLowest) / std::log(kGrowth);
  return std::min(kBins - 1, static_cast<size_t>(b));
}

double BinValue(size_t b) {
  return b == 0 ? 0.0
                : kLowest * std::pow(kGrowth, static_cast<double>(b) + 0.5);
}

}  // namespace

void Samples::Add(double v, uint64_t weight) {
  if (weight == 0) return;
  if (bins_.empty()) bins_.assign(kBins, 0);
  bins_[BinOf(v)] += weight;
  total_ += weight;
  max_ = std::max(max_, v);
}

double Samples::Pct(double p) const {
  if (total_ == 0) return 0.0;
  const double rank = std::max(1.0, std::ceil(p / 100.0 *
                                              static_cast<double>(total_)));
  uint64_t seen = 0;
  for (size_t b = 0; b < kBins; ++b) {
    seen += bins_[b];
    if (static_cast<double>(seen) >= rank) return std::min(BinValue(b), max_);
  }
  return max_;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// --- Tracing ---

int32_t ThreadTrace::Begin(const char* name, const char* layer,
                           int64_t batch) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.start_ns = NowNs();
  s.parent = open_.empty() ? -1 : open_.back();
  s.batch = batch;
  spans_.push_back(s);
  const auto idx = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(idx);
  return idx;
}

void ThreadTrace::End(int32_t idx) {
  spans_[static_cast<size_t>(idx)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == idx) open_.pop_back();
}

ThreadTrace* Tracer::Thread(const std::string& name) {
  if (!on_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(std::make_unique<ThreadTrace>(
      name, static_cast<int>(threads_.size()) + 1));
  return threads_.back().get();
}

bool Tracer::WriteChrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  char buf[512];
  for (const auto& t : threads_) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",\n", t->tid(), t->name().c_str());
    out << buf;
    first = false;
    const auto& spans = t->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::snprintf(
          buf, sizeof(buf),
          ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
          "\"parent\":%d,\"batch\":%lld}}",
          s.name, s.layer, t->tid(),
          static_cast<double>(s.start_ns - origin_ns_) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
          static_cast<long long>(s.batch));
      out << buf;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

bool Inside(const Windows& windows, int64_t t) {
  for (const auto& [from, to] : windows) {
    if (t >= from && t < to) return true;
  }
  return false;
}

}  // namespace

std::map<std::string, double> Tracer::SelfNsByLayer(
    const std::string& name, const Windows& windows) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> self;
  for (const auto& t : threads_) {
    if (t->name() != name) continue;
    const auto& spans = t->spans();
    std::vector<double> child(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (!Inside(windows, spans[i].start_ns)) continue;
      self[spans[i].layer] +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) -
          child[i];
    }
  }
  return self;
}

double Tracer::RootNs(const std::string& name, const Windows& windows) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const auto& t : threads_) {
    if (t->name() != name) continue;
    for (const Span& s : t->spans()) {
      if (s.parent < 0 && Inside(windows, s.start_ns)) {
        total += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
  }
  return total;
}

// --- Input stream ---

InputStream::InputStream(uint64_t seed, int links, Time period, double zipf)
    : period_(period) {
  upa::LblTraceConfig cfg;
  cfg.seed = seed;
  cfg.num_links = links;
  cfg.duration = period;
  cfg.source_zipf = zipf;
  trace_ = upa::GenerateLblTrace(cfg);
  last_idx_by_ts_.assign(static_cast<size_t>(period) + 1, 0);
  for (size_t i = 0; i < trace_.events.size(); ++i) {
    last_idx_by_ts_[static_cast<size_t>(trace_.events[i].tuple.ts)] =
        static_cast<uint32_t>(i);
  }
}

void InputStream::TupleAt(uint64_t p, Tuple* out) const {
  *out = trace_.events[p % n()].tuple;
  out->ts += static_cast<Time>(p / n()) * period_;
}

uint64_t InputStream::LastPosWithTs(Time ts) const {
  const uint64_t rep = static_cast<uint64_t>((ts - 1) / period_);
  const Time off = (ts - 1) % period_ + 1;
  return rep * n() + last_idx_by_ts_[static_cast<size_t>(off)];
}

upa::Trace InputStream::Prefix(uint64_t count) const {
  upa::Trace t;
  t.schema = trace_.schema;
  t.num_streams = trace_.num_streams;
  t.events.resize(count);
  for (uint64_t p = 0; p < count; ++p) {
    t.events[p].stream = StreamAt(p);
    TupleAt(p, &t.events[p].tuple);
  }
  return t;
}

bool InputStream::FieldsMatch(uint64_t p, const Tuple& t,
                              size_t offset) const {
  const auto& fields = trace_.events[p % n()].tuple.fields;
  if (t.fields.size() < offset + fields.size()) return false;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (!(fields[i] == t.fields[offset + i])) return false;
  }
  return true;
}

void ExpectedCounts::Init(uint64_t n, const std::vector<uint32_t>& pos,
                          const std::vector<uint32_t>& neg) {
  n_ = n;
  cum_pos_.assign(pos.size() + 1, 0);
  cum_neg_.assign(neg.size() + 1, 0);
  for (size_t i = 0; i < pos.size(); ++i) {
    cum_pos_[i + 1] = cum_pos_[i] + pos[i];
    cum_neg_[i + 1] = cum_neg_[i] + neg[i];
  }
}

uint64_t ExpectedCounts::Cum(const std::vector<uint64_t>& cum,
                             uint64_t p) const {
  const uint64_t two = 2 * n_;
  if (p <= two) return cum[p];
  const uint64_t rep = cum[two] - cum[n_];
  const uint64_t extra = p - two;
  return cum[two] + (extra / n_) * rep + (cum[n_ + extra % n_] - cum[n_]);
}

namespace {

/// Replays the first two repetitions through one pipeline, recording the
/// positive and negative deltas of every position.
void ReplayCounts(const InputStream& in, Precomputed* pre) {
  auto pipeline = upa::BuildPipeline(*pre->plan, upa::ExecMode::kUpa);
  const upa::Trace input = in.Prefix(2 * in.n());
  std::vector<uint32_t> pos(input.events.size(), 0);
  std::vector<uint32_t> neg(input.events.size(), 0);
  uint64_t cur_pos = 0;
  uint64_t cur_neg = 0;
  pipeline->SetDeltaSink([&](const Tuple& t) {
    if (t.negative) {
      ++cur_neg;
    } else {
      ++cur_pos;
    }
  });
  size_t idx = 0;
  upa::ReplayOptions ro;
  ro.measure_latency = true;
  ro.checkpoint_interval = 1;
  ro.on_checkpoint = [&](Time) {
    pos[idx] = static_cast<uint32_t>(cur_pos);
    neg[idx] = static_cast<uint32_t>(cur_neg);
    cur_pos = cur_neg = 0;
    ++idx;
  };
  pre->replay = upa::ReplayTrace(input, pipeline.get(), ro);
  pre->counts.Init(in.n(), pos, neg);
}

}  // namespace

Precomputed Precompute(const InputStream& in, const QuerySpec& q) {
  Precomputed pre;
  upa::SourceCatalog catalog;
  for (const std::string& s : q.streams) {
    catalog.DeclareStream(s, upa::LblSchema());
  }
  upa::ParseResult pr = catalog.Compile(q.sql);
  if (pr.plan == nullptr) {
    std::fprintf(stderr, "perf_bench: query does not compile: %s\n",
                 pr.error.c_str());
    std::exit(2);
  }
  pre.plan = std::move(pr.plan);
  pre.pattern = pre.plan->pattern;
  ReplayCounts(in, &pre);
  // Hand the replay's memory back so it does not count in the engine
  // run's peak RSS.
  ::malloc_trim(0);
  return pre;
}

void SetCommonLayerMetrics(const Precomputed& pre, uint64_t p, uint64_t pos,
                           uint64_t neg, Report* r) {
  r->Set("exec.replay_ms_per_1k", pre.replay.ms_per_1000_tuples, "ms");
  r->Set("exec.event_us.p99", pre.replay.latency_ns.Percentile(99.0) / 1e3,
         "us");
  const double n = static_cast<double>(std::max<uint64_t>(1, p));
  r->Set("ops.results_per_tuple", static_cast<double>(pos) / n, "ratio");
  r->Set("ops.negatives_per_tuple", static_cast<double>(neg) / n, "ratio");
  r->Set("state.bytes.max",
         static_cast<double>(pre.replay.max_state_bytes) / (1024.0 * 1024.0),
         "MiB");
  r->Set("state.tuples.max", static_cast<double>(pre.replay.max_state_tuples),
         "count");
}

double CodecNsPerTuple(const InputStream& in, uint64_t batch) {
  constexpr size_t kFrames = 64;
  std::vector<upa::net::Message> msgs(kFrames);
  uint64_t p = 0;
  for (upa::net::Message& m : msgs) {
    m.type = upa::net::MsgType::kIngestBatch;
    m.req_id = p + 1;
    m.batch.resize(batch);
    for (auto& [sid, t] : m.batch) {
      sid = static_cast<uint32_t>(in.StreamAt(p));
      in.TupleAt(p++, &t);
    }
  }
  uint64_t tuples = 0;
  const int64_t start = NowNs();
  int64_t elapsed = 0;
  while (elapsed < 50'000'000) {
    for (const upa::net::Message& m : msgs) {
      const std::string frame = upa::net::EncodeFrame(m);
      upa::net::Message out;
      size_t consumed = 0;
      if (upa::net::DecodeFrame(frame.data(), frame.size(), &out,
                                &consumed) != upa::net::DecodeStatus::kOk ||
          out.batch.size() != m.batch.size()) {
        return 0.0;
      }
      tuples += out.batch.size();
    }
    elapsed = NowNs() - start;
  }
  return static_cast<double>(elapsed) / static_cast<double>(tuples);
}

// --- Digests and the oracle ---

uint64_t TupleHash(const Tuple& t, bool key_only) {
  uint64_t h = upa::HashFields(t);
  if (!key_only) h = upa::HashCombine(h, static_cast<uint64_t>(t.exp));
  return upa::Mix64(h);
}

Digest DigestOf(const std::vector<Tuple>& rows, bool key_only) {
  Digest d;
  for (const Tuple& t : rows) {
    d.sum += TupleHash(t, key_only);
    ++d.count;
  }
  return d;
}

Digest OracleDigest(const InputStream& in, const Precomputed& pre,
                    const QuerySpec& q, uint64_t p_end) {
  upa::ReferenceEvaluator ref(pre.plan.get());
  const uint64_t last_rep = (p_end - 1) / in.n();
  const uint64_t from = last_rep == 0 ? 0 : (last_rep - 1) * in.n();
  Tuple t;
  for (uint64_t p = from; p < p_end; ++p) {
    in.TupleAt(p, &t);
    ref.Observe(in.StreamAt(p), t);
  }
  return DigestOf(ref.EvalAt(in.TsAt(p_end - 1)), q.key_only);
}

// --- Report ---

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

bool Report::Has(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

void Report::Fail(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "perf_bench: FAILED: %s\n", what.c_str());
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void Report::Print(const std::vector<std::string>& names) const {
  for (const auto& [k, v] : notes_) {
    std::printf("# %s: %s\n", k.c_str(), v.c_str());
  }
  const double error_rate =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("%-34s %14.6g  %s\n", "error_rate", error_rate, "ratio");
  for (const Metric& m : metrics_) {
    std::printf("%-34s %14.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, attempted_));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  char buf[128];
  for (const std::string& n : names) {
    const Metric* found = nullptr;
    for (const Metric& m : metrics_) {
      if (m.name == n) found = &m;
    }
    double v = found != nullptr ? found->value : 0.0;
    if (!std::isfinite(v)) v = 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + n + "\": {\"value\": " + buf + ", \"unit\": \"" +
            (found != nullptr ? found->unit : std::string("missing")) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

bool BacklogHeld(const std::vector<std::pair<int64_t, double>>& samples,
                 int64_t start_ns, int64_t end_ns, double rate_tps,
                 double limit_ms) {
  const int64_t fifth = (end_ns - start_ns) / 5;
  double head = 0.0, tail = 0.0;
  int nh = 0, nt = 0;
  for (const auto& [t, b] : samples) {
    if (t >= start_ns && t < start_ns + fifth) {
      head += b;
      ++nh;
    } else if (t >= end_ns - fifth && t <= end_ns) {
      tail += b;
      ++nt;
    }
  }
  if (nt == 0) return true;
  tail /= nt;
  head = nh == 0 ? 0.0 : head / nh;
  return tail <= rate_tps * limit_ms / 1e3 || tail <= head;
}

Sampler::Sampler(upa::Engine* engine, std::string query, const OpenLoop* ol,
                 Tracer* tracer)
    : engine_(engine), query_(std::move(query)), ol_(ol), tracer_(tracer) {}

void Sampler::Start() { thread_ = std::thread([this] { Loop(); }); }

void Sampler::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

std::vector<std::pair<int64_t, double>> Sampler::Backlog(int64_t from,
                                                         int64_t to) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<int64_t, double>> out;
  for (const auto& s : backlog_) {
    if (s.first >= from && s.first <= to) out.push_back(s);
  }
  return out;
}

Samples Sampler::obs_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return obs_ms_;
}

void Sampler::Loop() {
  ThreadTrace* tt = tracer_->Thread("sampler");
  uint64_t round = 0;
  while (!stop_.load()) {
    const bool timed = round++ % 20 == 0;
    const int64_t t0 = NowNs();
    size_t depth = 0;
    {
      ScopedSpan span(timed ? tt : nullptr, "obs.Metrics", "obs");
      const upa::EngineMetrics m = engine_->Metrics();
      if (timed) exposition_bytes_ = m.ToPrometheus().size();
      for (const upa::QueryMetrics& q : m.queries) {
        if (q.name == query_) depth += q.queue_depth;
      }
    }
    const int64_t now = NowNs();
    double lag = 0.0;
    if (ol_->bucket.load(std::memory_order_acquire) > 0 && now > ol_->t0) {
      const double due = static_cast<double>(now - ol_->t0) /
                             ol_->ns_per_tuple + 1.0;
      lag = std::max(0.0, std::floor(due) -
                              static_cast<double>(ol_->sent.load(
                                  std::memory_order_relaxed)));
    }
    size_t prev = max_depth_.load();
    while (depth > prev && !max_depth_.compare_exchange_weak(prev, depth)) {
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      backlog_.emplace_back(now, static_cast<double>(depth) + lag);
      if (timed) obs_ms_.Add(static_cast<double>(now - t0) / 1e6);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

double MedianPct(const std::vector<Samples>& rounds, double p) {
  std::vector<double> v;
  for (const Samples& s : rounds) {
    if (!s.empty()) v.push_back(s.Pct(p));
  }
  return Median(v);
}

uint64_t TotalCount(const std::vector<Samples>& rounds) {
  uint64_t n = 0;
  for (const Samples& s : rounds) n += s.count();
  return n;
}

PhaseResults RunPhases(LoadGenerator* d, const Sampler& sampler,
                       const RunArgs& args, const Schedule& s) {
  PhaseResults ph;
  const int rounds = kRounds;
  const double slice_s = 0.35 * args.seconds / rounds;
  const double sub_s = 0.35 * args.seconds / rounds;
  const double rung_s =
      0.30 * args.seconds / static_cast<double>(s.ladder_ktps.size());
  // A traced run alternates untraced and traced closed-loop slices; the
  // ratio of their throughputs is the tracing overhead.
  for (int k = 0; k < rounds; ++k) {
    const bool traced = args.trace && k % 2 == 1;
    Throughput thr;
    const auto w = d->Closed(slice_s, traced, &thr);
    (traced ? ph.traced_ktps : ph.untraced_ktps).push_back(thr.Ktps());
    if (traced) ph.traced_windows.push_back(w);
    d->Open(s.ref_ktps, sub_s, 1 + k, &ph.lag_ms);
    ph.ref.push_back(d->Latency(1 + k));
  }
  // Ladder: every fixed rate; the highest rung that passes counts (a
  // transient miss on a lower rung does not end the ladder).
  for (size_t i = 0; i < s.ladder_ktps.size(); ++i) {
    const int bucket = rounds + 1 + static_cast<int>(i);
    const double rate = s.ladder_ktps[i];
    const OpenResult o = d->Open(rate, rung_s, bucket, nullptr);
    const double p99 = d->Latency(bucket).Pct(99);
    const bool held =
        BacklogHeld(sampler.Backlog(o.start_ns, o.send_end_ns), o.start_ns,
                    o.send_end_ns, rate * 1e3, s.limit_ms);
    const bool pass = p99 <= s.limit_ms && held;
    std::printf("# rung %.1f ktuples/s: p99 %.3f ms, backlog %s -> %s\n",
                rate, p99, held ? "held" : "grew", pass ? "pass" : "miss");
    if (!pass) continue;
    ph.sustained_ktps = static_cast<double>(o.sent) /
                        Seconds(o.last_send_ns - o.start_ns) / 1e3;
  }
  return ph;
}

void SetEndToEnd(const PhaseResults& ph, double setup_s, double rss_mb,
                 Report* r) {
  r->Set("setup_s", setup_s, "s");
  r->Set("throughput_ktps", Median(ph.untraced_ktps), "ktuples/s");
  r->Set("sustained_ktps", ph.sustained_ktps, "ktuples/s");
  r->Set("lat_p50_ms", MedianPct(ph.ref, 50), "ms");
  r->Set("lat_p99_ms", MedianPct(ph.ref, 99), "ms");
  r->Set("peak_rss_mb", rss_mb, "MB");
  std::string slices;
  for (double v : ph.untraced_ktps) slices += std::to_string(v) + " ";
  r->Note("closed_slices_ktps", slices);
  std::string rounds;
  for (const Samples& s : ph.ref) {
    rounds += std::to_string(s.Pct(50)) + "/" + std::to_string(s.Pct(99)) +
              " ";
  }
  r->Note("reference_rounds_p50/p99_ms", rounds);
  r->Note("lat_samples", std::to_string(TotalCount(ph.ref)) + " in " +
                             std::to_string(ph.ref.size()) + " rounds");
}

void ReportTrace(const Tracer& tracer, const RunArgs& args,
                 const PhaseResults& ph, Report* r) {
  const Windows& traced = ph.traced_windows;
  double wall = 0.0;
  for (const auto& [from, to] : traced) wall += static_cast<double>(to - from);
  wall = std::max(wall, 1.0);
  r->Set("trace.coverage_pct",
         100.0 * tracer.RootNs("generator", traced) / wall, "%");
  const auto self = tracer.SelfNsByLayer("generator", traced);
  for (const char* layer : {"gen", "net", "engine", "durability", "sub"}) {
    auto it = self.find(layer);
    r->Set(std::string("trace.self_pct.") + layer,
           it == self.end() ? 0.0 : 100.0 * it->second / wall, "%");
  }
  const double untraced = Median(ph.untraced_ktps);
  const double traced_ktps = Median(ph.traced_ktps);
  r->Set("trace.overhead_pct",
         traced_ktps > 0.0 ? 100.0 * (untraced / traced_ktps - 1.0) : 0.0,
         "%");
  r->Set("lat.samples", static_cast<double>(TotalCount(ph.ref)), "count");
  r->Set("gen.lag_ms.p99", ph.lag_ms.Pct(99), "ms");
  const std::string path = args.out_dir + "/trace_" + args.workload + "_" +
                           std::to_string(args.seed) + ".json";
  r->Note("chrome_trace",
          tracer.WriteChrome(path) ? path : "write failed: " + path);
}

}  // namespace pb
