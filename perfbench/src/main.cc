// perf_bench: the repository's end-to-end + per-layer benchmark.
//
//   perf_bench --workload <join_skew|wire_fanout|negation_durable>
//              --seed <n> --seconds <s> --trace <0|1>
//
// Prints the deployment choices and every metric with its unit, then, as
// the last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). Exits 1 when a correctness check failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"

namespace {

const std::vector<std::string> kEndToEnd = {
    "setup_s", "throughput_ktps", "sustained_ktps", "lat_p50_ms",
    "peak_rss_mb"};

/// Per-layer metrics and their units. A metric whose layer a workload does
/// not exercise reads 0 (listed under "not exercised" in the output).
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    // The end-to-end tail: printed on every run, reported (unbounded) here
    // because on a shared host it follows scheduling stalls.
    {"lat_p99_ms", "ms"},
    {"net.ingest_rpc_us.p50", "us"},
    {"net.ingest_rpc_us.p99", "us"},
    {"net.codec_ns_per_tuple", "ns"},
    {"net.bytes_in_per_tuple", "B"},
    {"net.bytes_out_per_delta", "B"},
    {"net.flush_rpc_ms.p50", "ms"},
    {"net.delivery_ms.p50", "ms"},
    {"net.delivery_ms.p99", "ms"},
    {"engine.ingest_ns.p50", "ns"},
    {"engine.ingest_ns.p99", "ns"},
    {"engine.shard_imbalance", "ratio"},
    {"engine.delta_lat_ms.p50", "ms"},
    {"engine.delta_lat_ms.p99", "ms"},
    {"engine.queue_depth.max", "tuples"},
    {"engine.flush_ms", "ms"},
    {"exec.replay_ms_per_1k", "ms"},
    {"exec.event_us.p99", "us"},
    {"ops.results_per_tuple", "ratio"},
    {"ops.negatives_per_tuple", "ratio"},
    {"state.bytes.max", "MiB"},
    {"state.tuples.max", "count"},
    {"durability.wal_bytes_per_tuple", "B"},
    {"durability.checkpoint_ms.p50", "ms"},
    {"durability.checkpoint_ms.max", "ms"},
    {"durability.checkpoint_kb", "KiB"},
    {"setup.connect_ms", "ms"},
    {"setup.register_ms", "ms"},
    {"setup.subscribe_ms", "ms"},
    {"setup.fill_s", "s"},
    {"obs.metrics_ms", "ms"},
    {"gen.lag_ms.p99", "ms"},
    {"lat.samples", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.coverage_pct", "%"},
    {"trace.self_pct.gen", "%"},
    {"trace.self_pct.net", "%"},
    {"trace.self_pct.engine", "%"},
    {"trace.self_pct.durability", "%"},
    {"trace.self_pct.sub", "%"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perf_bench: %s\nusage: perf_bench --workload "
               "<join_skew|wire_fanout|negation_durable> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Measure the program's own defaults: clear the environment overrides
  // that CI variants export, so only each workload's deployment choices
  // (shards, durability, query) differ from a default engine.
  for (const char* var :
       {"UPA_BATCH", "UPA_HEAVY_THRESHOLD", "UPA_SESSION_LEASE_MS"}) {
    ::unsetenv(var);
  }

  pb::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--out-dir") {
      args.out_dir = v;
    } else {
      Usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (args.seconds <= 0) Usage("--seconds must be positive");
  args.tmp_dir = args.out_dir + "/tmp";
  std::filesystem::create_directories(args.out_dir);

  pb::Report report;
  report.Note("workload", args.workload);
  report.Note("seed", std::to_string(args.seed));
  report.Note("seconds", std::to_string(args.seconds));
  report.Note("trace", args.trace ? "1" : "0");
  if (args.workload == "join_skew") {
    pb::RunJoinSkew(args, &report);
  } else if (args.workload == "wire_fanout") {
    pb::RunWireFanout(args, &report);
  } else if (args.workload == "negation_durable") {
    pb::RunNegationDurable(args, &report);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }

  std::vector<std::string> names;
  if (args.trace) {
    std::string idle;
    for (const auto& [n, u] : kPerLayer) {
      names.push_back(n);
      if (!report.Has(n)) {
        report.Set(n, 0.0, u);
        idle += (idle.empty() ? "" : " ") + n;
      }
    }
    if (!idle.empty()) report.Note("not exercised (0)", idle);
  } else {
    names = kEndToEnd;
  }
  report.Print(names);
  return report.correct() ? 0 : 1;
}
