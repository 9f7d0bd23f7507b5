// perfbench_driver — runs one benchmark workload and prints its result.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--spans <file>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the span tree to --spans when given).  The last line of
// standard output is the result object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}.  Exit status is 0
// only when every correctness check passed and no operation failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports every one of them.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"req_per_s", "req/s"},
    {"latency_ms", "ms"},
    {"peak_load_share", "ratio"},
};

// Per-layer metrics.  A layer a workload does not run reads 0 there.
const MetricDef kPerLayer[] = {
    {"tree.build_s", "s"},
    {"doc.placement_s", "s"},
    {"wire.quota_blob_bytes", "B"},
    {"netd.epoch_plan_s", "s"},
    {"netd.loadgen_cpu_us_per_req", "us"},
    {"netd.loadgen_sys_us_per_req", "us"},
    {"netd.daemon_cpu_us_per_req", "us"},
    {"netd.daemon_sys_us_per_req", "us"},
    {"netd.serve_p50_ns", "ns"},
    {"netd.paced_p99_us", "us"},
    {"netd.forwards_per_kreq", "count"},
    {"netd.loop_max_stall_ms", "ms"},
    {"netd.paced_lateness_ms", "ms"},
    {"netd.resync_cpu_ms_per_epoch", "ms"},
    {"netd.reconnects", "count"},
    {"serve.plane_build_s", "s"},
    {"serve.gen_req_per_s", "req/s"},
    {"serve.snapshot_cells", "count"},
    {"serve.mean_hops", "hops"},
    {"serve.cpu_util", "ratio"},
    {"serve.fold_ms_per_epoch", "ms"},
    {"core.demand_ms_per_epoch", "ms"},
    {"core.diffusion_ms_per_epoch", "ms"},
    {"core.step_ms", "ms"},
    {"core.diffusion_cpu_util", "ratio"},
    {"core.step_drift", "ratio"},
    {"core.demand_events_per_epoch", "count"},
    {"core.dirty_lanes_per_epoch", "count"},
    {"serve.refresh_ms_per_epoch", "ms"},
    {"store.clamp_ms_per_epoch", "ms"},
    {"store.clamp_cpu_util", "ratio"},
    {"store.evicted_cells", "count"},
    {"fault.rehome_ms_per_epoch", "ms"},
    {"fault.rehomed_cells", "count"},
    {"serve.install_ms_per_epoch", "ms"},
    {"serve.epoch_unspanned_ms", "ms"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <fleet_loopback|"
               "fleet_resync|serve_hot_catalog|hotspot_loop> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, spans_path;
  RunContext ctx;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      ctx.seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      ctx.seconds = std::strtod(val, &end);
      have_seconds = end != val && *end == '\0' && ctx.seconds > 0;
    } else if (key == "--trace") {
      have_trace = std::strcmp(val, "0") == 0 || std::strcmp(val, "1") == 0;
      ctx.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--spans") {
      spans_path = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace)
    return Usage();
  ctx.spans = SpanRecorder(ctx.trace);

  try {
    const int root = ctx.spans.Begin(workload);
    if (workload == "fleet_loopback") {
      RunFleetLoopback(ctx);
    } else if (workload == "fleet_resync") {
      RunFleetResync(ctx);
    } else if (workload == "serve_hot_catalog") {
      RunServeHotCatalog(ctx);
    } else if (workload == "hotspot_loop") {
      RunHotspotLoop(ctx);
    } else {
      return Usage();
    }
    ctx.spans.End(root);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s threw: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }

  Outcome& out = ctx.out;
  out.Set("peak_rss_mb", PeakRssMb());
  if (ctx.trace && !spans_path.empty() && !ctx.spans.Write(spans_path)) {
    std::fprintf(stderr, "could not write spans to %s\n",
                 spans_path.c_str());
    return 1;
  }
  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());

  // Traced runs also state their end-to-end figures here (not in the
  // result), so the tracing overhead can be read off against an
  // untraced run of the same seed.
  if (ctx.trace) {
    std::printf("traced end-to-end:");
    for (const MetricDef& m : kEndToEnd)
      std::printf(" %s=%.9g", m.name, out.metrics[m.name]);
    std::printf("\n");
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  bool complete = true;
  const auto emit = [&](const MetricDef& m, bool required) {
    const auto it = out.metrics.find(m.name);
    if (it == out.metrics.end() && required) {
      std::fprintf(stderr, "workload %s did not measure %s\n",
                   workload.c_str(), m.name);
      complete = false;
    }
    const double v = it == out.metrics.end() ? 0.0 : it->second;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, v, m.unit);
    json += buf;
    first = false;
  };
  if (ctx.trace) {
    for (const MetricDef& m : kPerLayer) emit(m, false);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m, true);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct && complete && out.failed == 0 ? 0 : 1;
}
