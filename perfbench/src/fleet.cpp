// The two socket-fleet workloads.
//
// fleet_loopback — three forked CacheServerDaemons over loopback, driven
// by the loadgen in this process (four processes, one per core of the
// reference box).  Each round runs two streams: a short one paced at a
// fixed offered rate far below saturation (latency), then a long one
// with a fixed in-flight window and no pacing limit (throughput), long
// enough that the fleet's start-up and shutdown are a few percent of its
// wall time.  The table is the offline TLB placement of a
// rotating-hot-spot demand, so no engine or projector runs after set-up:
// the socket, event-loop and codec paths do the work.
//
// fleet_resync — the same fleet shape over many short epochs.  The
// closed-loop control plane (BuildEpochPlan) ships a fresh table at
// every boundary as kQuotaDelta + kEpochUpdate, and daemons are killed
// and re-forked on a schedule with a fixed number of kills and restarts.
// The run time is dominated by the boundaries: quiesce, victim scrape,
// SIGKILL/fork, rejoin, delta and barrier.
//
// Both check the fleet against ReplayOracle on the same config, every
// round: the counters the fleet reports are the oracle's, bit for bit.
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "doc/placement.h"
#include "fault/process_faults.h"
#include "netd/cluster.h"
#include "netd/epoch_plan.h"
#include "serve/quota_snapshot.h"
#include "serve/request_gen.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "wire/quota_wire.h"

namespace perfbench {
namespace {

using namespace webwave;

constexpr int kBigTreeNodes = 200000;
constexpr int kCarveLo = 4000;
constexpr int kCarveHi = 6000;
constexpr int kDocs = 16;
constexpr int kServers = 3;

// fleet_loopback: one round = a stream served paced, then another served
// saturated.  The paced rate is about a fourteenth of saturation: at a
// third of it the loadgen's send->reply median flips between two levels
// from round to round, at this rate it holds still.
constexpr std::uint64_t kPacedRequests = 10000;
constexpr std::uint64_t kSaturatedRequests = 300000;
constexpr double kTickSeconds = 0.004;  // the EventLoop timer-wheel tick
constexpr int kPacedTokensPerTick = 40;   // 10k req/s offered
constexpr int kPacedWindow = 1 << 16;     // never binds at that rate
constexpr int kSaturatedTokensPerTick = 1 << 20;
constexpr int kSaturatedWindow = 4096;

// fleet_resync: one round = one multi-epoch fleet run.
constexpr int kResyncEpochs = 16;
constexpr std::uint64_t kResyncEpochRequests = 4000;
constexpr std::size_t kResyncKills = 4;

struct Fleet {
  NetdClusterConfig config;
  std::uint64_t origin_depth_sum = 0;  // Σ depth(origin) over the stream
};

// A 4-6k-node subtree of a random tree, as the fleet's tree.
std::vector<NodeId> CarveFleetTree() {
  Rng rng(kTopologySeed);
  const RoutingTree big = MakeRandomTree(kBigTreeNodes, rng);
  NodeId pivot = kNoNode;
  int best_gap = 1 << 30;
  for (const NodeId v : big.preorder()) {
    if (big.is_root(v)) continue;
    const int size = big.subtree_size(v);
    if (size >= kCarveLo && size <= kCarveHi) {
      pivot = v;
      break;
    }
    const int gap = std::abs(size - (kCarveLo + kCarveHi) / 2);
    if (gap < best_gap) {
      best_gap = gap;
      pivot = v;
    }
  }
  return CarveSubtree(big, pivot).parents;
}

void FillCommon(std::uint64_t seed, const RoutingTree& tree,
                NetdClusterConfig* c) {
  c->parents = tree.parents();
  c->owner = PartitionOwners(tree, kServers);
  c->server_count = kServers;
  c->docs = kDocs;
  c->stream_seed = 0x5eed0000ULL + seed;
  c->serving.block_size = 1;
  c->serving.threads = 1;
  c->serving.trace = false;
  // Above the tree height: a request can always climb past every dead
  // node to the home, so no request is dropped.
  c->serving.max_failover_attempts = tree.height() + 2;
  c->stats_scrape_period_ms = 0;
  c->flight_dir.clear();
}

std::uint64_t OriginDepthSum(const NetdClusterConfig& c,
                             const RoutingTree& tree) {
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < c.total_requests; ++i)
    sum += static_cast<std::uint64_t>(tree.depth(
        NetdRequestAt(c.stream_seed, i, tree.size(), c.docs).node));
  return sum;
}

LatencyHistogram Merged(const std::vector<LatencyHistogram>& parts) {
  LatencyHistogram m;
  for (const LatencyHistogram& h : parts) m.Merge(h);
  return m;
}

// The checks every fleet run must pass against its oracle.
void CheckFleetRun(const NetdRunResult& run, const Fleet& fleet,
                   const ServingMetrics& oracle, const std::string& label,
                   Outcome& out) {
  const NetdClusterConfig& c = fleet.config;
  out.Check(run.ok, label + ": fleet run did not complete cleanly");
  out.Check(ServingCountersEqual(run.fleet, CountersFromMetrics(oracle)),
            label + ": fleet counters differ from ReplayOracle");
  out.Check(run.client_served + run.client_dropped == c.total_requests,
            label + ": served + dropped != requests");
  out.Check(run.client_dropped == 0 && run.fleet.dropped_requests == 0,
            label + ": requests were dropped");
  out.Check(run.fleet.shed_forwards == 0, label + ": forwards were shed");
  out.Check(run.client_hop_sum == oracle.hop_sum,
            label + ": client hop sum differs from the oracle");
  out.Check(run.client_hop_sum <= fleet.origin_depth_sum,
            label + ": hop sum exceeds the sum of origin depths");
  const std::uint64_t answered = run.client_served + run.client_dropped;
  out.failed += run.client_dropped +
                (c.total_requests > answered ? c.total_requests - answered
                                             : 0);
  out.attempted += c.total_requests;
}

Fleet BuildLoopbackFleet(std::uint64_t seed, SpanRecorder& rec) {
  Fleet f;
  std::vector<NodeId> parents;
  {
    ScopedSpan s(rec, "tree.build");
    parents = CarveFleetTree();
  }
  const RoutingTree tree = RoutingTree::FromParents(parents);
  // The table: offline TLB placement of a rotating-hot-spot demand.
  const RequestGenerator gen(
      tree, kDocs,
      {RotatingHotSpotComponent(tree, kDocs, 1.0, 50.0, 0.05,
                                1, 8)},
      seed);
  const DemandMatrix demand = gen.ExpectedDemand();
  PlacementResult placement;
  {
    ScopedSpan s(rec, "doc.placement");
    placement = DerivePlacement(tree, demand);
  }
  QuotaSnapshot snapshot;
  {
    ScopedSpan s(rec, "serve.snapshot");
    snapshot = QuotaSnapshot::FromPlacement(tree, placement, demand, 1e-9);
  }
  {
    ScopedSpan s(rec, "wire.serialize");
    QuotaWireTable::Serialize(snapshot, &f.config.quota_blob);
  }
  FillCommon(seed, tree, &f.config);
  return f;
}

// The first fault schedule with exactly kResyncKills kills and as many
// restarts.  Like the tree, it is fixed: every seed runs the same
// control-path work over a different request stream.
FaultScheduleOptions ResyncFaults() {
  FaultScheduleOptions o;
  o.pattern = FaultPattern::kSingleNodes;
  o.crash_fraction = 0.15;
  o.outage_epochs = 1;
  o.start_epoch = 1;
  for (std::uint64_t k = 0; k < 4096; ++k) {
    o.seed = kTopologySeed * 4096 + k + 1;
    const ProcessFaultPlan p =
        BuildProcessFaultPlan(kServers, kResyncEpochs, o);
    std::size_t kills = 0, restarts = 0;
    for (int e = 0; e < kResyncEpochs; ++e) {
      kills += p.kill_at[static_cast<std::size_t>(e)].size();
      restarts += p.restart_at[static_cast<std::size_t>(e)].size();
    }
    if (kills == kResyncKills && restarts == kResyncKills) return o;
  }
  throw std::runtime_error("no fault seed gives the fixed kill count");
}

Fleet BuildResyncFleet(std::uint64_t seed, SpanRecorder& rec,
                       ProcessFaultPlan* plan) {
  Fleet f;
  std::vector<NodeId> parents;
  {
    ScopedSpan s(rec, "tree.build");
    parents = CarveFleetTree();
  }
  const RoutingTree tree = RoutingTree::FromParents(parents);
  FillCommon(seed, tree, &f.config);
  EpochPlanOptions eopt;
  eopt.epochs = kResyncEpochs;
  eopt.requests_per_epoch = kResyncEpochRequests;
  eopt.faults = ResyncFaults();
  eopt.inject_faults = true;
  {
    ScopedSpan s(rec, "netd.epoch_plan");
    *plan = BuildEpochPlan(&f.config, eopt);
  }
  f.origin_depth_sum = OriginDepthSum(f.config, tree);
  return f;
}

// One loopback phase: the base fleet with its own stream length and
// pacing, plus the sum its hop check needs.
Fleet LoopbackPhase(const NetdClusterConfig& base, std::uint64_t requests,
                    int tokens_per_tick, int window) {
  Fleet f;
  f.config = base;
  f.config.total_requests = requests;
  f.config.tokens_per_tick = tokens_per_tick;
  f.config.window = window;
  f.origin_depth_sum =
      OriginDepthSum(f.config, RoutingTree::FromParents(base.parents));
  return f;
}

}  // namespace

void RunFleetLoopback(RunContext& ctx) {
  Outcome& out = ctx.out;
  SpanRecorder& rec = ctx.spans;
  std::unique_ptr<Fleet> base;
  {
    ScopedSpan s(rec, "setup");
    out.Set("setup_s", TimeSetup([&] {
              base = std::make_unique<Fleet>(BuildLoopbackFleet(ctx.seed, rec));
            }));
  }
  const Fleet paced = LoopbackPhase(base->config, kPacedRequests,
                                    kPacedTokensPerTick, kPacedWindow);
  const Fleet saturated =
      LoopbackPhase(base->config, kSaturatedRequests,
                    kSaturatedTokensPerTick, kSaturatedWindow);
  const ServingMetrics paced_oracle = ReplayOracle(paced.config);
  const ServingMetrics oracle = ReplayOracle(saturated.config);
  const double offered = kPacedTokensPerTick / kTickSeconds;

  LatencyHistogram client_lat, serve_lat;
  std::vector<double> paced_p50, sat_wall, lateness, stall;
  double lg_cpu = 0, lg_sys = 0, dm_cpu = 0, dm_sys = 0;
  std::uint64_t sat_requests = 0, forwards = 0;
  const double t_end = NowSeconds() + ctx.seconds;
  int round = 0;
  while (NowSeconds() < t_end) {
    ScopedSpan rs(rec, "round");
    {
      ScopedSpan s(rec, "netd.paced");
      const double t0 = NowSeconds();
      const NetdRunResult run = RunNetdCluster(paced.config);
      const double wall = NowSeconds() - t0;
      CheckFleetRun(run, paced, paced_oracle, "paced", out);
      const LatencyHistogram lat = Merged(run.latency_per_server);
      paced_p50.push_back(HistQuantileNs(lat, 0.5) * 1e-6);
      client_lat.Merge(lat);
      serve_lat.Merge(Merged(run.server_hist));
      lateness.push_back(wall - static_cast<double>(kPacedRequests) / offered);
      stall.push_back(static_cast<double>(run.loop_max_stall_ns) * 1e-6);
    }
    {
      ScopedSpan s(rec, "netd.saturated");
      const Rusage s0 = SelfUsage(), c0 = ChildrenUsage();
      const double t0 = NowSeconds();
      const NetdRunResult run = RunNetdCluster(saturated.config);
      const double wall = NowSeconds() - t0;
      const Rusage s1 = SelfUsage(), c1 = ChildrenUsage();
      CheckFleetRun(run, saturated, oracle, "saturated", out);
      sat_wall.push_back(wall);
      lg_cpu += s1.cpu_s() - s0.cpu_s();
      lg_sys += s1.sys_s - s0.sys_s;
      dm_cpu += c1.cpu_s() - c0.cpu_s();
      dm_sys += c1.sys_s - c0.sys_s;
      sat_requests += kSaturatedRequests;
      forwards += run.fleet.net_forwards;
    }
    ++round;
  }

  out.Set("req_per_s",
          static_cast<double>(kSaturatedRequests) / FastQuartile(sat_wall));
  // The paced send->reply median over every paced request of the run.
  out.Set("latency_ms", HistQuantileNs(client_lat, 0.5) * 1e-6);
  out.Set("peak_load_share", static_cast<double>(oracle.MaxServed()) /
                                 static_cast<double>(kSaturatedRequests));
  out.Note("fleet_loopback: " + std::to_string(base->config.parents.size()) +
           "-node tree, " + std::to_string(round) + " rounds of " +
           std::to_string(kPacedRequests) + " requests paced at " +
           std::to_string(static_cast<long long>(offered)) + " req/s, then " +
           std::to_string(kSaturatedRequests) +
           " saturated with window " + std::to_string(kSaturatedWindow) +
           "; saturated run ms " + Spread(sat_wall, 1e3) +
           "; paced p50 ms per round " + Spread(paced_p50, 1));
  if (!ctx.trace) return;
  const double n_sat = static_cast<double>(sat_requests);
  const int setups = std::max(1, rec.Count("tree.build"));
  out.Set("tree.build_s", rec.Total("tree.build") / setups);
  out.Set("doc.placement_s", rec.Total("doc.placement") / setups);
  out.Set("wire.quota_blob_bytes",
          static_cast<double>(base->config.quota_blob.size()));
  out.Set("netd.loadgen_cpu_us_per_req", 1e6 * lg_cpu / n_sat);
  out.Set("netd.loadgen_sys_us_per_req", 1e6 * lg_sys / n_sat);
  out.Set("netd.daemon_cpu_us_per_req", 1e6 * dm_cpu / n_sat);
  out.Set("netd.daemon_sys_us_per_req", 1e6 * dm_sys / n_sat);
  out.Set("netd.serve_p50_ns", HistQuantileNs(serve_lat, 0.5));
  out.Set("netd.paced_p99_us", HistQuantileNs(client_lat, 0.99) * 1e-3);
  out.Set("netd.forwards_per_kreq", 1e3 * static_cast<double>(forwards) / n_sat);
  out.Set("netd.loop_max_stall_ms", Median(stall));
  out.Set("netd.paced_lateness_ms", 1e3 * Median(lateness));
}

void RunFleetResync(RunContext& ctx) {
  Outcome& out = ctx.out;
  SpanRecorder& rec = ctx.spans;
  std::unique_ptr<Fleet> fleet;
  ProcessFaultPlan plan;
  {
    ScopedSpan s(rec, "setup");
    out.Set("setup_s", TimeSetup([&] {
              fleet = std::make_unique<Fleet>(
                  BuildResyncFleet(ctx.seed, rec, &plan));
            }));
  }
  const NetdClusterConfig& config = fleet->config;
  std::vector<WireCounters> oracle_epochs;
  const ServingMetrics oracle = ReplayOracle(config, nullptr, &oracle_epochs);
  std::vector<std::size_t> kills_through(kResyncEpochs, 0);
  std::size_t kills = 0, restarts = 0;
  for (int e = 0; e < kResyncEpochs; ++e) {
    kills += plan.kill_at[static_cast<std::size_t>(e)].size();
    restarts += plan.restart_at[static_cast<std::size_t>(e)].size();
    kills_through[static_cast<std::size_t>(e)] = kills;
  }

  std::vector<double> walls, cpu_ms, reconnects;
  const double t_end = NowSeconds() + ctx.seconds;
  int round = 0;
  while (NowSeconds() < t_end) {
    ScopedSpan rs(rec, "round");
    const Rusage s0 = SelfUsage(), c0 = ChildrenUsage();
    const double t0 = NowSeconds();
    NetdRunResult run;
    {
      ScopedSpan s(rec, "netd.resync_run");
      run = RunNetdCluster(config);
    }
    const double wall = NowSeconds() - t0;
    const Rusage s1 = SelfUsage(), c1 = ChildrenUsage();
    CheckFleetRun(run, *fleet, oracle, "resync", out);
    out.attempted += kResyncEpochs;
    // Epochs count as completed when their barrier sample landed.
    const std::size_t barriers = run.epoch_samples.size();
    out.failed += run.ok ? (kResyncEpochs - 1 - std::min<std::size_t>(
                                                   barriers, kResyncEpochs - 1))
                         : kResyncEpochs;
    out.Check(run.retired.size() == kills &&
                  run.rejoin_hello_epochs.size() == restarts,
              "resync: kills/rejoins differ from the fault plan");
    out.Check(barriers == static_cast<std::size_t>(kResyncEpochs - 1) &&
                  oracle_epochs.size() ==
                      static_cast<std::size_t>(kResyncEpochs),
              "resync: missing epoch barrier samples");
    // Barrier sample i closes epoch i: live counters plus the victims
    // retired so far equal the oracle's cumulative counters.
    for (std::size_t i = 0; i < barriers && i + 1 < oracle_epochs.size();
         ++i) {
      std::vector<WireCounters> parts = run.epoch_samples[i].per_server;
      const std::size_t used =
          std::min(kills_through[i + 1], run.retired.size());
      parts.insert(parts.end(), run.retired.begin(),
                   run.retired.begin() + static_cast<std::ptrdiff_t>(used));
      out.Check(ServingCountersEqual(SumCounters(parts), oracle_epochs[i]),
                "resync: barrier sample " + std::to_string(i) +
                    " differs from the oracle's epoch counters");
    }
    walls.push_back(wall);
    cpu_ms.push_back(1e3 * ((s1.cpu_s() - s0.cpu_s()) +
                            (c1.cpu_s() - c0.cpu_s())) /
                     kResyncEpochs);
    reconnects.push_back(static_cast<double>(run.fleet.reconnects));
    ++round;
  }

  const double wall = FastQuartile(walls);
  out.Set("req_per_s", static_cast<double>(config.total_requests) / wall);
  out.Set("latency_ms", 1e3 * wall / kResyncEpochs);
  out.Set("peak_load_share",
          static_cast<double>(oracle.MaxServed()) /
              static_cast<double>(config.total_requests));
  out.Note("fleet_resync: " + std::to_string(round) + " rounds of " +
           std::to_string(kResyncEpochs) + " epochs x " +
           std::to_string(kResyncEpochRequests) + " requests, " +
           std::to_string(kills) + " kills / " + std::to_string(restarts) +
           " restarts per round; run ms " + Spread(walls, 1e3));
  if (!ctx.trace) return;
  const int setups = std::max(1, rec.Count("tree.build"));
  out.Set("tree.build_s", rec.Total("tree.build") / setups);
  out.Set("netd.epoch_plan_s", rec.Total("netd.epoch_plan") / setups);
  double blob = 0;
  for (const NetdEpoch& ep : config.epochs)
    blob += static_cast<double>(ep.quota_blob.size());
  out.Set("wire.quota_blob_bytes", blob / kResyncEpochs);
  out.Set("netd.resync_cpu_ms_per_epoch", Median(cpu_ms));
  out.Set("netd.reconnects", Median(reconnects));
}

}  // namespace perfbench
