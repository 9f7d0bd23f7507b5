// The two in-process workloads.
//
// serve_hot_catalog — the read side of serve/: a ServingPlane at four
// threads over the offline TLB placement of a 2x10^5-node x 64-document
// catalog (rotating hot spot plus Zipf leaves).  The request stream is
// generated in set-up; the timed calls are ServingPlane::Serve alone, so
// the admission hot loop (row search, token grants, thinning, climbs)
// does nearly all the work.
//
// hotspot_loop — the table-write side of serve/: the closed control loop
// at 2x10^5 nodes x 16 documents.  Each epoch serves a half-window on the
// stale tables, folds it (ArrivalFold), runs EpochDriver::ApplyEpoch (12
// diffusion steps, RefreshFromBatch, a capacity clamp at 0.3x the working
// set, a subtree-outage re-home, the plane refresh) and serves the second
// half-window on the new tables.  The engine, the snapshot refresh and
// both projectors do nearly all the work.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/webfold.h"
#include "core/webwave_batch.h"
#include "doc/catalog.h"
#include "doc/placement.h"
#include "fault/fault_projector.h"
#include "fault/fault_schedule.h"
#include "serve/closed_loop.h"
#include "serve/epoch_driver.h"
#include "serve/quota_snapshot.h"
#include "serve/request_gen.h"
#include "serve/serving_plane.h"
#include "store/cache_store.h"
#include "store/capacity_projector.h"
#include "store/document_sizes.h"
#include "tree/builders.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace webwave;

constexpr int kCatalogNodes = 200000;
constexpr int kCatalogDocs = 64;
constexpr int kBlock = 65536;
// One Serve call serves a chunk of 16 blocks; a round serves the whole
// generated stream once.
constexpr std::size_t kChunk = std::size_t{16} * kBlock;
constexpr std::size_t kChunks = 2;

constexpr int kLoopNodes = 200000;
constexpr int kLoopDocs = 16;
constexpr int kRotation = 4;  // epochs per hot-spot rotation = one round
constexpr std::size_t kWindow = std::size_t{1} << 20;
constexpr int kSteps = 12;
constexpr double kStoreMultiple = 0.3;

RoutingTree WorkloadTree(int nodes) {
  Rng rng(kTopologySeed);
  return MakeRandomTree(nodes, rng);
}

// Integer laws every ServingMetrics must satisfy.
void CheckConservation(const ServingMetrics& m, const std::string& label,
                       Outcome& out) {
  std::uint64_t per_node = 0, by_hops = 0, hop_sum = 0;
  for (const std::uint64_t c : m.served_per_node) per_node += c;
  for (std::size_t h = 0; h < m.hops.size(); ++h) {
    by_hops += m.hops[h];
    hop_sum += h * m.hops[h];
  }
  const std::uint64_t served = m.requests - m.dropped_requests;
  out.Check(per_node == served && m.cache_served + m.home_served == served &&
                by_hops == served && hop_sum == m.hop_sum,
            label + ": served counts do not conserve requests");
  out.Check(m.dropped_requests == 0, label + ": requests were dropped");
}

double MaxOf(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

double SumOf(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

struct CatalogState {
  std::unique_ptr<RoutingTree> tree;
  std::unique_ptr<ServingPlane> plane;
  std::vector<Request> stream;
  ServingOptions options;
  double mean_origin_depth = 0;
};

CatalogState BuildCatalog(std::uint64_t seed, SpanRecorder& rec) {
  CatalogState st;
  {
    ScopedSpan s(rec, "tree.build");
    st.tree = std::make_unique<RoutingTree>(WorkloadTree(kCatalogNodes));
  }
  const RoutingTree& tree = *st.tree;
  RequestGenerator gen(
      tree, kCatalogDocs,
      {RotatingHotSpotComponent(tree, kCatalogDocs, 1.0, 50.0, 0.05, 1, 8),
       ZipfLeafComponent(tree, kCatalogDocs, 1.0, 1.0)},
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
    snapshot = QuotaSnapshot::FromPlacement(tree, placement, demand);
  }
  st.options.threads = kThreads;
  st.options.block_size = kBlock;
  st.options.offered_rate = gen.total_rate();
  {
    ScopedSpan s(rec, "serve.plane_build");
    st.plane = std::make_unique<ServingPlane>(tree, std::move(snapshot),
                                              st.options);
  }
  {
    ScopedSpan s(rec, "serve.generate");
    gen.NextBatch(kChunk * kChunks, &st.stream);
  }
  double depth = 0;
  for (const Request& r : st.stream) depth += tree.depth(r.node);
  st.mean_origin_depth = depth / static_cast<double>(st.stream.size());
  return st;
}

struct LoopState {
  std::unique_ptr<RoutingTree> tree;
  std::unique_ptr<BatchWebWaveSimulator> sim;
  std::unique_ptr<CapacityProjector> capacity;
  std::unique_ptr<FaultProjector> faults;
  std::unique_ptr<EpochDriver> driver;
  std::unique_ptr<ServingPlane> plane;
  std::unique_ptr<FaultSchedule> schedule;
  std::unique_ptr<ArrivalFold> fold;
  double offered_rate = 0;
};

RequestGenerator LoopGenerator(const RoutingTree& tree, std::uint64_t seed,
                               int epoch) {
  return RequestGenerator(
      tree, kLoopDocs,
      {RotatingHotSpotComponent(tree, kLoopDocs, 1.0, 50.0, 0.05,
                                epoch % kRotation, kRotation)},
      seed * 7919 + static_cast<std::uint64_t>(epoch));
}

LoopState BuildLoop(std::uint64_t seed, SpanRecorder& rec) {
  LoopState st;
  {
    ScopedSpan s(rec, "tree.build");
    st.tree = std::make_unique<RoutingTree>(WorkloadTree(kLoopNodes));
  }
  const RoutingTree& tree = *st.tree;
  {
    // The engine starts with no demand: everything it learns comes from
    // the folded request stream.
    ScopedSpan s(rec, "core.engine_build");
    std::vector<std::vector<double>> lanes(
        kLoopDocs, std::vector<double>(static_cast<std::size_t>(tree.size()), 0.0));
    WebWaveOptions wopt;
    wopt.threads = kThreads;
    st.sim = std::make_unique<BatchWebWaveSimulator>(tree, std::move(lanes),
                                                     wopt);
  }
  {
    ScopedSpan s(rec, "serve.driver_build");
    EpochDriver::Options dopt;
    dopt.steps_per_epoch = kSteps;
    st.driver = std::make_unique<EpochDriver>(*st.sim, dopt);
  }
  {
    ScopedSpan s(rec, "store.attach");
    const DocumentSizes sizes = DocumentSizes::FromCatalog(
        Catalog::MakeLogNormal(kLoopDocs, 64.0, 1.0, kTopologySeed));
    st.capacity = std::make_unique<CapacityProjector>(
        tree, CacheStore::WorkingSetStore(tree, sizes, kStoreMultiple));
    st.driver->AttachCapacity(st.capacity.get());
  }
  {
    ScopedSpan s(rec, "fault.attach");
    st.faults = std::make_unique<FaultProjector>(tree);
    st.driver->AttachFaults(st.faults.get());
  }
  st.offered_rate = LoopGenerator(tree, seed, 0).total_rate();
  {
    ScopedSpan s(rec, "serve.plane_build");
    ServingOptions sopt;
    sopt.threads = kThreads;
    sopt.block_size = std::max(kBlock, tree.size());
    sopt.offered_rate = st.offered_rate;
    sopt.max_failover_attempts = tree.height() + 2;
    st.plane = std::make_unique<ServingPlane>(tree, st.driver->serving(), sopt);
    st.driver->AttachPlane(st.plane.get());
  }
  FaultScheduleOptions fopt;
  fopt.pattern = FaultPattern::kSubtreeOutage;
  fopt.outage_epochs = 1;
  fopt.start_epoch = 1;
  fopt.max_subtree_fraction = 0.02;
  fopt.seed = kTopologySeed;
  st.schedule = std::make_unique<FaultSchedule>(tree, fopt);
  st.fold = std::make_unique<ArrivalFold>(tree.size(), kLoopDocs);
  return st;
}

}  // namespace

void RunServeHotCatalog(RunContext& ctx) {
  Outcome& out = ctx.out;
  SpanRecorder& rec = ctx.spans;
  CatalogState st;
  {
    ScopedSpan s(rec, "setup");
    out.Set("setup_s", TimeSetup([&] {
              st = CatalogState();  // free the previous state first
              st = BuildCatalog(ctx.seed, rec);
            }));
  }
  ServingPlane& plane = *st.plane;

  std::vector<double> call_s;
  double serve_wall = 0, serve_cpu = 0;
  std::uint64_t served = 0;
  ServingMetrics prefix, first_round;
  const double t_end = NowSeconds() + ctx.seconds;
  int round = 0;
  while (NowSeconds() < t_end) {
    ScopedSpan rs(rec, "round");
    for (std::size_t c = 0; c < kChunks; ++c) {
      Span<Request> chunk(st.stream.data() + c * kChunk, kChunk);
      ScopedSpan s(rec, "serve.serve");
      const double c0 = ProcessCpuSeconds();
      const double t0 = NowSeconds();
      plane.Serve(chunk);
      const double dt = NowSeconds() - t0;
      serve_cpu += ProcessCpuSeconds() - c0;
      serve_wall += dt;
      call_s.push_back(dt);
      served += kChunk;
      if (round == 0 && c == 0) prefix = plane.metrics();
    }
    if (round == 0) first_round = plane.metrics();
    ++round;
  }
  out.attempted = served;
  const ServingMetrics& m = plane.metrics();
  out.failed = m.dropped_requests + (served - m.requests);
  CheckConservation(m, "serve_hot_catalog", out);
  out.Check(m.requests == served, "serve_hot_catalog: request count drift");
  out.Check(m.MeanHops() <= st.mean_origin_depth,
            "serve_hot_catalog: mean hops exceed the mean origin depth");
  {
    // The first chunk is block-aligned; a 1-thread plane built from the
    // same table must serve it to identical metrics.
    ServingOptions one = st.options;
    one.threads = 1;
    ServingPlane serial(*st.tree, plane.snapshot(), one);
    serial.Serve(Span<Request>(st.stream.data(), kChunk));
    out.Check(serial.metrics() == prefix,
              "serve_hot_catalog: 1-thread replay of the first chunk differs");
  }

  const double call = FastQuartile(call_s);
  out.Set("req_per_s", static_cast<double>(kChunk) / call);
  out.Set("latency_ms", 1e3 * call);
  out.Set("peak_load_share", static_cast<double>(first_round.MaxServed()) /
                                 static_cast<double>(first_round.requests));
  out.Note("serve_hot_catalog: " + std::to_string(round) + " rounds of " +
           std::to_string(kChunks) + " Serve calls x " +
           std::to_string(kChunk) + " requests at " +
           std::to_string(kThreads) + " threads; call ms " +
           Spread(call_s, 1e3));
  if (!ctx.trace) return;
  const int setups = std::max(1, rec.Count("tree.build"));
  out.Set("tree.build_s", rec.Total("tree.build") / setups);
  out.Set("doc.placement_s", rec.Total("doc.placement") / setups);
  out.Set("serve.plane_build_s", rec.Total("serve.plane_build") / setups);
  out.Set("serve.gen_req_per_s",
          static_cast<double>(setups) * static_cast<double>(kChunk * kChunks) /
              rec.Total("serve.generate"));
  out.Set("serve.snapshot_cells",
          static_cast<double>(plane.snapshot().cell_count()));
  out.Set("serve.mean_hops", m.MeanHops());
  out.Set("serve.cpu_util", serve_cpu / (serve_wall * kThreads));
}

void RunHotspotLoop(RunContext& ctx) {
  Outcome& out = ctx.out;
  SpanRecorder& rec = ctx.spans;
  LoopState st;
  {
    ScopedSpan s(rec, "setup");
    out.Set("setup_s", TimeSetup([&] {
              st = LoopState();
              st = BuildLoop(ctx.seed, rec);
            }));
  }
  const RoutingTree& tree = *st.tree;
  BatchWebWaveSimulator& sim = *st.sim;
  ServingPlane& plane = *st.plane;
  PhaseClock clock;
  if (ctx.trace) st.driver->SetClock(&clock);
  static const char* kPhaseSpan[EpochDriver::kPhaseCount] = {
      "core.demand",  "core.diffusion", "serve.refresh",
      "store.clamp",  "fault.rehome",   "serve.install"};

  std::vector<Request> window;
  std::vector<double> epoch_s, epoch_total_s, peak_share, step_ms, events, dirty, evicted,
      rehomed, cells, hops;
  // Per-phase wall and process-CPU seconds, from the PhaseClock marks.
  double phase_wall[EpochDriver::kPhaseCount] = {};
  double phase_cpu[EpochDriver::kPhaseCount] = {};
  std::uint64_t served = 0;
  const std::size_t half = kWindow / 2;
  const double t_end = NowSeconds() + ctx.seconds;
  int epoch = 0;
  // Whole rotations only: every run does the same epochs in the same
  // order, however long it runs.
  while (epoch == 0 || epoch % kRotation != 0 || NowSeconds() < t_end) {
    LoopGenerator(tree, ctx.seed, epoch).NextBatch(kWindow, &window);
    const Span<Request> first(window.data(), half);
    const Span<Request> second(window.data() + half, kWindow - half);
    ScopedSpan es(rec, "epoch");

    plane.ResetMetrics();
    double t0 = NowSeconds();
    {
      ScopedSpan s(rec, "serve.serve");
      plane.Serve(first);
    }
    double serve_s = NowSeconds() - t0;
    CheckConservation(plane.metrics(), "hotspot_loop stale half", out);

    const double l0 = NowSeconds();
    std::vector<DemandEvent> churn;
    {
      ScopedSpan s(rec, "serve.fold");
      st.fold->Count(first);
      churn = st.fold->Drain(static_cast<double>(half) / st.offered_rate);
    }
    const std::vector<FaultEvent> fault_events = st.schedule->NextEvents();
    EpochDriver::Report report;
    {
      const int id = rec.Begin("serve.apply_epoch");
      report = st.driver->ApplyEpoch(
          Span<DemandEvent>(churn.data(), churn.size()),
          Span<const FaultEvent>(fault_events.data(), fault_events.size()));
      rec.End(id);
      if (ctx.trace) {
        // ApplyEpoch marks its start and the end of each phase.
        const std::vector<PhaseClock::Mark> marks = clock.Take();
        out.Check(marks.size() == EpochDriver::kPhaseCount + 1,
                  "hotspot_loop: ApplyEpoch did not mark every phase");
        for (int p = 0; p < EpochDriver::kPhaseCount &&
                        p + 1 < static_cast<int>(marks.size());
             ++p) {
          rec.Add(kPhaseSpan[p], marks[p].wall_s, marks[p + 1].wall_s, id);
          phase_wall[p] += marks[p + 1].wall_s - marks[p].wall_s;
          phase_cpu[p] += marks[p + 1].cpu_s - marks[p].cpu_s;
          if (p == EpochDriver::kDiffusion)
            step_ms.push_back(1e3 * (marks[p + 1].wall_s - marks[p].wall_s) /
                              kSteps);
        }
      }
    }
    const double dl = NowSeconds() - l0;
    epoch_s.push_back(dl);

    plane.ResetMetrics();
    t0 = NowSeconds();
    {
      ScopedSpan s(rec, "serve.serve");
      plane.Serve(second);
    }
    serve_s += NowSeconds() - t0;
    epoch_total_s.push_back(serve_s + dl);
    served += kWindow;
    const ServingMetrics& m = plane.metrics();
    CheckConservation(m, "hotspot_loop rebalanced half", out);
    if (epoch < kRotation)
      peak_share.push_back(static_cast<double>(m.MaxServed()) /
                           static_cast<double>(m.requests));
    hops.push_back(m.MeanHops());

    // Outside the timed calls: the engine and the tables keep the rate
    // the fold measured.
    for (int d = 0; d < kLoopDocs; ++d) {
      const double spont = SumOf(sim.SpontaneousLane(d));
      const double srv = SumOf(sim.ServedLane(d));
      out.Check(std::fabs(srv - spont) <= 1e-9 * std::max(1.0, spont),
                "hotspot_loop: lane " + std::to_string(d) +
                    " served sum differs from its spontaneous sum");
    }
    const double total = st.driver->serving().total_rate();
    out.Check(std::fabs(total - st.offered_rate) <= 1e-6 * st.offered_rate,
              "hotspot_loop: serving table rate differs from folded demand");
    events.push_back(static_cast<double>(churn.size()));
    dirty.push_back(static_cast<double>(report.dirty.size()));
    evicted.push_back(static_cast<double>(st.capacity->evicted_cells()));
    rehomed.push_back(static_cast<double>(st.faults->evicted_cells()));
    cells.push_back(static_cast<double>(st.driver->serving().cell_count()));
    ++epoch;
  }
  // TLB minimises the maximum node load, so no lane of the engine can
  // sit below the WebFold optimum of its own demand.
  for (int d = 0; d < kLoopDocs; ++d) {
    const std::vector<double> spont = sim.SpontaneousLane(d);
    const double tlb = MaxOf(WebFold(tree, spont).load);
    out.Check(MaxOf(sim.ServedLane(d)) >= tlb * (1 - 1e-9),
              "hotspot_loop: lane " + std::to_string(d) +
                  " maximum load is below the TLB optimum");
  }
  out.attempted = served + static_cast<std::uint64_t>(epoch);
  out.failed = 0;  // a dropped request fails CheckConservation

  const double n = static_cast<double>(epoch);
  // Medians over every epoch of the run's whole rotations: the epochs are
  // not alike (epoch 0 starts from zero demand, and each rotation position
  // moves a different share of the demand), but every run does the same
  // ones, so the median compares like with like.
  out.Set("req_per_s", static_cast<double>(kWindow) / Median(epoch_total_s));
  out.Set("latency_ms", 1e3 * Median(epoch_s));
  out.Set("peak_load_share", MaxOf(peak_share));
  out.Note("hotspot_loop: " + std::to_string(epoch) + " epochs of " +
           std::to_string(kWindow) + " requests, rotation " +
           std::to_string(kRotation) + ", " + std::to_string(kThreads) +
           " threads; epoch ms " + Spread(epoch_s, 1e3));
  if (!ctx.trace) return;
  const int setups = std::max(1, rec.Count("tree.build"));
  out.Set("tree.build_s", rec.Total("tree.build") / setups);
  out.Set("serve.plane_build_s", rec.Total("serve.plane_build") / setups);
  out.Set("serve.snapshot_cells", SumOf(cells) / n);
  out.Set("serve.mean_hops", SumOf(hops) / n);
  out.Set("serve.fold_ms_per_epoch", 1e3 * rec.Total("serve.fold") / n);
  out.Set("core.demand_ms_per_epoch", 1e3 * rec.Total("core.demand") / n);
  out.Set("core.diffusion_ms_per_epoch",
          1e3 * rec.Total("core.diffusion") / n);
  out.Set("core.step_ms", Median(step_ms));
  const auto util = [&](int p) {
    return phase_cpu[p] / (phase_wall[p] * kThreads);
  };
  out.Set("core.diffusion_cpu_util", util(EpochDriver::kDiffusion));
  out.Set("core.step_drift", step_ms.back() / step_ms.front());
  out.Set("core.demand_events_per_epoch", SumOf(events) / n);
  out.Set("core.dirty_lanes_per_epoch", SumOf(dirty) / n);
  out.Set("serve.refresh_ms_per_epoch", 1e3 * rec.Total("serve.refresh") / n);
  out.Set("store.clamp_ms_per_epoch", 1e3 * rec.Total("store.clamp") / n);
  out.Set("store.clamp_cpu_util", util(EpochDriver::kClamp));
  out.Set("store.evicted_cells", SumOf(evicted) / n);
  out.Set("fault.rehome_ms_per_epoch", 1e3 * rec.Total("fault.rehome") / n);
  out.Set("fault.rehomed_cells", SumOf(rehomed) / n);
  out.Set("serve.install_ms_per_epoch", 1e3 * rec.Total("serve.install") / n);
  // ApplyEpoch's wall time not covered by its six phase spans.
  out.Set("serve.epoch_unspanned_ms", 1e3 * rec.Self("serve.apply_epoch") / n);
}

}  // namespace perfbench
