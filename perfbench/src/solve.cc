/**
 * @file
 * pr-social: each engine solves PageRank on one input to tolerance.
 *
 * A round solves the input with every engine, in a fixed order; an
 * untraced run repeats whole rounds until its time is up and reports
 * each engine's median.  Every solve is checked against an independent
 * oracle.  The traced run solves one round untraced and one traced,
 * then splits the serial engine's time by replaying it through the
 * core layer's public calls.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/pagerank.hh"
#include "algorithms/sssp.hh"
#include "core/accum_engine.hh"
#include "core/async_engine.hh"
#include "core/engine.hh"
#include "fragment/engine.hh"
#include "graph/datasets.hh"
#include "graph/io.hh"
#include "graph/partition.hh"
#include "harp/system.hh"
#include "oracles.hh"
#include "runtime/executor.hh"
#include "workloads.hh"

namespace perfbench {

using namespace graphabcd;

namespace {

enum class Engine
{
    Serial,
    Async,
    Fragment,
    Accum,
    Sim,
};

constexpr Engine kEngines[] = {Engine::Serial, Engine::Async,
                               Engine::Fragment, Engine::Accum, Engine::Sim};

const char *
engineName(Engine e)
{
    switch (e) {
      case Engine::Serial:   return "serial";
      case Engine::Async:    return "async";
      case Engine::Fragment: return "fragment";
      case Engine::Accum:    return "accum";
      case Engine::Sim:      return "sim";
    }
    return "?";
}

/** Threads (and fragments) one solve may use. */
constexpr std::uint32_t kThreads = 4;
constexpr VertexId kBlockSize = 512;
constexpr double kAlpha = 0.85;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 3;
/**
 * Slack of the PageRank check (see checkPagerank): an L1 error of at
 * most 0.5 * 0.01 / 0.15 = 0.033.  The correct engines reach up to
 * 0.0092 (serial, sim) and 0.011 (accum), a third of it at most.
 */
constexpr double kPagerankSlack = 0.5;

/**
 * The solves of one round.  Engines whose time swings from run to run,
 * or that are short, solve more than once per round, so their median
 * rests on more samples.
 */
constexpr Engine kRound[] = {
    Engine::Serial, Engine::Async,    Engine::Sim,   Engine::Accum,
    Engine::Async,  Engine::Fragment, Engine::Async, Engine::Serial,
    Engine::Async,  Engine::Sim,      Engine::Accum, Engine::Async};

/** One engine solve: its report, values and wall time. */
struct Outcome
{
    EngineReport report;
    SimReport sim;               //!< the sim only
    std::uint64_t messages = 0;  //!< the fragment engine only
    std::vector<double> values;
    double seconds = 0.0;
};

EngineReport
fromSim(const SimReport &sim)
{
    EngineReport r;
    r.epochs = sim.epochs;
    r.blockUpdates = sim.blockUpdates;
    r.vertexUpdates = sim.vertexUpdates;
    r.edgeTraversals = sim.edgeTraversals;
    r.scatterWrites = sim.scatterWrites;
    r.converged = sim.converged;
    r.stopped = sim.stopped;
    r.seconds = sim.hostSeconds;
    return r;
}

/**
 * Solve PageRank once with engine `e`; the clock runs from
 * constructing the engine until run() returns.
 */
Outcome
solveOnce(Engine e, const BlockPartition &g, const EngineOptions &opt)
{
    using Program = PageRankProgram;
    const Program prog(kAlpha);
    Outcome out;
    const double t0 = nowSeconds();
    switch (e) {
      case Engine::Serial: {
        Span span("core", "core.serial.run");
        SerialEngine<Program> engine(g, prog, opt);
        out.report = engine.run(out.values);
        break;
      }
      case Engine::Async: {
        Span span("core", "core.async.run");
        AsyncEngine<Program> engine(g, prog, opt);
        out.report = engine.run(out.values);
        break;
      }
      case Engine::Fragment: {
        Span span("fragment", "fragment.run");
        FragmentEngine<Program> engine(g, prog, opt);
        out.report = engine.run(out.values);
        for (const FragmentRunStats &fs : engine.fragmentStats())
            out.messages += fs.messagesSent;
        break;
      }
      case Engine::Accum: {
        Span span("core", "core.accum.run");
        AccumEngine<PageRankAccumProgram> engine(g, PageRankAccumProgram(),
                                                 opt);
        out.report = engine.run(out.values);
        break;
      }
      case Engine::Sim: {
        Span span("harp", "harp.run");
        HarpConfig cfg;
        cfg.layoutBytesPerEdge = g.gatherBytesPerEdge();
        HarpSystem<Program> system(g, prog, opt, cfg);
        out.sim = system.run(out.values);
        out.report = fromSim(out.sim);
        break;
      }
    }
    out.seconds = nowSeconds() - t0;
    return out;
}

/** Per-phase time of a serial run replayed through the core layer. */
struct Replay
{
    double gatherApply = 0.0;
    double scatterCommit = 0.0;
    double schedule = 0.0;
    std::uint64_t vertexUpdates = 0;
    std::uint64_t edgeTraversals = 0;
    std::uint64_t streamBytes = 0;   //!< the layout's per-block model
    SchedulerCounters counters;
};

/**
 * The SerialEngine's Gauss-Seidel loop, driven through BcdState and
 * BlockScheduler with a clock around each phase.  Activations are
 * buffered during the commit and applied right after it, in the same
 * order, so the scheduler sees the engine's exact call sequence.
 */
template <typename Program>
Replay
replaySerial(const BlockPartition &g, const Program &prog,
             const EngineOptions &opt)
{
    Span span("core", "core.serial_replay");
    using Value = typename Program::Value;
    Replay r;
    BcdState<Program> state(g, prog);
    auto sched = makeScheduler(opt.schedule, g.numBlocks(), opt.seed);
    for (BlockId b = 0; b < g.numBlocks(); b++)
        sched->activate(b, initialActivationPriority());
    std::vector<std::pair<BlockId, double>> pending;
    BlockUpdate<Value> update;
    const double n = std::max<double>(g.numVertices(), 1.0);
    double t = nowSeconds();
    for (;;) {
        const std::optional<BlockId> b = sched->next();
        double now = nowSeconds();
        r.schedule += now - t;
        t = now;
        if (!b)
            break;
        update = state.processBlock(g, prog, *b, opt.tolerance);
        now = nowSeconds();
        r.gatherApply += now - t;
        t = now;
        pending.clear();
        state.commitBlock(g, prog, update, opt.tolerance,
                          [&pending](BlockId dst, double delta) {
                              pending.emplace_back(dst, delta);
                          });
        now = nowSeconds();
        r.scatterCommit += now - t;
        t = now;
        for (const auto &[dst, delta] : pending)
            sched->activate(dst, delta);
        r.vertexUpdates += update.newValues.size();
        r.edgeTraversals += g.blockEdgeCount(*b);
        r.streamBytes += g.blockStreamBytes(*b, sizeof(Value));
        if (static_cast<double>(r.vertexUpdates) / n >= opt.maxEpochs)
            break;
    }
    r.counters = sched->counters();
    return r;
}

/** Stream every block's edge slice through blockEdges(); GB/s. */
double
decodeSweepGbps(const BlockPartition &g)
{
    Span span("graph", "graph.decode_sweep");
    constexpr int kPasses = 3;
    EdgeSliceScratch scratch;
    std::uint64_t checksum = 0;
    std::vector<double> rates;
    for (int pass = 0; pass < kPasses; pass++) {
        g.resetBytesMoved();
        const double t0 = nowSeconds();
        for (BlockId b = 0; b < g.numBlocks(); b++) {
            const BlockEdgesView view = g.blockEdges(b, scratch);
            for (VertexId src : view.src)
                checksum += src;
        }
        const double dt = nowSeconds() - t0;
        rates.push_back(static_cast<double>(g.bytesMoved().gather) / dt / 1e9);
    }
    // Keep the sum observable so the sweep cannot be optimised away.
    if (checksum == 0x5eed)
        std::printf("checksum %llu\n",
                    static_cast<unsigned long long>(checksum));
    return median(rates);
}

/**
 * Single-thread STREAM triad a = b + s*c over arrays larger than the
 * last-level cache; the best of five passes, 24 bytes per element.
 */
double
triadGbps()
{
    Span span("core", "core.triad");
    constexpr std::size_t kElems = std::size_t{16} << 20;
    std::vector<double> a(kElems, 0.0), b(kElems, 1.0), c(kElems, 2.0);
    double best = 0.0;
    for (int pass = 0; pass < 5; pass++) {
        const double s = 1.0 + pass;
        const double t0 = nowSeconds();
        for (std::size_t i = 0; i < kElems; i++)
            a[i] = b[i] + s * c[i];
        const double dt = nowSeconds() - t0;
        best = std::max(best, 24.0 * kElems / dt / 1e9);
    }
    if (a[kElems / 2] != 1.0 + 5.0 * 2.0)
        std::printf("triad result mismatch\n");
    return best;
}

/**
 * Replay the serial solve phase by phase and report the core split;
 * the run is marked incorrect unless the replay did exactly the work
 * `serial` (SerialEngine's report on the same input) did.
 */
template <typename Program>
void
splitSerial(Report &report, const BlockPartition &g, const Program &prog,
            const EngineOptions &opt, const EngineReport &serial)
{
    const Replay rp = replaySerial(g, prog, opt);
    if (rp.vertexUpdates != serial.vertexUpdates ||
        rp.edgeTraversals != serial.edgeTraversals)
        report.invalidate(
            "serial replay diverged from SerialEngine: vertex updates " +
            std::to_string(rp.vertexUpdates) + " vs " +
            std::to_string(serial.vertexUpdates) + ", edges " +
            std::to_string(rp.edgeTraversals) + " vs " +
            std::to_string(serial.edgeTraversals));
    const double triad = triadGbps();
    const double ga_gbps =
        static_cast<double>(rp.streamBytes) / rp.gatherApply / 1e9;
    report.set("core.gather_apply_s", rp.gatherApply);
    report.set("core.gather_apply_gbps", ga_gbps);
    report.set("core.triad_gbps", triad);
    report.set("core.gather_apply_roofline", ga_gbps / triad);
    report.set("core.scatter_commit_s", rp.scatterCommit);
    report.set("core.schedule_s", rp.schedule);
    report.set("core.scheduler.activations",
               static_cast<double>(rp.counters.activations));
    report.set("core.scheduler.heap_pushes",
               static_cast<double>(rp.counters.heapPushes));
    report.set("core.scheduler.stale_discards",
               static_cast<double>(rp.counters.staleDiscards));
}

void
resetEngineInstruments()
{
    obs::histogram("engine.async.staleness_blocks", obs::stalenessBuckets())
        .reset();
    obs::histogram("fragment.mirror_staleness_blocks",
                   obs::stalenessBuckets())
        .reset();
    obs::counter("engine.accum.foldbacks").reset();
}

double
histogramP50(const char *name)
{
    return obs::histogram(name, obs::stalenessBuckets())
        .snapshot()
        .quantile(0.5);
}

double
mteps(const Outcome &o)
{
    return o.seconds > 0.0
        ? static_cast<double>(o.report.edgeTraversals) / o.seconds / 1e6
        : 0.0;
}

/** Untraced run: whole rounds until the time is up, then the medians. */
void
timeRounds(const Args &args, Report &report,
           const std::function<Outcome(Engine)> &solve)
{
    std::vector<double> times[std::size(kEngines)];
    const double start = nowSeconds();
    const double deadline = start + args.seconds;
    int rounds = 0;
    // Whole rounds only, and another only while it is expected to end
    // before the deadline.
    for (double round_start = start, last = 0.0;
         rounds == 0 || round_start + last <= deadline;) {
        for (Engine e : kRound)
            times[static_cast<std::size_t>(e)].push_back(solve(e).seconds);
        rounds++;
        const double now = nowSeconds();
        last = now - round_start;
        round_start = now;
    }
    // pr-social has no serve layer: here a "job" is one engine solve,
    // and the job metrics stand in for serve-mix's.  fragment and accum
    // solves are left out of them, as fragment_s and accum_s are left
    // out of the gate: their time swings too much from run to run to
    // hold a bound (the traced run reports fragment.solve_s and
    // core.accum.solve_s instead).
    std::vector<double> jobs;
    for (std::size_t i = 0; i < std::size(kEngines); i++) {
        const std::vector<double> &t = times[i];
        if (kEngines[i] != Engine::Fragment && kEngines[i] != Engine::Accum) {
            report.set(std::string(engineName(kEngines[i])) + "_s",
                       median(t));
            jobs.insert(jobs.end(), t.begin(), t.end());
        }
        std::printf("%-8s median %.4f s over %zu solves:",
                    engineName(kEngines[i]), median(t), t.size());
        for (double x : t)
            std::printf(" %.4f", x);
        std::printf("\n");
    }
    double busy = 0.0;
    for (double t : jobs)
        busy += t;
    report.set("jobs_per_s", static_cast<double>(jobs.size()) / busy);
    report.set("job_p50_ms", median(jobs) * 1e3);
    // Too few solves for a 99th percentile: the tail is the slowest.
    report.set("job_p99_ms", *std::max_element(jobs.begin(), jobs.end()) * 1e3);
    std::printf("rounds: %d\n", rounds);
}

/**
 * Runs of AsyncEngine<SsspProgram> on `threads` participants that
 * return a distance other than Dijkstra's, out of `runs`.  With more
 * than one participant a block can be solved on two pumps at once and
 * the slower store loses the faster one's smaller distance.
 */
int
asyncSsspWrongRuns(const BlockPartition &g, const std::vector<double> &want,
                   std::uint32_t threads, int runs)
{
    Span span("core", "core.async.sssp_probe");
    EngineOptions opt;
    opt.blockSize = g.blockSize();
    opt.schedule = Schedule::Priority;
    opt.numThreads = threads;
    opt.executor = std::make_shared<Executor>(threads);
    const SsspProgram prog(0);
    int wrong = 0;
    for (int i = 0; i < runs; i++) {
        std::vector<double> values;
        AsyncEngine<SsspProgram>(g, prog, opt).run(values);
        wrong += checkDistances(values, want).ok ? 0 : 1;
    }
    return wrong;
}

} // namespace

void
reportRoadLayers(Report &report, const BlockPartition &road,
                 const EdgeList &road_el)
{
    EngineOptions opt;
    opt.blockSize = road.blockSize();
    opt.schedule = Schedule::Priority;
    const SsspProgram prog(0);
    EngineReport serial;
    {
        Span span("core", "core.serial.run");
        std::vector<double> values;
        serial = SerialEngine<SsspProgram>(road, prog, opt).run(values);
    }
    report.set("core.serial.epochs", serial.epochs);
    splitSerial(report, road, prog, opt, serial);
    report.set("graph.gather_bytes_per_edge", road.gatherBytesPerEdge());
    report.set("graph.scatter_bytes_per_edge", road.scatterBytesPerEdge());
    report.set("graph.decode_gbps", decodeSweepGbps(road));
    constexpr int kProbeRuns = 40;
    const int wrong = asyncSsspWrongRuns(road, dijkstraOracle(road_el, 0),
                                         kThreads, kProbeRuns);
    std::printf("async sssp on %u threads: %d of %d runs wrong\n", kThreads,
                wrong, kProbeRuns);
    report.set("core.async.sssp_wrong_runs", wrong);
}

void
runSolveWorkload(const Args &args, Report &report)
{
    const std::string input_path =
        args.dataDir + "/pr-social-" + std::to_string(args.seed) + ".bin";
    const double gen_start = nowSeconds();
    saveEdgeListBinary(makeDataset("LJ", 8.0, args.seed).graph, input_path);
    std::printf("generate and write input: %.2f s\n", nowSeconds() - gen_start);

    // ---- set-up: read the input file and build the partition ----
    std::unique_ptr<EdgeList> el;
    std::unique_ptr<BlockPartition> g;
    std::vector<double> loads, parts, setups;
    for (int rep = 0; rep < kSetupReps; rep++) {
        g.reset();
        el.reset();
        const double t0 = nowSeconds();
        {
            Span span("graph", "graph.load");
            el = std::make_unique<EdgeList>(loadEdgeListBinary(input_path));
        }
        const double t1 = nowSeconds();
        {
            Span span("graph", "graph.partition");
            g = std::make_unique<BlockPartition>(
                *el, kBlockSize,
                LayoutOptions{GraphLayout::Plain, VertexReorder::None});
        }
        const double t2 = nowSeconds();
        loads.push_back(t1 - t0);
        parts.push_back(t2 - t1);
        setups.push_back(t2 - t0);
    }
    std::remove(input_path.c_str());
    report.set("setup_s", median(setups));
    report.set("graph.load_s", median(loads));
    report.set("graph.partition_s", median(parts));
    std::printf("input: |V|=%u |E|=%llu blocks=%u layout=%s reorder=%s\n",
                g->numVertices(),
                static_cast<unsigned long long>(g->numEdges()),
                g->numBlocks(), to_string(g->layout()),
                to_string(g->reorder()));

    const VertexId n = g->numVertices();
    EngineOptions opt;
    opt.blockSize = kBlockSize;
    opt.schedule = Schedule::Cyclic;
    opt.tolerance = 0.01 / n;
    opt.numThreads = kThreads;
    opt.fragments = kThreads;
    opt.executor = std::make_shared<Executor>(kThreads);

    const double oracle_start = nowSeconds();
    const std::vector<double> want = pagerankOracle(*el, kAlpha);
    el.reset();
    std::printf("oracle: %.2f s\n", nowSeconds() - oracle_start);

    auto solveChecked = [&](Engine e) {
        Outcome o = solveOnce(e, *g, opt);
        Verdict v = checkPagerank(o.values, want, opt.tolerance, kAlpha,
                                  kPagerankSlack);
        std::printf("%s: %.4f s, %.2f epochs, L1 error %.3g = %.3f of the "
                    "bound\n",
                    engineName(e), o.seconds, o.report.epochs, v.error,
                    v.error / v.bound);
        if (!o.report.converged)
            v = {false, "did not converge"};
        report.op(v.ok, args.workload + "/" + engineName(e) + ": " + v.why);
        return o;
    };

    if (!report.traced()) {
        timeRounds(args, report, solveChecked);
        return;
    }

    // ---- traced run: one untraced round as the base, one traced ----
    SpanLog::global().setEnabled(false);
    double untraced = 0.0;
    for (Engine e : kEngines)
        untraced += solveChecked(e).seconds;

    resetEngineInstruments();
    g->resetBytesMoved();
    const Executor::Stats exec0 = opt.executor->stats();
    SpanLog::global().setEnabled(true);
    obs::setTracingEnabled(true);
    Outcome out[std::size(kEngines)];
    double traced = 0.0;
    for (std::size_t i = 0; i < std::size(kEngines); i++) {
        out[i] = solveChecked(kEngines[i]);
        traced += out[i].seconds;
    }
    const Executor::Stats exec1 = opt.executor->stats();
    report.set("graph.bytes_moved_gb",
               static_cast<double>(g->bytesMoved().total()) / 1e9);
    const Outcome &serial = out[0], &async = out[1], &frag = out[2],
                  &accum = out[3], &sim = out[4];

    report.set("obs.trace_overhead", traced / untraced);
    report.set("graph.gather_bytes_per_edge", g->gatherBytesPerEdge());
    report.set("graph.scatter_bytes_per_edge", g->scatterBytesPerEdge());
    report.set("core.serial.epochs", serial.report.epochs);
    report.set("core.serial.mteps", mteps(serial));
    report.set("core.async.epochs", async.report.epochs);
    report.set("core.async.mteps", mteps(async));
    report.set("core.accum.solve_s", accum.seconds);
    report.set("core.accum.epochs", accum.report.epochs);
    report.set("core.accum.mteps", mteps(accum));
    report.set("core.accum.foldbacks",
               static_cast<double>(
                   obs::counter("engine.accum.foldbacks").value()));
    report.set("core.async.staleness_p50",
               histogramP50("engine.async.staleness_blocks"));
    report.set("fragment.solve_s", frag.seconds);
    report.set("fragment.epochs", frag.report.epochs);
    report.set("fragment.mteps", mteps(frag));
    report.set("fragment.epoch_inflation",
               frag.report.epochs / serial.report.epochs);
    report.set("fragment.messages_per_edge",
               static_cast<double>(frag.messages) /
                   static_cast<double>(frag.report.edgeTraversals));
    report.set("fragment.mirror_staleness_p50",
               histogramP50("fragment.mirror_staleness_blocks"));
    report.set("harp.epochs", sim.sim.epochs);
    report.set("harp.bus_utilization", sim.sim.busUtilization);
    report.set("harp.host_per_modelled", sim.sim.hostSeconds / sim.sim.seconds);
    report.set("harp.modelled_s", sim.sim.seconds);
    report.set("runtime.executor.tasks",
               static_cast<double>(exec1.executed - exec0.executed));
    report.set("runtime.executor.steals",
               static_cast<double>(exec1.steals - exec0.steals));

    splitSerial(report, *g, PageRankProgram(kAlpha), opt, serial.report);
    report.set("graph.decode_gbps", decodeSweepGbps(*g));
    g.reset();

    const std::string trace_path = args.dataDir + "/trace-" + args.workload +
                                   "-" + std::to_string(args.seed) + ".json";
    const std::string chrome = reportTraceCommon(report, trace_path);
    const double pump_s = traceEventSeconds(chrome, "fragment.pump");
    report.set("fragment.pump_s", pump_s);
    report.set("fragment.busy_share", pump_s / (kThreads * frag.seconds));
}

} // namespace perfbench
