/**
 * @file
 * Entry points of the benchmark's workloads and the arguments they share.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "graph/partition.hh"
#include "report.hh"

namespace perfbench {

/** Command-line arguments of one run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string dataDir;   //!< scratch space for input files and traces
};

/** pr-social: every engine solves the same PageRank input. */
void runSolveWorkload(const Args &args, Report &report);

/**
 * The serial solve split by phase, a decode sweep and a probe of the
 * async engine's lost updates, on serve-mix's compressed road grid
 * `road` (built from `road_el`) with the priority schedule, SSSP from
 * vertex 0: the scheduler, codec and async figures of the traced
 * serve-mix run.
 */
void reportRoadLayers(Report &report, const graphabcd::BlockPartition &road,
                      const graphabcd::EdgeList &road_el);

/** serve-mix: a closed loop of clients against a JobManager. */
void runServeMix(const Args &args, Report &report);

/** Cross-check the oracles against src/algorithms/reference.cc. */
bool runSelfTest();

/**
 * Record the per-layer figures every traced run shares (layer self
 * times, executor busy time, dropped trace events), write the
 * program's Chrome trace to `trace_path` and return it.
 */
std::string reportTraceCommon(Report &report, const std::string &trace_path);

/** Sum of the durations (seconds) of program trace events named `name`. */
double traceEventSeconds(const std::string &chrome_json, const char *name);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
