/**
 * @file
 * The benchmark driver: parses the run's arguments, prints the
 * program-side provenance lines, runs one workload and prints the
 * result object as the last line of standard output.
 *
 *   abcd_perfbench --workload pr-social|serve-mix --seed N
 *                  --seconds S --trace 0|1 --data DIR
 *   abcd_perfbench --selftest
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/obs.hh"
#include "workloads.hh"

namespace perfbench {

std::string
reportTraceCommon(Report &report, const std::string &trace_path)
{
    for (const auto &[layer, secs] : SpanLog::global().selfSeconds())
        report.set(layer + ".self_s", secs);
    std::ostringstream os;
    graphabcd::TraceRecorder::global().writeChromeTrace(os);
    std::string chrome = os.str();
    std::ofstream(trace_path) << chrome;
    std::printf("trace: %s (%zu events)\n", trace_path.c_str(),
                graphabcd::obs::traceEventCount());
    report.set("runtime.executor.busy_s",
               traceEventSeconds(chrome, "executor.task"));
    report.set("obs.trace_dropped",
               static_cast<double>(
                   graphabcd::TraceRecorder::global().droppedCount()));
    return chrome;
}

double
traceEventSeconds(const std::string &chrome_json, const char *name)
{
    // writeChromeTrace puts one event per line:
    //   {"name":"<name>","ph":"X","ts":...,"dur":<us>,...}
    const std::string key = std::string("{\"name\":\"") + name + "\"";
    double total_us = 0.0;
    std::istringstream in(chrome_json);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) != 0)
            continue;
        const std::size_t at = line.find("\"dur\":");
        if (at != std::string::npos)
            total_us += std::strtod(line.c_str() + at + 6, nullptr);
    }
    return total_us / 1e6;
}

} // namespace perfbench

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: abcd_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --data DIR\n       abcd_perfbench "
                 "--selftest\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    bool selftest = false;
    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        if (flag == "--selftest") {
            selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            args.trace = value == "1";
            if (value != "0" && value != "1")
                return usage();
        } else if (flag == "--data") {
            args.dataDir = value;
        } else {
            return usage();
        }
        if (end != nullptr && *end != '\0')
            return usage();
    }
    if (selftest)
        return runSelfTest() ? 0 : 1;
    if (args.dataDir.empty() || !(args.seconds > 0.0))
        return usage();

    std::printf("build: %s, obs compiled in: %s\n", PERFBENCH_BUILD_TYPE,
                graphabcd::obs::kEnabled ? "yes" : "no");
    std::printf("workload: %s, seed: %llu, seconds: %g, traced: %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::fflush(stdout);

    Report report(args.trace);
    SpanLog::global().setEnabled(args.trace);
    if (args.workload == "pr-social")
        runSolveWorkload(args, report);
    else if (args.workload == "serve-mix")
        runServeMix(args, report);
    else
        return usage();

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    report.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
    std::printf("%s\n", report.json().c_str());
    return 0;
}
