/**
 * @file
 * Result accounting and the benchmark's own layer spans.
 *
 * Report collects the metrics a run prints, with their units, and the
 * attempted / failed operation counts.  SpanLog records a span around
 * each call the benchmark makes into a layer's public functions; the
 * traced run derives each layer's self time from them (a span's
 * duration minus the part its direct children cover).
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock since an arbitrary fixed origin. */
double nowSeconds();

/** Median of `v` (mean of the middle pair for even sizes); 0 if empty. */
double median(std::vector<double> v);

/** Nearest-rank q-quantile of `v`, q in [0, 1]; 0 if empty. */
double quantile(std::vector<double> v, double q);

/**
 * Metric values and operation counts of one run.  Names and units are
 * declared once, in BENCHMARK.json: perfbench/run.py keeps the
 * figures of the run's mode, attaches their units and rejects a name
 * it does not know.
 */
class Report
{
  public:
    explicit Report(bool traced);

    /** Record (or overwrite) the value of metric `name`. */
    void set(const std::string &name, double value);

    /** Count one operation; a failure is printed with `what`. */
    void op(bool ok, const std::string &what);

    /**
     * Mark the run's figures untrustworthy: a cross-check between two
     * paths that must agree (not an operation's output) did not hold.
     */
    void invalidate(const std::string &why);

    /** The last line of the run: correct, attempted, failed, values. */
    std::string json() const;

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool traced() const { return traced_; }

  private:
    const bool traced_;
    std::map<std::string, double> values_;
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** One closed benchmark span. */
struct SpanRecord
{
    const char *layer;
    const char *name;
    double start;    //!< seconds, nowSeconds() scale
    double end;
    std::uint64_t id;
    std::uint64_t parent;   //!< 0 for a root span
};

/**
 * Process-wide store of benchmark spans.  Recording is off unless the
 * run is traced, so untraced runs measure the program alone.
 */
class SpanLog
{
  public:
    static SpanLog &global();

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    void add(const SpanRecord &rec);

    /** Self seconds per layer over every recorded span. */
    std::map<std::string, double> selfSeconds() const;

  private:
    bool enabled_ = false;
    mutable std::mutex mtx_;
    std::vector<SpanRecord> spans_;
};

/**
 * RAII span around one call into a layer.  Nests through a
 * thread-local parent slot; also lands in the program's Chrome trace
 * when the program's recorder is on.  `layer` and `name` must be
 * string literals.
 */
class Span
{
  public:
    Span(const char *layer, const char *name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecord rec_{};
    std::uint64_t savedParent_ = 0;
    bool live_ = false;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
