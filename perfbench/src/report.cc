#include "report.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/obs.hh"

namespace perfbench {

double
nowSeconds()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

Report::Report(bool traced) : traced_(traced) {}

void
Report::set(const std::string &name, double value)
{
    values_[name] = value;
}

void
Report::op(bool ok, const std::string &what)
{
    attempted_++;
    if (!ok) {
        failed_++;
        std::printf("FAILED: %s\n", what.c_str());
        std::fflush(stdout);
    }
}

void
Report::invalidate(const std::string &why)
{
    correct_ = false;
    std::printf("INVALID: %s\n", why.c_str());
    std::fflush(stdout);
}

std::string
Report::json() const
{
    std::ostringstream os;
    bool first = true;
    char buf[64];
    os << "{\"correct\": " << (correct_ ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"values\": {";
    for (const auto &[name, value] : values_) {
        // A non-finite figure is not a measurement; print it as null
        // so a consumer rejects it instead of reading a number.
        if (std::isfinite(value))
            std::snprintf(buf, sizeof(buf), "%.17g", value);
        else
            std::snprintf(buf, sizeof(buf), "null");
        os << (first ? "" : ", ") << "\"" << name << "\": " << buf;
        first = false;
    }
    os << "}}";
    return os.str();
}

SpanLog &
SpanLog::global()
{
    static SpanLog log;
    return log;
}

void
SpanLog::add(const SpanRecord &rec)
{
    std::lock_guard<std::mutex> lock(mtx_);
    spans_.push_back(rec);
}

std::map<std::string, double>
SpanLog::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    // Children nest inside their parent on the parent's thread, so the
    // covered part of a parent is the sum of its direct children.
    std::map<std::uint64_t, double> childCover;
    for (const SpanRecord &s : spans_)
        if (s.parent != 0)
            childCover[s.parent] += s.end - s.start;
    std::map<std::string, double> self;
    for (const SpanRecord &s : spans_) {
        auto it = childCover.find(s.id);
        const double covered = it == childCover.end() ? 0.0 : it->second;
        self[s.layer] += std::max(0.0, (s.end - s.start) - covered);
    }
    return self;
}

namespace {

thread_local std::uint64_t currentSpan = 0;
// Benchmark span ids start far above the program's own span ids so the
// two never collide in the merged Chrome trace.
std::atomic<std::uint64_t> nextId{std::uint64_t{1} << 40};

} // namespace

Span::Span(const char *layer, const char *name)
{
    if (!SpanLog::global().enabled())
        return;
    live_ = true;
    rec_.layer = layer;
    rec_.name = name;
    rec_.id = nextId.fetch_add(1, std::memory_order_relaxed);
    rec_.parent = currentSpan;
    savedParent_ = currentSpan;
    currentSpan = rec_.id;
    rec_.start = nowSeconds();
}

Span::~Span()
{
    if (!live_)
        return;
    rec_.end = nowSeconds();
    currentSpan = savedParent_;
    SpanLog::global().add(rec_);
#if GRAPHABCD_OBS_ENABLED
    if (graphabcd::obs::tracingEnabled()) {
        const double dur_us = (rec_.end - rec_.start) * 1e6;
        graphabcd::obs::completeSpan(
            rec_.name, graphabcd::obs::traceNowMicros() - dur_us, dur_us,
            graphabcd::obs::SpanContext{0, rec_.id, rec_.parent});
    }
#endif
}

} // namespace perfbench
