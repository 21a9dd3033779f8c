#include "oracles.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

/** Compressed adjacency built by counting sort over the raw records. */
struct Adjacency
{
    std::vector<std::uint64_t> offsets;   //!< size n + 1
    std::vector<VertexId> other;          //!< the far endpoint
    std::vector<float> weight;
};

Adjacency
buildAdjacency(const EdgeList &el, bool by_destination)
{
    const VertexId n = el.numVertices();
    Adjacency adj;
    adj.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const auto &e : el.edges())
        adj.offsets[(by_destination ? e.dst : e.src) + 1]++;
    for (VertexId v = 0; v < n; v++)
        adj.offsets[v + 1] += adj.offsets[v];
    std::vector<std::uint64_t> fill(adj.offsets.begin(), adj.offsets.end() - 1);
    adj.other.resize(el.numEdges());
    adj.weight.resize(el.numEdges());
    for (const auto &e : el.edges()) {
        const std::uint64_t at = fill[by_destination ? e.dst : e.src]++;
        adj.other[at] = by_destination ? e.src : e.dst;
        adj.weight[at] = e.weight;
    }
    return adj;
}

constexpr unsigned kOracleThreads = 4;

/** Run fn(slot, begin, end) over [0, n) split across a few threads. */
void
parallelRanges(VertexId n,
               const std::function<void(unsigned, VertexId, VertexId)> &fn)
{
    std::vector<std::thread> pool;
    const VertexId chunk = (n + kOracleThreads - 1) / kOracleThreads;
    for (unsigned t = 0; t < kOracleThreads; t++) {
        const VertexId b = std::min<VertexId>(n, t * chunk);
        const VertexId e = std::min<VertexId>(n, b + chunk);
        pool.emplace_back(fn, t, b, e);
    }
    for (auto &th : pool)
        th.join();
}

std::string
describe(const char *what, VertexId v, double got, double want)
{
    std::ostringstream os;
    os.precision(17);
    os << what << " at vertex " << v << ": got " << got << ", want " << want;
    return os.str();
}

} // namespace

std::vector<double>
pagerankOracle(const EdgeList &el, double alpha, VertexId source)
{
    const VertexId n = el.numVertices();
    if (n == 0)
        return {};
    const Adjacency in = buildAdjacency(el, /*by_destination=*/true);
    std::vector<std::uint32_t> outdeg(n, 0);
    for (const auto &e : el.edges())
        outdeg[e.src]++;
    const bool personalized = source < n;
    auto teleport = [&](VertexId v) {
        if (personalized)
            return v == source ? 1.0 - alpha : 0.0;
        return (1.0 - alpha) / static_cast<double>(n);
    };

    std::vector<double> x(n), share(n), next(n);
    for (VertexId v = 0; v < n; v++)
        x[v] = personalized ? (v == source ? 1.0 : 0.0) : 1.0 / n;
    std::vector<double> partial(kOracleThreads);
    for (int it = 0; it < 100000; it++) {
        for (VertexId v = 0; v < n; v++)
            share[v] = outdeg[v] ? x[v] / outdeg[v] : 0.0;
        std::fill(partial.begin(), partial.end(), 0.0);
        parallelRanges(n, [&](unsigned slot, VertexId b, VertexId e) {
            double step = 0.0;
            for (VertexId v = b; v < e; v++) {
                double acc = 0.0;
                for (std::uint64_t i = in.offsets[v]; i < in.offsets[v + 1]; i++)
                    acc += share[in.other[i]];
                next[v] = teleport(v) + alpha * acc;
                step += std::abs(next[v] - x[v]);
            }
            partial[slot] = step;
        });
        x.swap(next);
        double step = 0.0;
        for (double s : partial)
            step += s;
        if (step < 1e-10)
            break;
    }
    return x;
}

std::vector<double>
dijkstraOracle(const EdgeList &el, VertexId source)
{
    const VertexId n = el.numVertices();
    const Adjacency out = buildAdjacency(el, /*by_destination=*/false);
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    using Item = std::pair<double, VertexId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist[source] = 0.0;
    heap.emplace(0.0, source);
    while (!heap.empty()) {
        const auto [d, v] = heap.top();
        heap.pop();
        if (d != dist[v])
            continue;
        for (std::uint64_t i = out.offsets[v]; i < out.offsets[v + 1]; i++) {
            const double nd = d + static_cast<double>(out.weight[i]);
            if (nd < dist[out.other[i]]) {
                dist[out.other[i]] = nd;
                heap.emplace(nd, out.other[i]);
            }
        }
    }
    for (double &d : dist)
        if (std::isinf(d))
            d = kUnreached;
    return dist;
}

std::vector<double>
bfsOracle(const EdgeList &el, VertexId source)
{
    const VertexId n = el.numVertices();
    const Adjacency out = buildAdjacency(el, /*by_destination=*/false);
    std::vector<double> depth(n, kUnreached);
    std::vector<VertexId> frontier{source}, nextFrontier;
    depth[source] = 0.0;
    for (double level = 1.0; !frontier.empty(); level += 1.0) {
        nextFrontier.clear();
        for (VertexId v : frontier) {
            for (std::uint64_t i = out.offsets[v]; i < out.offsets[v + 1];
                 i++) {
                const VertexId u = out.other[i];
                if (depth[u] == kUnreached) {
                    depth[u] = level;
                    nextFrontier.push_back(u);
                }
            }
        }
        frontier.swap(nextFrontier);
    }
    return depth;
}

std::vector<VertexId>
componentOracle(const EdgeList &el)
{
    const VertexId n = el.numVertices();
    std::vector<VertexId> parent(n);
    for (VertexId v = 0; v < n; v++)
        parent[v] = v;
    auto find = [&parent](VertexId v) {
        while (parent[v] != v) {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        return v;
    };
    for (const auto &e : el.edges()) {
        const VertexId a = find(e.src), b = find(e.dst);
        if (a != b)
            parent[std::max(a, b)] = std::min(a, b);
    }
    std::vector<VertexId> comp(n);
    for (VertexId v = 0; v < n; v++)
        comp[v] = find(v);
    return comp;
}

Verdict
checkPagerank(const std::vector<double> &got, const std::vector<double> &want,
              double tol, double alpha, double slack)
{
    if (got.size() != want.size())
        return {false, "value count " + std::to_string(got.size()) +
                           " != |V| " + std::to_string(want.size())};
    double l1 = 0.0;
    for (std::size_t v = 0; v < got.size(); v++) {
        if (!std::isfinite(got[v]))
            return {false, describe("non-finite rank", v, got[v], want[v])};
        l1 += std::abs(got[v] - want[v]);
    }
    const double bound =
        slack * static_cast<double>(got.size()) * tol / (1.0 - alpha);
    if (!(l1 <= bound)) {
        std::ostringstream os;
        os << "L1 error " << l1 << " exceeds " << bound;
        return {false, os.str(), l1, bound};
    }
    return {true, "", l1, bound};
}

Verdict
checkDistances(const std::vector<double> &got, const std::vector<double> &want)
{
    if (got.size() != want.size())
        return {false, "value count " + std::to_string(got.size()) +
                           " != |V| " + std::to_string(want.size())};
    for (std::size_t v = 0; v < got.size(); v++)
        if (got[v] != want[v])
            return {false, describe("distance", v, got[v], want[v])};
    return {};
}

Verdict
checkComponents(const std::vector<double> &got,
                const std::vector<VertexId> &want)
{
    const std::size_t n = want.size();
    if (got.size() != n)
        return {false, "value count " + std::to_string(got.size()) +
                           " != |V| " + std::to_string(n)};
    // label -> oracle component, and oracle component -> label, must
    // both be functions for the two partitions to coincide.
    std::map<double, VertexId> compOfLabel;
    std::map<VertexId, double> labelOfComp;
    for (std::size_t v = 0; v < n; v++) {
        const double label = got[v];
        if (!(label >= 0.0 && label < static_cast<double>(n)) ||
            label != std::floor(label))
            return {false, describe("label out of range", v, label, 0)};
        if (want[static_cast<VertexId>(label)] != want[v])
            return {false, describe("label outside its component", v, label,
                                    want[v])};
        auto [c, inserted_c] = compOfLabel.emplace(label, want[v]);
        auto [l, inserted_l] = labelOfComp.emplace(want[v], label);
        if (c->second != want[v] || l->second != label)
            return {false, describe("split or merged component", v, label,
                                    want[v])};
    }
    return {};
}

Verdict
checkLabelMajority(const std::vector<double> &got, const EdgeList &el)
{
    const VertexId n = el.numVertices();
    if (got.size() != n)
        return {false, "value count " + std::to_string(got.size()) +
                           " != |V| " + std::to_string(n)};
    const Adjacency in = buildAdjacency(el, /*by_destination=*/true);
    std::map<double, std::uint32_t> counts;
    for (VertexId v = 0; v < n; v++) {
        if (in.offsets[v] == in.offsets[v + 1]) {
            if (got[v] != static_cast<double>(v))
                return {false, describe("source-less vertex relabelled", v,
                                        got[v], v)};
            continue;
        }
        counts.clear();
        for (std::uint64_t i = in.offsets[v]; i < in.offsets[v + 1]; i++)
            counts[got[in.other[i]]]++;
        std::uint32_t best = 0;
        for (const auto &[label, count] : counts)
            best = std::max(best, count);
        auto it = counts.find(got[v]);
        if (it == counts.end() || it->second != best)
            return {false, describe("label not a local majority", v, got[v],
                                    best)};
    }
    return {};
}

} // namespace perfbench
