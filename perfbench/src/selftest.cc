/**
 * @file
 * Cross-check of the benchmark's oracles against the repository's
 * reference implementations (src/algorithms/reference.cc) on small
 * graphs, including a prime |V|, isolated vertices and self-loops.
 * Two independent implementations agreeing is what lets either one
 * judge the engines.
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "algorithms/reference.hh"
#include "graph/generators.hh"
#include "oracles.hh"
#include "support/random.hh"
#include "workloads.hh"

namespace perfbench {

using namespace graphabcd;

namespace {

struct Case
{
    std::string name;
    EdgeList el;
};

std::vector<Case>
selfTestGraphs()
{
    std::vector<Case> cases;
    Rng rng(7);
    // Prime |V| with power-law skew.
    cases.push_back({"rmat-101", generateRmat(101, 700, rng)});
    // Isolated vertices: declare more vertices than the edges touch.
    EdgeList sparse = generateErdosRenyi(60, 150, rng);
    sparse.ensureVertices(67);
    cases.push_back({"isolated-67", sparse});
    // Self-loops on top of a small weighted grid.
    EdgeList loops = generateGrid2d(7, 11, rng, /*weighted=*/true);
    for (VertexId v = 0; v < loops.numVertices(); v += 5)
        loops.addEdge(v, v, 3.0f);
    cases.push_back({"grid-loops-77", loops});
    return cases;
}

bool
expect(bool ok, const std::string &what)
{
    std::printf("selftest %-40s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    return ok;
}

} // namespace

bool
runSelfTest()
{
    bool all = true;
    for (const Case &c : selfTestGraphs()) {
        const EdgeList &el = c.el;
        const VertexId n = el.numVertices();

        const std::vector<double> pr = pagerankOracle(el, 0.85);
        const std::vector<double> pr_ref = pagerankReference(el, 0.85, 1e-14);
        double l1 = 0.0;
        for (VertexId v = 0; v < n; v++)
            l1 += std::abs(pr[v] - pr_ref[v]);
        all &= expect(l1 < 1e-9, c.name + " pagerank");

        for (VertexId source : {VertexId{0}, n / 2}) {
            const std::string at = " from " + std::to_string(source);
            all &= expect(checkDistances(dijkstraOracle(el, source),
                                         dijkstraReference(el, source))
                              .ok,
                          c.name + " dijkstra" + at);
            all &= expect(checkDistances(bfsOracle(el, source),
                                         bfsReference(el, source))
                              .ok,
                          c.name + " bfs" + at);
        }

        const EdgeList sym = el.symmetrized();
        all &= expect(checkComponents(ccReference(sym), componentOracle(sym)).ok,
                      c.name + " components");

        // The label-majority check must accept a fixpoint and reject a
        // labelling that is not one.
        std::vector<double> own(n);
        for (VertexId v = 0; v < n; v++)
            own[v] = v;
        bool has_in_edges = false;
        for (const auto &e : sym.edges())
            has_in_edges |= e.src != e.dst;
        all &= expect(!checkLabelMajority(own, sym).ok || !has_in_edges,
                      c.name + " majority rejects identity");
    }
    // A two-clique graph whose fixpoint is known: every vertex of each
    // clique holds the clique's smallest id.
    EdgeList cliques(8);
    for (VertexId a = 0; a < 4; a++)
        for (VertexId b = 0; b < 4; b++)
            if (a != b) {
                cliques.addEdge(a, b);
                cliques.addEdge(4 + a, 4 + b);
            }
    const std::vector<double> labels = {0, 0, 0, 0, 4, 4, 4, 4};
    all &= expect(checkLabelMajority(labels, cliques).ok,
                  "two cliques majority accepts fixpoint");
    all &= expect(checkComponents(labels, componentOracle(cliques)).ok,
                  "two cliques components");
    std::printf("selftest %s\n", all ? "passed" : "FAILED");
    return all;
}

} // namespace perfbench
