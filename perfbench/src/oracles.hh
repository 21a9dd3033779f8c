/**
 * @file
 * Independent oracles the benchmark checks every output against.
 *
 * They share nothing with the engines but the EdgeList container: each
 * builds its own adjacency from the raw edge records and runs a
 * textbook method (power iteration, Dijkstra, BFS, union-find), so an
 * engine fault cannot cancel out against the oracle.  Vertex ids here
 * are the ids of the edge list handed in; callers compare in that id
 * space (the serve layer already translates reordered ids back).
 */

#ifndef PERFBENCH_ORACLES_HH
#define PERFBENCH_ORACLES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge_list.hh"

namespace perfbench {

using graphabcd::EdgeList;
using graphabcd::VertexId;

/** Sentinel the vertex programs use for "not reached". */
constexpr double kUnreached = 1e18;

/**
 * PageRank fixpoint x = (1-a)/n + a * sum_{u->v} x_u / outdeg(u), the
 * program's convention: a dangling vertex's mass leaves the system.
 * With `source` < n it is personalized PageRank, whose teleport term
 * is (1-a) at the source and 0 elsewhere.  Power iteration until the
 * L1 step falls below 1e-10 (an error below 6e-10).
 */
std::vector<double> pagerankOracle(const EdgeList &el, double alpha,
                                   VertexId source = ~VertexId{0});

/** Dijkstra distances; kUnreached where no path exists. */
std::vector<double> dijkstraOracle(const EdgeList &el, VertexId source);

/** BFS hop depths; kUnreached where no path exists. */
std::vector<double> bfsOracle(const EdgeList &el, VertexId source);

/** Weakly connected component id (union-find root) of every vertex. */
std::vector<VertexId> componentOracle(const EdgeList &el);

/** Outcome of one output check. */
struct Verdict
{
    bool ok = true;
    std::string why;     //!< first discrepancy, empty when ok
    double error = 0.0;  //!< PageRank checks: the L1 error reached
    double bound = 0.0;  //!< PageRank checks: the L1 error admitted
};

/**
 * PageRank values within the error a per-vertex activation tolerance
 * `tol` admits: ||x - x*||_1 <= slack * n * tol / (1 - alpha).  An
 * engine stops scattering a vertex whose last move was at most the
 * tolerance, so each vertex may carry unscattered sub-tolerance moves;
 * `slack` is how many the check admits on average per vertex.  Each
 * workload sets it from the worst error its correct engines reach,
 * with a margin (see the README).
 */
Verdict checkPagerank(const std::vector<double> &got,
                      const std::vector<double> &want, double tol,
                      double alpha, double slack);

/** Distances or depths equal the oracle's exactly. */
Verdict checkDistances(const std::vector<double> &got,
                       const std::vector<double> &want);

/**
 * Component labels describe the same partition as the oracle, and
 * every label is the id of a member of its own component.  Labels are
 * compared as a partition because a vertex reorder changes which
 * member represents a component.
 */
Verdict checkComponents(const std::vector<double> &got,
                        const std::vector<VertexId> &want);

/**
 * Label propagation's fixpoint property: every vertex with in-edges
 * holds a label that is among the most frequent labels of its
 * in-neighbours; a vertex without in-edges keeps its own id.
 */
Verdict checkLabelMajority(const std::vector<double> &got,
                           const EdgeList &el);

} // namespace perfbench

#endif // PERFBENCH_ORACLES_HH
