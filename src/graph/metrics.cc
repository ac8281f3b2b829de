#include "graph/metrics.h"

#include <algorithm>
#include <set>

namespace cdi::graph {

namespace {

/// Precision/recall/F1 with the 0/0 := 0 convention: an empty predicted
/// set has precision 0 (not NaN), an empty truth set has recall 0, and
/// F1 is 0 whenever either component is — so comparing a method that
/// predicts nothing (or a truth-free benchmark row) yields finite,
/// sortable scores instead of NaNs that poison downstream aggregation.
Prf MakePrf(double tp, double fp, double fn) {
  Prf out;
  out.precision = (tp + fp) > 0 ? tp / (tp + fp) : 0.0;
  out.recall = (tp + fn) > 0 ? tp / (tp + fn) : 0.0;
  out.f1 = (out.precision + out.recall) > 0
               ? 2.0 * out.precision * out.recall /
                     (out.precision + out.recall)
               : 0.0;
  return out;
}

}  // namespace

EdgeSetMetrics CompareEdgeSets(std::size_t num_nodes,
                               const std::vector<Edge>& predicted,
                               const std::vector<Edge>& truth) {
  std::set<Edge> pred(predicted.begin(), predicted.end());
  std::set<Edge> gt(truth.begin(), truth.end());

  EdgeSetMetrics m;
  m.num_predicted = pred.size();
  m.num_truth = gt.size();

  double tp = 0, fp = 0, fn = 0;
  for (const Edge& e : pred) {
    if (gt.count(e) > 0) {
      tp += 1;
    } else {
      fp += 1;
    }
  }
  for (const Edge& e : gt) {
    if (pred.count(e) == 0) fn += 1;
  }
  m.true_positive_edges = static_cast<std::size_t>(tp);
  m.false_positive_edges = static_cast<std::size_t>(fp);
  m.false_negative_edges = static_cast<std::size_t>(fn);
  m.presence = MakePrf(tp, fp, fn);

  // Absence scores over all ordered pairs (u, v), u != v: a pair is
  // "absent-predicted" when not claimed, "absent-true" when not in the
  // ground truth.
  double atp = 0, afp = 0, afn = 0;
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (NodeId v = 0; v < num_nodes; ++v) {
      if (u == v) continue;
      const bool pred_absent = pred.count({u, v}) == 0;
      const bool true_absent = gt.count({u, v}) == 0;
      if (pred_absent && true_absent) atp += 1;
      if (pred_absent && !true_absent) afp += 1;
      if (!pred_absent && true_absent) afn += 1;
    }
  }
  m.absence = MakePrf(atp, afp, afn);
  return m;
}

}  // namespace cdi::graph
