#ifndef CDI_TESTING_REFERENCE_H_
#define CDI_TESTING_REFERENCE_H_

#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/data_organizer.h"
#include "core/knowledge_extractor.h"
#include "knowledge/data_lake.h"
#include "knowledge/knowledge_graph.h"
#include "stats/independence.h"
#include "stats/matrix.h"
#include "table/table.h"

namespace cdi::testing {

/// Bitwise reference for stats::PartialCorrelation: the straightforward
/// Submatrix + Cholesky formulation, allocating a fresh submatrix and
/// factor per query. stats::PartialCorrelation must agree with it to the
/// bit for every conditioning-set size, fallback included.
Result<double> ReferencePartialCorrelation(
    const stats::Matrix& corr, std::size_t i, std::size_t j,
    const std::vector<std::size_t>& given);

/// The chi-square kernels as they were before the flat count table: codes
/// densified through a std::map in first-appearance order, a
/// vector-of-vectors table, and Quantile (a sorted copy) per bin edge.
/// stats::ChiSquareIndependence and both QuantileBin forms must agree with
/// them to the bit: statistic, p-value, strength and every code.
Result<stats::IndependenceResult> ReferenceChiSquareIndependence(
    const std::vector<int>& x, const std::vector<int>& y);

std::vector<int> ReferenceQuantileBin(DoubleSpan x, int bins);

/// Scan reference for DataLake::JoinColumns: each call normalizes and
/// aggregates every lake row afresh, as the lake did before it kept a join
/// index. Keys follow the lake's rule that an empty normalized key never
/// joins and never counts toward containment. JoinColumns must agree with
/// it exactly, every containment and aligned double included.
std::vector<knowledge::DataLake::JoinedColumn> ReferenceJoinColumns(
    const knowledge::DataLake& lake, const std::vector<std::string>& keys,
    double min_containment);

/// Duplicate-row removal as it was before the hashed arena: one heap
/// string of Column::AppendKeyBytes per row in a std::unordered_set, then
/// TakeRows of the first occurrences. Table::DistinctRowIndices must keep
/// the same rows.
table::Table ReferenceDistinctRows(const table::Table& t);

/// core::DataOrganizer::Organize as it was before the shared rank orders:
/// ReferenceDistinctRows, SpearmanCorrelation (two sorts a call) in the FD
/// screen, stats::Median (a sorted copy) for each median and MAD, and a
/// fresh indicator vector per attribute. String FDs go through
/// core::HoldsFd. Organize must agree with it to the bit in every
/// OrganizerResult field.
Result<core::OrganizerResult> ReferenceOrganize(
    const core::OrganizerOptions& options, const table::Table& augmented,
    const std::string& entity_column, const std::string& exposure,
    const std::string& outcome);

/// core::KnowledgeExtractor::Extract as it was before the candidate
/// profile: one pass that links the entities, scores every candidate
/// against the exposure, the outcome and every other numeric input column
/// in that order, ranks the lake columns and charges `meter` as the KG and
/// lake calls run. SelectAttributes over a shared profile must agree with
/// it to the bit: every attribute field, every augmented cell, both column
/// counts and every meter entry.
Result<core::ExtractionResult> ReferenceExtract(
    const knowledge::KnowledgeGraph* kg, const knowledge::DataLake* lake,
    const core::ExtractorOptions& options, const table::Table& input,
    const std::string& entity_column, const std::string& exposure,
    const std::string& outcome, LatencyMeter* meter);

}  // namespace cdi::testing

#endif  // CDI_TESTING_REFERENCE_H_
