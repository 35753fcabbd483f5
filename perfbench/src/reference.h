// Simulated results of benchmark cells and their comparison against pinned
// references. Simulated results are deterministic for a seed, so cells are
// compared exactly; a cell whose results differ counts as failed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace perfbench {

/// Named simulated results of one cell, in a fixed order.
using CellValues = std::vector<std::pair<std::string, double>>;

struct CellResult {
  std::string label;  ///< unique within a workload, e.g. "sat/Baseline/Hotspot"
  CellValues values;
  /// Non-empty when the cell failed on its own: it threw, or the network
  /// did not drain or complete.
  std::string error;
};

/// Expected results by cell label.
using ReferenceSet = std::map<std::string, CellValues>;

/// The cells' own results as a reference set (invariant checks compare one
/// pass against another).
ReferenceSet as_reference(const std::vector<CellResult>& cells);

/// Counts failed cells: cells with an error, cells the reference does not
/// list, and cells whose values are not identical to the reference. One
/// line per failure is appended to `diagnostics`.
std::size_t count_failed(const std::vector<CellResult>& cells,
                         const ReferenceSet& reference,
                         std::vector<std::string>& diagnostics);

/// Reference file codec: {"format", "workload", "seed", "cells": [{"label",
/// "results": {name: value}}]}. Doubles round-trip exactly through
/// util::Json.
specnoc::util::Json reference_to_json(const std::string& workload,
                                      std::uint64_t seed,
                                      const std::vector<CellResult>& cells);
/// Parses a reference file; throws specnoc::ConfigError on
/// malformed input or a file pinned for another workload or seed.
ReferenceSet reference_from_json(const specnoc::util::Json& json,
                                 const std::string& workload,
                                 std::uint64_t seed);

}  // namespace perfbench
