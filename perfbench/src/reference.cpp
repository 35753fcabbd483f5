#include "reference.h"

#include "util/error.h"
#include "util/json.h"

namespace perfbench {

using specnoc::ConfigError;
using specnoc::util::Json;

namespace {

constexpr const char* kFormat = "specnoc-perfbench-reference";

std::string describe(const CellValues& values) {
  std::string text;
  for (const auto& [name, value] : values) {
    if (!text.empty()) text += ", ";
    text += name + "=" + specnoc::util::format_double(value);
  }
  return text;
}

}  // namespace

ReferenceSet as_reference(const std::vector<CellResult>& cells) {
  ReferenceSet reference;
  for (const CellResult& cell : cells) reference[cell.label] = cell.values;
  return reference;
}

std::size_t count_failed(const std::vector<CellResult>& cells,
                         const ReferenceSet& reference,
                         std::vector<std::string>& diagnostics) {
  std::size_t failed = 0;
  for (const CellResult& cell : cells) {
    std::string why;
    const auto it = reference.find(cell.label);
    if (!cell.error.empty()) {
      why = cell.error;
    } else if (it == reference.end()) {
      why = "no reference for this cell";
    } else if (it->second != cell.values) {
      why = "got {" + describe(cell.values) + "} want {" +
            describe(it->second) + "}";
    }
    if (!why.empty()) {
      ++failed;
      diagnostics.push_back(cell.label + ": " + why);
    }
  }
  return failed;
}

Json reference_to_json(const std::string& workload, std::uint64_t seed,
                       const std::vector<CellResult>& cells) {
  Json doc = Json::object();
  doc.set("format", kFormat);
  doc.set("workload", workload);
  doc.set("seed", seed);
  Json list = Json::array();
  for (const CellResult& cell : cells) {
    Json results = Json::object();
    for (const auto& [name, value] : cell.values) results.set(name, value);
    Json entry = Json::object();
    entry.set("label", cell.label);
    entry.set("results", std::move(results));
    list.push_back(std::move(entry));
  }
  doc.set("cells", std::move(list));
  return doc;
}

ReferenceSet reference_from_json(const Json& json, const std::string& workload,
                                 std::uint64_t seed) {
  if (json.at("format").as_string() != kFormat) {
    throw ConfigError("reference: unknown format '" +
                      json.at("format").as_string() + "'");
  }
  if (json.at("workload").as_string() != workload ||
      json.at("seed").as_u64() != seed) {
    throw ConfigError("reference: file pins workload '" +
                      json.at("workload").as_string() + "' at seed " +
                      std::to_string(json.at("seed").as_u64()) + ", not '" +
                      workload + "' at seed " + std::to_string(seed));
  }
  ReferenceSet reference;
  for (const Json& entry : json.at("cells").items()) {
    CellValues values;
    for (const auto& [name, value] : entry.at("results").members()) {
      values.emplace_back(name, value.as_double());
    }
    const std::string& label = entry.at("label").as_string();
    if (!reference.emplace(label, std::move(values)).second) {
      throw ConfigError("reference: duplicate cell '" + label + "'");
    }
  }
  return reference;
}

}  // namespace perfbench
