#include "exp/spec.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "api/scenario.h"
#include "core/factory.h"
#include "graph/generators.h"
#include "util/hash.h"
#include "util/registry.h"

namespace dash::exp {

namespace {

constexpr std::uint64_t kCellSeedGolden = 0x9E3779B97F4A7C15ULL;

std::string trimmed(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

/// '|'-separated list with trimmed items; empty items are spec typos.
std::vector<std::string> split_list(const std::string& key,
                                    const std::string& value) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    const auto bar = value.find('|', start);
    const std::string item = trimmed(
        bar == std::string::npos ? value.substr(start)
                                 : value.substr(start, bar - start));
    if (item.empty()) {
      throw std::invalid_argument("empty item in experiment key '" + key +
                                  "': '" + value + "'");
    }
    out.push_back(item);
    if (bar == std::string::npos) break;
    start = bar + 1;
  }
  return out;
}

std::string require_scalar(const std::string& key,
                           const std::string& value) {
  const std::string v = trimmed(value);
  if (v.empty() || v.find('|') != std::string::npos) {
    throw std::invalid_argument("experiment key '" + key +
                                "' takes a single value, got '" + value +
                                "'");
  }
  return v;
}

std::uint64_t parse_u64_value(const std::string& key,
                              const std::string& value) {
  return util::parse_spec_uint(key, require_scalar(key, value));
}

/// Assign one key=value pair onto the spec; `seen` rejects duplicates.
void assign(ExperimentSpec* spec, std::vector<std::string>* seen,
            const std::string& raw_key, const std::string& value) {
  std::string key = trimmed(raw_key);
  std::transform(key.begin(), key.end(), key.begin(),
                 [](unsigned char c) {
                   return c == '-' ? '_' : std::tolower(c);
                 });
  if (std::find(seen->begin(), seen->end(), key) != seen->end()) {
    throw std::invalid_argument("duplicate experiment key '" + key + "'");
  }
  seen->push_back(key);

  if (key == "name") {
    spec->name = require_scalar(key, value);
  } else if (key == "family" || key == "families") {
    spec->families = split_list(key, value);
  } else if (key == "n" || key == "sizes") {
    spec->sizes.clear();
    for (const auto& item : split_list(key, value)) {
      const auto n = util::parse_spec_uint(key, item);
      if (n == 0) {
        throw std::invalid_argument("experiment size must be >= 1, got '" +
                                    item + "'");
      }
      spec->sizes.push_back(static_cast<std::size_t>(n));
    }
  } else if (key == "healer" || key == "healers" || key == "strategy") {
    spec->healers = split_list(key, value);
  } else if (key == "scenario" || key == "scenarios") {
    spec->scenarios = split_list(key, value);
  } else if (key == "instances") {
    spec->instances =
        static_cast<std::size_t>(parse_u64_value(key, value));
    if (spec->instances == 0) {
      throw std::invalid_argument("experiment instances must be >= 1");
    }
  } else if (key == "seed") {
    spec->seed = parse_u64_value(key, value);
  } else if (key == "ba_edges") {
    spec->ba_edges = static_cast<std::size_t>(parse_u64_value(key, value));
    if (spec->ba_edges == 0) {
      throw std::invalid_argument("experiment ba_edges must be >= 1");
    }
  } else if (key == "stretch_every") {
    spec->stretch_every =
        static_cast<std::size_t>(parse_u64_value(key, value));
  } else if (key == "stretch_estimate") {
    const std::string v = require_scalar(key, value);
    if (v != "0" && v != "1" && v != "true" && v != "false") {
      throw std::invalid_argument(
          "experiment stretch_estimate must be 0/1/true/false, got '" + v +
          "'");
    }
    spec->stretch_estimate = v == "1" || v == "true";
  } else if (key == "stretch_landmarks") {
    spec->stretch_landmarks =
        static_cast<std::size_t>(parse_u64_value(key, value));
  } else if (key == "stretch_pairs") {
    spec->stretch_pairs =
        static_cast<std::size_t>(parse_u64_value(key, value));
  } else if (key == "connectivity") {
    spec->connectivity = require_scalar(key, value);
  } else if (key == "labels") {
    spec->labels = require_scalar(key, value);
  } else {
    throw std::invalid_argument(
        "unknown experiment key '" + key +
        "' (known: name, family, n, healer, scenario, instances, seed, "
        "ba_edges, stretch_every, stretch_estimate, stretch_landmarks, "
        "stretch_pairs, connectivity, labels)");
  }
}

std::string joined(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += "|";
    out += item;
  }
  return out;
}

/// Item validity for the one-line round trip: list items and scalar
/// values may not contain the separators the text forms use.
void reject_separator_chars(const std::string& what,
                            const std::string& item) {
  if (item.find_first_of(" \t|=") != std::string::npos) {
    throw std::invalid_argument("experiment " + what + " '" + item +
                                "' must not contain spaces, '|' or '='");
  }
}

}  // namespace

// ---- Cell -----------------------------------------------------------------

std::vector<std::pair<std::string, std::string>> Cell::labels(
    bool include_family) const {
  std::vector<std::pair<std::string, std::string>> out;
  if (include_family) out.emplace_back("family", family);
  out.emplace_back("n", std::to_string(n));
  out.emplace_back("strategy", strategy_label);
  out.emplace_back("scenario", scenario);
  if (stretch_estimate) out.emplace_back("estimate", "true");
  return out;
}

// ---- parsing ---------------------------------------------------------------

ExperimentSpec ExperimentSpec::parse_line(const std::string& line) {
  ExperimentSpec spec;
  std::vector<std::string> seen;
  std::istringstream tokens(line);
  std::string token;
  bool any = false;
  while (tokens >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument(
          "bad experiment token '" + token +
          "' (expected key=value, lists '|'-separated)");
    }
    assign(&spec, &seen, token.substr(0, eq), token.substr(eq + 1));
    any = true;
  }
  if (!any) {
    throw std::invalid_argument("empty experiment spec line");
  }
  spec.validate();
  return spec;
}

ExperimentSpec ExperimentSpec::parse(std::istream& in) {
  ExperimentSpec spec;
  std::vector<std::string> seen;
  std::string line;
  std::size_t lineno = 0;
  bool any = false;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash_pos = line.find('#');
    if (hash_pos != std::string::npos) line = line.substr(0, hash_pos);
    line = trimmed(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument(
          "bad experiment spec line " + std::to_string(lineno) + ": '" +
          line + "' (expected key = value)");
    }
    assign(&spec, &seen, line.substr(0, eq), line.substr(eq + 1));
    any = true;
  }
  if (!any) {
    throw std::invalid_argument("empty experiment spec file");
  }
  spec.validate();
  return spec;
}

ExperimentSpec ExperimentSpec::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot open experiment spec file '" +
                                path + "'");
  }
  return parse(in);
}

// ---- validation ------------------------------------------------------------

void ExperimentSpec::validate() const {
  reject_separator_chars("name", name);
  if (sizes.empty()) {
    throw std::invalid_argument("experiment spec needs at least one size "
                                "(key 'n')");
  }
  if (scenarios.empty()) {
    throw std::invalid_argument(
        "experiment spec needs at least one scenario");
  }
  if (healers.empty()) {
    throw std::invalid_argument("experiment spec needs at least one healer");
  }
  if (families.empty()) {
    throw std::invalid_argument("experiment spec needs at least one family");
  }
  if (instances == 0) {
    throw std::invalid_argument("experiment instances must be >= 1");
  }
  for (const auto& family : families) {
    reject_separator_chars("family", family);
    // Throws for unknown families and for sizes the family cannot build.
    for (const std::size_t n : sizes) make_family(family, n, ba_edges);
  }
  for (const auto& healer : healers) {
    reject_separator_chars("healer", healer);
    core::make_strategy(healer);  // throws, listing registered names
  }
  for (const auto& scenario : scenarios) {
    reject_separator_chars("scenario", scenario);
    api::Scenario::parse(scenario);  // throws, listing registered phases
  }
  if (connectivity != "tracker" && connectivity != "verify") {
    throw std::invalid_argument("unknown connectivity mode '" +
                                connectivity + "' (tracker or verify)");
  }
  if (labels != "display" && labels != "spec") {
    throw std::invalid_argument("unknown labels mode '" + labels +
                                "' (display or spec)");
  }
  if (stretch_landmarks == 0 || stretch_landmarks > 64) {
    throw std::invalid_argument(
        "experiment stretch_landmarks must be in [1, 64]");
  }
  if (stretch_pairs == 0) {
    throw std::invalid_argument("experiment stretch_pairs must be >= 1");
  }
}

// ---- identity --------------------------------------------------------------

std::string ExperimentSpec::canonical() const {
  validate();
  std::vector<std::string> canonical_scenarios;
  for (const auto& s : scenarios) {
    canonical_scenarios.push_back(api::Scenario::parse(s).spec());
  }
  std::vector<std::string> size_items;
  for (std::size_t n : sizes) size_items.push_back(std::to_string(n));

  std::ostringstream os;
  os << "name=" << name << " family=" << joined(families)
     << " n=" << joined(size_items) << " healer=" << joined(healers)
     << " scenario=" << joined(canonical_scenarios)
     << " instances=" << instances << " seed=" << seed
     << " ba_edges=" << ba_edges << " stretch_every=" << stretch_every;
  // Estimator keys appear only when they deviate from the defaults, so
  // every pre-existing spec's canonical text (and hash) is unchanged.
  if (stretch_estimate) os << " stretch_estimate=1";
  if (stretch_landmarks != 16) os << " stretch_landmarks=" << stretch_landmarks;
  if (stretch_pairs != 256) os << " stretch_pairs=" << stretch_pairs;
  os << " connectivity=" << connectivity << " labels=" << labels;
  return os.str();
}

std::string ExperimentSpec::hash() const {
  return util::hex16(util::fnv1a64(canonical()));
}

// ---- enumeration -----------------------------------------------------------

bool ExperimentSpec::label_family() const {
  return families.size() > 1 || families[0] != "ba";
}

std::vector<Cell> ExperimentSpec::enumerate() const {
  validate();
  std::vector<Cell> cells;
  cells.reserve(families.size() * sizes.size() * healers.size() *
                scenarios.size());
  for (const auto& family : families) {
    for (const std::size_t n : sizes) {
      for (const auto& healer : healers) {
        const std::string display =
            labels == "display" ? core::make_strategy(healer)->name()
                                : healer;
        for (const auto& scenario : scenarios) {
          Cell cell;
          cell.index = cells.size();
          cell.family = family;
          cell.n = n;
          cell.healer = healer;
          cell.strategy_label = display;
          cell.scenario = api::Scenario::parse(scenario).spec();
          // The figure benches' historical derivation: one stream
          // family per size, shared by every healer/scenario/family at
          // that size -- strategies are compared on identical graph
          // instances (paired design).
          cell.seed = seed ^ (static_cast<std::uint64_t>(n) *
                              kCellSeedGolden);
          cell.instances = instances;
          cell.stretch_estimate = stretch_estimate;
          cell.stretch_landmarks = stretch_landmarks;
          cell.stretch_pairs = stretch_pairs;
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  return cells;
}

// ---- graph families --------------------------------------------------------

std::function<graph::Graph(util::Rng&)> make_family(
    const std::string& family, std::size_t n, std::size_t ba_edges) {
  // The generators DASH_CHECK their preconditions when a worker builds
  // the graph; reject those sizes here, by name, before any cell runs.
  const auto need = [&](std::size_t min, const char* why) {
    if (n < min) {
      throw std::invalid_argument(
          "graph family '" + family + "' needs n >= " +
          std::to_string(min) + why + ", got n=" + std::to_string(n));
    }
  };
  // Node ids are 32-bit: past kInvalidNode a generator's id loop wraps
  // (BA's never ends).
  if (n > graph::kInvalidNode) {
    throw std::invalid_argument(
        "graph family '" + family + "' needs n <= " +
        std::to_string(graph::kInvalidNode) +
        " (32-bit node ids), got n=" + std::to_string(n));
  }
  if (family == "ba") {
    if (ba_edges == 0) {
      throw std::invalid_argument("graph family 'ba' needs ba_edges >= 1");
    }
    need(ba_edges + 1, " (ba_edges + 1)");
    return [n, ba_edges](util::Rng& rng) {
      return graph::barabasi_albert(n, ba_edges, rng);
    };
  }
  if (family == "tree") {
    need(1, "");
    return [n](util::Rng& rng) { return graph::random_tree(n, rng); };
  }
  if (family == "gnp") {
    need(7, " (edge probability 6/n + 0.02 <= 1)");
    return [n](util::Rng& rng) {
      return graph::connected_gnp(
          n, 6.0 / static_cast<double>(n) + 0.02, rng);
    };
  }
  if (family == "ws") {
    need(5, " (2k < n with k = 2)");
    return [n](util::Rng& rng) {
      return graph::watts_strogatz(n, 2, 0.2, rng);
    };
  }
  if (family == "cycle") {
    need(3, "");
    return [n](util::Rng&) { return graph::cycle_graph(n); };
  }
  if (family == "line") {
    need(1, "");
    return [n](util::Rng&) { return graph::path_graph(n); };
  }
  throw std::invalid_argument("unknown graph family '" + family +
                              "' (known: " + joined(family_names()) + ")");
}

std::vector<std::string> family_names() {
  return {"ba", "tree", "gnp", "ws", "cycle", "line"};
}

std::vector<std::size_t> doubling_sizes(std::uint64_t min_n,
                                        std::uint64_t max_n) {
  if (min_n == 0 || min_n > max_n) {
    throw std::invalid_argument("a size sweep needs 1 <= --min-n <= --max-n");
  }
  std::vector<std::size_t> sizes;
  for (std::uint64_t n = min_n;; n *= 2) {
    sizes.push_back(static_cast<std::size_t>(n));
    if (n > max_n / 2) break;  // the next size would pass max_n or wrap
  }
  return sizes;
}

std::vector<std::size_t> doubling_sizes(std::uint64_t min_n,
                                        std::uint64_t max_n,
                                        const std::string& family,
                                        std::size_t ba_edges) {
  try {
    const auto sizes = doubling_sizes(min_n, max_n);
    for (const std::size_t n : sizes) make_family(family, n, ba_edges);
    return sizes;
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("--min-n " + std::to_string(min_n) +
                                " --max-n " + std::to_string(max_n) + ": " +
                                e.what());
  }
}

}  // namespace dash::exp
