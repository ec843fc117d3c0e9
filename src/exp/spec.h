// spec.h -- declarative experiment grids: the input of the sharded
// runner (exp/runner.h).
//
// An ExperimentSpec is a value describing a *sweep*: the cartesian
// product of graph family x size x healer x scenario, plus replication
// (instances per cell) and seeding. It parses from a one-line text form
// (whitespace-separated key=value tokens, list values '|'-separated):
//
//   n=64|128 healer=dash|sdash scenario=paper-churn instances=5 seed=7
//
// or from a spec file (one `key = value` per line, '#' comments):
//
//   # demo sweep
//   name      = demo
//   family    = ba
//   n         = 64 | 128
//   healer    = dash | sdash
//   scenario  = paper-churn | batch:8x5
//   instances = 5
//   seed      = 7
//
// enumerate() expands the grid into a deterministic, stably ordered
// list of Cells (family outermost, then n, healer, scenario) whose
// indices, labels and derived RNG seeds depend only on the spec text --
// never on sharding or scheduling. That is the property the sharded
// runner builds on: any partition of the cell list, executed anywhere
// and on any number of threads, reassembles into the byte-identical
// document a sequential run produces.
//
// Cell seeds are paired across healers and scenarios: every cell at
// the same size draws the same per-instance graph streams (the paper's
// Sec. 4.1 methodology compares strategies on identical instances),
// using the same seed derivation the figure benches always used.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace dash::exp {

/// One point of the grid: a fully resolved (family, n, healer,
/// scenario) combination with its derived suite seed and stable index
/// in the spec's enumeration order.
struct Cell {
  std::size_t index = 0;  ///< position in the full enumeration
  std::string family;     ///< graph family name ("ba", "tree", ...)
  std::size_t n = 0;      ///< initial graph size
  std::string healer;     ///< healer registry spec ("dash", "capped:2")
  /// Label the cell's JSON group carries for the healer: the strategy's
  /// display name ("DASH") or the raw spec, per the spec's labels mode.
  std::string strategy_label;
  std::string scenario;   ///< canonical scenario spec
  std::uint64_t seed = 0; ///< api::SuiteConfig::base_seed for this cell
  std::size_t instances = 0;
  /// Landmark-estimated stretch (spec key stretch_estimate) instead of
  /// the exact O(n^2) tracker; cells then carry an "estimate" label.
  bool stretch_estimate = false;
  std::size_t stretch_landmarks = 16;
  std::size_t stretch_pairs = 256;

  /// The labels of the cell's BENCH_*.json group, in emission order.
  /// The default family ("ba" as the only family in the grid) is
  /// elided, keeping single-family documents identical to the
  /// pre-grid figure bench output.
  std::vector<std::pair<std::string, std::string>> labels(
      bool include_family) const;
};

struct ExperimentSpec {
  std::string name = "experiment";
  std::vector<std::string> families{"ba"};
  std::vector<std::size_t> sizes;      ///< n values (required, >= 1 each)
  std::vector<std::string> healers{"dash"};
  std::vector<std::string> scenarios;  ///< scenario specs (required)
  std::size_t instances = 10;
  std::uint64_t seed = 0xDA5Bu;
  std::size_t ba_edges = 2;       ///< BA attachment edges
  std::size_t stretch_every = 0;  ///< 0 = no StretchObserver
  /// Landmark estimation instead of the exact stretch tracker -- the
  /// only stretch mode that scales past a few thousand nodes. Samples
  /// report the estimator's upper bound; cells gain an "estimate"
  /// label. Defaults stay off canonical() so pre-existing spec hashes
  /// are unchanged.
  bool stretch_estimate = false;
  std::size_t stretch_landmarks = 16;  ///< estimate mode: 1..64
  std::size_t stretch_pairs = 256;     ///< estimate mode: pairs/sample
  /// Connectivity mode every cell's engines run under: tracker, or
  /// verify (tracker answers cross-checked against a BFS scan).
  std::string connectivity = "tracker";
  /// "display" labels cells with the healer's display name (figure
  /// style); "spec" with the raw registry spec (sweep_cli style).
  std::string labels = "display";

  /// Parse the one-line form. Throws std::invalid_argument for unknown
  /// keys, duplicate keys, empty lists, or malformed values.
  static ExperimentSpec parse_line(const std::string& line);
  /// Parse the file form ('#' comments, blank lines, `key = value`).
  static ExperimentSpec parse(std::istream& in);
  static ExperimentSpec parse_file(const std::string& path);

  /// Semantic validation beyond syntax: healer specs resolve through
  /// core::healer_registry(), scenarios through Scenario::parse,
  /// families through the family table (make_family, at every size),
  /// and every count is positive.
  /// Throws std::invalid_argument with the offending entry named.
  void validate() const;

  /// Canonical one-line form: fixed key order, canonical scenario
  /// specs. parse_line(canonical()) reproduces the spec exactly, and
  /// canonical() is the hashed identity of the experiment.
  std::string canonical() const;

  /// 16-hex-digit FNV-1a digest of canonical(): the identity stamped
  /// into every shard record so merge can reject results computed from
  /// a different spec.
  std::string hash() const;

  /// Expand the grid, validated, in stable order (family, n, healer,
  /// scenario -- outermost first). Cell count is the list's size;
  /// indices are contiguous from 0.
  std::vector<Cell> enumerate() const;

  /// True when cells should carry a "family" label (more than one
  /// family, or a single non-default one).
  bool label_family() const;
};

/// The graph-family factory the grid vocabulary names: the make_graph
/// callable for one (family, n) cell. Known families: ba, tree, gnp,
/// ws, cycle, line; unknown names throw, listing them. A size below
/// the family's smallest buildable n (ba_edges + 1 for ba, 7 for gnp,
/// 5 for ws, 3 for cycle, 1 for tree and line) throws
/// std::invalid_argument naming the family and that minimum; so does a
/// size above graph::kInvalidNode (node ids are 32-bit).
std::function<graph::Graph(util::Rng&)> make_family(
    const std::string& family, std::size_t n, std::size_t ba_edges);

/// Family spellings, for --help texts and errors.
std::vector<std::string> family_names();

/// The sizes of a doubling sweep, the expansion of the --min-n/--max-n
/// flags of the figure benches, sweep_cli and sim_distributed: min_n,
/// 2 min_n, 4 min_n, ... up to max_n, stopping before a size would pass
/// max_n or wrap. Throws std::invalid_argument for a zero start or a
/// start above the end.
std::vector<std::size_t> doubling_sizes(std::uint64_t min_n,
                                        std::uint64_t max_n);

/// The same sweep with every size checked by make_family(family, n,
/// ba_edges). Any error throws std::invalid_argument prefixed with
/// both flags and their values.
std::vector<std::size_t> doubling_sizes(std::uint64_t min_n,
                                        std::uint64_t max_n,
                                        const std::string& family,
                                        std::size_t ba_edges);

}  // namespace dash::exp
