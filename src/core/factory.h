// factory.h -- construct healing strategies by name (CLI-facing).
//
// All lookups go through one util::Registry instance; make_strategy is
// a thin forwarder kept for source compatibility. Downstream code can
// register its own strategies on healer_registry() and have them served
// everywhere a spec string is accepted (api::Network, sweep_cli, ...).
// The paper's figure set is a list of specs, paper_strategy_specs();
// build a strategy from one with make_strategy.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "util/registry.h"

namespace dash::core {

/// The single registry serving every healing-strategy lookup. Built-in
/// entries: "dash", "sdash[:<slack>]", "graph" (alias "graphheal"),
/// "binarytree" (alias "btree"), "line" (alias "lineheal"), "none"
/// (alias "noheal"), "capped:<M>". Case-insensitive.
util::Registry<HealingStrategy>& healer_registry();

/// Forwards to healer_registry().create(). Throws std::invalid_argument
/// for unknown names, listing every registered spelling.
std::unique_ptr<HealingStrategy> make_strategy(const std::string& name);

/// Spec strings of the paper's figure set, in plot order.
std::vector<std::string> paper_strategy_specs();

/// All registered strategy spellings (for --help texts).
std::vector<std::string> strategy_names();

}  // namespace dash::core
