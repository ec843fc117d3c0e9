#include "core/factory.h"

#include <limits>

#include "core/healers.h"

namespace dash::core {

namespace {

/// Factory for entries that take no spec parameter.
template <typename S>
std::unique_ptr<HealingStrategy> simple(const std::string& param) {
  if (!param.empty()) {
    throw std::invalid_argument("strategy does not take a parameter: '" +
                                param + "'");
  }
  return std::make_unique<S>();
}

void register_builtins(util::Registry<HealingStrategy>& r) {
  r.add("dash", simple<DashStrategy>);
  r.add("sdash",
        [](const std::string& param) -> std::unique_ptr<HealingStrategy> {
          if (param.empty()) return std::make_unique<SdashStrategy>();
          return std::make_unique<SdashStrategy>(static_cast<std::uint32_t>(
              util::parse_spec_uint(
                  "sdash", param,
                  std::numeric_limits<std::uint32_t>::max())));
        },
        {}, "sdash[:<slack>]");
  r.add("graph", simple<GraphHealStrategy>, {"graphheal"});
  r.add("binarytree", simple<BinaryTreeHealStrategy>, {"btree"});
  r.add("line", simple<LineHealStrategy>, {"lineheal"});
  r.add("none", simple<NoHealStrategy>, {"noheal"});
  r.add("capped",
        [](const std::string& param) -> std::unique_ptr<HealingStrategy> {
          const auto m = util::parse_spec_uint(
              "capped", param, std::numeric_limits<std::uint32_t>::max());
          // The constructor's check guards code; a spec is outside input.
          if (m < 2) {
            throw std::invalid_argument(
                "healing strategy 'capped' needs M >= 2, got '" + param +
                "'");
          }
          return std::make_unique<DegreeCappedStrategy>(
              static_cast<std::uint32_t>(m));
        },
        {}, "capped:<M>");
}

}  // namespace

util::Registry<HealingStrategy>& healer_registry() {
  // Built-ins are registered lazily here rather than by static
  // objects' constructors: this accessor is always linked in, whereas
  // the linker drops unreferenced objects from a static library.
  static util::Registry<HealingStrategy>* registry = [] {
    auto* r = new util::Registry<HealingStrategy>("healing strategy");
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

std::unique_ptr<HealingStrategy> make_strategy(const std::string& name) {
  return healer_registry().create(name);
}

std::vector<std::string> paper_strategy_specs() {
  return {"graph", "line", "binarytree", "dash", "sdash"};
}

std::vector<std::string> strategy_names() {
  return healer_registry().names();
}

}  // namespace dash::core
