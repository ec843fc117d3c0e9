// registry.h -- one uniform name->factory registry for every pluggable
// strategy family (healers, attackers, ...).
//
// A registry entry is looked up by a *spec string*: either a bare name
// ("dash") or a name with a parameter after a colon ("capped:2",
// "sdash:4"). Lookup is case-insensitive; entries may declare aliases
// ("btree" for "binarytree"). Unknown names throw std::invalid_argument
// whose message lists every registered spelling, so CLI users see what
// is available instead of a bare "unknown name".
//
// Extra construction inputs that are not part of the spec (e.g. the RNG
// seed an attack strategy needs) are the Args... pack, forwarded from
// create() to the entry's factory.
//
// Each family's accessor (core::healer_registry(),
// attack::attack_registry(), ...) registers its built-ins lazily, on
// first use: a static library's linker drops objects nothing
// references, so an entry registered by a static object's constructor
// could silently go missing.
#pragma once

#include <algorithm>
#include <cctype>
#include <charconv>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dash::util {

/// Split "name:param" at the first ':' into {name, param}; has_param
/// distinguishes a bare "name" from a trailing-colon "name:" (the
/// latter is a malformed spec, rejected by Registry::create). The name
/// half is lowercased.
struct SpecParts {
  std::string name;
  std::string param;
  bool has_param = false;
};

inline SpecParts split_spec(const std::string& spec) {
  SpecParts out;
  const auto colon = spec.find(':');
  out.name = spec.substr(0, colon);
  if (colon != std::string::npos) {
    out.param = spec.substr(colon + 1);
    out.has_param = true;
  }
  std::transform(out.name.begin(), out.name.end(), out.name.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

/// Parse the parameter half of a spec as an unsigned integer no larger
/// than `max_value`, with an actionable error naming the entry
/// ("capped") and the bad input. std::from_chars with a digits-only
/// precheck: locale-independent (stoul honoured LC_NUMERIC grouping),
/// and it rejects "-1" (which stoul silently wraps to a huge value)
/// and leading whitespace; the bound keeps narrower call sites (uint32
/// strategy parameters) from silently wrapping at their static_cast.
inline unsigned long parse_spec_uint(
    const std::string& name, const std::string& param,
    unsigned long max_value = std::numeric_limits<unsigned long>::max()) {
  const bool digits_only =
      !param.empty() &&
      std::all_of(param.begin(), param.end(),
                  [](unsigned char c) { return std::isdigit(c); });
  unsigned long value = 0;
  const auto [end, ec] =
      std::from_chars(param.data(), param.data() + param.size(), value);
  if (!digits_only || ec != std::errc{} ||
      end != param.data() + param.size() || value > max_value) {
    throw std::invalid_argument("bad parameter for '" + name + "': '" +
                                param + "' (expected an unsigned integer" +
                                (max_value <
                                         std::numeric_limits<
                                             unsigned long>::max()
                                     ? " <= " + std::to_string(max_value)
                                     : "") +
                                ")");
  }
  return value;
}

template <typename T, typename... Args>
class Registry {
 public:
  /// Factory receives the spec's parameter half ("" when absent) plus
  /// the registry's extra construction inputs.
  using Factory =
      std::function<std::unique_ptr<T>(const std::string& param, Args...)>;

  /// `kind` names the family in error messages ("healing strategy").
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  /// Register a factory under `name` (plus optional aliases). `display`
  /// is the spelling shown in names()/--help lists; defaults to `name`,
  /// parameterized entries should pass e.g. "capped:<M>". Registering a
  /// name twice throws std::logic_error (two subsystems fighting over a
  /// name is a programming error worth failing loudly on) and leaves
  /// the registry unchanged.
  void add(const std::string& name, Factory factory,
           std::vector<std::string> aliases = {},
           std::string display = "") {
    // Validate every spelling before mutating anything, so a rejected
    // registration cannot leave a half-registered entry behind.
    std::vector<std::string> keys;
    keys.push_back(split_spec(name).name);
    for (const auto& alias : aliases) keys.push_back(split_spec(alias).name);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const bool dup_in_call =
          std::find(keys.begin(), keys.begin() + i, keys[i]) !=
          keys.begin() + i;
      if (dup_in_call || entries_.count(keys[i]) != 0) {
        throw std::logic_error("duplicate " + kind_ + " registration: '" +
                               keys[i] + "'");
      }
    }
    for (const auto& key : keys) entries_.emplace(key, factory);
    displays_.push_back(display.empty() ? name : std::move(display));
    aliases_.insert(aliases_.end(), aliases.begin(), aliases.end());
  }

  bool contains(const std::string& spec) const {
    return entries_.count(split_spec(spec).name) != 0;
  }

  /// Construct from a spec string; throws std::invalid_argument for an
  /// unknown name (listing every registered spelling) or a malformed
  /// spec like "name:" whose parameter is empty.
  std::unique_ptr<T> create(const std::string& spec, Args... args) const {
    const SpecParts parts = split_spec(spec);
    const auto it = entries_.find(parts.name);
    if (it == entries_.end()) {
      throw std::invalid_argument("unknown " + kind_ + ": '" + spec +
                                  "' (registered: " + joined_names() + ")");
    }
    if (parts.has_param && parts.param.empty()) {
      throw std::invalid_argument("empty parameter in " + kind_ +
                                  " spec: '" + spec + "'");
    }
    return it->second(parts.param, std::forward<Args>(args)...);
  }

  /// Display spellings in registration order (for --help texts).
  std::vector<std::string> names() const { return displays_; }

 private:
  std::string joined_names() const {
    std::string out;
    for (const auto& d : displays_) {
      if (!out.empty()) out += ", ";
      out += d;
    }
    if (!aliases_.empty()) {
      out += "; aliases: ";
      for (std::size_t i = 0; i < aliases_.size(); ++i) {
        if (i > 0) out += ", ";
        out += aliases_[i];
      }
    }
    return out;
  }

  std::string kind_;
  std::map<std::string, Factory> entries_;
  std::vector<std::string> displays_;
  std::vector<std::string> aliases_;
};

}  // namespace dash::util
